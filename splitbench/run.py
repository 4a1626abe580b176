#!/usr/bin/env python3
"""splitbench: the splitmed benchmark.

Run from the repository root:

    python3 splitbench/run.py --workload paper-train --seed 1 --seconds 15 --trace 0

Builds splitbench/ (Release) into .bench_build/, then starts the splitbench
binary once per repetition, each in its own process under a wall-clock
timeout, until --seconds have passed. A repetition that crashes, hangs,
exits non-zero or fails an output check counts all of its operations as
failed; the run goes on. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run (see
README.md).
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "splitbench")

# paper-train-mt is left out of BENCHMARK.json while the thread pool's
# stale-job race (ROADMAP item 1) segfaults it; it runs by hand and in the
# benchmark's own test.
WORKLOADS = ("paper-train", "paper-train-mt", "composite-infer",
             "many-hospitals")
# paper-train-mt must reproduce paper-train's fingerprint exactly: thread
# count never changes bytes, curves or predictions.
REFERENCE = {"paper-train-mt": "paper-train"}
REPETITION_TIMEOUT_S = 60.0
MIN_REPETITIONS = 2
# Stop starting repetitions past this point, so a run always ends well
# inside 180 s even when a repetition hangs until its timeout.
LAST_START_S = 100.0

USAGE = """usage: python3 splitbench/run.py --workload NAME --seed N --seconds S --trace 0|1

  --workload  one of: {}
  --seed      input seed (integer); the same seed gives the same inputs
  --seconds   how long to keep starting repetitions (integer, >= 1)
  --trace     0: end-to-end metrics; 1: per-layer metrics of a traced run
""".format(", ".join(WORKLOADS))

# Per-layer metrics: each function-level entry reports .calls, .busy_s and
# .p50_us; the rest are single values.
FUNCTIONS = (
    "core.trainer.run",
    "core.platform.send_activation",
    "core.platform.handle_logits",
    "core.platform.handle_cut_grad",
    "core.server.handle_activation",
    "core.server.handle_logit_grad",
    "net.receive",
    "serial.encode_tensor_tagged",
    "serial.decode_tensor_tagged",
    "nn.l1.forward",
    "nn.l1.backward",
    "nn.body.forward",
    "nn.body.backward",
    "nn.l1.infer",
    "nn.body.infer",
    "metrics.evaluate_composite",
)
SINGLE_METRICS = (
    ("core.trainer.self_s", "s"),
    ("core.server_share", "fraction"),
    ("tensor.gemm.calls", "count"),
    ("tensor.gemm.busy_s", "s"),
    ("tensor.workspace.peak_bytes", "bytes"),
    ("common.pool.threads", "count"),
    ("serial.encode_tensor_tagged.bytes", "bytes"),
    ("serial.decode_tensor_tagged.bytes", "bytes"),
    ("net.bytes", "bytes"),
    ("net.messages", "count"),
    ("net.uplink_bytes", "bytes"),
    ("net.downlink_bytes", "bytes"),
    ("net.sim_s", "sim_s"),
    ("trace.overhead_share", "fraction"),
)
# The ObsSession span (trace detail 2) that encloses each nn entry point.
NN_PARENTS = {
    "platform.l1_forward": "nn.l1.forward",
    "platform.l1_backward": "nn.l1.backward",
    "server.forward": "nn.body.forward",
    "server.backward": "nn.body.backward",
}
CORE_CALLS = (
    "core.platform.send_activation",
    "core.platform.handle_logits",
    "core.platform.handle_cut_grad",
    "core.server.handle_activation",
    "core.server.handle_logit_grad",
)
SERVER_CALLS = ("core.server.handle_activation",
                "core.server.handle_logit_grad")


def per_layer_units():
    units = {}
    for f in FUNCTIONS:
        units[f + ".calls"] = "count"
        units[f + ".busy_s"] = "s"
        units[f + ".p50_us"] = "us"
    units.update(dict(SINGLE_METRICS))
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "infer_examples_per_s": "scans/s",
    "infer_ms_p50": "ms",
    "infer_ms_p90": "ms",
    "wire_bytes_per_example": "bytes",
    "sim_round_s": "sim_s",
    "test_accuracy": "fraction",
    "peak_rss_mb": "MB",
    "ops_completed_share": "fraction",
}


class UsageError(Exception):
    pass


def parse_args(argv):
    known = {"--workload": None, "--seed": None, "--seconds": None,
             "--trace": None}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in known or i + 1 >= len(argv):
            raise UsageError("unknown or incomplete flag: " + flag)
        known[flag] = argv[i + 1]
        i += 2
    if None in known.values():
        missing = [k for k, v in known.items() if v is None]
        raise UsageError("missing " + ", ".join(missing))
    if known["--workload"] not in WORKLOADS:
        raise UsageError("unknown workload " + known["--workload"])
    try:
        seed = int(known["--seed"])
        seconds = int(known["--seconds"])
        trace = int(known["--trace"])
    except ValueError as e:
        raise UsageError(str(e)) from e
    if seed < 0 or seconds < 1 or trace not in (0, 1):
        raise UsageError("--seed must be >= 0, --seconds >= 1, --trace 0|1")
    return known["--workload"], seed, seconds, trace


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Exits non-zero (with no
    result line) when the sources are missing or do not compile."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("splitbench: no splitmed sources next to " + BENCH_DIR)
        sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            sys.exit(1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "splitbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      check=False).returncode != 0:
        sys.exit(1)


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_repetition(workload, seed, mode):
    """One child process. Returns (planned_ops, result dict or None, why)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--mode",
           mode, "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REPETITION_TIMEOUT_S, check=False)
        stdout, code = proc.stdout, proc.returncode
        why = "exit code {}".format(code) if code != 0 else ""
        if code != 0:
            log(proc.stderr.strip()[-2000:])
    except subprocess.TimeoutExpired as e:
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (
            e.stdout or "")
        code, why = None, "timed out after {:.0f} s".format(
            REPETITION_TIMEOUT_S)
    planned = 0
    result = None
    for line in stdout.splitlines():
        if line.startswith("plan "):
            fields = dict(kv.split("=") for kv in line.split()[1:])
            planned = int(fields["steps"]) + int(fields["requests"])
        elif line.startswith("{") and code == 0:
            result = json.loads(line)
    if code == 0 and result is None:
        why = "no result line"
    return planned, result, why


def output_problems(result, reference_fp):
    problems = []
    if result["build_type"] != "Release":
        problems.append("build type " + result["build_type"])
    if result["infer_mismatches"] != 0:
        problems.append("{} requests where infer() and eval forward() "
                        "predict differently".format(
                            result["infer_mismatches"]))
    if not result["loss_matches_platforms"]:
        problems.append("the curve's final loss is not the platforms' mean "
                        "last loss")
    if reference_fp is not None and result["fingerprint"] != reference_fp:
        problems.append("fingerprint {} differs from {}".format(
            result["fingerprint"], reference_fp))
    traced = result.get("traced")
    if traced is not None and not traced["matches_untraced"]:
        problems.append("traced run fingerprint {} differs from untraced {}"
                        .format(traced["fingerprint"], result["fingerprint"]))
    return problems


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(results, attempted, failed):
    latencies = [ms for r in results for ms in r["latency_ms"]]
    first = results[0]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "train_examples_per_s": statistics.median(
            r["examples"] / r["run_s"] for r in results),
        "infer_examples_per_s": statistics.median(
            r["scans"] / r["serve_s"] for r in results),
        "infer_ms_p50": percentile(latencies, 0.5),
        "infer_ms_p90": percentile(latencies, 0.9),
        "wire_bytes_per_example": first["bytes"] / first["examples"],
        "sim_round_s": first["sim_s"] / first["rounds"],
        "test_accuracy": first["accuracy"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ops_completed_share": (attempted - failed) / attempted,
    }
    n = len(latencies)
    print("samples: {} repetitions (setup, throughput and RSS are their "
          "medians), {} requests (p90 has {} beyond it{})".format(
              len(results), n, n - math.ceil(0.9 * n),
              "; p99 {:.4f} ms".format(percentile(latencies, 0.99))
              if n >= 1000 else ""))
    return values


# ---------------------------------------------------------------------------
# Traced run: per-layer table from the benchmark's own spans plus the
# program's ObsSession spans for the nn layers inside the node handlers.

def events(path):
    """Streams a Chrome trace written one event per line."""
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if line.startswith("{") and not line.startswith('{"traceEvents"'):
                yield json.loads(line)


def covered(intervals):
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def nn_layer_calls(path):
    """Per enclosing ObsSession span (one call of a node's nn forward or
    backward), the time its nn.* spans cover, in us. The program writes a
    span when it ends, so a node span follows the nn spans inside it. Node
    spans nest (with queued activations, server.backward runs the next
    server.forward), so the inner one takes its nn spans first."""
    calls = {name: [] for name in NN_PARENTS.values()}
    pending = []
    for e in events(path):
        if e.get("ph") != "X" or e.get("pid") != 1:
            continue
        if e["name"].startswith("nn."):
            pending.append((e["ts"], e["ts"] + e["dur"]))
        elif e["name"] in NN_PARENTS:
            inside = [iv for iv in pending if iv[0] >= e["ts"]]
            calls[NN_PARENTS[e["name"]]].append(covered(inside))
            pending = [iv for iv in pending if iv[0] < e["ts"]]
    return calls


def per_layer(result, workload):
    # Own spans: self time = duration minus the children's durations. A
    # child is written after its parent opened, so parents are known first.
    durations = {f: [] for f in FUNCTIONS}
    self_us = {f: 0.0 for f in FUNCTIONS}
    coded_bytes = {"serial.encode_tensor_tagged": 0,
                   "serial.decode_tensor_tagged": 0}
    names, dur, child = [], [], []
    serve_us = 0.0
    for e in events(os.path.join(OUT_DIR, "trace_{}.json".format(workload))):
        names.append(e["name"])
        dur.append(e["dur"])
        child.append(0.0)
        parent = e["args"]["parent"]
        if parent >= 0:
            child[parent] += e["dur"]
        if e["name"] in coded_bytes:
            coded_bytes[e["name"]] += e["args"]["bytes"]
        if e["name"] == "serve":
            serve_us += e["dur"]
    trainer_self = 0.0
    for name, d, c in zip(names, dur, child):
        if name in durations:
            durations[name].append(d)
            self_us[name] += d - c
        if name in ("core.trainer.run", "core.round"):
            trainer_self += d - c
    nn_calls = nn_layer_calls(
        os.path.join(OUT_DIR, "obs_trace_{}.json".format(workload)))
    for name, samples in nn_calls.items():
        durations[name] = samples
        self_us[name] = sum(samples)

    traced = result["traced"]
    metrics = {}
    for f in FUNCTIONS:
        d = durations[f]
        metrics[f + ".calls"] = len(d)
        metrics[f + ".busy_s"] = sum(d) / 1e6
        metrics[f + ".p50_us"] = statistics.median(d) if d else 0.0
    server_busy = sum(metrics[c + ".busy_s"] for c in SERVER_CALLS)
    core_busy = sum(metrics[c + ".busy_s"] for c in CORE_CALLS)
    untraced = result["run_s"] + result["serve_s"]
    metrics.update({
        "core.trainer.self_s": trainer_self / 1e6,
        "core.server_share": server_busy / core_busy,
        "tensor.gemm.calls": traced["gemm_calls"],
        "tensor.gemm.busy_s": traced["gemm_seconds"],
        "tensor.workspace.peak_bytes": traced["workspace_peak_bytes"],
        "common.pool.threads": result["threads"],
        "serial.encode_tensor_tagged.bytes":
            coded_bytes["serial.encode_tensor_tagged"],
        "serial.decode_tensor_tagged.bytes":
            coded_bytes["serial.decode_tensor_tagged"],
        "net.bytes": result["bytes"],
        "net.messages": result["messages"],
        "net.uplink_bytes": result["uplink_bytes"],
        "net.downlink_bytes": result["downlink_bytes"],
        "net.sim_s": traced["sim_s"],
        "trace.overhead_share":
            (traced["run_s"] + traced["serve_s"] - untraced) / untraced,
    })

    # The table: calls, busy, self, share of the phase the call belongs to.
    train_us = metrics["core.trainer.run.busy_s"] * 1e6
    lines = ["{:<34} {:>8} {:>11} {:>11} {:>10} {:>7}".format(
        "layer", "calls", "busy s", "self s", "p50 us", "share")]
    for f in FUNCTIONS:
        phase_us = serve_us if f in ("nn.l1.infer", "nn.body.infer") \
            else train_us
        lines.append("{:<34} {:>8} {:>11.4f} {:>11.4f} {:>10.1f} {:>6.1f}%"
                     .format(f, metrics[f + ".calls"],
                             metrics[f + ".busy_s"], self_us[f] / 1e6,
                             metrics[f + ".p50_us"],
                             100.0 * metrics[f + ".busy_s"] * 1e6 / phase_us))
    lines.append("(share: of the traced training loop, or of serving for "
                 "the infer rows. nn.* forward/backward rows and tensor.gemm "
                 "come from the program's trace-detail-2 session, which "
                 "covers the last {} of {} rounds plus serving)".format(
                     traced["obs_rounds"], result["rounds"]))
    lines.append(
        "tracing overhead: traced {:.4f} s vs untraced {:.4f} s "
        "(train {:.4f} vs {:.4f}, serve {:.4f} vs {:.4f}): {:+.1f}%".format(
            traced["run_s"] + traced["serve_s"], untraced, traced["run_s"],
            result["run_s"], traced["serve_s"], result["serve_s"],
            100.0 * metrics["trace.overhead_share"]))
    table = "\n".join(lines)
    with open(os.path.join(OUT_DIR, "layers_{}.txt".format(workload)),
              "w") as f:
        f.write(table + "\n")
    print(table)
    return metrics


def main(argv):
    if any(a in ("-h", "--help") for a in argv):
        print(USAGE, file=sys.stderr)
        return 2
    try:
        workload, seed, seconds, trace = parse_args(argv)
    except UsageError as e:
        print("splitbench: {}\n{}".format(e, USAGE), file=sys.stderr)
        return 2

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    mode = "traced" if trace else "timed"

    reference_fp = None
    if workload in REFERENCE:
        _, ref, why = run_repetition(REFERENCE[workload], seed, "timed")
        if ref is None:
            log("splitbench: reference run of {} failed: {}".format(
                REFERENCE[workload], why))
            return 1
        reference_fp = ref["fingerprint"]

    start = time.monotonic()
    results, attempted, failed, repetitions = [], 0, 0, 0
    correct = True
    while repetitions < MIN_REPETITIONS or \
            time.monotonic() - start < seconds:
        if time.monotonic() - start > LAST_START_S:
            break
        planned, result, why = run_repetition(workload, seed, mode)
        repetitions += 1
        if result is not None:
            problems = output_problems(result, reference_fp)
            if problems:
                correct = False
                why = "; ".join(problems)
            else:
                reference_fp = reference_fp or result["fingerprint"]
                results.append(result)
        attempted += planned
        if why:
            failed += planned
            print("repetition {}: FAILED ({}), {} operations counted failed"
                  .format(repetitions, why, planned))
    if not results or attempted == 0:
        log("splitbench: no repetition of {} succeeded".format(workload))
        return 1

    first = results[0]
    print("provenance: build_type={} isa={} threads={} nproc={} rev={}"
          .format(first["build_type"], first["isa"], first["threads"],
                  first["nproc"], git_rev()))
    if trace:
        metrics = per_layer(results[-1], workload)
        units = per_layer_units()
    else:
        metrics = end_to_end(results, attempted, failed)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print("{:<40} {:>16.6g} {}".format(name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
