#!/usr/bin/env python3
"""Record a substrate benchmark trajectory point into BENCH_substrate.json.

Runs bench/micro_substrate with --benchmark_format=json (or distills an
already-captured JSON file via --from-json), reduces each benchmark to
ns/op plus the throughput counter it reports (GFLOP/s for the GEMM
families, items/s for layers, bytes/s for the codec), and merges the
result under a label into the committed BENCH_substrate.json.

This file is a trajectory, not a gate: CI runs a quick subset and uploads
the raw JSON as an artifact, but nothing fails on a slow machine. Refresh
the committed numbers from an idle machine with:

    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
    python3 scripts/bench_substrate.py --bin build/bench/micro_substrate \
        --label my-change --min-time 1.0

See docs/PERFORMANCE.md for what each benchmark family measures.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_substrate.json"

# Benchmarks whose items_per_second counter is FLOPs/s (SetItemsProcessed
# of 2*m*n*k); everything else reports domain items (samples, bytes).
GEMM_PREFIXES = ("BM_Gemm",)


def run_bench(binary: str, bench_filter: str, min_time: float,
              repetitions: int) -> dict:
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={repetitions}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed ({proc.returncode})")
    return json.loads(proc.stdout)


def distill(raw: dict) -> dict:
    """Reduce google-benchmark JSON to {name: {ns_per_op, ...throughput}}.

    With repetitions, keeps the fastest repetition per benchmark: on a
    shared machine the minimum is the closest estimate of unperturbed
    speed, and the trajectory should track the code, not the neighbors.
    """
    out = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        # Layer benches time wall clock; drop UseRealTime's name suffix so
        # their entries keep the names earlier captures recorded.
        name = b["name"].split("/repeats:")[0].replace("/real_time", "")
        prev = out.get(name)
        if prev is not None and prev["ns_per_op"] <= float(b["real_time"]):
            continue
        entry = {"ns_per_op": round(float(b["real_time"]), 1)}
        ips = b.get("items_per_second")
        if ips is not None:
            if name.startswith(GEMM_PREFIXES):
                entry["gflops"] = round(float(ips) / 1e9, 2)
            else:
                entry["items_per_second"] = round(float(ips), 1)
        bps = b.get("bytes_per_second")
        if bps is not None:
            entry["mb_per_second"] = round(float(bps) / 1e6, 1)
        out[name] = entry
    return out


def context_summary(raw: dict) -> dict:
    ctx = raw.get("context", {})
    return {
        "date": ctx.get("date", ""),
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "build_type": build_type(raw),
    }


def build_type(raw: dict) -> str:
    """The build type of OUR code, not of libbenchmark.

    micro_substrate stamps `splitmed_build_type` into the benchmark context
    from its own NDEBUG state; `library_build_type` (the only key old
    captures had) describes how the benchmark LIBRARY was compiled, which on
    distro packages is always release. Prefer ours, fall back to the
    library's for pre-existing JSON.
    """
    ctx = raw.get("context", {})
    return ctx.get("splitmed_build_type", ctx.get("library_build_type", ""))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", default=str(REPO_ROOT / "build/bench/micro_substrate"),
                    help="micro_substrate binary to run")
    ap.add_argument("--from-json", default=None,
                    help="distill this pre-captured benchmark JSON instead of "
                         "running the binary")
    ap.add_argument("--label", required=True,
                    help="trajectory label to file results under "
                         "(e.g. 'seed', 'packed-kernels')")
    ap.add_argument("--filter", default="",
                    help="--benchmark_filter regex (default: all)")
    ap.add_argument("--min-time", type=float, default=0.5,
                    help="--benchmark_min_time per benchmark (seconds)")
    ap.add_argument("--repetitions", type=int, default=3,
                    help="repetitions per benchmark; the fastest is recorded")
    ap.add_argument("--out", default=str(DEFAULT_OUT),
                    help="trajectory file to merge into")
    ap.add_argument("--raw-out", default=None,
                    help="also write the raw benchmark JSON here (CI artifact)")
    ap.add_argument("--allow-debug", action="store_true",
                    help="record a non-release capture anyway; the entry is "
                         "tagged with a loud 'warning' field")
    args = ap.parse_args()

    if args.from_json:
        raw = json.loads(Path(args.from_json).read_text())
    else:
        raw = run_bench(args.bin, args.filter, args.min_time, args.repetitions)

    # Debug numbers are not a trajectory point — they move with assertion
    # density, not with the code's speed. Refuse them unless explicitly
    # overridden, and even then tag the entry so nobody reads it as real.
    capture_build = build_type(raw)
    if capture_build != "release" and not args.allow_debug:
        raise SystemExit(
            f"refusing to record a '{capture_build or 'unknown'}' build "
            "capture: rebuild with -DCMAKE_BUILD_TYPE=Release, or pass "
            "--allow-debug to record it tagged")

    if args.raw_out:
        Path(args.raw_out).write_text(json.dumps(raw, indent=1) + "\n")

    out_path = Path(args.out)
    if out_path.exists():
        trajectory = json.loads(out_path.read_text())
    else:
        trajectory = {
            "_comment": "Substrate perf trajectory; refresh via "
                        "scripts/bench_substrate.py (docs/PERFORMANCE.md). "
                        "gflops entries use items_per_second = 2*m*n*k FLOPs.",
            "entries": {},
        }

    entry = {
        "context": context_summary(raw),
        "benchmarks": distill(raw),
    }
    if capture_build != "release":
        entry["warning"] = (f"NON-RELEASE CAPTURE ({capture_build or 'unknown'}"
                            ") recorded with --allow-debug; numbers are not "
                            "comparable to release entries")
    trajectory.setdefault("entries", {})[args.label] = entry
    out_path.write_text(json.dumps(trajectory, indent=1, sort_keys=False) + "\n")

    benches = trajectory["entries"][args.label]["benchmarks"]
    print(f"recorded {len(benches)} benchmarks under '{args.label}' "
          f"-> {out_path}")
    for name, e in benches.items():
        extra = ""
        if "gflops" in e:
            extra = f"  {e['gflops']:.2f} GFLOP/s"
        elif "items_per_second" in e:
            extra = f"  {e['items_per_second']:.0f} items/s"
        elif "mb_per_second" in e:
            extra = f"  {e['mb_per_second']:.1f} MB/s"
        print(f"  {name:36s} {e['ns_per_op']:>14.1f} ns/op{extra}")


if __name__ == "__main__":
    main()
