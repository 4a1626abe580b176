#!/usr/bin/env python3
"""The benchmark's own test. From the repository root:

    python3 -m unittest splitbench/test_splitbench.py

Runs every workload's output checks on a seed other than the one the
benchmark was tuned on, the traced run's bit-for-bit check, the failure
accounting on a crashing and a hanging stand-in binary, and the CLI's usage
errors. Takes about two minutes on 4 cores (the first call builds).
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECOND_SEED = 7


def bench(*args):
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py")]
    return subprocess.run(cmd + list(args), capture_output=True, text=True,
                          cwd=run.ROOT, check=False)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OutputChecks(unittest.TestCase):
    """Each run compares fingerprints across its repetitions, infer()
    against eval-mode forward(), and paper-train-mt against paper-train."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def check_workload(self, workload, trace="0", seconds="1"):
        proc = bench("--workload", workload, "--seed", str(SECOND_SEED),
                     "--seconds", seconds, "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertTrue(res["correct"], proc.stdout[-2000:])
        self.assertGreaterEqual(res["attempted"], 1)
        return res

    def test_paper_train(self):
        res = self.check_workload("paper-train")
        self.assertEqual(set(res["metrics"]), set(run.END_TO_END_UNITS))
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_paper_train_mt_matches_paper_train(self):
        # Several repetitions: the pool race kills about one in five.
        self.check_workload("paper-train-mt", seconds="6")

    def test_composite_infer(self):
        self.check_workload("composite-infer")

    def test_many_hospitals(self):
        self.check_workload("many-hospitals")

    def test_traced_run_reproduces_untraced(self):
        res = self.check_workload("paper-train", trace="1")
        self.assertEqual(set(res["metrics"]), set(run.per_layer_units()))
        m = res["metrics"]
        steps = m["core.platform.send_activation.calls"]["value"]
        self.assertEqual(m["nn.l1.forward.calls"]["value"], steps)
        self.assertEqual(m["net.receive.calls"]["value"], 4 * steps)
        self.assertEqual(m["net.messages"]["value"], 4 * steps)
        for name in ("trace_paper-train.json", "layers_paper-train.txt"):
            self.assertTrue(os.path.exists(os.path.join(run.OUT_DIR, name)))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in run.WORKLOADS if w != "paper-train-mt"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())


class FailureAccounting(unittest.TestCase):
    """A repetition that crashes or hangs loses its announced operations."""

    def setUp(self):
        self.dir = os.path.join(run.OUT_DIR, "test_stand_in")
        os.makedirs(self.dir, exist_ok=True)
        self.saved = (run.BINARY, run.REPETITION_TIMEOUT_S)

    def tearDown(self):
        run.BINARY, run.REPETITION_TIMEOUT_S = self.saved
        shutil.rmtree(self.dir)

    def stand_in(self, body):
        path = os.path.join(self.dir, "splitbench")
        with open(path, "w") as f:
            f.write("#!/bin/sh\necho 'plan steps=12 requests=5'\n" + body)
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        run.BINARY = path

    def test_segfault(self):
        self.stand_in("kill -SEGV $$\n")
        planned, res, why = run.run_repetition("paper-train", 1, "timed")
        self.assertEqual((planned, res), (17, None))
        self.assertIn("exit code -11", why)

    def test_hang(self):
        self.stand_in("exec sleep 30\n")
        run.REPETITION_TIMEOUT_S = 0.5
        planned, res, why = run.run_repetition("paper-train", 1, "timed")
        self.assertEqual((planned, res), (17, None))
        self.assertIn("timed out", why)

    def test_failed_output_check(self):
        fake = {"build_type": "Release", "infer_mismatches": 2,
                "loss_matches_platforms": True, "fingerprint": "a"}
        self.assertEqual(len(run.output_problems(fake, "a")), 1)
        fake["infer_mismatches"] = 0
        self.assertEqual(len(run.output_problems(fake, "b")), 1)
        fake["build_type"] = "Debug"
        self.assertEqual(len(run.output_problems(fake, "a")), 1)
        fake["build_type"] = "Release"
        fake["loss_matches_platforms"] = False
        self.assertEqual(len(run.output_problems(fake, "a")), 1)


class Cli(unittest.TestCase):
    def test_help_and_unknown_flags_exit_2(self):
        for args in (["--help"], ["--workload", "paper-train", "--bogus", "1"],
                     ["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"]):
            proc = bench(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertIn("usage", proc.stderr)
            self.assertEqual(proc.stdout, "")

    def test_binary_help_and_unknown_flags_exit_2(self):
        run.build()
        for args in (["--help"], ["--bogus", "1"], ["--workload", "nope"]):
            proc = subprocess.run([run.BINARY] + args, capture_output=True,
                                  text=True, check=False)
            self.assertEqual(proc.returncode, 2, args)
            self.assertIn("usage", proc.stderr)

    def test_without_sources_fails_without_a_result(self):
        bare = os.path.join(run.OUT_DIR, "test_bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "splitbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "splitbench/run.py", "--workload", "paper-train",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, check=False)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
