#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Run from the root of a checkout (builds like run.py, ~1 minute):

    python3 perfbench/test_determinism.py

The same seed must give bit-identical simulated metrics and work counts;
a different seed must change the tape-driven counts of full_runs and
crash_recover, and must not change full_runs' fig16 points, whose inputs
take no seed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

BINARY = None


def deterministic(workload, seed):
    """One shortest run (a single round): its deterministic metrics and
    the simulated cycles of each point by name."""
    out_dir = os.path.join(run.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        report = os.path.join(tmp, "report.json")
        res = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0", "--report", report],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
            timeout=run.RUN_TIMEOUT_S)
        assert res.returncode == 0, f"{workload} seed {seed} failed"
        result = json.loads(res.stdout.splitlines()[-1])
        assert result["correct"], f"{workload} seed {seed}: checks failed"
        with open(report) as f:
            rep = json.load(f)
    det = {k: v["value"] for k, v in rep["deterministic"].items()}
    return det, {p["point"]: p["cycles"] for p in rep["first_round"]}


class Determinism(unittest.TestCase):
    def check_same_seed(self, workload):
        first = deterministic(workload, 1)
        self.assertEqual(first, deterministic(workload, 1))
        return first

    def test_full_runs_tape_follows_seed(self):
        first, first_points = self.check_same_seed("full_runs")
        other, other_points = deterministic("full_runs", 2)
        for count in ("sim.cycles", "noc.messages", "noc.bcast_retries"):
            self.assertNotEqual(first[count], other[count], count)
        # The fig16 points' generator takes no seed.
        for point in ("rb/64t/baseline", "rb/64t/lightwsp",
                      "intruder/32t/baseline", "intruder/32t/lightwsp"):
            self.assertEqual(first_points[point], other_points[point], point)

    def test_crash_recover_tape_follows_seed(self):
        first, _ = self.check_same_seed("crash_recover")
        other, _ = deterministic("crash_recover", 2)
        for count in ("sim.cycles", "cpu.insts_retired", "trace.events"):
            self.assertNotEqual(first[count], other[count], count)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
