#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks, with short runs of
every workload, that:
  - the same seed run twice gives the same digests and exact counts;
  - a different seed gives a different digest;
  - traced and untraced runs agree on every count and digest;
  - the timed phase runs on one thread (CPU time about the op time);
  - a wrong stored reference digest fails every op.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build step)

# Long enough for every op slot to run at least once.
SECONDS = {"graph_fanout": "2", "graph_resilient": "2",
           "paper_pipeline": "3"}


def bench(workload, seed, trace=0, reference=None):
    """Run the binary once; return its digest, counts and result."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS[workload], "--trace", str(trace),
           "--reference", str(reference or HERE / "reference.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("run digest: "):
            out["digest"] = line.split(": ", 1)[1]
        elif line.startswith("counts:"):
            out["counts"] = line
        elif line.startswith("threads in timed phase: "):
            # "threads in timed phase: 1 -> 1; cpu_s X vs op time Y s"
            words = line.replace(";", "").split()
            out["threads"] = (int(words[4]), int(words[6]))
            out["cpu_s"] = float(words[8])
            out["op_s"] = float(words[12])
    return out


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_repeats_digests_and_counts(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = bench(w, 7), bench(w, 7)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["counts"], b["counts"])
                self.assertEqual(
                    a["result"]["metrics"]["allocs_per_item"]["value"],
                    b["result"]["metrics"]["allocs_per_item"]["value"])
                self.assertTrue(a["result"]["correct"])
                self.assertEqual(a["result"]["failed"], 0)

    def test_different_seed_changes_digest(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(bench(w, 7)["digest"],
                                    bench(w, 8)["digest"])

    def test_traced_run_matches_untraced_counts(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                plain, traced = bench(w, 7), bench(w, 7, trace=1)
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertEqual(plain["counts"], traced["counts"])
                self.assertTrue(traced["result"]["correct"])
                self.assertIn("bench.trace_overhead_pct",
                              traced["result"]["metrics"])
                self.assertNotIn("op_ms_p50", traced["result"]["metrics"])

    def test_timed_phase_uses_one_thread(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                r = bench(w, 7)
                self.assertEqual(r["threads"], (1, 1))
                self.assertLessEqual(r["cpu_s"], 1.05 * r["op_s"] + 0.05)

    def test_wrong_reference_fails_every_op(self):
        bad = run.BUILD / "bad_reference.json"
        bad.write_text(json.dumps({w: "0" * 16 for w in run.WORKLOADS}))
        r = bench("graph_fanout", 7, reference=bad)["result"]
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])


if __name__ == "__main__":
    unittest.main()
