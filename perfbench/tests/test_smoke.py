"""Plumbing test: every workload at a tiny size, untraced and traced,
with every check on (builds the benchmark first if needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
sys.path.insert(0, os.path.dirname(HERE))

import stats  # noqa: E402


class SmokeTest(unittest.TestCase):
    def test_smoke_passes_every_check(self):
        p = subprocess.run([sys.executable, RUN, "--smoke", "--seed", "3"],
                           capture_output=True, text=True, timeout=1200)
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(n for n, *_ in stats.PER_LAYER))
        for w in stats.WORKLOADS:
            self.assertIn("end-to-end (%s):" % w, p.stdout)
        self.assertIn("identical across 2 sweeps", p.stdout)
        self.assertIn("re-run through standaloneRun", p.stdout)

    def test_bad_arguments_are_refused(self):
        p = subprocess.run([sys.executable, RUN, "--workload", "nope"],
                           capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
