#!/usr/bin/env python3
"""The benchmark's own tests: determinism, seed sensitivity, and checks that
actually fail.

    python3 perfbench/test_bench.py            # all workloads, ~2 minutes
    python3 perfbench/test_bench.py -k collab  # one workload

Every workload runs at small scale (--small) for a few seconds:
  * twice on one seed, traced: the exact counts (chunk.put_calls_per_commit,
    stored_bytes_per_user_byte, the warm-up sync chunk count) and the input
    digest must repeat exactly;
  * on another seed: the generated inputs must differ;
  * with one read deliberately corrupted, and with a store layer that flips a
    byte of every chunk it returns: the run must fail (exit 1, correct=false).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step is shared with run.py)

FBBENCH, CLI = run.build()
SECONDS = 3

EXACT = {
    "collab_table": ["chunk.put_calls_per_commit", "chunk.put_mb_per_commit",
                     "stored_bytes_per_user_byte",
                     "chunk.segment_bytes_per_user_byte",
                     "sync.warmup_pull_chunks"],
    "archive_versions": ["chunk.put_calls_per_commit",
                         "chunk.put_mb_per_commit",
                         "stored_bytes_per_user_byte",
                         "chunk.segment_bytes_per_user_byte"],
    "serve_mixed": ["chunk.put_calls_per_commit", "chunk.put_mb_per_commit",
                    "stored_bytes_per_user_byte", "sync.warmup_pull_chunks"],
}


def fbbench(workload, seed, trace=False, inject=None):
    """Runs fbbench at small scale; returns (exit code, parsed result)."""
    parent = os.path.join(run.ROOT, ".bench_data")
    os.makedirs(parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="test-", dir=parent)
    try:
        cmd = [FBBENCH, "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "1" if trace else "0",
               "--dir", scratch, "--cli", CLI, "--small"]
        if inject:
            cmd += ["--inject", inject]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=120)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class WorkloadTest:
    workload = None

    def test_exact_counts_repeat_and_seed_changes_inputs(self):
        code_a, a = fbbench(self.workload, 5, trace=True)
        code_b, b = fbbench(self.workload, 5, trace=True)
        code_c, c = fbbench(self.workload, 6)
        for code, result in ((code_a, a), (code_b, b), (code_c, c)):
            self.assertEqual(code, 0, result["errors"])
            self.assertTrue(result["correct"])
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(result["failed"], 0)
        for name in EXACT[self.workload]:
            self.assertGreater(a["metrics"][name]["value"], 0, name)
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)
        self.assertEqual(a["facts"]["input_digest"],
                         b["facts"]["input_digest"])
        self.assertNotEqual(a["facts"]["input_digest"],
                            c["facts"]["input_digest"])

    def test_wrong_read_fails_the_run(self):
        code, result = fbbench(self.workload, 5, inject="wrong-read")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_tampered_chunk_fails_the_run(self):
        code, result = fbbench(self.workload, 5, inject="tamper")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class CollabTableTest(WorkloadTest, unittest.TestCase):
    workload = "collab_table"


class ArchiveVersionsTest(WorkloadTest, unittest.TestCase):
    workload = "archive_versions"


class ServeMixedTest(WorkloadTest, unittest.TestCase):
    workload = "serve_mixed"


if __name__ == "__main__":
    unittest.main()
