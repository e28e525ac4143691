"""Self-tests of the benchmark, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
from cbrdiag import NumericValue, decode_case_base  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# The metrics the readable report names for each workload, beyond those on
# the last line.
REPORTED = {
    "dense_warm": {
        "setup_cpu_s": "s", "request_rel_p90": "ref", "request_ms_p50": "ms", "request_ms_p90": "ms",
        "requests_per_s": "1/s", "diagnose_ms_p50": "ms", "diagnose_ms_p90": "ms", "queries_per_s": "1/s",
        "typical_ms_p50": "ms", "save_s": "s", "error_rate": "frac", "host.ref_kernel_ms": "ms",
    },
    "sparse_warm": {
        "setup_cpu_s": "s", "request_rel_p90": "ref", "request_ms_p50": "ms", "request_ms_p90": "ms",
        "requests_per_s": "1/s", "diagnose_ms_p50": "ms", "diagnose_ms_p90": "ms", "queries_per_s": "1/s",
        "error_rate": "frac", "host.ref_kernel_ms": "ms",
    },
    "cold_cli": {
        "setup_cpu_s": "s", "requests_per_s": "1/s", "cli_query_ms_p50": "ms", "cli_typical_ms_p50": "ms",
        "cli_explain_ms_p50": "ms", "cli_validate_ms_p50": "ms", "cli_query_wall_ms_p50": "ms",
        "cli_typical_wall_ms_p50": "ms", "cli_explain_wall_ms_p50": "ms", "cli_validate_wall_ms_p50": "ms",
        "error_rate": "frac", "host.ref_kernel_ms": "ms",
    },
}


def bench(*args: str, cwd: str = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def tiny(workload: str, trace: int, seed: int = 5, env=None) -> tuple[list[str], dict]:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", env=env)
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for shape in ("tiny", "dense"):
            first = gen.generate_document(shape, 7)
            self.assertEqual(first, gen.generate_document(shape, 7))
            self.assertNotEqual(first, gen.generate_document(shape, 8))

    def test_dense_shape(self):
        base = decode_case_base(gen.generate_document("dense", 7))
        shape = gen.SHAPES["dense"]
        self.assertEqual(len(base.taxonomy.nodes()), 1555)
        self.assertEqual(len(base.sources()), shape.sources)
        self.assertEqual(len(base.targets()), shape.bundled_targets)
        self.assertEqual(len(base.profiles), shape.descriptors // 2)
        present = [d for case in base.cases.values() for d in case.descriptors.values()]
        self.assertAlmostEqual(len(present) / (len(base.cases) * shape.descriptors), shape.presence, delta=0.02)
        self.assertAlmostEqual(sum(d.flags.uncertain for d in present) / len(present), 0.10, delta=0.02)
        for d in present:
            if isinstance(d.value, NumericValue):
                profile = base.profiles[d.id]
                self.assertTrue(profile.domain_lower <= d.value.magnitude <= profile.domain_upper)
                self.assertEqual(len(profile.subsets), 3)

    def test_target_stream_continues_the_bundled_targets(self):
        base = decode_case_base(gen.generate_document("tiny", 7))
        stream = gen.iter_targets("tiny", 7, gen.build_schema("tiny", 7))
        for bundled in base.targets():
            self.assertEqual(next(stream), bundled)


class ReferenceKernelTest(unittest.TestCase):
    def test_kernel_never_starts_a_collection(self):
        import gc

        import measure

        before = gc.get_count()[0]
        measure.reference_kernel()
        self.assertEqual(gc.get_count()[0], before)

    def test_relative_uses_the_timings_on_both_sides(self):
        import measure

        self.assertEqual(measure.relative([30, 80], [10, 20, 20]), [2.0, 4.0])


class WorkloadTest(unittest.TestCase):
    def test_each_workload_is_correct_and_reports_every_metric(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, names in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = tiny(workload, trace)
                    self.assertIs(result["correct"], True, lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
                    report = dict(names, **(REPORTED[workload] if trace == 0 else {}))
                    for name, unit in report.items():
                        pattern = rf"^  {re.escape(name)} +\S+ {re.escape(unit)} +n=\d+$"
                        self.assertTrue(any(re.match(pattern, line) for line in lines), (name, lines))

    def test_exact_counts_repeat(self):
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            lines, _ = tiny("dense_warm", 1, env=env)
            runs.append([line for line in lines if line.startswith("exact counts: ")])
        self.assertEqual(len(runs[0]), 1)
        self.assertEqual(runs[0], runs[1])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            done = bench("--workload", "dense_warm", "--seed", "1", "--seconds", "1", cwd=bare, env=env)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
