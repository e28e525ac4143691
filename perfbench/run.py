"""Seeded end-to-end and per-layer benchmark of cbrdiag.

    python3 perfbench/run.py --workload dense_warm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the brute-force reference from ``tests/naive_reference.py``.
Workloads:

- ``dense_warm``: a resident base of 1,000 sources over 40 descriptors
  answers a stream of targets, each with ``diagnose`` + ``encode_outcome``
  and then a typical-mode ``retrieve``.
- ``sparse_warm``: a resident base of 20,000 sources over 400 descriptors,
  each present with p = 0.015, answers ``diagnose`` + ``encode_outcome``.
- ``cold_cli``: the dense document on disk; every request is a fresh
  ``python -m cbrdiag.cli`` process, cycling through ``query --adapt``,
  ``query --mode typical --format table``, ``explain`` and ``validate``.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
traced; with ``--trace 1`` it measures the per-layer metrics (see
``tracing.py``). Either way it checks a seeded sample of answers against the
reference and counts every mismatch as a failed request. Earlier stdout lines
are a readable report; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, replace
from typing import Optional

from measure import Metric, Workload, now_ns, ref_loop_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(ROOT, "tests", "naive_reference.py")
WORK = os.path.join(HERE, "_work")
GENERATE_TIMEOUT_S = 150

WORKLOADS = {
    "dense_warm": Workload("dense", cold=False, typical=True, setup_repeats=3, save_repeats=2, oracle_sample=6),
    "sparse_warm": Workload("sparse", cold=False, typical=False, setup_repeats=3, save_repeats=1, oracle_sample=6),
    "cold_cli": Workload("dense", cold=True, typical=True, setup_repeats=3, save_repeats=2, oracle_sample=2),
}


def load_program():
    """Import the package from this checkout's ``src/`` and the reference
    from its ``tests/``; exit non-zero, printing no result, without them."""
    if not os.path.isfile(os.path.join(SRC, "cbrdiag", "__init__.py")) or not os.path.isfile(ORACLE):
        sys.exit(f"error: no cbrdiag source tree under {ROOT} (need src/cbrdiag and tests/naive_reference.py)")
    sys.path.insert(0, SRC)
    import cbrdiag

    if not os.path.abspath(cbrdiag.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported cbrdiag from {cbrdiag.__file__}, not from {SRC}")
    spec = importlib.util.spec_from_file_location("naive_reference", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def generate(shape: str, seed: int, path: str, env: dict[str, str]) -> None:
    """Write the document from a child process, so that generating it never
    counts toward this process's peak RSS."""
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--shape", shape, "--seed", str(seed), "--out", path],
        env=env,
        check=True,
        timeout=GENERATE_TIMEOUT_S,
    )


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process, and the children it starts, on one CPU, so that the
    reference kernel runs on the processor that runs the work it is compared
    with. Returns the CPU, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def print_table(metrics: dict) -> None:
    for key in sorted(metrics):
        m = metrics[key]
        print(f"  {key:<44} {m.value:>14.6g} {m.unit:<6} n={m.samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cbrdiag benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny swaps in a small case base, for the self-tests")
    args = parser.parse_args(argv)
    oracle = load_program()
    # These import the package, so they wait until load_program found it.
    import cold
    import gen
    import tracing
    import warm

    wl = WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = replace(wl, shape="tiny", setup_repeats=2, save_repeats=1)
    run = tracing.run if args.trace else cold.run if wl.cold else warm.run
    cpu = pin_to_one_cpu()
    os.makedirs(WORK, exist_ok=True)
    doc = os.path.join(WORK, f"{wl.shape}-{args.seed}-{os.getpid()}.json")
    host_before = ref_loop_ms()
    start = now_ns()
    try:
        generate(wl.shape, args.seed, doc, cold.child_env(SRC))
        generate_s = (now_ns() - start) / 1e9
        result = run(wl, args.seed, args.seconds, doc, oracle, SRC, WORK)
    finally:
        if os.path.exists(doc):
            os.remove(doc)
    host = Metric((host_before + ref_loop_ms()) / 2, "ms", 2)
    result.report["host.ref_loop_ms"] = host
    if args.trace:
        result.metrics["host.ref_loop_ms"] = host
    else:
        result.report["error_rate"] = Metric(result.failed / result.attempted, "frac", result.attempted)

    print(f"cbrdiag benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"python {platform.python_version()} on {platform.machine()}, {os.cpu_count()} CPUs; "
          f"document generated in {generate_s:.2f} s; pinned to CPU {cpu}")
    print(f"shape {wl.shape}: {json.dumps(asdict(gen.SHAPES[wl.shape]))}")
    print("metrics:")
    print_table(result.report)
    if result.exact is not None:
        print(f"exact counts: {json.dumps(result.exact, sort_keys=True)}")
    print(f"checks: {result.attempted} attempted, {result.failed} failed")
    for problem in result.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {key: result.metrics[key].entry() for key in sorted(result.metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
