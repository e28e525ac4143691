"""The cold command-line workload: one fresh ``cbrdiag.cli`` process per request.

One client runs one child at a time and waits for it, so at most two
processes exist. A cycle sends four commands for one bundled target, in
this order: ``query --adapt``, ``query --mode typical --format table``,
``explain --source <id>`` and ``validate``. The cycle is the request the
end-to-end metrics count; each command is also timed on its own. A child's
cost is its CPU time (user plus system, from ``wait4``); the reference
kernel runs in this process before every child and after the last.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

from cbrdiag import (
    CaseBase,
    ScoringContext,
    ScoringMode,
    adaptation_measure,
    decode_outcome,
    diagnose,
    encode_outcome,
    prepare_target,
    retrieval_measure,
    retrieve,
)
import gen
import warm
from measure import Metric, Result, Workload, end_to_end, median, ms, now_ns, reference_cpu_ns, relative
from warm import TOP_K

COMMANDS = ("query", "typical", "explain", "validate")
CHILD_TIMEOUT_S = 60


@dataclass
class Child:
    wall_ns: int
    cpu_ns: int  # user plus system time of the child
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


@dataclass
class Cycle:
    target_id: str
    source_id: str
    runs: dict[str, Child] = field(default_factory=dict)
    refs_ns: list[int] = field(default_factory=list)  # reference kernel before each child


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str], workdir: str) -> Child:
    """Run one child to completion and read its peak RSS with ``wait4``.

    stderr goes to a file so that neither pipe can fill while the other is
    read. A timer kills a child that outlives its timeout; the child is
    always reaped before this returns.
    """
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = now_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = now_ns() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        cpu = round((usage.ru_utime + usage.ru_stime) * 1e9)
        return Child(wall, cpu, proc.returncode, out, err.read(), usage.ru_maxrss)


def cli_argv(command: str, doc: str, target_id: str, source_id: str) -> list[str]:
    base = [sys.executable, "-m", "cbrdiag.cli"]
    if command == "query":
        return base + ["query", "--case-base", doc, "--target", target_id, "--adapt", "--top-k", str(TOP_K)]
    if command == "typical":
        return base + [
            "query", "--case-base", doc, "--target", target_id,
            "--mode", "typical", "--format", "table", "--top-k", str(TOP_K),
        ]
    if command == "explain":
        return base + ["explain", "--case-base", doc, "--target", target_id, "--source", source_id]
    return base + ["validate", "--case-base", doc]


def run_loop(doc: str, base: CaseBase, seed: int, seconds: float, env: dict[str, str],
             workdir: str) -> tuple[list[Cycle], list[float], int]:
    """Cycle through the bundled targets until ``seconds`` have passed.

    Returns the cycles, each cycle's cost in reference units (the sum over
    its children of CPU time over the reference timings around the child),
    and the wall time the loop took.
    """
    targets = [t.id for t in base.targets()]
    sources = [s.id for s in base.sources()]
    rng = random.Random(f"cbrdiag-bench-explain:{seed}")
    cycles = []
    start = now_ns()
    deadline = start + int(seconds * 1e9)
    end = start
    while end < deadline:
        cycle = Cycle(target_id=targets[len(cycles) % len(targets)], source_id=rng.choice(sources))
        for command in COMMANDS:
            cycle.refs_ns.append(reference_cpu_ns())
            cycle.runs[command] = run_child(cli_argv(command, doc, cycle.target_id, cycle.source_id), env, workdir)
        cycles.append(cycle)
        end = now_ns()
    refs = [ref for cycle in cycles for ref in cycle.refs_ns] + [reference_cpu_ns()]
    per_child = relative([child.cpu_ns for cycle in cycles for child in cycle.runs.values()], refs)
    rel = [sum(per_child[i:i + len(COMMANDS)]) for i in range(0, len(per_child), len(COMMANDS))]
    return cycles, rel, end - start


def _cell(value: float) -> str:
    # The CLI's table cell format.
    return format(value, ".6g")


def check_cycle(cycle: Cycle, base: CaseBase) -> list[tuple[str, str]]:
    """Check every command of a cycle against the in-process library.

    Returns (command, problem) pairs.
    """
    problems = []
    for command, child in cycle.runs.items():
        if child.code != 0:
            problems.append((command, f"{cycle.target_id}: exit {child.code}: {child.stderr.decode(errors='replace')}"))
    if problems:
        return problems
    target = base.cases[cycle.target_id]
    expected = encode_outcome(diagnose(target, base, top_k=TOP_K)).encode("utf-8")
    if cycle.runs["query"].stdout != expected:
        problems.append(("query", f"{cycle.target_id}: stdout differs from in-process encode_outcome"))

    ranking = retrieve(target, base, ScoringMode.TYPICAL, TOP_K)
    want_rows = [[str(i), sc.case_id, _cell(sc.m_r)] for i, sc in enumerate(ranking, start=1)]
    lines = cycle.runs["typical"].stdout.decode("utf-8").splitlines()
    got_rows = [line.split() for line in lines[2:]]
    if lines[:1] != ["mode: typical"] or got_rows != want_rows:
        problems.append(("typical", f"{cycle.target_id}: table rows {got_rows} != {want_rows}"))

    ctx = ScoringContext(taxonomy=base.taxonomy, profiles=base.profiles, mode=ScoringMode.ENHANCED)
    prepared, _ = prepare_target(target, base.profiles)
    source = base.cases[cycle.source_id]
    explained = _json(cycle.runs["explain"].stdout)
    m_r = retrieval_measure(prepared, source, ctx).score
    m_a = adaptation_measure(prepared, source, ctx).score
    if explained.get("m_r") != m_r or explained.get("m_a") != m_a:
        problems.append(("explain", f"{cycle.target_id} vs {cycle.source_id}: scores differ from in-process measures"))

    if cycle.runs["validate"].stdout != b"OK\n":
        problems.append(("validate", f"stdout {cycle.runs['validate'].stdout[:80]!r}"))
    return problems


def check_oracle(cycle: Cycle, base: CaseBase, oracle) -> list[tuple[str, str]]:
    """Compare the CLI's rankings and selection with the brute-force
    reference, bit for bit."""
    target = base.cases[cycle.target_id]
    outcome = decode_outcome(cycle.runs["query"].stdout.decode("utf-8"))
    problems = []
    got = [(sc.case_id, sc.m_r) for sc in outcome.ranking]
    want = oracle.naive_retrieve(target, base, True, TOP_K)
    if got != want:
        problems.append(("query", f"{cycle.target_id}: ranking {got} != reference {want}"))
    selected = oracle.naive_select(target, base, TOP_K)
    if outcome.selected_case_id != selected:
        problems.append(("query", f"{cycle.target_id}: selected {outcome.selected_case_id} != reference {selected}"))
    want_typical = [sc_id for sc_id, _ in oracle.naive_retrieve(target, base, False, TOP_K)]
    got_typical = [line.split()[1] for line in cycle.runs["typical"].stdout.decode("utf-8").splitlines()[2:]]
    if got_typical != want_typical:
        problems.append(("typical", f"{cycle.target_id}: ranking {got_typical} != reference {want_typical}"))
    return problems


def _json(raw: bytes) -> dict:
    try:
        doc = json.loads(raw)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def run(wl: Workload, seed: int, seconds: float, doc: str, oracle, src: str, workdir: str) -> Result:
    """The cold run: set up in process (the reference answers come from the
    same decoded base), then cycle CLI processes for ``seconds`` and check
    every output."""
    targets = gen.iter_targets(wl.shape, seed, gen.build_schema(wl.shape, seed))
    setup = warm.set_up(doc, wl.setup_repeats, next(targets), wl.typical)
    base = setup.base
    cycles, rel, elapsed = run_loop(doc, base, seed, seconds, child_env(src), workdir)
    children = [child for cycle in cycles for child in cycle.runs.values()]
    rss = max(child.maxrss_kb for child in children) / 1024
    metrics = end_to_end(setup.rel, rel, rss, len(children))
    report = dict(metrics)
    report["setup_cpu_s"] = Metric(median(setup.setup_ns) / 1e9, "s", len(setup.setup_ns))
    report["requests_per_s"] = Metric(len(cycles) / (elapsed / 1e9), "1/s", len(cycles))
    refs = [ref for cycle in cycles for ref in cycle.refs_ns]
    report["host.ref_kernel_ms"] = Metric(ms(median(refs)), "ms", len(refs))
    for command in COMMANDS:
        values = [ms(cycle.runs[command].cpu_ns) for cycle in cycles]
        report[f"cli_{command}_ms_p50"] = Metric(median(values), "ms", len(values))
        walls = [ms(cycle.runs[command].wall_ns) for cycle in cycles]
        report[f"cli_{command}_wall_ms_p50"] = Metric(median(walls), "ms", len(walls))

    failures: set[tuple[int, str]] = set()
    problems = []
    rng = random.Random(f"cbrdiag-bench-check:{seed}")
    sampled = set(rng.sample(range(len(cycles)), min(wl.oracle_sample, len(cycles))))
    for index, cycle in enumerate(cycles):
        found = check_cycle(cycle, base)
        if index in sampled and not found:
            found = check_oracle(cycle, base, oracle)
        failures.update((index, command) for command, _ in found)
        problems.extend(f"{command} {message}" for command, message in found)
    return Result(metrics, report, len(children), len(failures), problems)
