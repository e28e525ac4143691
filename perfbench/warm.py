"""In-process workloads: a resident case base answering a stream of targets.

One client, one thread, closed loop: the next target is sent only after the
previous answer is complete. Each request is ``diagnose`` plus
``encode_outcome``; with ``typical`` set it is followed by a typical-mode
``retrieve`` for the same target. Requests are timed in the thread's CPU
time, and the reference kernel runs between every two requests.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from cbrdiag import (
    Case,
    CaseBase,
    ScoringMode,
    decode_case_base,
    decode_outcome,
    diagnose,
    encode_case_base,
    encode_outcome,
    retrieve,
)
import gen
from measure import (
    Metric,
    Result,
    Workload,
    cpu_ns,
    end_to_end,
    median,
    ms,
    now_ns,
    p90,
    peak_rss_mb,
    reference_cpu_ns,
    relative,
)

TOP_K = 5


@dataclass
class Request:
    target: Case
    diagnose_ns: int = 0  # CPU time, as is typical_ns
    typical_ns: int = 0
    diagnose_wall_ns: int = 0
    outcome_text: str = ""
    typical: Optional[list[tuple[str, float]]] = None

    @property
    def total_ns(self) -> int:
        return self.diagnose_ns + self.typical_ns


@dataclass
class Loop:
    requests: list[Request] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    refs_ns: list[int] = field(default_factory=list)  # reference kernel around the requests
    elapsed_ns: int = 0

    @property
    def attempted(self) -> int:
        return len(self.requests) + len(self.errors)


@dataclass
class Setup:
    base: CaseBase
    doc_bytes: int
    setup_ns: list[int]
    decode_ns: list[int]
    refs_ns: list[int]  # reference kernel before each set-up and after the last

    @property
    def rel(self) -> list[float]:
        return relative(self.setup_ns, self.refs_ns)


def answer(target: Case, base: CaseBase, typical: bool) -> Request:
    """One request, timed per operation."""
    request = Request(target=target)
    wall = now_ns()
    start = cpu_ns()
    request.outcome_text = encode_outcome(diagnose(target, base, top_k=TOP_K))
    mid = cpu_ns()
    request.diagnose_wall_ns = now_ns() - wall
    request.diagnose_ns = mid - start
    if typical:
        ranking = retrieve(target, base, ScoringMode.TYPICAL, TOP_K)
        request.typical_ns = cpu_ns() - mid
        request.typical = [(sc.case_id, sc.m_r) for sc in ranking]
    return request


def set_up(path: str, repeats: int, first_target: Case, typical: bool) -> Setup:
    """Read and decode the document, then answer one untimed request; all in
    CPU time.

    Repeated ``repeats`` times from nothing; each repetition drops the
    previous base before decoding again, as a restarted process would.
    """
    base = None
    setup_ns, decode_ns, refs_ns = [], [], []
    for _ in range(repeats):
        base = None
        refs_ns.append(reference_cpu_ns())
        start = cpu_ns()
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        decode_start = cpu_ns()
        base = decode_case_base(text)
        decode_ns.append(cpu_ns() - decode_start)
        del text
        answer(first_target, base, typical)
        setup_ns.append(cpu_ns() - start)
    refs_ns.append(reference_cpu_ns())
    return Setup(base=base, doc_bytes=os.path.getsize(path), setup_ns=setup_ns, decode_ns=decode_ns, refs_ns=refs_ns)


def run_loop(base: CaseBase, targets: Iterator[Case], seconds: float, typical: bool) -> Loop:
    loop = Loop()
    start = now_ns()
    deadline = start + int(seconds * 1e9)
    end = start
    while end < deadline:
        target = next(targets)
        ref = reference_cpu_ns()
        try:
            request = answer(target, base, typical)
        except Exception as exc:  # a failed request is counted, not fatal
            loop.errors.append(f"{target.id}: {type(exc).__name__}: {exc}")
        else:
            loop.requests.append(request)
            loop.refs_ns.append(ref)
        end = now_ns()
    loop.refs_ns.append(reference_cpu_ns())
    loop.elapsed_ns = end - start
    return loop


def check_against_oracle(request: Request, base: CaseBase, oracle) -> list[str]:
    """Compare one answered request with the brute-force reference, bit for
    bit: enhanced ranking and scores, adaptation scores, the selected case,
    and the typical ranking when one was asked for."""
    target = request.target
    problems = []
    outcome = decode_outcome(request.outcome_text)
    got = [(sc.case_id, sc.m_r) for sc in outcome.ranking]
    want = oracle.naive_retrieve(target, base, True, TOP_K)
    if got != want:
        problems.append(f"{target.id}: enhanced ranking {got} != reference {want}")
    prepared = oracle.naive_prepare(target, base.profiles)
    for sc in outcome.ranking:
        m_a = oracle.naive_adaptation_score(prepared, base.cases[sc.case_id], base.taxonomy, base.profiles)
        if sc.m_a != m_a:
            problems.append(f"{target.id}/{sc.case_id}: m_a {sc.m_a!r} != reference {m_a!r}")
    selected = oracle.naive_select(target, base, TOP_K)
    if outcome.selected_case_id != selected:
        problems.append(f"{target.id}: selected {outcome.selected_case_id} != reference {selected}")
    if request.typical is not None:
        want_typical = oracle.naive_retrieve(target, base, False, TOP_K)
        if request.typical != want_typical:
            problems.append(f"{target.id}: typical ranking {request.typical} != reference {want_typical}")
    return problems


def check_sample(loop: Loop, base: CaseBase, oracle, seed: int, size: int) -> tuple[int, list[str]]:
    """Check a seeded sample of the answered requests; returns how many
    requests failed and why."""
    rng = random.Random(f"cbrdiag-bench-check:{seed}")
    picked = rng.sample(range(len(loop.requests)), min(size, len(loop.requests)))
    failed, problems = 0, []
    for index in sorted(picked):
        found = check_against_oracle(loop.requests[index], base, oracle)
        failed += bool(found)
        problems.extend(found)
    return failed, problems


def save_ns(base: CaseBase, workdir: str, repeats: int) -> list[int]:
    """Time ``encode_case_base`` plus writing the document, the persist path,
    in CPU time."""
    path = os.path.join(workdir, f"save-{os.getpid()}.json")
    times = []
    try:
        for _ in range(repeats):
            start = cpu_ns()
            text = encode_case_base(base)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            times.append(cpu_ns() - start)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return times


def latency_ms(loop: Loop, attr: str) -> list[float]:
    return [ms(getattr(r, attr)) for r in loop.requests]


def run(wl: Workload, seed: int, seconds: float, doc: str, oracle, src: str, workdir: str) -> Result:
    """The untraced warm run: set up, answer targets for ``seconds``, check."""
    targets = gen.iter_targets(wl.shape, seed, gen.build_schema(wl.shape, seed))
    setup = set_up(doc, wl.setup_repeats, next(targets), wl.typical)
    base = setup.base
    loop = run_loop(base, targets, seconds, wl.typical)
    rss = peak_rss_mb()
    failed, problems = check_sample(loop, base, oracle, seed, wl.oracle_sample)
    rel = relative([r.total_ns for r in loop.requests], loop.refs_ns)
    metrics = end_to_end(setup.rel, rel, rss, 1)
    report = dict(metrics)
    report["setup_cpu_s"] = Metric(median(setup.setup_ns) / 1e9, "s", len(setup.setup_ns))
    report["request_rel_p90"] = Metric(p90(rel), "ref", len(rel))
    totals = latency_ms(loop, "total_ns")
    report["request_ms_p50"] = Metric(median(totals), "ms", len(totals))
    report["request_ms_p90"] = Metric(p90(totals), "ms", len(totals))
    report["requests_per_s"] = Metric(len(totals) / (loop.elapsed_ns / 1e9), "1/s", len(totals))
    report["host.ref_kernel_ms"] = Metric(ms(median(loop.refs_ns)), "ms", len(loop.refs_ns))
    diag = latency_ms(loop, "diagnose_ns")
    report["diagnose_ms_p50"] = Metric(median(diag), "ms", len(diag))
    report["diagnose_ms_p90"] = Metric(p90(diag), "ms", len(diag))
    report["queries_per_s"] = Metric(len(diag) / (loop.elapsed_ns / 1e9), "1/s", len(diag))
    if wl.typical:
        typ = latency_ms(loop, "typical_ns")
        report["typical_ms_p50"] = Metric(median(typ), "ms", len(typ))
        saves = save_ns(base, workdir, wl.save_repeats)
        report["save_s"] = Metric(median(saves) / 1e9, "s", len(saves))
    return Result(metrics, report, loop.attempted, failed + len(loop.errors), loop.errors + problems)
