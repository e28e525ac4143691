"""The traced run: spans around the benchmark's own calls into each layer.

Nothing inside the package is instrumented. A traced request calls
``diagnose`` once as a whole, then replays it step by step through the same
public functions ``diagnose`` uses, one span per call:

    request
      pipeline.diagnose                    the real call, as one span
      codec.encode_outcome                 of the real outcome
      replay
        pipeline.prepare_target
        cases.sources
        measures.retrieval_measure         one per source
        pipeline.rank                      sort plus top k
        adaptation.adaptation_measure      one per retrieved case
        pipeline.select
        codec.encode_outcome               must equal the real bytes
      probe
        fuzzy.correct_imprecise            one per imprecise target numeric
        cases.align                        one per source
        taxonomy.value_similarity          one per symbolic pair scored
        fuzzy.same_class                   one per numeric class comparison
      typical
        measures.retrieval_measure_typical one per source

``retrieval_measure`` calls ``align``, ``value_similarity`` and
``same_class`` itself, so the probe times those calls separately on the same
pairs, and the layer table subtracts them from the measures layer. Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Optional

from cbrdiag import (
    Case,
    CaseBase,
    DiagnosisOutcome,
    NumericValue,
    OperatingMode,
    ScoredCase,
    ScoringContext,
    ScoringMode,
    SymbolicValue,
    adaptation_measure,
    align,
    correct_imprecise,
    diagnose,
    encode_outcome,
    prepare_target,
    retrieval_measure,
    same_class,
    validate_case,
)

import cold
import gen
import warm
from measure import GcMeter, Metric, Result, Workload, median, ms, now_ns
from warm import TOP_K

COUNTED_TARGETS = 6  # fixed targets behind the exact counters
STARTUP_REPEATS = 5


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, request id)."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []

    def open(self) -> int:
        """Reserve a span so its children can name it as their parent."""
        self.spans.append(None)
        return len(self.spans) - 1

    def close(self, index: int, name: str, start: int, parent: Optional[int], request: int) -> None:
        self.spans[index] = (name, start, now_ns(), parent, request)

    def add(self, name: str, start: int, end: int, parent: Optional[int], request: int) -> None:
        self.spans.append((name, start, end, parent, request))

    def per_request(self) -> list[tuple[Counter, Counter]]:
        """Per request, in order: self time summed by span name, and calls
        by span name. Self time is a span's duration minus the part of it
        that its child spans cover."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[int, tuple[Counter, Counter]] = defaultdict(lambda: (Counter(), Counter()))
        for index, (name, start, end, _, request) in enumerate(self.spans):
            covered, reach = 0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_ns, calls = out[request]
            self_ns[name] += end - start - covered
            calls[name] += 1
        return [out[request] for request in sorted(out)]

    def write(self, path: str, requests: int) -> None:
        """Write the spans of the first ``requests`` traced requests, one
        JSON object a line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                if request < requests:
                    handle.write(
                        json.dumps(
                            {"id": index, "name": name, "start_ns": start, "end_ns": end,
                             "parent": parent, "request": request}
                        )
                        + "\n"
                    )


@dataclass
class Counts:
    """Exact work counts, derived from public functions only."""

    queries: int = 0
    sources: int = 0
    sharing: int = 0  # sources with at least one co-present descriptor
    pairs: int = 0  # co-present descriptor pairs in enhanced retrieval
    uncertain_dropped: int = 0
    symbolic: int = 0  # value_similarity calls in enhanced retrieval
    class_compares: int = 0  # same_class calls in enhanced retrieval
    corrections: int = 0
    adapted_cases: int = 0
    adaptation_terms: int = 0
    gen2: int = 0

    def per_query(self, value: int) -> float:
        return value / self.queries if self.queries else 0.0


def _comparison(pair) -> Optional[str]:
    """Which layer ``phi_value`` asks for this pair, if any."""
    tv, sv = pair.target.value, pair.source.value
    if isinstance(tv, SymbolicValue) and isinstance(sv, SymbolicValue):
        return "taxonomy"
    if isinstance(tv, NumericValue) and isinstance(sv, NumericValue):
        if tv.unit == sv.unit and tv.magnitude != sv.magnitude:
            return "fuzzy"
    return None


def probe(target: Case, prepared: Case, sources: list[Case], base: CaseBase, counts: Counts,
          tracer: Optional[Tracer] = None, parent: Optional[int] = None, request: int = 0) -> None:
    """Count, and with a tracer time, the calls enhanced retrieval makes
    into ``fuzzy``, ``cases`` and ``taxonomy`` for one target."""
    span = tracer.add if tracer is not None else None
    for did in sorted(target.descriptors):
        d = target.descriptors[did]
        if d.flags.imprecise and isinstance(d.value, NumericValue):
            start = now_ns()
            correct_imprecise(d.value.magnitude, base.profiles[did])
            if span:
                span("fuzzy.correct_imprecise", start, now_ns(), parent, request)
            counts.corrections += 1
    taxonomy, profiles = base.taxonomy, base.profiles
    for source in sources:
        start = now_ns()
        pairs = align(prepared, source)
        if span:
            span("cases.align", start, now_ns(), parent, request)
        counts.sources += 1
        counts.sharing += bool(pairs)
        counts.pairs += len(pairs)
        for pair in pairs:
            if pair.target.flags.uncertain or pair.source.flags.uncertain:
                counts.uncertain_dropped += 1
                continue
            kind = _comparison(pair)
            if kind == "taxonomy":
                start = now_ns()
                taxonomy.value_similarity(pair.target.value.label, pair.source.value.label)
                if span:
                    span("taxonomy.value_similarity", start, now_ns(), parent, request)
                counts.symbolic += 1
            elif kind == "fuzzy":
                start = now_ns()
                same_class(pair.target.value.magnitude, pair.source.value.magnitude, profiles[pair.descriptor_id])
                if span:
                    span("fuzzy.same_class", start, now_ns(), parent, request)
                counts.class_compares += 1


def count_query(target: Case, base: CaseBase, counts: Counts) -> None:
    """Add one target's exact counts, without timing anything."""
    prepared, _ = prepare_target(target, base.profiles)
    probe(target, prepared, base.sources(), base, counts)
    for sc in diagnose(target, base, top_k=TOP_K).ranking:
        counts.adapted_cases += 1
        for pair in align(prepared, base.cases[sc.case_id]):
            if not (pair.target.operating_mode is OperatingMode.UNSPECIFIED
                    and pair.source.operating_mode is OperatingMode.UNSPECIFIED):
                counts.adaptation_terms += 1
    counts.queries += 1


def traced_request(tracer: Tracer, request: int, target: Case, base: CaseBase) -> tuple[bool, int]:
    """One traced request. Returns whether the replayed outcome bytes equal
    the real ones, and the size of those bytes."""
    root = tracer.open()
    root_start = now_ns()
    start = now_ns()
    real = diagnose(target, base, top_k=TOP_K)
    mid = now_ns()
    tracer.add("pipeline.diagnose", start, mid, root, request)
    real_text = encode_outcome(real)
    tracer.add("codec.encode_outcome", mid, now_ns(), root, request)

    rep = tracer.open()
    rep_start = now_ns()
    start = now_ns()
    prepared, corrections = prepare_target(target, base.profiles)
    tracer.add("pipeline.prepare_target", start, now_ns(), rep, request)
    ctx = ScoringContext(taxonomy=base.taxonomy, profiles=base.profiles, mode=ScoringMode.ENHANCED)
    start = now_ns()
    sources = base.sources()
    tracer.add("cases.sources", start, now_ns(), rep, request)
    scored = []
    for source in sources:
        start = now_ns()
        result = retrieval_measure(prepared, source, ctx)
        tracer.add("measures.retrieval_measure", start, now_ns(), rep, request)
        scored.append(ScoredCase(case_id=source.id, m_r=result.score, breakdown_r=result.breakdown))
    start = now_ns()
    scored.sort(key=lambda sc: (-sc.m_r, sc.case_id))
    retrieved = scored[:TOP_K]
    tracer.add("pipeline.rank", start, now_ns(), rep, request)
    ranking = []
    for sc in retrieved:
        start = now_ns()
        result = adaptation_measure(prepared, base.cases[sc.case_id], ctx)
        tracer.add("adaptation.adaptation_measure", start, now_ns(), rep, request)
        ranking.append(replace(sc, m_a=result.score, breakdown_a=result.breakdown))
    start = now_ns()
    selected = min(ranking, key=lambda sc: (-sc.m_a, -sc.m_r, sc.case_id)) if ranking else None
    replayed = DiagnosisOutcome(
        selected_case_id=selected.case_id if selected else None,
        solution=base.cases[selected.case_id].solution if selected else None,
        ranking=ranking,
        mode=ScoringMode.ENHANCED,
        corrections_applied=corrections,
    )
    tracer.add("pipeline.select", start, now_ns(), rep, request)
    start = now_ns()
    replayed_text = encode_outcome(replayed)
    tracer.add("codec.encode_outcome", start, now_ns(), rep, request)
    tracer.close(rep, "replay", rep_start, root, request)

    pro = tracer.open()
    pro_start = now_ns()
    probe(target, prepared, sources, base, Counts(), tracer, pro, request)
    tracer.close(pro, "probe", pro_start, root, request)

    typ = tracer.open()
    typ_start = now_ns()
    ctx_typical = replace(ctx, mode=ScoringMode.TYPICAL)
    for source in sources:
        start = now_ns()
        retrieval_measure(target, source, ctx_typical)
        tracer.add("measures.retrieval_measure_typical", start, now_ns(), typ, request)
    tracer.close(typ, "typical", typ_start, root, request)
    tracer.close(root, "request", root_start, None, request)
    return replayed_text == real_text, len(real_text.encode("utf-8"))


def per_call_us(name: str):
    """Mean microseconds per call of one span name, per request."""
    return lambda t, c: t[name] / c[name] / 1e3 if c[name] else None


def layer_self_ms(layer: str):
    """Self time of one layer per request, in milliseconds.

    ``measures`` excludes what its calls spend in ``cases.align``,
    ``taxonomy`` and ``fuzzy`` (timed by the probe), and ``pipeline``
    excludes ``fuzzy.correct_imprecise`` and adds the part of ``diagnose``
    that no replayed call accounts for.
    """
    def fn(t: Counter, c: Counter) -> float:
        inner = t["cases.align"] + t["taxonomy.value_similarity"] + t["fuzzy.same_class"]
        ns = {
            "codec": t["codec.encode_outcome"] / 2,  # the real and the replayed encode
            "cases": t["cases.sources"] + t["cases.align"],
            "taxonomy": t["taxonomy.value_similarity"],
            "fuzzy": t["fuzzy.same_class"] + t["fuzzy.correct_imprecise"],
            "measures": t["measures.retrieval_measure"] - inner,
            "adaptation": t["adaptation.adaptation_measure"],
            "pipeline": t["pipeline.prepare_target"] - t["fuzzy.correct_imprecise"]
            + t["pipeline.rank"] + t["pipeline.select"] + unattributed_ns(t),
        }[layer]
        return ms(ns)
    return fn


REPLAYED = (
    "pipeline.prepare_target",
    "cases.sources",
    "measures.retrieval_measure",
    "pipeline.rank",
    "adaptation.adaptation_measure",
    "pipeline.select",
)


def unattributed_ns(t: Counter) -> int:
    """The ``diagnose`` span minus the replayed calls that make it up."""
    return t["pipeline.diagnose"] - sum(t[name] for name in REPLAYED)


def run(wl: Workload, seed: int, seconds: float, doc: str, oracle, src: str, workdir: str) -> Result:
    """The traced run: layer timings that need no spans, exact counts over
    fixed targets, then ``seconds / 2`` untraced and ``seconds / 2`` traced."""
    targets = gen.iter_targets(wl.shape, seed, gen.build_schema(wl.shape, seed))
    setup = warm.set_up(doc, wl.setup_repeats, next(targets), wl.typical)
    base = setup.base
    m: dict[str, Metric] = {}
    m["codec.decode_ms"] = Metric(ms(median(setup.decode_ns)), "ms", len(setup.decode_ns))
    m["codec.doc_mb"] = Metric(setup.doc_bytes / 1e6, "MB")
    times = []
    for _ in range(3):
        start = now_ns()
        for cid in sorted(base.cases):
            validate_case(base.cases[cid], base.taxonomy, base.profiles)
        times.append(now_ns() - start)
    m["cases.validate_ms"] = Metric(ms(median(times)), "ms", len(times))
    saves = warm.save_ns(base, workdir, wl.save_repeats)
    m["codec.encode_case_base_ms"] = Metric(ms(median(saves)), "ms", len(saves))

    # Exact counters over fixed targets, then gen-2 collections over the same
    # requests from a freshly collected heap, so both repeat run to run.
    counted = [next(targets) for _ in range(COUNTED_TARGETS)]
    counts = Counts()
    for target in counted:
        count_query(target, base, counts)
    gc.collect()
    with GcMeter() as meter:
        for target in counted:
            encode_outcome(diagnose(target, base, top_k=TOP_K))
    counts.gen2 = meter.gen2

    with GcMeter() as meter:
        loop = warm.run_loop(base, targets, seconds / 2, wl.typical)
    failed, problems = warm.check_sample(loop, base, oracle, seed, wl.oracle_sample)
    failed += len(loop.errors)
    problems = loop.errors + problems
    attempted = loop.attempted + len(counted)

    tracer = Tracer()
    sizes = []
    deadline = now_ns() + int(seconds / 2 * 1e9)
    while not sizes or now_ns() < deadline:
        same, size = traced_request(tracer, len(sizes), next(targets), base)
        if not same:
            failed += 1
            problems.append(f"traced request {len(sizes)}: replayed outcome bytes differ from diagnose")
        sizes.append(size)
    attempted += len(sizes)
    tracer.write(os.path.join(workdir, f"trace-{wl.shape}.jsonl"), requests=2)
    stats = tracer.per_request()

    def per_request(key: str, fn, unit: str) -> None:
        values = [v for v in (fn(t, c) for t, c in stats) if v is not None]
        m[key] = Metric(median(values) if values else 0.0, unit, len(values))

    per_request("codec.encode_outcome_us", per_call_us("codec.encode_outcome"), "us")
    m["codec.outcome_kb"] = Metric(median(sizes) / 1024, "KB", len(sizes))
    per_request("cases.sources_ms", lambda t, c: ms(t["cases.sources"]), "ms")
    per_request("cases.align_us_per_source", per_call_us("cases.align"), "us")
    per_request("taxonomy.value_similarity_us", per_call_us("taxonomy.value_similarity"), "us")
    per_request("fuzzy.same_class_us", per_call_us("fuzzy.same_class"), "us")
    per_request("fuzzy.correct_imprecise_us", per_call_us("fuzzy.correct_imprecise"), "us")
    per_request("measures.retrieval_us_per_source", per_call_us("measures.retrieval_measure"), "us")
    per_request("measures.retrieval_typical_us_per_source", per_call_us("measures.retrieval_measure_typical"), "us")
    per_request("adaptation.adaptation_us_per_case", per_call_us("adaptation.adaptation_measure"), "us")
    per_request("pipeline.prepare_target_us", per_call_us("pipeline.prepare_target"), "us")
    per_request("pipeline.rank_ms", lambda t, c: ms(t["pipeline.rank"]), "ms")
    per_request("pipeline.unattributed_ms", lambda t, c: ms(unattributed_ns(t)), "ms")
    for layer in ("codec", "cases", "taxonomy", "fuzzy", "measures", "adaptation", "pipeline"):
        per_request(f"{layer}.self_ms_per_query", layer_self_ms(layer), "ms")

    q = counts.queries
    m["cases.pairs_per_query"] = Metric(counts.per_query(counts.pairs), "count", q)
    m["cases.sharing_frac"] = Metric(counts.sharing / counts.sources, "frac", q)
    m["taxonomy.symbolic_pairs_per_query"] = Metric(counts.per_query(counts.symbolic), "count", q)
    m["fuzzy.class_compares_per_query"] = Metric(counts.per_query(counts.class_compares), "count", q)
    m["fuzzy.corrections_per_query"] = Metric(counts.per_query(counts.corrections), "count", q)
    m["measures.uncertain_dropped_per_query"] = Metric(counts.per_query(counts.uncertain_dropped), "count", q)
    m["adaptation.terms_per_case"] = Metric(
        counts.adaptation_terms / counts.adapted_cases if counts.adapted_cases else 0.0, "count", counts.adapted_cases
    )
    m["runtime.gc_gen2_per_query"] = Metric(counts.per_query(counts.gen2), "count", q)
    requests = len(loop.requests)
    m["host.ref_kernel_ms"] = Metric(ms(median(loop.refs_ns)), "ms", len(loop.refs_ns))
    m["runtime.gc_pause_ms_per_query"] = Metric(ms(meter.pause_ns) / max(requests, 1), "ms", requests)
    untraced = median([r.diagnose_wall_ns for r in loop.requests]) if requests else 0
    replay = [end - start for name, start, end, _, _ in tracer.spans if name == "replay"]
    m["trace.overhead_frac"] = Metric(median(replay) / untraced - 1 if untraced else 0.0, "frac", len(replay))

    env = cold.child_env(src)
    startup = []
    for _ in range(STARTUP_REPEATS):
        child = cold.run_child([sys.executable, "-c", "import cbrdiag.cli"], env, workdir)
        if child.code != 0:
            failed += 1
            problems.append(f"import cbrdiag.cli: exit {child.code}: {child.stderr.decode(errors='replace')}")
        startup.append(ms(child.wall_ns))
    attempted += STARTUP_REPEATS
    m["cli.startup_ms"] = Metric(median(startup), "ms", len(startup))
    return Result(m, dict(m), attempted, failed, problems, dict(vars(counts)))
