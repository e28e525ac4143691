"""Local similarity measures, the global retrieval measure and the
adaptation measure.

The retrieval score of a source case against the target aggregates four
local factors per co-present descriptor: value closeness, state agreement,
presence, and operating-mode agreement. The score is the presence-normalized
sum of their products and always lands in [0, 1].

Two scoring modes exist. The typical mode is the comparison baseline: raw
values, no exclusions, numeric closeness as linear distance over the value
domain. The enhanced mode scores corrected values (the pipeline corrects the
target first), compares numerics by fuzzy class equality, and drops
descriptors whose value is uncertain on either side from both sums.

Scoring runs over per-descriptor records rather than descriptors: the kind,
label or magnitude, unit, casefolded state, operating mode, uncertain flag,
and the fuzzy subset of a profiled in-domain numeric. A case base compiles
its sources into records once; a target is compiled per query, and each of
its records gets its value rules as two functions built side by side from
the same constants: a value function for one pair, and an adder for a whole
posting list. One kernel scores one source: it walks the target's records
against the source's, and builds the source's retrieval rows, its
adaptation rows, or both, from one value per pair, which comes from the
value function.

Scoring accepts only cases that :func:`validate_case` accepts, and refuses
any other before the first score, with a ``DocumentValidationError`` that
carries its path-tagged violations (:func:`_refuse`): a query its base's
sources, in id order, then its target; a public measure its source, then
its target. A refused base stays uncompiled.

Ranking scores term-at-a-time instead. A pair's product is nonzero only
when the casefolded states and the operating modes agree, and in enhanced
mode only when neither value is uncertain. So the compiled base keeps
posting lists of source records keyed by (descriptor id, state, mode,
uncertain flag), each record carrying its source's position. The first
query that reads a list turns it into columns: per kind, the source
positions and the fields the value rules read (the label's pre-order
position and depth in the taxonomy; magnitude, unit and subset). Each
target descriptor's adder walks the columns of the one certain list that
matches it in enhanced mode, and of the certain and the uncertain one in
typical mode, in one loop, and adds each value that is not 0 to its
source's numerator. Labels compare by one bisection of the target label's
ancestor bounds per record. The denominator counts co-present descriptors,
certain ones in enhanced mode, as the bits two descriptor-id masks share.
The top k come from one pass over the sources with a numerator into a heap
of at most k (score, -position) pairs, which ranks equal scores in id
order; a numerator below the lowest score of a full heap is passed over
before its division. Each returned source then gets its rows from one
kernel call, in ranking order.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import sys
from _thread import allocate_lock
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .cases import Case, CaseBase, Descriptor, OperatingMode, SymbolicValue
from .cases import _collector_paused, validate_case
from .errors import DocumentValidationError
from .fuzzy import FuzzyProfile, classify_subset
from .taxonomy import Taxonomy


class ScoringMode(enum.Enum):
    TYPICAL = "typical"
    ENHANCED = "enhanced"


@dataclass(frozen=True)
class ScoringContext:
    """Shared immutable context for scoring one target against sources."""

    taxonomy: Taxonomy
    profiles: Mapping[str, FuzzyProfile]
    mode: ScoringMode = ScoringMode.ENHANCED


@dataclass(frozen=True, init=False)
class LocalScores:
    """Per-descriptor factor breakdown; product is the numerator term."""

    descriptor_id: str
    phi_value: float
    phi_state: int
    phi_presence: int
    phi_om: int
    product: float

    def __init__(
        self, descriptor_id: str, phi_value: float, phi_state: int, phi_presence: int, phi_om: int, product: float
    ) -> None:
        # One dict write per field: a frozen dataclass's own __init__ pays
        # an object.__setattr__ call per field, and the kernel builds a row
        # per co-present descriptor of every returned source.
        d = self.__dict__
        d["descriptor_id"] = descriptor_id
        d["phi_value"] = phi_value
        d["phi_state"] = phi_state
        d["phi_presence"] = phi_presence
        d["phi_om"] = phi_om
        d["product"] = product


@dataclass(frozen=True)
class RetrievalResult:
    score: float
    breakdown: list[LocalScores]


@dataclass(frozen=True, init=False)
class AdaptationTerm:
    """Per-descriptor weighted contribution; term is the numerator share."""

    descriptor_id: str
    weight: int
    phi_presence: int
    phi_value: float
    term: float

    def __init__(self, descriptor_id: str, weight: int, phi_presence: int, phi_value: float, term: float) -> None:
        # One dict write per field, as in LocalScores.
        d = self.__dict__
        d["descriptor_id"] = descriptor_id
        d["weight"] = weight
        d["phi_presence"] = phi_presence
        d["phi_value"] = phi_value
        d["term"] = term


@dataclass(frozen=True)
class AdaptationResult:
    score: float
    breakdown: list[AdaptationTerm]


_ABNORMAL = OperatingMode.ABNORMAL.value
_UNSPECIFIED = OperatingMode.UNSPECIFIED.value


def _weight(target_code: str, source_code: str) -> int:
    """The adaptation weight of two operating-mode codes, doubling per abnormal side."""
    return 2 ** ((target_code == _ABNORMAL) + (source_code == _ABNORMAL))


def lambda_weight(target_mode: OperatingMode, source_mode: OperatingMode) -> int:
    """The adaptation weight of two operating modes: 1, 2 or 4, doubling per
    abnormal side, as failure modes point at the likely faulty components.
    An unspecified mode weighs like a normal one."""
    return _weight(target_mode.value, source_mode.value)


# Record kinds.
_SYMBOLIC = "symbolic"
_NUMERIC = "numeric"


def _record(d: Descriptor, profile: Optional[FuzzyProfile], position: Optional[int] = None) -> tuple:
    """A valid descriptor's scoring record, with its profile (None for a
    label): (kind, label or magnitude, unit, casefolded state,
    operating-mode code, uncertain flag, fuzzy subset label, source
    position).

    Records hold only strings, numbers, booleans and None, so the garbage
    collector can stop tracking them: a compiled case base adds little to
    its later passes.
    """
    value = d.value
    # Interned so that the many equal states of a case base share one string.
    state = None if d.state is None else sys.intern(d.state.casefold())
    om = d.operating_mode._value_  # .value without the cost of its descriptor call
    if isinstance(value, SymbolicValue):
        return (_SYMBOLIC, value.label, None, state, om, d.flags.uncertain, None, position)
    subset = classify_subset(value.magnitude, profile)
    label = None if subset is None else subset.label
    return (_NUMERIC, value.magnitude, value.unit, state, om, d.flags.uncertain, label, position)


def _columns(records: list[tuple], taxonomy: Taxonomy) -> tuple[tuple, tuple]:
    """A posting list's records as the columns its adders read: the
    symbolic records' source positions and their labels' pre-order
    positions and depths (:meth:`Taxonomy._coordinates`), and the numeric
    records' source positions, magnitudes, units and subset labels. Each is
    a tuple of columns, empty when no record is of its kind."""
    coordinates = taxonomy._coordinates
    symbolic = [(s[7], *coordinates(s[1])) for s in records if s[0] is _SYMBOLIC]
    numeric = [(s[7], s[1], s[2], s[6]) for s in records if s[0] is _NUMERIC]
    return tuple(zip(*symbolic)), tuple(zip(*numeric))


def _valuer(
    t: tuple, profile: Optional[FuzzyProfile], enhanced: bool, taxonomy: Taxonomy
) -> tuple[Callable, Callable]:
    """The value rules of a target record, as two functions built from the
    same constants: the value function, the value factor in [0, 1] of the
    record and a source record; and the adder, which adds the value of every
    record of a posting list's columns (:func:`_columns`) whose value is not
    0 to the plain dict ``numerators``, at the record's source position, as
    ``numerators[p] = get(p, 0.0) + v`` with ``get`` bound once per call
    (cheaper than a ``defaultdict``'s ``+=``, and the same float).

    Kinds must match, and units for numerics; a mismatch scores 0. Labels
    take the taxonomy's similarity from their coordinates: 1 for equal
    labels, otherwise twice the depth of their lowest common ancestor
    (:meth:`Taxonomy._ancestry`) over the sum of their depths, which is 1
    for equal labels below the root too, so the adder tests equality only at
    the root; both modes alike. Equal magnitudes score 1; otherwise enhanced
    mode compares fuzzy subsets and typical mode takes the linear closeness
    over the profile's domain span.
    """
    kind, key, unit, _, _, _, subset, _ = t
    if kind is _SYMBOLIC:
        coordinates = taxonomy._coordinates
        first, depth = coordinates(key)
        bounds, twice = taxonomy._ancestry(key)

        def add(columns: tuple, numerators: dict) -> None:
            bisect, get = bisect_right, numerators.get
            for p, f, d in zip(*columns[0]):
                shared = twice[bisect(bounds, f)]
                if shared:
                    numerators[p] = get(p, 0.0) + shared / (depth + d)
                elif f == first:  # the root, the one label that shares depth 0 with itself
                    numerators[p] = get(p, 0.0) + 1.0

        def value(s: tuple) -> float:
            if s[0] is not _SYMBOLIC:
                return 0.0
            if s[1] == key:
                return 1.0
            f, d = coordinates(s[1])
            return twice[bisect_right(bounds, f)] / (depth + d)

        return value, add
    if enhanced:

        def add(columns: tuple, numerators: dict) -> None:
            get = numerators.get
            for p, m, u, c in zip(*columns[1]):
                if u == unit and (m == key or subset is not None and c == subset):
                    numerators[p] = get(p, 0.0) + 1.0

        return (
            lambda s: (
                1.0
                if s[0] is _NUMERIC and s[2] == unit and (s[1] == key or subset is not None and s[6] == subset)
                else 0.0
            )
        ), add
    # No clamp: both magnitudes are finite and in the domain, so
    # |x - y| <= span holds after rounding too (rounding is monotone), and
    # the span is finite. It is 0 only for a one-point domain, whose
    # magnitudes are all equal.
    span = profile.domain_upper - profile.domain_lower

    def add(columns: tuple, numerators: dict) -> None:
        get = numerators.get
        for p, m, u, _ in zip(*columns[1]):
            if u == unit:
                v = 1.0 if m == key else 1.0 - abs(key - m) / span
                if v:
                    numerators[p] = get(p, 0.0) + v

    return (
        lambda s: (
            (1.0 if s[1] == key else 1.0 - abs(key - s[1]) / span) if s[0] is _NUMERIC and s[2] == unit else 0.0
        )
    ), add


def _refuse(cases: Iterable[Case], taxonomy: Taxonomy, profiles: Mapping[str, FuzzyProfile]) -> None:
    """Refuse ``cases`` if :func:`validate_case` reports any of them: raise
    ``DocumentValidationError`` with the violations of each, in order."""
    violations = [v for case in cases for v in validate_case(case, taxonomy, profiles)]
    if violations:
        raise DocumentValidationError(violations)


def _target_records(target: Case, ctx: ScoringContext, dids: Optional[Iterable[str]] = None) -> list[tuple]:
    """The valid target's records of ``dids`` (all its descriptors by
    default) in id order, each as (id, casefolded state, operating-mode
    code, uncertain flag, value function, adder), the last two in
    ``ctx.mode`` (:func:`_valuer`)."""
    records = []
    enhanced = ctx.mode is ScoringMode.ENHANCED
    for did in sorted(target.descriptors if dids is None else dids):
        profile = ctx.profiles.get(did)
        record = _record(target.descriptors[did], profile)
        records.append((did, *record[3:6], *_valuer(record, profile, enhanced, ctx.taxonomy)))
    return records


# The row kinds the kernel builds, as bits.
_RETRIEVAL = 1
_ADAPTATION = 2


def _measure(
    target_records: list[tuple], records: Mapping[str, tuple], ctx: ScoringContext, kinds: int
) -> tuple[Optional[RetrievalResult], Optional[AdaptationResult]]:
    """The scoring kernel: the source's retrieval result if ``kinds`` holds
    ``_RETRIEVAL`` and its adaptation result if it holds ``_ADAPTATION``,
    from the target's records (as :func:`_target_records` gives them) and
    the source's records by descriptor id.

    It walks the target's records in id order, each against the source's
    record of its id. A pair takes its value from the target record's value
    function, only if a requested row needs it: a retrieval row needs the
    value of a pair present in ``ctx.mode``, an adaptation row that of a
    pair whose operating modes are not both unspecified. Adaptation values
    are always enhanced, so adaptation rows are asked for only with an
    enhanced ``ctx``. Sums run over the rows in id order.
    """
    retrieval, adaptation = bool(kinds & _RETRIEVAL), bool(kinds & _ADAPTATION)
    enhanced = ctx.mode is ScoringMode.ENHANCED
    rows: list[LocalScores] = []
    terms: list[AdaptationTerm] = []
    numerator, denominator, adapted_sum = 0.0, 0, 0.0
    for did, t_state, t_om, t_uncertain, value, _ in target_records:
        s = records.get(did)
        if s is None:
            continue
        # In enhanced mode an uncertain value on either side keeps the
        # pair out of retrieval; doubt does not keep it out of adaptation.
        present = retrieval and not (enhanced and (t_uncertain or s[5]))
        adapted = adaptation and (t_om != _UNSPECIFIED or s[4] != _UNSPECIFIED)
        if not (present or adapted):
            phi = 0.0
        else:
            phi = value(s)
        if retrieval:
            presence = 1 if present else 0
            # States agree when both are absent or equal ignoring case.
            state = 1 if t_state == s[3] else 0
            # Modes must match exactly: a one-sided blank cannot certify agreement.
            om = 1 if t_om == s[4] else 0
            factor = phi if present else 0.0
            product = factor * state * presence * om
            rows.append(LocalScores(did, factor, state, presence, om, product))
            numerator += product
            denominator += presence
        if adapted:
            weight = _weight(t_om, s[4])
            term = weight * phi
            terms.append(AdaptationTerm(did, weight, 1, phi, term))
            adapted_sum += term
    return (
        RetrievalResult(numerator / denominator if denominator else 0.0, rows) if retrieval else None,
        AdaptationResult(adapted_sum / len(terms) if terms else 0.0, terms) if adaptation else None,
    )


def _measure_one(target: Case, source: Case, ctx: ScoringContext, kinds: int) -> tuple:
    """The kernel on one source, once the source and then the target pass
    :func:`_refuse`, compiling only the descriptors both cases record, the
    only ones it reads."""
    _refuse([source], ctx.taxonomy, ctx.profiles)
    _refuse([target], ctx.taxonomy, ctx.profiles)
    shared = target.descriptors.keys() & source.descriptors.keys()
    records = {did: _record(source.descriptors[did], ctx.profiles.get(did)) for did in shared}
    return _measure(_target_records(target, ctx, shared), records, ctx, kinds)


def retrieval_measure(target: Case, source: Case, ctx: ScoringContext) -> RetrievalResult:
    """Global retrieval score with its per-descriptor breakdown.

    Sums run over co-present descriptors in id order. A pair excluded by the
    presence factor contributes zero to both sums and its value factor is
    reported as 0 without being evaluated, so enhanced scoring is exactly
    equivalent to deleting the uncertain descriptors up front. With nothing
    co-present the source is incomparable and scores 0. A case that
    :func:`validate_case` reports, either case, the source first, raises
    ``DocumentValidationError`` with its violations.
    """
    return _measure_one(target, source, ctx, _RETRIEVAL)[0]


def adaptation_measure(target: Case, source: Case, ctx: ScoringContext) -> AdaptationResult:
    """How well the source's knowledge transfers to the target, in [0, 4],
    with its per-descriptor breakdown: the mean of the value similarities of
    the co-present descriptors with an operating mode on either side,
    uncertain ones included (doubt disqualifies a value from similarity, not
    from pointing at a failing component), each weighted by
    :func:`lambda_weight`; 0 with no such descriptor. Values compare as in
    enhanced mode whatever ``ctx.mode`` says, so callers pass the target
    corrected (the pipeline always does). Invalid values are refused as in
    :func:`retrieval_measure`.
    """
    if ctx.mode is not ScoringMode.ENHANCED:
        ctx = ScoringContext(taxonomy=ctx.taxonomy, profiles=ctx.profiles)
    return _measure_one(target, source, ctx, _ADAPTATION)[1]


# Held while a case base compiles; one for all bases, as compiling is rare.
# It comes from _thread, loaded at interpreter start, since importing
# threading would add to every CLI process's start-up.
_COMPILE_LOCK = allocate_lock()


def _compiled_sources(case_base: CaseBase) -> tuple:
    """The case base's sources compiled for ranking: compiled once, on the
    first call, with the cyclic garbage collector paused, and cached on the
    case base. Calls that find nothing compiled take a lock and look again,
    so threads that start together on a fresh base build one tuple between
    them. A tuple of

    - the sources in id order, each with its records by descriptor id;
    - the posting lists: for each (descriptor id, casefolded state,
      operating-mode code, uncertain flag), the records of the sources that
      record that id with that state, mode and flag, in source order; each
      record ends with its source's position. :func:`rank_sources` replaces
      a list by its columns (:func:`_columns`) the first time it reads it,
      so that a query pays only for the lists it reads;
    - one bit per descriptor id;
    - per scoring mode, one mask per source of the ids that count toward its
      denominator: its certain ids in enhanced mode, all of them in typical.

    The sources are validated first (:func:`_refuse`, in id order), unless
    the base carries the mark of a validating decode: a refusal leaves
    through the lock, which it releases, and nothing is cached, so every
    later query is refused alike.
    """
    compiled = case_base._compiled
    if compiled is not None:
        return compiled
    with _COMPILE_LOCK:
        compiled = case_base._compiled
        if compiled is not None:
            return compiled
        profiles, cases = case_base.profiles, case_base.sources()
        if not case_base._validated:
            _refuse(cases, case_base.taxonomy, profiles)
        sources = []
        postings: defaultdict[tuple, list[tuple]] = defaultdict(list)
        bits: dict[str, int] = {}
        certain_masks = []
        present_masks = []
        with _collector_paused():
            for position, source in enumerate(cases):
                records = {}
                certain = present = 0
                for did, d in source.descriptors.items():
                    record = records[did] = _record(d, profiles.get(did), position)
                    bit = bits.get(did)
                    if bit is None:
                        bit = bits[did] = 1 << len(bits)
                    present |= bit
                    if not record[5]:
                        certain |= bit
                    postings[did, record[3], record[4], record[5]].append(record)
                sources.append((source, records))
                certain_masks.append(certain)
                present_masks.append(present)
            compiled = (
                tuple(sources),
                dict(postings),
                bits,
                {ScoringMode.ENHANCED: certain_masks, ScoringMode.TYPICAL: present_masks},
            )
        object.__setattr__(case_base, "_compiled", compiled)
        return compiled


def rank_sources(
    target: Case, case_base: CaseBase, mode: ScoringMode, top_k: int, kinds: int
) -> list[tuple[Case, Optional[RetrievalResult], Optional[AdaptationResult]]]:
    """The ``top_k`` best sources by retrieval score, ties broken by case id,
    each with the results of the row ``kinds`` the kernel gives them.

    The base and the target have passed :func:`_refuse`, as the pipeline
    refuses them before it corrects the target.

    Scores accumulate term-at-a-time: each of the target's descriptors, in id
    order and leaving out uncertain ones in enhanced mode, hands the columns
    of the posting lists of its id, state and mode to its adder, which adds
    the value of each record that is not 0 to the numerator of the record's
    source, kept in a plain dict by source position. Enhanced mode reads the
    list of certain source values only, typical mode also the uncertain one,
    with the same adder. A source is in at most one of these lists, so it
    gets at most one addition per target descriptor, in target-id order,
    whatever the order within a list: these are the additions the kernel
    makes, in its order, less those of products that are 0, which leave a
    sum that starts at 0.0 as it is. A source that gets no addition scores 0
    as one that shares nothing.

    Selection keeps a heap of at most ``top_k`` (score, -position) pairs,
    the worst first, filled in one pass over the numerators in the order
    they were made. The order is total and ranks equal scores in id order,
    so no sort is needed. Each numerator is divided by the number of bits
    the target's mask and the source's share, a count of at least 1, so a
    score is at most its numerator: a numerator below the lowest score of a
    full heap is passed over before its count and its division. Sources
    scoring 0 fill the places left after the positive scores, in id order,
    and a ``top_k`` past the number of sources returns them all. Only the
    returned sources get rows, from one kernel call each in ranking order.
    """
    ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)
    enhanced = mode is ScoringMode.ENHANCED
    sources, postings, bits, masks = _compiled_sources(case_base)
    records = _target_records(target, ctx)
    numerators: dict[int, float] = {}
    target_mask = 0
    uncertain_flags = (False,) if enhanced else (False, True)
    for did, t_state, t_om, t_uncertain, _, add in records:
        if enhanced and t_uncertain:
            continue
        target_mask |= bits.get(did, 0)
        for uncertain in uncertain_flags:
            key = did, t_state, t_om, uncertain
            columns = postings.get(key)
            if type(columns) is list:
                # Read for the first time: its columns take its place.
                columns = postings[key] = _columns(columns, ctx.taxonomy)
            if columns is not None:
                add(columns, numerators)
    source_masks = masks[mode]
    top_k = min(top_k, len(sources))
    heap = []
    floor = -math.inf
    for i, n in numerators.items():
        # A count of at least 1 gives fl(n / count) <= n.
        if n < floor:
            continue
        score = n / (target_mask & source_masks[i]).bit_count()
        if score < floor:
            continue
        if len(heap) < top_k:
            heapq.heappush(heap, (score, -i))
        elif (score, -i) > heap[0]:
            heapq.heapreplace(heap, (score, -i))
        if len(heap) == top_k:
            floor = heap[0][0]
    best = [-i for score, i in sorted(heap, reverse=True) if score > 0]
    if len(best) < top_k:
        # Every other source scores 0: fill the places left in id order.
        positive = set(best)
        best += itertools.islice((i for i in range(len(sources)) if i not in positive), top_k - len(best))
    return [(sources[i][0], *_measure(records, sources[i][1], ctx, kinds)) for i in best]
