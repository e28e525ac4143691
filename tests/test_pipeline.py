from __future__ import annotations

import contextlib
import enum
import gc
import random
import sys
import threading
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace
from typing import Callable, Iterator
from unittest import mock

import pytest
from hypothesis import given

from cbrdiag import measures
from cbrdiag import (
    Case,
    CaseBase,
    CaseKind,
    ConfigurationError,
    Correction,
    Descriptor,
    DocumentValidationError,
    FuzzyProfile,
    FuzzySubset,
    ImperfectionFlags,
    MissingProfileError,
    NumericValue,
    OperatingMode,
    ScoringContext,
    ScoringMode,
    Solution,
    SymbolicValue,
    Taxonomy,
    adaptation_measure,
    decode_case_base,
    diagnose,
    encode_case_base,
    encode_outcome,
    prepare_target,
    retrieval_measure,
    retrieve,
    validate_case,
)
from naive_reference import naive_adaptation_score, naive_prepare, naive_retrieve, naive_select
from strategies import case_bundles, top_ks


def test_prepare_fixture_target(engine_case_base):
    prepared, corrections = prepare_target(
        engine_case_base.cases["target"], engine_case_base.profiles
    )
    assert corrections == [Correction(descriptor_id="ds3", original=95.0, corrected=100.0)]
    assert prepared.descriptors["ds3"].value == NumericValue(magnitude=100.0, unit="°C")
    assert prepared.descriptors["ds3"].flags.imprecise
    untouched = {did for did in prepared.descriptors if did != "ds3"}
    for did in untouched:
        assert prepared.descriptors[did] == engine_case_base.cases["target"].descriptors[did]


def test_prepare_without_flags_is_identity(engine_case_base):
    source = engine_case_base.cases["source2"]
    prepared, corrections = prepare_target(source, engine_case_base.profiles)
    assert prepared == source
    assert corrections == []


def test_prepare_near_prototype(engine_case_base):
    target = engine_case_base.cases["target"]
    ds3 = target.descriptors["ds3"]
    warm = replace(
        target,
        descriptors={
            **target.descriptors,
            "ds3": replace(ds3, value=NumericValue(magnitude=85.0, unit="°C")),
        },
    )
    prepared, corrections = prepare_target(warm, engine_case_base.profiles)
    assert prepared.descriptors["ds3"].value.magnitude == 80.0
    assert corrections == [Correction(descriptor_id="ds3", original=85.0, corrected=80.0)]


def test_retrieve_typical_order(engine_case_base):
    ranking = retrieve(
        engine_case_base.cases["target"], engine_case_base, ScoringMode.TYPICAL, 3
    )
    assert [sc.case_id for sc in ranking] == ["source2", "source3", "source1"]
    assert ranking[0].m_r == 0.8250000000000001
    assert ranking[1].m_r == 0.75
    assert ranking[2].m_r == 0.5


def test_retrieve_enhanced_tie_broken_by_id(engine_case_base):
    ranking = retrieve(
        engine_case_base.cases["target"], engine_case_base, ScoringMode.ENHANCED, 3
    )
    assert [(sc.case_id, sc.m_r) for sc in ranking] == [
        ("source2", 1.0),
        ("source3", 1.0),
        ("source1", 0.5),
    ]


def test_retrieve_truncates(engine_case_base):
    ranking = retrieve(engine_case_base.cases["target"], engine_case_base, ScoringMode.TYPICAL, 1)
    assert [sc.case_id for sc in ranking] == ["source2"]


def test_retrieve_rejects_nonpositive_top_k(engine_case_base):
    with pytest.raises(ConfigurationError):
        retrieve(engine_case_base.cases["target"], engine_case_base, ScoringMode.TYPICAL, 0)


def test_retrieve_empty_case_base(engine_case_base):
    empty = CaseBase(taxonomy=engine_case_base.taxonomy, profiles={}, cases={})
    target = Case(id="t", kind=CaseKind.TARGET, descriptors={})
    assert retrieve(target, empty, ScoringMode.TYPICAL, 3) == []


def test_diagnose_fixture(engine_case_base):
    outcome = diagnose(engine_case_base.cases["target"], engine_case_base, top_k=3)
    assert outcome.selected_case_id == "source3"
    assert outcome.solution == engine_case_base.cases["source3"].solution
    selected = [sc for sc in outcome.ranking if sc.case_id == "source3"][0]
    assert selected.m_a == 2.0
    assert outcome.corrections_applied == [
        Correction(descriptor_id="ds3", original=95.0, corrected=100.0)
    ]


def test_diagnose_empty_case_base(engine_case_base):
    empty = CaseBase(taxonomy=engine_case_base.taxonomy, profiles={}, cases={})
    target = Case(id="t", kind=CaseKind.TARGET, descriptors={})
    outcome = diagnose(target, empty)
    assert outcome.selected_case_id is None
    assert outcome.solution is None
    assert outcome.ranking == []


def test_diagnose_single_source_selected_regardless_of_score():
    taxonomy = Taxonomy([("root", None), ("a", "root"), ("b", "root")])
    target = Case(
        id="t",
        kind=CaseKind.TARGET,
        descriptors={
            "d1": Descriptor(
                id="d1", name="d1", value=SymbolicValue(label="a"), operating_mode=OperatingMode.NORMAL
            )
        },
    )
    lone = Case(
        id="s0",
        kind=CaseKind.SOURCE,
        descriptors={
            "d2": Descriptor(
                id="d2", name="d2", value=SymbolicValue(label="b"), operating_mode=OperatingMode.NORMAL
            )
        },
        solution=Solution(failing_component="b", action="replace"),
    )
    case_base = CaseBase(taxonomy=taxonomy, profiles={}, cases={"t": target, "s0": lone})
    outcome = diagnose(target, case_base)
    assert outcome.selected_case_id == "s0"
    assert outcome.solution == lone.solution


def test_diagnose_exact_duplicate_wins():
    taxonomy = Taxonomy([("root", None), ("a", "root"), ("b", "root")])
    descriptors = {
        "d1": Descriptor(
            id="d1", name="d1", value=SymbolicValue(label="a"), operating_mode=OperatingMode.ABNORMAL
        ),
        "d2": Descriptor(
            id="d2", name="d2", value=SymbolicValue(label="b"), operating_mode=OperatingMode.NORMAL
        ),
    }
    target = Case(id="t", kind=CaseKind.TARGET, descriptors=descriptors)
    duplicate = Case(
        id="dup",
        kind=CaseKind.SOURCE,
        descriptors=descriptors,
        solution=Solution(failing_component="a", action="swap"),
    )
    other = Case(
        id="aaa",
        kind=CaseKind.SOURCE,
        descriptors={
            "d2": Descriptor(
                id="d2", name="d2", value=SymbolicValue(label="b"), operating_mode=OperatingMode.NORMAL
            )
        },
        solution=Solution(failing_component="b", action="inspect"),
    )
    case_base = CaseBase(
        taxonomy=taxonomy, profiles={}, cases={"t": target, "dup": duplicate, "aaa": other}
    )
    outcome = diagnose(target, case_base)
    assert outcome.selected_case_id == "dup"


def test_diagnose_deterministic_bytes(engine_case_base):
    first = diagnose(engine_case_base.cases["target"], engine_case_base)
    second = diagnose(engine_case_base.cases["target"], engine_case_base)
    assert encode_outcome(first) == encode_outcome(second)


@given(case_bundles())
def test_ranking_is_a_permutation_before_truncation(bundle):
    case_base, target = bundle
    ranking = retrieve(target, case_base, ScoringMode.ENHANCED, len(case_base.cases) + 1)
    assert sorted(sc.case_id for sc in ranking) == sorted(c.id for c in case_base.sources())


@given(case_bundles(min_sources=1))
def test_selected_case_has_maximal_adaptation_score(bundle):
    case_base, target = bundle
    outcome = diagnose(target, case_base, top_k=5)
    assert outcome.selected_case_id in {sc.case_id for sc in outcome.ranking}
    best = max(sc.m_a for sc in outcome.ranking)
    selected = [sc for sc in outcome.ranking if sc.case_id == outcome.selected_case_id][0]
    assert selected.m_a == best


@given(case_bundles(min_sources=1))
def test_diagnose_selection_matches_naive_reference(bundle):
    case_base, target = bundle
    outcome = diagnose(target, case_base, top_k=5)
    assert outcome.selected_case_id == naive_select(target, case_base, top_k=5)
    # Every score and breakdown, not only the selection's winner: diagnose
    # builds both kinds of rows in one kernel call per ranked source.
    ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles)
    prepared = prepare_target(target, case_base.profiles)[0]
    naive_prepared = naive_prepare(target, case_base.profiles)
    for sc in outcome.ranking:
        source = case_base.cases[sc.case_id]
        naive = naive_adaptation_score(naive_prepared, source, case_base.taxonomy, case_base.profiles)
        assert sc.m_a.hex() == naive.hex()
        assert sc.breakdown_a == adaptation_measure(prepared, source, ctx).breakdown
        retrieval = retrieval_measure(prepared, source, ctx)
        assert sc.m_r.hex() == retrieval.score.hex()
        assert sc.breakdown_r == retrieval.breakdown


@given(case_bundles(min_sources=1))
def test_modes_agree_without_flags_and_numerics(bundle):
    case_base, target = bundle
    stripped_cases = {}
    for cid, case in case_base.cases.items():
        kept = {
            did: replace(d, flags=ImperfectionFlags())
            for did, d in case.descriptors.items()
            if isinstance(d.value, SymbolicValue)
        }
        stripped_cases[cid] = replace(case, descriptors=kept)
    stripped = CaseBase(
        taxonomy=case_base.taxonomy, profiles=case_base.profiles, cases=stripped_cases
    )
    target_stripped = stripped_cases[target.id]
    typical = retrieve(target_stripped, stripped, ScoringMode.TYPICAL, 10)
    enhanced = retrieve(target_stripped, stripped, ScoringMode.ENHANCED, 10)
    assert [(sc.case_id, sc.m_r) for sc in typical] == [(sc.case_id, sc.m_r) for sc in enhanced]


@given(case_bundles(valid=False), top_ks())
def test_validated_case_base_never_raises(bundle, top_k):
    # Some numerics lack a profile or leave their domain, and some fields
    # are of the wrong type: either validation rejects the case base, and
    # the encoder or the decoder refuses it, or both modes and diagnose run
    # without raising, whatever top_k, even one past sys.maxsize.
    case_base, target = bundle
    violations = [
        violation
        for case in case_base.cases.values()
        for violation in validate_case(case, case_base.taxonomy, case_base.profiles)
    ]
    if violations:
        with pytest.raises(DocumentValidationError):
            decode_case_base(encode_case_base(case_base))
        return
    decoded = decode_case_base(encode_case_base(case_base))
    for mode in ScoringMode:
        retrieve(target, decoded, mode, top_k)
    diagnose(target, decoded, top_k)


def _hex_rows(rows: list) -> list[tuple]:
    return [tuple(v.hex() if isinstance(v, float) else v for v in vars(row).values()) for row in rows]


def _violations(case_base: CaseBase, *cases: Case) -> list[str]:
    """validate_case's violations of each of ``cases``, in order."""
    return [v for case in cases for v in validate_case(case, case_base.taxonomy, case_base.profiles)]


@contextlib.contextmanager
def _count_kernel_calls() -> Iterator[list[tuple]]:
    """The arguments of each kernel call made inside the block."""
    calls: list[tuple] = []
    kernel = measures._measure
    with mock.patch.object(measures, "_measure", lambda *args: calls.append(args) or kernel(*args)):
        yield calls


def _assert_refused(query: Callable[[], object], violations: list[str]) -> None:
    """``query()`` raises DocumentValidationError carrying ``violations``,
    without a kernel call."""
    assert violations
    with _count_kernel_calls() as calls, pytest.raises(DocumentValidationError) as err:
        query()
    assert err.value.violations == violations
    assert calls == []


def _error(call, *args) -> tuple[type, str, list[str] | None] | None:
    """The type, text and violations of the exception ``call(*args)``
    raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # compared whole, so an unexpected one shows
        return type(exc), str(exc), getattr(exc, "violations", None)
    return None


def _walk(target: Case, case_base: CaseBase, mode: ScoringMode) -> None:
    # The reference walk, alike in both modes: every source is checked in id
    # order and, when all pass, the target as given, before any correction,
    # and what validation rejects is refused.
    violations = _violations(case_base, *case_base.sources()) or _violations(case_base, target)
    if violations:
        raise DocumentValidationError(violations)


@given(case_bundles(valid=False), top_ks())
def test_unvalidated_ranking_rows_match_the_measures(bundle, top_k):
    # Bases and targets that validation may reject: whenever the reference
    # walk passes, a query ranks as the oracle does, and each ranked source's
    # scores and rows are the public measures' on that source.
    case_base, target = bundle
    for mode in ScoringMode:
        if _error(_walk, target, case_base, mode) is not None:
            continue
        ranking = retrieve(target, case_base, mode, top_k)
        enhanced = mode is ScoringMode.ENHANCED
        assert [(sc.case_id, sc.m_r) for sc in ranking] == naive_retrieve(target, case_base, enhanced, top_k)
        ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)
        scored = prepare_target(target, case_base.profiles)[0] if enhanced else target
        for sc in ranking:
            result = retrieval_measure(scored, case_base.cases[sc.case_id], ctx)
            assert (sc.m_r.hex(), _hex_rows(sc.breakdown_r)) == (result.score.hex(), _hex_rows(result.breakdown))
    if _error(_walk, target, case_base, ScoringMode.ENHANCED) is not None:
        return
    outcome = diagnose(target, case_base, top_k)
    assert outcome.selected_case_id == naive_select(target, case_base, top_k)
    ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles)
    prepared = prepare_target(target, case_base.profiles)[0]
    for sc in outcome.ranking:
        source = case_base.cases[sc.case_id]
        retrieval = retrieval_measure(prepared, source, ctx)
        adaptation = adaptation_measure(prepared, source, ctx)
        assert (sc.m_r.hex(), _hex_rows(sc.breakdown_r)) == (retrieval.score.hex(), _hex_rows(retrieval.breakdown))
        assert (sc.m_a.hex(), _hex_rows(sc.breakdown_a)) == (adaptation.score.hex(), _hex_rows(adaptation.breakdown))


@given(case_bundles(valid=False), top_ks())
def test_unvalidated_queries_raise_the_reference_walks_first_error(bundle, top_k):
    # A base whose sources hold a value validation rejects refuses every
    # query with those sources' violations; a valid base holding a target
    # with such a value refuses it with the target's; enhanced mode raises
    # the target correction's error ahead of both. Each query raises what the
    # walk raises first, with no kernel call, and nothing when the walk
    # raises nothing. diagnose raises the enhanced walk's error.
    case_base, target = bundle
    for mode in ScoringMode:
        expected = _error(_walk, target, case_base, mode)
        queries = [(retrieve, target, case_base, mode, top_k)]
        if mode is ScoringMode.ENHANCED:
            queries.append((diagnose, target, case_base, top_k))
        for query in queries:
            with _count_kernel_calls() as calls:
                assert _error(*query) == expected
            assert expected is None or calls == []


def _with_source_descriptor(case_base: CaseBase, source_id: str, descriptor: Descriptor) -> CaseBase:
    """An unvalidated copy of the case base with one source descriptor set."""
    source = case_base.cases[source_id]
    changed = replace(source, descriptors={**source.descriptors, descriptor.id: descriptor})
    return replace(case_base, cases={**case_base.cases, source_id: changed})


def _numeric(did: str, magnitude: float, unit: str = "°C") -> Descriptor:
    return Descriptor(id=did, name=did, value=NumericValue(magnitude=magnitude, unit=unit))


def test_adaptation_evaluates_an_uncertain_pair_retrieval_drops(engine_case_base):
    # Unvalidated: the target's ds9 is uncertain and abnormal, so enhanced
    # retrieval would leave out source3's unknown label on it and adaptation
    # would not. Both refuse the base before either would score the pair.
    target = engine_case_base.cases["target"]
    assert target.descriptors["ds9"].flags.uncertain
    assert target.descriptors["ds9"].operating_mode is OperatingMode.ABNORMAL
    ds9 = engine_case_base.cases["source3"].descriptors["ds9"]
    unknown = replace(ds9, value=SymbolicValue("warp drive"))
    bad = _with_source_descriptor(engine_case_base, "source3", unknown)
    violations = _violations(bad, bad.cases["source3"])
    assert violations == ["source3/ds9: unknown taxonomy label 'warp drive'"]
    _assert_refused(lambda: retrieve(target, bad, ScoringMode.ENHANCED, 3), violations)
    _assert_refused(lambda: diagnose(target, bad, top_k=3), violations)


def test_adaptation_skips_a_pair_without_operating_modes(engine_case_base):
    # Unvalidated: source2's uncertain ds1 holds an unknown label, but neither
    # side of ds1 records an operating mode, so no score would read it; the
    # base is refused all the same.
    target = engine_case_base.cases["target"]
    ds1 = engine_case_base.cases["source2"].descriptors["ds1"]
    unknown = replace(ds1, value=SymbolicValue("warp drive"), flags=ImperfectionFlags(uncertain=True))
    assert target.descriptors["ds1"].operating_mode is OperatingMode.UNSPECIFIED
    assert unknown.operating_mode is OperatingMode.UNSPECIFIED
    bad = _with_source_descriptor(engine_case_base, "source2", unknown)
    violations = _violations(bad, bad.cases["source2"])
    _assert_refused(lambda: diagnose(target, bad, top_k=3), violations)
    # Certain, the same pair is refused by both public measures, which
    # compile the descriptors the two cases share.
    certain = _with_source_descriptor(engine_case_base, "source2", replace(unknown, flags=ImperfectionFlags()))
    ctx = ScoringContext(taxonomy=certain.taxonomy, profiles=certain.profiles)
    prepared = prepare_target(target, certain.profiles)[0]
    source = certain.cases["source2"]
    for measure in (adaptation_measure, retrieval_measure):
        _assert_refused(lambda: measure(prepared, source, ctx), _violations(certain, source))


class _ForeignMode(enum.Enum):
    # Its codes are OperatingMode's, but it is another Enum.
    ABNORMAL = "A"


# Descriptor fields of the wrong type, set in code on a descriptor source2
# and the target share, with the text validate_case reports for each.
WRONG_TYPES = {
    "magnitude": ("ds3", {"value": NumericValue(magnitude="5", unit="°C")}, "magnitude '5' is not a number"),
    # A Decimal passes math.isfinite and compares with floats, but typical
    # closeness cannot subtract it from a float.
    "decimal-magnitude": (
        "ds3",
        {"value": NumericValue(magnitude=Decimal("90"), unit="°C")},
        "magnitude Decimal('90') is not a number",
    ),
    "label": ("ds1", {"value": SymbolicValue(label=["a"])}, "label ['a'] is not a string"),
    "state": ("ds1", {"state": 5}, "state 5 is neither a string nor None"),
    "operating-mode": ("ds1", {"operating_mode": "A"}, "operating mode 'A' is not an OperatingMode"),
    "flags": ("ds1", {"flags": None}, "flags None are not ImperfectionFlags"),
    "foreign-operating-mode": (
        "ds1",
        {"operating_mode": _ForeignMode.ABNORMAL},
        "operating mode <_ForeignMode.ABNORMAL: 'A'> is not an OperatingMode",
    ),
    "duck-typed-flags": (
        "ds1",
        {"flags": SimpleNamespace(imprecise=False, uncertain=False)},
        "flags namespace(imprecise=False, uncertain=False) are not ImperfectionFlags",
    ),
    # A bool is an int to Python, but the document format has no numeric bool.
    "bool-magnitude": ("ds3", {"value": NumericValue(magnitude=True, unit="°C")}, "magnitude True is not a number"),
    "unit": ("ds3", {"value": NumericValue(magnitude=90.0, unit=5)}, "unit 5 is not a string"),
    "name": ("ds1", {"name": 5}, "name 5 is not a string"),
    # An int flag equals and hashes as its bool, but the document format
    # holds only booleans.
    "int-flag": ("ds1", {"flags": ImperfectionFlags(imprecise=1)}, "imprecise flag 1 is not a bool"),
    "float-flag": ("ds1", {"flags": ImperfectionFlags(uncertain=0.0)}, "uncertain flag 0.0 is not a bool"),
}


@pytest.mark.parametrize("field", sorted(WRONG_TYPES))
def test_wrong_typed_fields_are_reported_and_refused(engine_case_base, field):
    # validate_case reports the field with its path, and every query and
    # public measure refuses it with that report before any score: in a
    # source, and in a target, before enhanced mode would correct it. The
    # encoder refuses a base holding it, which no document could hold.
    did, changes, message = WRONG_TYPES[field]
    target = engine_case_base.cases["target"]
    wrong = replace(engine_case_base.cases["source2"].descriptors[did], **changes)
    bad = _with_source_descriptor(engine_case_base, "source2", wrong)
    violations = _violations(bad, bad.cases["source2"])
    assert violations == [f"source2/{did}: {message}"]
    for mode in ScoringMode:
        _assert_refused(lambda: retrieve(target, bad, mode, 3), violations)
    _assert_refused(lambda: diagnose(target, bad, top_k=3), violations)
    ctx = ScoringContext(taxonomy=bad.taxonomy, profiles=bad.profiles, mode=ScoringMode.TYPICAL)
    for measure in (adaptation_measure, retrieval_measure):
        _assert_refused(lambda: measure(target, bad.cases["source2"], ctx), violations)
    wrong_target = replace(
        target, descriptors={**target.descriptors, did: replace(target.descriptors[did], **changes)}
    )
    target_violations = _violations(engine_case_base, wrong_target)
    assert target_violations == [f"target/{did}: {message}"]
    for mode in ScoringMode:
        _assert_refused(lambda: retrieve(wrong_target, engine_case_base, mode, 3), target_violations)
    _assert_refused(lambda: diagnose(wrong_target, engine_case_base, top_k=3), target_violations)
    with pytest.raises(DocumentValidationError) as err:
        encode_case_base(bad)
    assert err.value.violations == violations


# Well-typed sources that validation reports, for something no descriptor
# pair scores: the solution's failing component, and a descriptor id that
# differs from its key.
def _unknown_component(source: Case) -> Case:
    return replace(source, solution=Solution("warp drive", "fix"))


_UNSCORED_VIOLATIONS = {
    "solution": (_unknown_component, "source2/solution: unknown taxonomy label 'warp drive'"),
    "descriptor-id": (
        lambda source: replace(
            source, descriptors={**source.descriptors, "ds1": replace(source.descriptors["ds1"], id="ds1b")}
        ),
        "source2/ds1: descriptor id 'ds1b' does not match its key",
    ),
}


@pytest.mark.parametrize("name", sorted(_UNSCORED_VIOLATIONS))
def test_unscored_violations_are_refused(engine_case_base, name):
    # validate_case is the one acceptance rule: what it reports is refused
    # by every query and both public measures, with its list and before any
    # score, although no pair would read it.
    change, message = _UNSCORED_VIOLATIONS[name]
    target = engine_case_base.cases["target"]
    source = change(engine_case_base.cases["source2"])
    bad = replace(engine_case_base, cases={**engine_case_base.cases, "source2": source})
    violations = _violations(bad, source)
    assert violations == [message]
    for mode in ScoringMode:
        _assert_refused(lambda: retrieve(target, bad, mode, 3), violations)
        ctx = ScoringContext(taxonomy=bad.taxonomy, profiles=bad.profiles, mode=mode)
        for measure in (adaptation_measure, retrieval_measure):
            _assert_refused(lambda: measure(target, source, ctx), violations)
    _assert_refused(lambda: diagnose(target, bad, top_k=3), violations)


def _with_unknown_component(case_base: CaseBase) -> CaseBase:
    """The case base with source2's solution naming no taxonomy node."""
    return replace(case_base, cases={**case_base.cases, "source2": _unknown_component(case_base.cases["source2"])})


def test_unvalidated_and_replaced_decoded_bases_are_refused_at_first_query(fixture_text):
    # Only a validating decode marks its base as validated: a base decoded
    # without validation, and a validated one changed by replace, are both
    # validated at their first query, and refused.
    document = encode_case_base(_with_unknown_component(decode_case_base(fixture_text)))
    unvalidated = decode_case_base(document, validate=False)
    replaced = _with_unknown_component(decode_case_base(fixture_text))
    violations = ["source2/solution: unknown taxonomy label 'warp drive'"]
    for case_base in (unvalidated, replaced):
        target = case_base.cases["target"]
        _assert_refused(lambda: retrieve(target, case_base, ScoringMode.TYPICAL, 3), violations)
        _assert_refused(lambda: diagnose(target, case_base, top_k=3), violations)
        assert case_base._compiled is None


def test_first_compile_validates_only_unmarked_bases(fixture_text):
    # A validating decode has just checked every case, so the first compile
    # of its base validates none; the first compile of a base decoded
    # without validation, or made by replace, validates each source once.
    validated = decode_case_base(fixture_text)
    bases = [(0, validated), (3, decode_case_base(fixture_text, validate=False)), (3, replace(validated))]
    for expected, case_base in bases:
        with mock.patch.object(measures, "validate_case", wraps=validate_case) as counted:
            measures._compiled_sources(case_base)
        assert counted.call_count == expected
        assert [call.args[0].id for call in counted.call_args_list] == ["source1", "source2", "source3"][:expected]


def test_adaptation_raises_the_first_ranked_sources_error(engine_case_base):
    # Unvalidated: source2 and source3 each hold an unknown label that only
    # adaptation would evaluate, source2 on ds9 and source3 on the earlier
    # ds2. Every query refuses the base with both sources' violations, in id
    # order, whatever the ranking; the measure refuses the source it is given.
    target = engine_case_base.cases["target"]
    ds9 = engine_case_base.cases["source2"].descriptors["ds9"]
    ds2 = engine_case_base.cases["source3"].descriptors["ds2"]
    bad = _with_source_descriptor(engine_case_base, "source2", replace(ds9, value=SymbolicValue("warp drive")))
    doubtful = ImperfectionFlags(uncertain=True)
    unknown = replace(ds2, value=SymbolicValue("flux capacitor"), flags=doubtful, operating_mode=OperatingMode.ABNORMAL)
    bad = _with_source_descriptor(bad, "source3", unknown)
    violations = _violations(bad, bad.cases["source2"], bad.cases["source3"])
    assert violations == [
        "source2/ds9: unknown taxonomy label 'warp drive'",
        "source3/ds2: unknown taxonomy label 'flux capacitor'",
    ]
    _assert_refused(lambda: retrieve(target, bad, ScoringMode.ENHANCED, 3), violations)
    for top_k in (2, 3):
        _assert_refused(lambda: diagnose(target, bad, top_k=top_k), violations)
    ctx = ScoringContext(bad.taxonomy, bad.profiles)
    _assert_refused(lambda: adaptation_measure(target, bad.cases["source3"], ctx), violations[1:])


def test_source_outside_domain_raises_in_enhanced_retrieve(engine_case_base):
    # Typical mode, which would clamp the closeness, refuses it too.
    target = engine_case_base.cases["target"]
    bad = _with_source_descriptor(engine_case_base, "source1", _numeric("ds3", 150.0))
    violations = _violations(bad, bad.cases["source1"])
    assert violations == ["source1/ds3: value 150.0 for descriptor 'ds3' outside domain [0.0, 100.0]"]
    for mode in ScoringMode:
        _assert_refused(lambda: retrieve(target, bad, mode, 3), violations)


def test_numeric_without_profile_raises_in_enhanced_retrieve(engine_case_base):
    # The base is refused before the target; the target alone is refused
    # against a valid base. Typical mode, which would score the pair 0,
    # refuses it too.
    target = engine_case_base.cases["target"]
    bare = replace(target, descriptors={**target.descriptors, "dx": _numeric("dx", 1.0, "bar")})
    bad = _with_source_descriptor(engine_case_base, "source2", _numeric("dx", 2.0, "bar"))
    source_violations = _violations(bad, bad.cases["source2"])
    assert source_violations == ["source2/dx: numeric descriptor has no fuzzy profile"]
    target_violations = _violations(engine_case_base, bare)
    assert target_violations == ["target/dx: numeric descriptor has no fuzzy profile"]
    for mode in ScoringMode:
        _assert_refused(lambda: retrieve(bare, bad, mode, 3), source_violations)
        _assert_refused(lambda: retrieve(bare, engine_case_base, mode, 3), target_violations)


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_unknown_label_raises_in_retrieve(engine_case_base, mode):
    target = engine_case_base.cases["target"]
    label = Descriptor(id="ds1", name="ds1", value=SymbolicValue(label="warp drive"))
    bad = _with_source_descriptor(engine_case_base, "source3", label)
    _assert_refused(lambda: retrieve(target, bad, mode, 3), ["source3/ds1: unknown taxonomy label 'warp drive'"])


def test_refused_base_stays_uncompiled(engine_case_base):
    # A refusal caches nothing: the next query compiles again and is refused
    # again, threads querying together are each refused without waiting on
    # one another, and a base built from the fixed cases ranks as usual.
    target = engine_case_base.cases["target"]
    label = Descriptor(id="ds1", name="ds1", value=SymbolicValue(label="warp drive"))
    bad = _with_source_descriptor(engine_case_base, "source3", label)
    violations = _violations(bad, bad.cases["source3"])
    collecting = gc.isenabled()
    for _ in range(2):
        _assert_refused(lambda: retrieve(target, bad, ScoringMode.TYPICAL, 3), violations)
        assert bad._compiled is None
        assert gc.isenabled() == collecting
    barrier = threading.Barrier(2, timeout=60)
    results: list = [None, None]

    def run(j: int) -> None:
        barrier.wait()
        try:
            retrieve(target, bad, ScoringMode.ENHANCED, 3)
        except Exception as exc:  # compared below, so an unexpected one shows
            results[j] = exc

    workers = [threading.Thread(target=run, args=(j,)) for j in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert [type(exc) for exc in results] == [DocumentValidationError] * 2
    assert [exc.violations for exc in results] == [violations] * 2
    assert bad._compiled is None and not measures._COMPILE_LOCK.locked()
    fixed = replace(bad, cases={**bad.cases, "source3": engine_case_base.cases["source3"]})
    for mode in ScoringMode:
        ranking = retrieve(target, fixed, mode, 3)
        reference = naive_retrieve(target, fixed, mode is ScoringMode.ENHANCED, 3)
        assert [(sc.case_id, sc.m_r) for sc in ranking] == reference


def test_kernel_branches_match_naive_reference():
    taxonomy = Taxonomy([("root", None), ("a", "root"), ("a1", "a"), ("a2", "a"), ("b", "root")])
    profile = FuzzyProfile(
        descriptor_id="n",
        domain_lower=0.0,
        domain_upper=100.0,
        prototype=50.0,
        half_width=10.0,
        subsets=[FuzzySubset("low", 0.0, 30.0), FuzzySubset("high", 70.0, 100.0)],
    )

    def case(cid: str, kind: CaseKind, value, state: str | None, uncertain: bool = False) -> Case:
        descriptors = {
            "n": Descriptor(
                id="n",
                name="n",
                value=value,
                state=state,
                operating_mode=OperatingMode.ABNORMAL,
                flags=ImperfectionFlags(uncertain=uncertain),
            ),
            "s": Descriptor(id="s", name="s", value=SymbolicValue("a1"), state="On"),
        }
        return Case(id=cid, kind=kind, descriptors=descriptors, solution=Solution("a", "fix"))

    target = case("t", CaseKind.TARGET, NumericValue(20.0, "u"), "Open")
    sources = [
        case("k0", CaseKind.SOURCE, NumericValue(20.0, "u"), "open"),  # case-only state difference
        case("k1", CaseKind.SOURCE, NumericValue(25.0, "u"), "OPEN"),  # same class
        case("k2", CaseKind.SOURCE, NumericValue(80.0, "u"), "Open"),  # other class
        case("k3", CaseKind.SOURCE, NumericValue(20.0, "v"), "Open"),  # unit mismatch
        case("k4", CaseKind.SOURCE, SymbolicValue("a2"), "Open"),  # kind mismatch
        case("k5", CaseKind.SOURCE, NumericValue(40.0, "u"), "Open"),  # gap below prototype
        case("k6", CaseKind.SOURCE, NumericValue(20.0, "u"), "Shut"),  # state disagrees
        case("k7", CaseKind.SOURCE, NumericValue(20.0, "u"), "Open", uncertain=True),
    ]
    case_base = CaseBase(
        taxonomy=taxonomy,
        profiles={"n": profile},
        cases={c.id: c for c in [target, *sources]},
    )
    for mode in ScoringMode:
        engine = retrieve(target, case_base, mode, len(sources))
        reference = naive_retrieve(target, case_base, mode is ScoringMode.ENHANCED, len(sources))
        assert [(sc.case_id, sc.m_r) for sc in engine] == reference
        ctx = ScoringContext(taxonomy=taxonomy, profiles=case_base.profiles, mode=mode)
        scored = prepare_target(target, case_base.profiles)[0] if mode is ScoringMode.ENHANCED else target
        for sc in engine:
            assert retrieval_measure(scored, case_base.cases[sc.case_id], ctx).breakdown == sc.breakdown_r


@given(case_bundles(min_sources=1))
def test_ranking_breakdowns_match_retrieval_measure(bundle):
    case_base, target = bundle
    for mode in ScoringMode:
        ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)
        scored = prepare_target(target, case_base.profiles)[0] if mode is ScoringMode.ENHANCED else target
        for sc in retrieve(target, case_base, mode, 3):
            result = retrieval_measure(scored, case_base.cases[sc.case_id], ctx)
            assert (sc.m_r, sc.breakdown_r) == (result.score, result.breakdown)


def test_replaced_case_base_scores_its_own_cases(engine_case_base):
    target = engine_case_base.cases["target"]
    base = replace(engine_case_base)
    before = retrieve(target, base, ScoringMode.TYPICAL, 3)
    source2 = base.cases["source2"]
    emptied = replace(source2, descriptors={})
    changed = replace(base, cases={**base.cases, "source2": emptied})
    after = retrieve(target, changed, ScoringMode.TYPICAL, 3)
    assert [(sc.case_id, sc.m_r) for sc in after] == naive_retrieve(target, changed, False, 3)
    assert [sc.case_id for sc in after] == ["source3", "source1", "source2"]
    assert after[2].m_r == 0.0
    assert retrieve(target, base, ScoringMode.TYPICAL, 3) == before


# Sources for the posting-list cases. The full target records "a", "n" and
# "z": s1, s2, s6 record "a" (s2 in another state); s4, s7 record "n"; no
# source records "z"; s0, s3 and s5 share nothing with it. The wide target
# records "c" (s0, s1, s3) in place of "z".
_INDEX_TAXONOMY = Taxonomy([("root", None), ("a", "root"), ("a1", "a"), ("a2", "a"), ("b", "root")])
_INDEX_PROFILE = FuzzyProfile(
    descriptor_id="n",
    domain_lower=0.0,
    domain_upper=100.0,
    prototype=50.0,
    half_width=10.0,
    subsets=[FuzzySubset("low", 0.0, 30.0), FuzzySubset("high", 70.0, 100.0)],
)


def _sym(did: str, label: str, state: str | None = "On", uncertain: bool = False) -> Descriptor:
    return Descriptor(
        id=did,
        name=did,
        value=SymbolicValue(label),
        state=state,
        flags=ImperfectionFlags(uncertain=uncertain),
    )


def _index_case(cid: str, kind: CaseKind, *descriptors: Descriptor) -> Case:
    solution = Solution("a", "fix") if kind is CaseKind.SOURCE else None
    return Case(id=cid, kind=kind, descriptors={d.id: d for d in descriptors}, solution=solution)


_INDEX_SOURCES = [
    _index_case("s0", CaseKind.SOURCE, _sym("c", "b")),
    _index_case("s1", CaseKind.SOURCE, _sym("a", "a1"), _sym("c", "b")),
    _index_case("s2", CaseKind.SOURCE, _sym("a", "a1", state="Off")),  # shares, scores 0
    _index_case("s3", CaseKind.SOURCE, _sym("c", "a")),
    _index_case("s4", CaseKind.SOURCE, _numeric("n", 20.0, "u")),
    _index_case("s5", CaseKind.SOURCE),
    _index_case("s6", CaseKind.SOURCE, _sym("a", "a2", uncertain=True)),  # 0 only when enhanced
    _index_case("s7", CaseKind.SOURCE, _numeric("n", 90.0, "u")),  # 0 only when enhanced
]
_INDEX_TARGETS = {
    "full": (_sym("a", "a1"), _numeric("n", 20.0, "u"), _sym("z", "b")),
    "wide": (_sym("a", "a1"), _numeric("n", 20.0, "u"), _sym("c", "b")),
    "unrecorded": (_sym("z", "b"),),
    "empty": (),
}


def _index_case_base(target_name: str, *replaced: Case) -> tuple[CaseBase, Case]:
    target = _index_case("t", CaseKind.TARGET, *_INDEX_TARGETS[target_name])
    cases = {c.id: c for c in [*_INDEX_SOURCES, target, *replaced]}
    return CaseBase(taxonomy=_INDEX_TAXONOMY, profiles={"n": _INDEX_PROFILE}, cases=cases), target


@pytest.mark.parametrize("target_name", sorted(_INDEX_TARGETS))
@pytest.mark.parametrize("top_k", [1, 2, 6, 8, 20])
@pytest.mark.parametrize("mode", list(ScoringMode))
def test_index_ranking_matches_naive_reference(mode, top_k, target_name):
    case_base, target = _index_case_base(target_name)
    engine = retrieve(target, case_base, mode, top_k)
    reference = naive_retrieve(target, case_base, mode is ScoringMode.ENHANCED, top_k)
    assert [(sc.case_id, sc.m_r) for sc in engine] == reference
    ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)
    for sc in engine:
        assert sc.breakdown_r == retrieval_measure(target, case_base.cases[sc.case_id], ctx).breakdown


def test_index_zero_scores_fill_in_id_order():
    # Past the two positive scores, zero-score sources that share a
    # descriptor (s2) and sources that share none (s0, s3, s5) interleave.
    case_base, target = _index_case_base("full")
    ranking = retrieve(target, case_base, ScoringMode.ENHANCED, 6)
    assert [sc.case_id for sc in ranking] == ["s1", "s4", "s0", "s2", "s3", "s5"]
    assert [sc.m_r for sc in ranking] == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert [len(sc.breakdown_r) for sc in ranking] == [1, 1, 0, 1, 0, 0]


# Twelve sources, each recording one of the target's "a" (a1) and "b" (b):
# s00, s04, s08 record b (1.0); s01, s05, s09 a2 (0.5); s02, s06, s10 a1,
# uncertain (1.0 in typical mode, 0 in enhanced); s03, s07, s11 a1 (1.0).
# The target reads "a" first, its certain list before its uncertain one, so
# the sources tied at 1.0 get their first addition out of id order.
_TIE_SOURCES = [
    _index_case(f"s{i:02d}", CaseKind.SOURCE, _sym("b", "b"))
    if i % 4 == 0
    else _index_case(f"s{i:02d}", CaseKind.SOURCE, _sym("a", "a2" if i % 4 == 1 else "a1", uncertain=i % 4 == 2))
    for i in range(12)
]


@pytest.mark.parametrize("state", ["On", "Off"], ids=["ties", "all-zero"])
@pytest.mark.parametrize("top_k", [1, 2, 3, 5, 8, 9, 11, 12, 20, sys.maxsize + 1])
@pytest.mark.parametrize("mode", list(ScoringMode))
def test_ties_past_top_k_rank_in_id_order(mode, top_k, state):
    # More sources tie at the k-th score than top_k allows. In state "Off"
    # the target shares no state with any source, so every score is 0.
    target = _index_case("t", CaseKind.TARGET, _sym("a", "a1", state=state), _sym("b", "b", state=state))
    cases = {c.id: c for c in [*_TIE_SOURCES, target]}
    case_base = CaseBase(taxonomy=_INDEX_TAXONOMY, profiles={}, cases=cases)
    ranking = retrieve(target, case_base, mode, top_k)
    assert [(sc.case_id, sc.m_r) for sc in ranking] == naive_retrieve(
        target, case_base, mode is ScoringMode.ENHANCED, top_k
    )


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_index_refuses_unscorable_sources_that_share_nothing(mode):
    # Unvalidated: s0 holds an unknown label and s3 a numeric without a
    # profile, on a descriptor the target does not record; the base is
    # refused with both, although neither could pair with the target.
    case_base, target = _index_case_base(
        "full",
        _index_case("s0", CaseKind.SOURCE, _sym("c", "warp drive")),
        _index_case("s3", CaseKind.SOURCE, _numeric("c", 1.0, "bar")),
    )
    violations = _violations(case_base, case_base.cases["s0"], case_base.cases["s3"])
    assert violations == ["s0/c: unknown taxonomy label 'warp drive'", "s3/c: numeric descriptor has no fuzzy profile"]
    _assert_refused(lambda: retrieve(target, case_base, mode, 8), violations)


def test_index_first_unscorable_sharing_source_raises():
    # s2's unknown label comes before s7's out-of-domain numeric in id order,
    # and the refusal reports both, in that order.
    bad_label = _index_case("s2", CaseKind.SOURCE, _sym("a", "warp drive"))
    bad_numeric = _index_case("s7", CaseKind.SOURCE, _numeric("n", 150.0, "u"))
    for mode in ScoringMode:
        case_base, target = _index_case_base("full", bad_label, bad_numeric)
        _assert_refused(lambda: retrieve(target, case_base, mode, 3), _violations(case_base, bad_label, bad_numeric))
        case_base, target = _index_case_base("full", bad_numeric)
        _assert_refused(
            lambda: retrieve(target, case_base, mode, 3),
            ["s7/n: value 150.0 for descriptor 'n' outside domain [0.0, 100.0]"],
        )


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_index_unscorable_source_in_another_posting_list_raises(mode):
    # The unknown label sits on "a", which the target records as "On" with no
    # operating mode: once in state "Off", once in operating mode "A". The
    # product would be 0 either way, but the base is refused.
    off = _index_case("s2", CaseKind.SOURCE, _sym("a", "warp drive", state="Off"))
    abnormal = _index_case(
        "s2", CaseKind.SOURCE, replace(_sym("a", "warp drive"), operating_mode=OperatingMode.ABNORMAL)
    )
    for bad in (off, abnormal):
        case_base, target = _index_case_base("full", bad)
        _assert_refused(lambda: retrieve(target, case_base, mode, 3), ["s2/a: unknown taxonomy label 'warp drive'"])


def _sources_with(extra: Descriptor) -> list[Case]:
    """200 sources recording "a" and "n"; s150 also records ``extra``."""
    labels = ("a1", "a2", "a", "b")
    sources = [
        _index_case(f"s{i:03d}", CaseKind.SOURCE, _sym("a", labels[i % 4]), _numeric("n", float(i % 101), "u"))
        for i in range(200)
    ]
    sources[150] = replace(sources[150], descriptors={**sources[150].descriptors, extra.id: extra})
    return sources


# Of 200 sources, s150 records one descriptor more. In "source", s150 holds
# an unknown label on "c", which the target does not record. In "target",
# s150 records "m" at 90.0 and the target holds "m" at 150.0, outside its
# domain, so only s150 could pair with that record.
_REFUSED_AMONG_MANY = {
    "source": (_sym("c", "warp drive"), _INDEX_TARGETS["full"], "s150"),
    "target": (
        _numeric("m", 90.0, "u"),
        (_sym("a", "a1"), _numeric("n", 20.0, "u"), _numeric("m", 150.0, "u")),
        "t",
    ),
}


@pytest.mark.parametrize("side", sorted(_REFUSED_AMONG_MANY))
def test_one_refused_case_among_many_makes_no_kernel_call(side):
    extra, target_descriptors, refused = _REFUSED_AMONG_MANY[side]
    target = _index_case("t", CaseKind.TARGET, *target_descriptors)
    cases = {c.id: c for c in [*_sources_with(extra), target]}
    profiles = {"n": _INDEX_PROFILE, "m": replace(_INDEX_PROFILE, descriptor_id="m")}
    case_base = CaseBase(taxonomy=_INDEX_TAXONOMY, profiles=profiles, cases=cases)
    violations = _violations(case_base, cases[refused])
    for mode in ScoringMode:
        _assert_refused(lambda: retrieve(target, case_base, mode, 3), violations)
    _assert_refused(lambda: diagnose(target, case_base, 3), violations)


def test_nan_target_magnitude_fails_the_domain_check(engine_case_base):
    # ds3 is imprecise in the fixture target; enhanced retrieval refuses the
    # target before it would correct it, as the profile refuses 150.0.
    target = engine_case_base.cases["target"]
    nan = replace(target.descriptors["ds3"], value=NumericValue(float("nan"), "°C"))
    bad = replace(target, descriptors={**target.descriptors, "ds3": nan})
    _assert_refused(
        lambda: diagnose(bad, engine_case_base),
        ["target/ds3: value nan for descriptor 'ds3' outside domain [0.0, 100.0]"],
    )


def test_nan_target_magnitude_is_refused_in_typical_retrieve(engine_case_base):
    # Typical mode neither corrects nor checks the target through its
    # profile, so a library-built NaN reaches compile, which refuses it.
    target = engine_case_base.cases["target"]
    nan = replace(target.descriptors["ds3"], value=NumericValue(float("nan"), "°C"))
    bad = replace(target, descriptors={**target.descriptors, "ds3": nan})
    violations = _violations(engine_case_base, bad)
    assert violations == ["target/ds3: value nan for descriptor 'ds3' outside domain [0.0, 100.0]"]
    _assert_refused(lambda: retrieve(bad, engine_case_base, ScoringMode.TYPICAL, 3), violations)


# Posting-list layouts. The target records "a" (symbolic) and "m" (symbolic,
# uncertain) in state "On", and "n" (numeric in "u") with no state, unless
# _LAYOUT_TARGETS gives a layout its own. Each layout puts source records
# under the keys the target reads: certain and uncertain ones under one (id,
# state, mode), records of the other kind, numerics in another unit, labels
# related to the target's in every way at several depths, and numerics that
# fall in no fuzzy subset ("z" has a profile without subsets).
_LAYOUT_TARGET = (_sym("a", "a1"), _sym("m", "b", uncertain=True), _numeric("n", 20.0, "u"))
_LAYOUT_TARGETS = {
    "root-label": (_sym("a", "root"), _sym("m", "b", uncertain=True), _numeric("n", 20.0, "u")),
    "label-relations": (_sym("a", "a11"), _sym("m", "b", uncertain=True), _numeric("n", 20.0, "u")),
    "magnitude-without-subset": (_sym("a", "a1"), _numeric("z", 50.0, "u")),
}
# The index taxonomy grown to depth 4 under "a" and to depth 2 under "b".
_LAYOUT_TAXONOMY = Taxonomy(
    [
        ("root", None),
        ("a", "root"),
        ("a1", "a"),
        ("a11", "a1"),
        ("a111", "a11"),
        ("a12", "a1"),
        ("a2", "a"),
        ("a21", "a2"),
        ("a211", "a21"),
        ("b", "root"),
        ("b1", "b"),
    ]
)
_LAYOUTS = {
    "certain-and-uncertain": [
        (_sym("a", "a2"), _sym("m", "b")),
        (_sym("a", "a1", uncertain=True), _numeric("n", 25.0, "u")),
        (_sym("a", "a1"), _sym("m", "a", uncertain=True)),
        (_sym("a", "b", uncertain=True),),
        (_sym("a", "a", uncertain=True), replace(_numeric("n", 20.0, "u"), flags=ImperfectionFlags(uncertain=True))),
    ],
    "other-kind": [
        (replace(_numeric("a", 40.0, "u"), state="On"),),
        (_sym("a", "a2"), replace(_sym("n", "a1"), state=None)),
        (_numeric("n", 25.0, "u"), replace(_numeric("a", 5.0, "u"), state="On")),
        (replace(_sym("n", "b"), state=None),),
    ],
    "other-unit": [
        (_numeric("n", 20.0, "v"),),
        (_numeric("n", 25.0, "u"),),
        (_numeric("n", 60.0, "v"), _sym("a", "a1")),
        (_numeric("n", 90.0, "u"),),
    ],
    "root-label": [
        (_sym("a", "a1"), _sym("m", "root")),
        (_sym("a", "root"),),
        (_sym("a", "b1"), _numeric("n", 20.0, "u")),
        (_sym("a", "root", uncertain=True), _sym("m", "b")),
        (_sym("a", "a111"),),
    ],
    "label-relations": [
        (_sym("a", "a11"),),  # equal
        (_sym("a", "a1"), _sym("m", "b1")),  # ancestor; descendant of "b"
        (_sym("a", "a"), _sym("m", "b")),  # ancestor; equal
        (_sym("a", "root"), _sym("m", "root")),  # the root on both
        (_sym("a", "a111"), _sym("m", "a")),  # descendant; other branch
        (_sym("a", "a12"),),  # sibling
        (_sym("a", "a211"), _sym("m", "b1", uncertain=True)),  # cousin, deeper
        (_sym("a", "a2"), _sym("m", "a21")),  # cousin, shallower
        (_sym("a", "b1"),),  # other branch
        (_sym("a", "a11", state="Off"),),  # equal, in another list
    ],
    "magnitude-without-subset": [
        (_numeric("z", 50.0, "v"),),
        (_numeric("z", 50.0, "u"),),
        (_numeric("z", 55.0, "u"), _sym("a", "a1", uncertain=True)),
        (_sym("z", "a1"), _numeric("a", 50.0, "u")),
        (_numeric("z", 0.0, "u"), _sym("a", "a2")),
        (replace(_numeric("z", 50.0, "u"), flags=ImperfectionFlags(uncertain=True)),),
    ],
    # Both kinds under one (id, state, mode), interleaved, certain and uncertain.
    "both-kinds": [
        (replace(_sym("n", "a1"), state=None), replace(_numeric("a", 40.0, "u"), state="On")),
        (_numeric("n", 25.0, "u"), _sym("a", "a11")),
        (replace(_sym("n", "root"), state=None), replace(_numeric("a", 10.0, "u"), state="On")),
        (replace(_numeric("n", 20.0, "u"), flags=ImperfectionFlags(uncertain=True)), _sym("a", "a1", uncertain=True)),
        (
            replace(_sym("n", "b", uncertain=True), state=None),
            replace(_numeric("a", 20.0, "u"), state="On", flags=ImperfectionFlags(uncertain=True)),
        ),
        (_numeric("n", 90.0, "u"), _sym("a", "b1")),
        (replace(_sym("n", "a1", uncertain=True), state=None), _sym("a", "a", uncertain=True)),
    ],
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("mode", list(ScoringMode))
def test_posting_layouts_match_naive_reference(mode, layout):
    sources = [_index_case(f"p{i}", CaseKind.SOURCE, *ds) for i, ds in enumerate(_LAYOUTS[layout])]
    target = _index_case("t", CaseKind.TARGET, *_LAYOUT_TARGETS.get(layout, _LAYOUT_TARGET))
    profiles = {
        "n": _INDEX_PROFILE,
        "a": replace(_INDEX_PROFILE, descriptor_id="a"),
        "z": replace(_INDEX_PROFILE, descriptor_id="z", subsets=[]),
    }
    case_base = CaseBase(
        taxonomy=_LAYOUT_TAXONOMY, profiles=profiles, cases={c.id: c for c in [*sources, target]}
    )
    ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)
    for top_k in (1, 2, len(sources) + 3):
        engine = retrieve(target, case_base, mode, top_k)
        reference = naive_retrieve(target, case_base, mode is ScoringMode.ENHANCED, top_k)
        assert [(sc.case_id, sc.m_r.hex()) for sc in engine] == [(cid, m.hex()) for cid, m in reference]
        for sc in engine:
            assert sc.breakdown_r == retrieval_measure(target, case_base.cases[sc.case_id], ctx).breakdown
    assert any(sc.m_r > 0 for sc in engine) and any(sc.m_r == 0 for sc in engine)


def _threaded_case_base(seed: int) -> CaseBase:
    # A seeded base of 300 sources over 16 descriptor ids, in four states,
    # three operating modes and both uncertain flags, so that several
    # hundred posting lists exist and none is compiled yet.
    rng = random.Random(seed)
    numeric_ids = ("n0", "n1", "n2", "n3")
    profiles = {did: replace(_INDEX_PROFILE, descriptor_id=did) for did in numeric_ids}
    ids = [f"d{i}" for i in range(12)] + list(numeric_ids)

    def case(cid: str, kind: CaseKind) -> Case:
        descriptors = []
        for did in sorted(rng.sample(ids, 6)):
            if did in profiles:
                value = NumericValue(float(rng.randrange(0, 101, 5)), "u")
                imprecise = kind is CaseKind.TARGET and rng.random() < 0.5
            else:
                value, imprecise = SymbolicValue(rng.choice(_LAYOUT_TAXONOMY.nodes())), False
            descriptors.append(
                Descriptor(
                    id=did,
                    name=did,
                    value=value,
                    state=rng.choice(["On", "on", "Off", None]),
                    operating_mode=rng.choice(list(OperatingMode)),
                    flags=ImperfectionFlags(imprecise=imprecise, uncertain=rng.random() < 0.25),
                )
            )
        return _index_case(cid, kind, *descriptors)

    cases = [case(f"s{i:03d}", CaseKind.SOURCE) for i in range(300)]
    cases += [case(f"t{i}", CaseKind.TARGET) for i in range(8)]
    return CaseBase(taxonomy=_LAYOUT_TAXONOMY, profiles=profiles, cases={c.id: c for c in cases})


def _answers(case_base: CaseBase, targets: list[Case]) -> dict[str, tuple]:
    # A dense_warm-style request per target: diagnose and its bytes, then a
    # typical retrieve with every score and row as float.hex.
    answers = {}
    for target in targets:
        outcome = encode_outcome(diagnose(target, case_base, 5))
        ranking = retrieve(target, case_base, ScoringMode.TYPICAL, 5)
        answers[target.id] = outcome, [(sc.case_id, sc.m_r.hex(), _hex_rows(sc.breakdown_r)) for sc in ranking]
    return answers


def test_concurrent_first_queries_answer_as_sequential_ones(monkeypatch):
    # Four threads start together on one base with nothing compiled, so that
    # they compile it and build the columns of many posting lists at the
    # same time; a race is rare in any one round, so each of 20 rounds
    # takes a fresh base. Compiling reads the base's sources once, so
    # counting those reads shows that the threads compiled it once.
    threads = 4
    sequential = _threaded_case_base(16)
    targets = sequential.targets()
    expected = _answers(sequential, targets)
    assert all(float.fromhex(ranking[0][1]) > 0 for _, ranking in expected.values())
    reads: list = []
    sources = CaseBase.sources
    monkeypatch.setattr(CaseBase, "sources", lambda self: reads.append(self) or sources(self))

    def run(j: int) -> None:
        try:
            barrier.wait()
            results[j] = _answers(case_base, targets)
        except Exception as exc:  # compared below, so the failure shows it
            results[j] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the first reads
    try:
        for _ in range(20):
            case_base = _threaded_case_base(16)
            barrier = threading.Barrier(threads, timeout=60)
            results: list = [None] * threads
            workers = [threading.Thread(target=run, args=(j,)) for j in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
            for result in results:
                assert result == expected
            assert len(reads) == 1 and reads.pop() is case_base
    finally:
        sys.setswitchinterval(interval)
