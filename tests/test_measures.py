from __future__ import annotations

import dataclasses
import inspect
import math
import sys
from dataclasses import replace
from typing import Optional

import pytest
from hypothesis import given

from cbrdiag import (
    AdaptationTerm,
    AlignmentPair,
    Case,
    CaseKind,
    Descriptor,
    DocumentValidationError,
    FuzzyProfile,
    ImperfectionFlags,
    LocalScores,
    NumericValue,
    OperatingMode,
    ScoringContext,
    ScoringMode,
    SymbolicValue,
    Taxonomy,
    retrieval_measure,
)
from cbrdiag.measures import _columns, _compiled_sources, _record, _target_records
from naive_reference import naive_phi_value
from strategies import case_bundles, clean_cases


def make_pair(target: Descriptor, source: Descriptor) -> AlignmentPair:
    return AlignmentPair(descriptor_id=target.id, target=target, source=source)


def value_function(
    pair: AlignmentPair, taxonomy: Taxonomy, profile: Optional[FuzzyProfile], mode: ScoringMode
) -> float:
    """The pair's value factor: the value function that _target_records
    builds for the target descriptor, on the source descriptor's record."""
    profiles = {} if profile is None else {pair.descriptor_id: profile}
    target = Case(id="t", kind=CaseKind.TARGET, descriptors={pair.descriptor_id: pair.target})
    ((*_, value, _),) = _target_records(target, ScoringContext(taxonomy=taxonomy, profiles=profiles, mode=mode))
    return value(_record(pair.source, profile))


def sym(did: str, label: str, **kwargs) -> Descriptor:
    return Descriptor(id=did, name=did, value=SymbolicValue(label=label), **kwargs)


def num(did: str, magnitude: float, unit: str = "°C", **kwargs) -> Descriptor:
    return Descriptor(id=did, name=did, value=NumericValue(magnitude=magnitude, unit=unit), **kwargs)


UNCERTAIN = ImperfectionFlags(uncertain=True)
TINY = Taxonomy([("root", None), ("x", "root"), ("works", "root")])


def factors(target: Descriptor, source: Descriptor, mode: ScoringMode) -> LocalScores:
    """The one breakdown row of two cases that each hold one descriptor."""
    t = Case(id="t", kind=CaseKind.TARGET, descriptors={target.id: target})
    s = Case(id="s", kind=CaseKind.SOURCE, descriptors={source.id: source})
    (row,) = retrieval_measure(t, s, ScoringContext(taxonomy=TINY, profiles={}, mode=mode)).breakdown
    return row


def test_phi_presence_absent_descriptor():
    # a descriptor recorded on one side only gets no row and adds nothing
    target = Case(id="t", kind=CaseKind.TARGET, descriptors={"d": sym("d", "works")})
    source = Case(id="s", kind=CaseKind.SOURCE, descriptors={"e": sym("e", "works")})
    for mode in ScoringMode:
        result = retrieval_measure(target, source, ScoringContext(taxonomy=TINY, profiles={}, mode=mode))
        assert result.breakdown == []
        assert result.score == 0.0


def test_phi_presence_co_present():
    pair = (sym("d", "works"), sym("d", "works"))
    assert factors(*pair, ScoringMode.TYPICAL).phi_presence == 1
    assert factors(*pair, ScoringMode.ENHANCED).phi_presence == 1


def test_phi_presence_uncertain_excluded_only_in_enhanced():
    pair = (sym("d", "works", flags=UNCERTAIN), sym("d", "works"))
    assert factors(*pair, ScoringMode.TYPICAL).phi_presence == 1
    assert factors(*pair, ScoringMode.ENHANCED).phi_presence == 0
    flipped = (sym("d", "works"), sym("d", "works", flags=UNCERTAIN))
    assert factors(*flipped, ScoringMode.ENHANCED).phi_presence == 0


def phi_state(target: Descriptor, source: Descriptor) -> int:
    return factors(target, source, ScoringMode.TYPICAL).phi_state


def phi_om(target: Descriptor, source: Descriptor) -> int:
    return factors(target, source, ScoringMode.TYPICAL).phi_om


def test_phi_state_cases():
    assert phi_state(sym("d", "x", state="Trained"), sym("d", "x", state="Trained")) == 1
    assert phi_state(sym("d", "x", state="trained"), sym("d", "x", state="TRAINED")) == 1
    assert phi_state(sym("d", "x"), sym("d", "x")) == 1
    assert phi_state(sym("d", "x", state="Noise presence"), sym("d", "x", state="Gaz circulating")) == 0
    assert phi_state(sym("d", "x", state="Trained"), sym("d", "x")) == 0
    assert phi_state(sym("d", "x", state="Straße"), sym("d", "x", state="STRASSE")) == 1


def test_phi_om_cases():
    n = OperatingMode.NORMAL
    a = OperatingMode.ABNORMAL
    u = OperatingMode.UNSPECIFIED
    assert phi_om(sym("d", "x", operating_mode=n), sym("d", "x", operating_mode=n)) == 1
    assert phi_om(sym("d", "x", operating_mode=n), sym("d", "x", operating_mode=a)) == 0
    assert phi_om(sym("d", "x", operating_mode=u), sym("d", "x", operating_mode=u)) == 1
    assert phi_om(sym("d", "x", operating_mode=u), sym("d", "x", operating_mode=n)) == 0


def test_phi_value_symbolic_uses_taxonomy(engine_case_base):
    pair = make_pair(sym("d", "Turbo comp."), sym("d", "Comp."))
    value = value_function(pair, engine_case_base.taxonomy, None, ScoringMode.TYPICAL)
    assert value == 0.8
    assert value == value_function(pair, engine_case_base.taxonomy, None, ScoringMode.ENHANCED)


def test_phi_value_numeric_typical_linear(engine_case_base):
    pair = make_pair(num("ds3", 95.0), num("ds3", 100.0))
    profile = engine_case_base.profiles["ds3"]
    assert value_function(pair, engine_case_base.taxonomy, profile, ScoringMode.TYPICAL) == 0.95


def test_phi_value_numeric_enhanced_class_equality(engine_case_base):
    profile = engine_case_base.profiles["ds3"]
    taxonomy = engine_case_base.taxonomy
    same = make_pair(num("ds3", 95.0), num("ds3", 100.0))
    assert value_function(same, taxonomy, profile, ScoringMode.ENHANCED) == 1.0
    split = make_pair(num("ds3", 70.0), num("ds3", 95.0))
    assert value_function(split, taxonomy, profile, ScoringMode.ENHANCED) == 0.0


def test_phi_value_identical_magnitudes_without_class(engine_case_base):
    # 30 falls in no subset, but identical readings always agree
    profile = engine_case_base.profiles["ds3"]
    pair = make_pair(num("ds3", 30.0), num("ds3", 30.0))
    assert value_function(pair, engine_case_base.taxonomy, profile, ScoringMode.ENHANCED) == 1.0


def test_phi_value_unit_mismatch_scores_zero(engine_case_base):
    pair = make_pair(num("ds3", 95.0, unit="°C"), num("ds3", 95.0, unit="°F"))
    profile = engine_case_base.profiles["ds3"]
    assert value_function(pair, engine_case_base.taxonomy, profile, ScoringMode.ENHANCED) == 0.0
    assert value_function(pair, engine_case_base.taxonomy, profile, ScoringMode.TYPICAL) == 0.0


def test_phi_value_kind_mismatch_scores_zero(engine_case_base):
    # A numeric scores only with a profile, so "d" takes ds3's; either side
    # may hold the label.
    profile = engine_case_base.profiles["ds3"]
    pair = make_pair(num("d", 95.0), sym("d", "works"))
    flipped = make_pair(sym("d", "works"), num("d", 95.0))
    for mode in ScoringMode:
        assert value_function(pair, engine_case_base.taxonomy, profile, mode) == 0.0
        assert value_function(flipped, engine_case_base.taxonomy, profile, mode) == 0.0


def test_phi_value_enhanced_numeric_requires_profile(engine_case_base):
    # Without a profile the target's numeric is refused before any value.
    t = Case(id="t", kind=CaseKind.TARGET, descriptors={"dX": num("dX", 10.0, unit="u")})
    s = Case(id="s", kind=CaseKind.SOURCE, descriptors={"dX": sym("dX", "Comp.")})
    for mode in ScoringMode:
        ctx = ScoringContext(taxonomy=engine_case_base.taxonomy, profiles={}, mode=mode)
        with pytest.raises(DocumentValidationError) as err:
            retrieval_measure(t, s, ctx)
        assert err.value.violations == ["t/dX: numeric descriptor has no fuzzy profile"]


def ctx(case_base, mode: ScoringMode) -> ScoringContext:
    return ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)


MAX = sys.float_info.max
SUBNORMAL = math.ulp(0.0)


@pytest.mark.parametrize(
    "lower, upper",
    [
        (0.0, MAX),
        (-MAX, 0.0),
        (-MAX / 2, MAX / 2),
        (0.0, SUBNORMAL),
        (-SUBNORMAL, SUBNORMAL),
        (-1000.0, -10.0),
        (0.25, 0.75),
    ],
)
def test_typical_closeness_at_domain_extremes(lower, upper):
    # The bounds are a span apart and score exactly +0.0; equal magnitudes
    # score 1.0, on the bounds and one float inside them.
    profile = FuzzyProfile("d", lower, upper, prototype=lower, half_width=upper - lower)
    ctx = ScoringContext(taxonomy=TINY, profiles={"d": profile}, mode=ScoringMode.TYPICAL)

    def closeness(x: float, y: float) -> float:
        t = Case(id="t", kind=CaseKind.TARGET, descriptors={"d": num("d", x)})
        s = Case(id="s", kind=CaseKind.SOURCE, descriptors={"d": num("d", y)})
        (row,) = retrieval_measure(t, s, ctx).breakdown
        return row.phi_value

    for x, y in ((lower, upper), (upper, lower)):
        assert math.copysign(1.0, closeness(x, y)) == 1.0
        assert closeness(x, y) == 0.0
    for x in (lower, math.nextafter(lower, upper), math.nextafter(upper, lower), upper):
        assert closeness(x, x) == 1.0


def test_retrieval_fixture_source1_typical(engine_case_base):
    result = retrieval_measure(
        engine_case_base.cases["target"],
        engine_case_base.cases["source1"],
        ctx(engine_case_base, ScoringMode.TYPICAL),
    )
    assert result.score == 0.5
    assert [row.descriptor_id for row in result.breakdown] == ["ds1", "ds11", "ds5", "ds7"]


def test_retrieval_fixture_source3_typical(engine_case_base):
    # ds3 reads 95 on both sides, so the value factor is exact agreement
    result = retrieval_measure(
        engine_case_base.cases["target"],
        engine_case_base.cases["source3"],
        ctx(engine_case_base, ScoringMode.TYPICAL),
    )
    assert result.score == 0.75


def test_retrieval_empty_overlap_scores_zero(engine_case_base):
    target = engine_case_base.cases["target"]
    lonely = replace(engine_case_base.cases["source1"], descriptors={})
    result = retrieval_measure(target, lonely, ctx(engine_case_base, ScoringMode.TYPICAL))
    assert result.score == 0.0
    assert result.breakdown == []


def test_retrieval_excluded_pair_reported_with_zero_presence(engine_case_base):
    target = engine_case_base.cases["target"]
    source = engine_case_base.cases["source3"]
    result = retrieval_measure(target, source, ctx(engine_case_base, ScoringMode.ENHANCED))
    by_id = {row.descriptor_id: row for row in result.breakdown}
    assert by_id["ds9"].phi_presence == 0
    assert by_id["ds9"].product == 0.0


@given(clean_cases())
def test_self_similarity_of_clean_case(bundle):
    case_base, case = bundle
    for mode in ScoringMode:
        result = retrieval_measure(case, case, ctx(case_base, mode))
        assert result.score == 1.0


@given(case_bundles(min_sources=1))
def test_score_bounded(bundle):
    case_base, target = bundle
    for mode in ScoringMode:
        for source in case_base.sources():
            result = retrieval_measure(target, source, ctx(case_base, mode))
            assert 0.0 <= result.score <= 1.0


@given(case_bundles(min_sources=1))
def test_breakdown_products_consistent(bundle):
    case_base, target = bundle
    for source in case_base.sources():
        result = retrieval_measure(target, source, ctx(case_base, ScoringMode.ENHANCED))
        for row in result.breakdown:
            assert row.product == row.phi_value * row.phi_state * row.phi_presence * row.phi_om


@given(case_bundles(min_sources=1))
def test_adders_add_each_pairs_phi_value(bundle):
    # Every posting list a target reads, as rank_sources reads it: the adder
    # adds exactly the reference's value factor of each pair to its source
    # and leaves out only pairs whose value is 0; the value function gives
    # the same values.
    case_base, target = bundle
    sources, postings, _, _ = _compiled_sources(case_base)
    for mode in ScoringMode:
        enhanced = mode is ScoringMode.ENHANCED
        for did, state, om, uncertain, value, add in _target_records(target, ctx(case_base, mode)):
            if enhanced and uncertain:
                continue
            for flag in (False,) if enhanced else (False, True):
                records = postings.get((did, state, om, flag), [])
                numerators = {}
                add(_columns(records, case_base.taxonomy), numerators)
                expected = {}
                for s in records:
                    source = sources[s[7]][0]
                    t_value, s_value = target.descriptors[did].value, source.descriptors[did].value
                    phi = naive_phi_value(case_base.taxonomy, case_base.profiles.get(did), t_value, s_value, enhanced)
                    assert value(s).hex() == phi.hex()
                    if phi != 0:
                        expected[s[7]] = phi.hex()
                assert {p: v.hex() for p, v in numerators.items()} == expected


def _stock_twin(cls: type) -> type:
    """A frozen dataclass with ``cls``'s name and fields, and the
    constructor ``dataclass`` generates."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)],
        frozen=True,
    )


@pytest.mark.parametrize(
    "row",
    [LocalScores("ds1", 0.5, 1, 1, 0, 0.0), AdaptationTerm("ds1", 2, 1, 0.5, 1.0)],
    ids=["LocalScores", "AdaptationTerm"],
)
def test_row_types_keep_the_dataclass_contract(row):
    # The row types build their instances with their own __init__. It must
    # take the declared fields in order, with their defaults, and leave what
    # the generated one leaves: a frozen dataclass with the same eq, hash
    # and repr, whose attribute dict holds the fields in order, since the
    # codec reads rows through fields() and vars().
    cls = type(row)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == names
    assert [p.default for p in parameters.values()] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields
    ]
    values = [getattr(row, name) for name in names]
    by_keyword = cls(**dict(zip(names, values)))
    assert cls(*values) == by_keyword == row
    twin = _stock_twin(cls)(*values)
    assert hash(cls(*values)) == hash(by_keyword) == hash(row) == hash(twin)
    assert repr(by_keyword) == repr(twin)
    required = len([f for f in fields if f.default is dataclasses.MISSING])
    defaulted = cls(*values[:required])
    assert defaulted == cls(**dict(zip(names[:required], values[:required])))
    assert repr(defaulted) == repr(_stock_twin(cls)(*values[:required]))
    changed = replace(row, **{names[0]: "ds2"})
    assert getattr(changed, names[0]) == "ds2" and changed != row
    assert [getattr(changed, name) for name in names[1:]] == values[1:]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(row, names[0], "ds2")
    assert getattr(row, names[0]) == values[0]
    assert vars(row) == dict(zip(names, values))
    assert list(vars(row)) == list(vars(defaulted)) == names
