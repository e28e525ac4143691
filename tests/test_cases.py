from __future__ import annotations

import dataclasses
import gc
import platform
import sys
from dataclasses import replace

import pytest
from hypothesis import given

from cbrdiag import (
    Case,
    CaseBase,
    CaseKind,
    Descriptor,
    DocumentValidationError,
    ImperfectionFlags,
    NumericValue,
    OperatingMode,
    ScoringMode,
    Solution,
    SymbolicValue,
    Taxonomy,
    align,
    encode_case_base,
    retrieve,
    validate_case,
)
from cbrdiag.cases import _descriptor, _numeric_value
from strategies import case_bundles


def make_case(case_id: str, ids: list[str], kind: CaseKind = CaseKind.SOURCE) -> Case:
    descriptors = {
        did: Descriptor(id=did, name=did, value=SymbolicValue(label="n0")) for did in ids
    }
    return Case(id=case_id, kind=kind, descriptors=descriptors)


def test_align_fixture_source1(engine_case_base):
    pairs = align(engine_case_base.cases["target"], engine_case_base.cases["source1"])
    assert [p.descriptor_id for p in pairs] == ["ds1", "ds11", "ds5", "ds7"]


def test_align_fixture_source3(engine_case_base):
    pairs = align(engine_case_base.cases["target"], engine_case_base.cases["source3"])
    assert [p.descriptor_id for p in pairs] == ["ds1", "ds2", "ds3", "ds9"]


def test_align_identity(engine_case_base):
    target = engine_case_base.cases["target"]
    pairs = align(target, target)
    assert [p.descriptor_id for p in pairs] == sorted(target.descriptors)


def test_align_sorted_and_only_shared():
    a = make_case("a", ["d2", "d10", "d1"])
    b = make_case("b", ["d10", "d3", "d2"])
    assert [p.descriptor_id for p in align(a, b)] == ["d10", "d2"]


def test_align_one_sided_descriptor_is_ignored():
    a = make_case("a", ["d1", "d2"])
    b = make_case("b", ["d1"])
    trimmed = replace(a, descriptors={"d1": a.descriptors["d1"]})
    assert align(a, b) == align(trimmed, b)


@given(case_bundles(min_sources=1))
def test_align_pair_set_symmetric_and_bounded(bundle):
    case_base, target = bundle
    for source in case_base.sources():
        forward = {p.descriptor_id for p in align(target, source)}
        backward = {p.descriptor_id for p in align(source, target)}
        assert forward == backward
        assert len(forward) <= min(len(target.descriptors), len(source.descriptors))


def test_validate_fixture_target_clean(engine_case_base):
    report = validate_case(
        engine_case_base.cases["target"], engine_case_base.taxonomy, engine_case_base.profiles
    )
    assert report == []


def test_validate_reports_a_nan_magnitude(engine_case_base):
    target = engine_case_base.cases["target"]
    nan = replace(target.descriptors["ds3"], value=NumericValue(float("nan"), "°C"))
    bad = replace(target, descriptors={**target.descriptors, "ds3": nan})
    report = validate_case(bad, engine_case_base.taxonomy, engine_case_base.profiles)
    assert report == ["target/ds3: value nan for descriptor 'ds3' outside domain [0.0, 100.0]"]


def test_validate_empty_case_is_vacuously_valid(engine_case_base):
    empty = Case(id="e", kind=CaseKind.TARGET, descriptors={})
    assert validate_case(empty, engine_case_base.taxonomy, engine_case_base.profiles) == []


def test_validate_imprecise_numeric_without_profile(engine_case_base):
    case = Case(
        id="t2",
        kind=CaseKind.TARGET,
        descriptors={
            "ds3": Descriptor(
                id="ds3",
                name="Tem",
                value=NumericValue(magnitude=95.0, unit="°C"),
                flags=ImperfectionFlags(imprecise=True),
            )
        },
    )
    report = validate_case(case, engine_case_base.taxonomy, {})
    assert len(report) == 1
    assert "fuzzy profile" in report[0]


def test_validate_unknown_label(engine_case_base):
    case = Case(
        id="t3",
        kind=CaseKind.TARGET,
        descriptors={
            "d1": Descriptor(id="d1", name="x", value=SymbolicValue(label="no such part"))
        },
    )
    report = validate_case(case, engine_case_base.taxonomy, engine_case_base.profiles)
    assert report and "no such part" in report[0]


def test_validate_descriptor_key_mismatch():
    taxonomy = Taxonomy([("root", None)])
    case = Case(
        id="c",
        kind=CaseKind.SOURCE,
        descriptors={"d1": Descriptor(id="d9", name="x", value=SymbolicValue(label="root"))},
    )
    report = validate_case(case, taxonomy, {})
    assert any("does not match" in line for line in report)


def test_validate_value_of_neither_kind():
    # A descriptor built in code may hold any object: validation reports
    # one that is neither symbolic nor numeric, and retrieval refuses it
    # with that violation, in the base or in the target; so does the
    # case-base encoder.
    taxonomy = Taxonomy([("root", None)])
    odd = Descriptor(id="d", name="d", value="oops")
    fine = Descriptor(id="d", name="d", value=SymbolicValue(label="root"))
    odd_source = Case(id="s", kind=CaseKind.SOURCE, descriptors={"d": odd})
    odd_target = Case(id="t", kind=CaseKind.TARGET, descriptors={"d": odd})
    assert validate_case(odd_source, taxonomy, {}) == ["s/d: value 'oops' is neither symbolic nor numeric"]
    base = CaseBase(taxonomy=taxonomy, cases={"s": odd_source})
    valid = CaseBase(taxonomy=taxonomy, cases={"s": replace(odd_source, descriptors={"d": fine})})
    for mode in ScoringMode:
        with pytest.raises(DocumentValidationError) as err:
            retrieve(replace(odd_target, descriptors={"d": fine}), base, mode, 1)
        assert err.value.violations == ["s/d: value 'oops' is neither symbolic nor numeric"]
        with pytest.raises(DocumentValidationError) as err:
            retrieve(odd_target, valid, mode, 1)
        assert err.value.violations == ["t/d: value 'oops' is neither symbolic nor numeric"]
    # The encoder refuses it with the same violation.
    with pytest.raises(DocumentValidationError) as err:
        encode_case_base(base)
    assert err.value.violations == ["s/d: value 'oops' is neither symbolic nor numeric"]


# A source's solution of the wrong type or with a field of the wrong type,
# with the one violation validate_case reports for each. Flags of the wrong
# type are among test_pipeline's WRONG_TYPES.
_WRONG_SOLUTIONS = {
    "action": (lambda c: replace(c, solution=Solution("Comp.", 5)), "source1/solution: action 5 is not a string"),
    "failing-component": (
        lambda c: replace(c, solution=Solution(None, "fix")),
        "source1/solution: failing component None is not a string",
    ),
    "solution": (lambda c: replace(c, solution="Comp."), "source1/solution: 'Comp.' is not a Solution"),
    "surrogate-action": (
        lambda c: replace(c, solution=Solution("Comp.", "fix\ud800")),
        "source1/solution: action 'fix\\ud800' is not a string UTF-8 can encode",
    ),
}


@pytest.mark.parametrize("name", sorted(_WRONG_SOLUTIONS))
def test_validate_reports_wrongly_typed_solutions(engine_case_base, name):
    # No document can hold these fields: validation reports each, and the
    # encoder refuses the base with that report rather than write a
    # document its own decoder would refuse.
    change, message = _WRONG_SOLUTIONS[name]
    bad = change(engine_case_base.cases["source1"])
    assert validate_case(bad, engine_case_base.taxonomy, engine_case_base.profiles) == [message]
    base = replace(engine_case_base, cases={**engine_case_base.cases, "source1": bad})
    with pytest.raises(DocumentValidationError) as err:
        encode_case_base(base)
    assert err.value.violations == [message]


def test_validate_reports_ids_utf8_cannot_encode(engine_case_base):
    # A case id and a descriptor id are strings of a document too: one that
    # holds a lone surrogate is reported, and the encoder refuses it.
    source = engine_case_base.cases["source1"]
    key = "ds1\ud800"
    descriptors = {k: d for k, d in source.descriptors.items() if k != "ds1"}
    descriptors[key] = replace(source.descriptors["ds1"], id=key)
    bad = replace(source, id="source1\udfff", descriptors=descriptors)
    expected = [
        "source1\udfff: case id 'source1\\udfff' is not a string UTF-8 can encode",
        "source1\udfff/ds1\ud800: id 'ds1\\ud800' is not a string UTF-8 can encode",
    ]
    assert validate_case(bad, engine_case_base.taxonomy, engine_case_base.profiles) == expected
    cases = {cid: c for cid, c in engine_case_base.cases.items() if cid != "source1"}
    with pytest.raises(DocumentValidationError) as err:
        encode_case_base(replace(engine_case_base, cases={**cases, bad.id: bad}))
    assert err.value.violations == expected


def test_validate_reports_only_type_violations_of_a_wrongly_typed_case(engine_case_base):
    # The semantic checks read each field as its declared type, so they run
    # only on a case whose types pass; a key mismatch counts as a type fault.
    source = engine_case_base.cases["source1"]
    unknown = replace(source.descriptors["ds1"], value=SymbolicValue("warp drive"))
    mismatched = replace(source.descriptors["ds5"], id="ds5b")
    both = replace(source, descriptors={**source.descriptors, "ds1": unknown, "ds5": mismatched})
    report = validate_case(both, engine_case_base.taxonomy, engine_case_base.profiles)
    assert report == ["source1/ds5: descriptor id 'ds5b' does not match its key"]
    semantic = replace(both, descriptors={**both.descriptors, "ds5": source.descriptors["ds5"]})
    report = validate_case(semantic, engine_case_base.taxonomy, engine_case_base.profiles)
    assert report == ["source1/ds1: unknown taxonomy label 'warp drive'"]


# The decoder's builders, each with its arguments and the public constructor
# it stands in for.
_BUILDERS = {
    "NumericValue": (_numeric_value, (90.0, "°C"), NumericValue),
    "Descriptor": (
        _descriptor,
        ("ds1", "Pr", SymbolicValue("Comp."), "s1", OperatingMode.ABNORMAL, ImperfectionFlags(True, True)),
        Descriptor,
    ),
    "Descriptor-defaults": (
        _descriptor,
        ("ds3", "T", NumericValue(90.0, "°C"), None, OperatingMode.UNSPECIFIED, ImperfectionFlags()),
        Descriptor,
    ),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_decoders_builders_build_what_the_constructors_build(name):
    # A decoded value must be indistinguishable from one built in code: the
    # same type, eq, hash and repr, its fields in vars() in declaration
    # order, frozen, and a valid input to replace().
    build, args, cls = _BUILDERS[name]
    built, constructed = build(*args), cls(*args)
    assert type(built) is cls
    assert built == constructed and hash(built) == hash(constructed)
    assert repr(built) == repr(constructed)
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(vars(built)) == list(vars(constructed)) == names
    assert vars(built) == vars(constructed)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, names[0], "x")
    assert replace(built, **{names[1]: "y"}) == replace(constructed, **{names[1]: "y"})


@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info < (3, 11),
    reason="instances keep their attributes without a dict object from CPython 3.11 on",
)
def test_constructed_values_hold_no_dict_of_their_own():
    # Callers build targets and keep them; the public constructors must not
    # give each instance a dict object of its own, as reading __dict__ in
    # __init__ does. A value whose attributes sit in a dict refers to it.
    value = NumericValue(90.0, "°C")
    descriptor = Descriptor("ds3", "T", value, "s1", OperatingMode.NORMAL, ImperfectionFlags(imprecise=True))
    for obj in (value, descriptor):
        assert dict not in map(type, gc.get_referents(obj))
    assert dict in map(type, gc.get_referents(_numeric_value(90.0, "°C")))


def test_case_base_split(engine_case_base):
    assert [c.id for c in engine_case_base.sources()] == ["source1", "source2", "source3"]
    assert [c.id for c in engine_case_base.targets()] == ["target"]
