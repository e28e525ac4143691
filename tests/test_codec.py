"""Decoder rejection paths and the canonical-bytes guarantees of the encoder."""

from __future__ import annotations

import gc
import json
import math
import os
import tracemalloc
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrdiag import (
    CaseBase,
    Correction,
    DocumentSyntaxError,
    DocumentValidationError,
    FuzzySubset,
    ImperfectionFlags,
    NumericValue,
    OperatingMode,
    ScoringMode,
    SymbolicValue,
    Taxonomy,
    decode_case_base,
    decode_outcome,
    diagnose,
    encode_case_base,
    encode_outcome,
    retrieve,
    validate_case,
)
from cbrdiag.cases import FLAG_VALUES
from cbrdiag.codec import _dump, _encode_case, encode_explanation
from cbrdiag.measures import AdaptationResult, AdaptationTerm, LocalScores, RetrievalResult
from strategies import case_bundles, json_items, single_field_mutations, wide_text


def test_fixture_decodes(engine_case_base):
    assert sorted(c.id for c in engine_case_base.sources()) == ["source1", "source2", "source3"]
    assert [c.id for c in engine_case_base.targets()] == ["target"]
    assert set(engine_case_base.profiles) == {"ds3"}
    assert engine_case_base.taxonomy.contains("Turbo comp.")


def test_fixture_is_canonical(fixture_text, engine_case_base):
    assert encode_case_base(engine_case_base) == fixture_text


def test_empty_case_list_is_valid():
    document = json.dumps(
        {
            "format_version": 1,
            "taxonomy": [{"name": "root", "parent": None}],
            "fuzzy_profiles": [],
            "cases": [],
        }
    )
    case_base = decode_case_base(document)
    assert case_base.cases == {}
    assert case_base.sources() == []


def test_unsupported_version(fixture_text):
    doc = json.loads(fixture_text)
    doc["format_version"] = 99
    with pytest.raises(DocumentSyntaxError, match="format_version"):
        decode_case_base(json.dumps(doc))


@pytest.mark.parametrize("decode", [decode_case_base, decode_outcome])
@pytest.mark.parametrize("version, accepted", [(True, False), (1.0, True)])
def test_version_is_a_number_not_a_bool(engine_case_base, fixture_text, decode, version, accepted):
    # true == 1 in Python; 1.0 is accepted as the integer 1, as _int accepts it.
    if decode is decode_case_base:
        doc = json.loads(fixture_text)
    else:
        doc = json.loads(encode_outcome(diagnose(engine_case_base.cases["target"], engine_case_base)))
    doc["format_version"] = version
    if accepted:
        decode(json.dumps(doc))
        return
    with pytest.raises(DocumentSyntaxError) as excinfo:
        decode(json.dumps(doc))
    assert str(excinfo.value) == "$.format_version: unsupported version True, expected 1"


def test_malformed_json():
    with pytest.raises(DocumentSyntaxError, match="^document is not valid JSON: Expecting"):
        decode_case_base("{not json")


# Text the JSON parser refuses with other errors than JSONDecodeError: nesting
# past the recursion limit (RecursionError) and an integer literal longer than
# the interpreter converts (ValueError; CPython limits these to 4,300 digits).
UNPARSABLE_JSON = {
    "deep": "[" * 200_000,
    "long-integer": '{"format_version": 1' + "0" * 5000 + "}",
}


@pytest.mark.parametrize("decode", [decode_case_base, decode_outcome])
@pytest.mark.parametrize("name", sorted(UNPARSABLE_JSON))
def test_unparsable_json_is_a_document_error(decode, name):
    with pytest.raises(DocumentSyntaxError, match="^document is not valid JSON: "):
        decode(UNPARSABLE_JSON[name])


def test_wrong_shape():
    with pytest.raises(DocumentSyntaxError):
        decode_case_base("[1, 2, 3]")


def test_duplicate_case_id(fixture_text):
    doc = json.loads(fixture_text)
    doc["cases"].append(doc["cases"][0])
    with pytest.raises(DocumentValidationError) as excinfo:
        decode_case_base(json.dumps(doc))
    assert "$.cases[4].id: duplicate case id 'source1'" in excinfo.value.violations


def test_duplicate_descriptor_id(fixture_text):
    doc = json.loads(fixture_text)
    descriptors = doc["cases"][0]["descriptors"]
    descriptors.append(descriptors[0])
    with pytest.raises(DocumentValidationError) as excinfo:
        decode_case_base(json.dumps(doc))
    position = len(descriptors) - 1
    assert (
        f"$.cases[0].descriptors[{position}].id: duplicate descriptor id 'ds1'"
        in excinfo.value.violations
    )


def test_imprecise_without_profile(fixture_text):
    doc = json.loads(fixture_text)
    doc["fuzzy_profiles"] = []
    with pytest.raises(DocumentValidationError) as excinfo:
        decode_case_base(json.dumps(doc))
    assert any(
        v.startswith("$.cases[") and "fuzzy profile" in v for v in excinfo.value.violations
    )


def test_unknown_label_reported_with_case_path(fixture_text):
    doc = json.loads(fixture_text)
    doc["cases"][0]["descriptors"][0]["value"] = {"symbolic": "warp drive"}
    with pytest.raises(DocumentValidationError) as excinfo:
        decode_case_base(json.dumps(doc))
    assert any(
        v.startswith("$.cases[0]:") and "warp drive" in v for v in excinfo.value.violations
    )


def test_validate_false_skips_semantic_checks(fixture_text):
    doc = json.loads(fixture_text)
    doc["fuzzy_profiles"] = []
    case_base = decode_case_base(json.dumps(doc), validate=False)
    assert "target" in case_base.cases


def test_omitted_descriptor_fields_default():
    document = json.dumps(
        {
            "format_version": 1,
            "taxonomy": [{"name": "root", "parent": None}],
            "fuzzy_profiles": [],
            "cases": [
                {
                    "id": "c",
                    "kind": "target",
                    "descriptors": [
                        {"id": "d", "name": "d", "value": {"symbolic": "root"}}
                    ],
                }
            ],
        }
    )
    d = decode_case_base(document).cases["c"].descriptors["d"]
    assert d.state is None
    assert d.operating_mode is OperatingMode.UNSPECIFIED
    assert d.flags == ImperfectionFlags()


def test_bad_operating_mode_code():
    document = json.dumps(
        {
            "format_version": 1,
            "taxonomy": [{"name": "root", "parent": None}],
            "fuzzy_profiles": [],
            "cases": [
                {
                    "id": "c",
                    "kind": "target",
                    "descriptors": [
                        {
                            "id": "d",
                            "name": "d",
                            "value": {"symbolic": "root"},
                            "operating_mode": "X",
                        }
                    ],
                }
            ],
        }
    )
    with pytest.raises(DocumentSyntaxError, match="operating_mode"):
        decode_case_base(document)


def _json_path(keys: tuple) -> str:
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)


def _container(document: dict, keys: tuple):
    """The object or array that holds the value at ``keys``."""
    for key in keys[:-1]:
        document = document[key]
    return document


def _replaced(document: dict, keys: tuple, value) -> dict:
    _container(document, keys)[keys[-1]] = value
    return document


# One string of every kind the fixture holds, by its path of keys.
STRING_FIELDS = [
    ("taxonomy", 0, "name"),
    ("taxonomy", 0, "parent"),
    ("fuzzy_profiles", 0, "subsets", 0, "label"),
    ("cases", 0, "id"),
    ("cases", 0, "kind"),
    ("cases", 0, "descriptors", 1, "name"),
    ("cases", 0, "descriptors", 1, "value", "symbolic"),
    ("cases", 0, "descriptors", 1, "state"),
    ("cases", 0, "descriptors", 1, "operating_mode"),
    ("cases", 0, "solution", "action"),
    ("cases", 1, "descriptors", 2, "value", "unit"),
]


@pytest.mark.parametrize("keys", STRING_FIELDS, ids=_json_path)
def test_lone_surrogate_rejected_with_path(fixture_text, keys):
    # A JSON escape can spell half a surrogate pair, which no output encodes.
    document = _replaced(json.loads(fixture_text), keys, "x\ud800")
    with pytest.raises(DocumentSyntaxError) as excinfo:
        decode_case_base(json.dumps(document))
    assert str(excinfo.value) == f"{_json_path(keys)}: expected a string UTF-8 can encode, got 'x\\ud800'"


def test_lone_surrogate_in_outcome_rejected_with_path(engine_case_base):
    doc = json.loads(encode_outcome(diagnose(engine_case_base.cases["target"], engine_case_base)))
    doc["ranking"][0]["case_id"] = "\udfff"
    with pytest.raises(DocumentSyntaxError, match=r"^\$\.ranking\[0\]\.case_id: expected a string UTF-8"):
        decode_outcome(json.dumps(doc))


def test_non_ascii_strings_decode(fixture_text):
    # An escaped surrogate pair is one character outside the BMP.
    text = fixture_text.replace('"Camshaft"', '"Cam \\ud83d\\udd27 \u00e9"')
    case_base = decode_case_base(text)
    assert case_base.cases["source1"].solution.failing_component == "Cam \U0001f527 \u00e9"


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run the test with the cyclic garbage collector on, then off."""
    enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize(
    "keys, value, error",
    [
        (None, None, None),
        (("cases", 0, "id"), 7, DocumentSyntaxError),
        (("cases", 0, "descriptors", 1, "value", "symbolic"), "warp drive", DocumentValidationError),
    ],
    ids=["valid", "syntax-error", "validation-error"],
)
def test_loading_leaves_the_collector_as_found(fixture_text, collector, keys, value, error):
    if keys is None:
        case_base = decode_case_base(fixture_text)
        assert gc.isenabled() is collector
        # The first query compiles the sources.
        retrieve(case_base.cases["target"], case_base, ScoringMode.ENHANCED, 3)
        assert gc.isenabled() is collector
        encode_case_base(case_base)
    else:
        document = _replaced(json.loads(fixture_text), keys, value)
        with pytest.raises(error):
            decode_case_base(json.dumps(document))
    assert gc.isenabled() is collector


def test_decoded_descriptors_share_flag_objects(fixture_text):
    document = json.loads(fixture_text)
    for i, descriptor in enumerate(d for case in document["cases"] for d in case["descriptors"]):
        descriptor["imprecise"], descriptor["uncertain"] = bool(i % 2), bool(i // 2 % 2)
    case_base = decode_case_base(json.dumps(document))
    flags = [d.flags for case in case_base.cases.values() for d in case.descriptors.values()]
    assert len(flags) > 4
    assert {id(f) for f in flags} == {id(f) for f in FLAG_VALUES.values()}


def test_decoded_symbolic_values_are_shared_per_label(engine_case_base):
    objects: dict[str, set[int]] = {}
    count = 0
    for case in engine_case_base.cases.values():
        for d in case.descriptors.values():
            if isinstance(d.value, SymbolicValue):
                objects.setdefault(d.value.label, set()).add(id(d.value))
                count += 1
    assert count > len(objects)
    assert all(len(ids) == 1 for ids in objects.values())


def _traced_peak(call, *args) -> int:
    """The most memory ``call(*args)`` held at once, in traced bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_peak_stays_near_the_parse_tree(fixture_text):
    # Each case's parsed JSON is freed once its case is built, so a decode
    # never holds the whole parse tree and the whole decoded base at once.
    document = json.loads(fixture_text)
    cases = document["cases"]
    document["cases"] = [c for c in cases if c["kind"] == "target"] + [
        {**c, "id": f"{c['id']}.{n}"} for n in range(70) for c in cases if c["kind"] == "source"
    ]
    assert len(document["cases"]) == 211
    text = json.dumps(document)
    assert _traced_peak(decode_case_base, text) <= 1.15 * _traced_peak(json.loads, text)


@given(case_bundles())
def test_decode_inverts_encode(bundle):
    case_base, _ = bundle
    assert decode_case_base(encode_case_base(case_base)) == case_base


@given(case_bundles(valid=False))
def test_a_base_validates_iff_its_document_decodes(bundle):
    # A drawn base passes validate_case for every case exactly when the
    # validating decode of its encoding accepts it. The encoder refuses a
    # case holding a field no document can hold, with validate_case's
    # report of it; the decoder refuses every other case validate_case
    # reports, with that report under the case's path. The decoder runs
    # only the semantic checks, yet what it accepts equals the base.
    case_base, _ = bundle
    reports = [
        validate_case(case_base.cases[cid], case_base.taxonomy, case_base.profiles) for cid in sorted(case_base.cases)
    ]
    try:
        document = encode_case_base(case_base)
    except DocumentValidationError as exc:
        assert exc.violations and exc.violations in reports
        return
    violations = [v for report in reports for v in report]
    if violations:
        with pytest.raises(DocumentValidationError) as err:
            decode_case_base(document)
        assert [v.split(": ", 1)[1] for v in err.value.violations] == violations
    else:
        assert decode_case_base(document) == case_base


@given(case_bundles())
def test_encoding_ignores_insertion_order(bundle):
    case_base, _ = bundle
    shuffled = CaseBase(
        taxonomy=case_base.taxonomy,
        profiles=dict(reversed(list(case_base.profiles.items()))),
        cases={
            cid: type(case)(
                id=case.id,
                kind=case.kind,
                descriptors=dict(reversed(list(case.descriptors.items()))),
                solution=case.solution,
            )
            for cid, case in reversed(list(case_base.cases.items()))
        },
    )
    assert encode_case_base(shuffled) == encode_case_base(case_base)


@given(case_bundles())
def test_encoding_is_canonical(bundle):
    case_base, _ = bundle
    text = encode_case_base(case_base)
    assert encode_case_base(decode_case_base(text)) == text
    assert encode_case_base(case_base) == text


# Strings that could pass for the layout around them if the encoder left
# them unescaped.
_TEXT = st.lists(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "é", "水", "},\n  {", '"},\n    {"']) | wide_text(4),
    max_size=3,
).map("".join)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT
_FLAT = _SCALARS | st.builds(dict) | st.builds(list)
_ROWS = st.lists(st.dictionaries(_TEXT, _FLAT, min_size=1, max_size=4), min_size=1, max_size=4)
_TREES = st.recursive(
    _FLAT | _ROWS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)


@pytest.mark.parametrize("accelerated", [True, False], ids=["c", "python"])
@given(doc=_TREES)
def test_dump_matches_stdlib_indent(accelerated, doc):
    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    if accelerated:
        assert _dump(doc) == expected
    else:
        # The encoder json falls back to on interpreters built without _json.
        with mock.patch.object(json.encoder, "c_make_encoder", None):
            assert _dump(doc) == expected


@given(case_bundles())
def test_outcome_round_trip(bundle):
    case_base, target = bundle
    outcome = diagnose(target, case_base, top_k=4)
    text = encode_outcome(outcome)
    assert decode_outcome(text) == outcome
    assert encode_outcome(decode_outcome(text)) == text


def _outcome_document(outcome) -> dict:
    """The outcome document as ``encode_outcome`` builds it for ``_dump``
    when every row is written through the generic encoder: the reference
    for the row templates."""
    return {
        "format_version": 1,
        "mode": outcome.mode.value,
        "selected_case_id": outcome.selected_case_id,
        "solution": None if outcome.solution is None else vars(outcome.solution),
        "corrections_applied": [vars(c) for c in outcome.corrections_applied],
        "ranking": [
            {
                "case_id": sc.case_id,
                "m_r": sc.m_r,
                "m_a": sc.m_a,
                "breakdown_r": [vars(row) for row in sc.breakdown_r],
                "breakdown_a": None if sc.breakdown_a is None else [vars(row) for row in sc.breakdown_a],
            }
            for sc in outcome.ranking
        ],
    }


# Row field values of the declared type, and odd ones of another type, which
# json writes otherwise (a bool in an int field is true) or refuses (a
# non-finite float).
_DECLARED = {"str": _TEXT, "int": st.integers(), "float": st.floats(allow_nan=False, allow_infinity=False)}
_ODD = {
    "str": _TEXT,
    "int": st.booleans(),
    "float": st.integers() | st.sampled_from([math.nan, math.inf, -math.inf]),
}


@st.composite
def _rows(draw, cls) -> list:
    """Rows of ``cls`` of declared values, except that one drawn field, if
    any, may hold odd ones."""
    odd = draw(st.none() | st.sampled_from([f.name for f in dataclass_fields(cls)]))
    values = [
        _DECLARED[f.type] | _ODD[f.type] if f.name == odd else _DECLARED[f.type] for f in dataclass_fields(cls)
    ]
    return draw(st.lists(st.builds(cls, *values), max_size=4))


@st.composite
def _outcomes(draw):
    """``diagnose`` outcomes of ``case_bundles()``, some of whose row lists
    are dropped (``breakdown_a``) or replaced by drawn rows."""
    case_base, target = draw(case_bundles(max_sources=6))
    outcome = diagnose(target, case_base, top_k=4)
    if draw(st.booleans()):
        outcome = replace(outcome, corrections_applied=draw(_rows(Correction)))
    ranking = []
    for sc in outcome.ranking:
        if draw(st.booleans()):
            sc = replace(sc, breakdown_r=draw(_rows(LocalScores)))
        if draw(st.booleans()):
            sc = replace(sc, breakdown_a=draw(st.none() | _rows(AdaptationTerm)))
        ranking.append(sc)
    return replace(outcome, ranking=ranking)


# CI also runs this module with json's C encoder switched off.
@given(_outcomes())
def test_outcome_rows_encode_as_json_dumps_writes_them(outcome):
    try:
        expected = json.dumps(
            _outcome_document(outcome), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
        )
    except ValueError:
        with pytest.raises(ValueError):
            encode_outcome(outcome)
    else:
        assert encode_outcome(outcome) == expected + "\n"


def _case_base_document(case_base: CaseBase) -> dict:
    """The case-base document with every row as its attribute dict, the
    reference for the subset rows' template."""
    return {
        "format_version": 1,
        "taxonomy": [{"name": n, "parent": case_base.taxonomy.parent(n)} for n in case_base.taxonomy.nodes()],
        "fuzzy_profiles": [
            {**vars(p), "subsets": [vars(s) for s in p.subsets]} for _, p in sorted(case_base.profiles.items())
        ],
        "cases": [_encode_case(case_base.cases[cid]) for cid in sorted(case_base.cases)],
    }


@st.composite
def _int_bounded_bases(draw) -> CaseBase:
    """``case_bundles()`` bases, some of whose subsets' whole-number bounds
    are ints, which their template does not write."""
    case_base, _ = draw(case_bundles(max_sources=4))
    profiles = {}
    for did, p in case_base.profiles.items():
        subsets = [
            FuzzySubset(s.label, int(s.lower), int(s.upper))
            if s.lower.is_integer() and s.upper.is_integer() and draw(st.booleans())
            else s
            for s in p.subsets
        ]
        profiles[did] = replace(p, subsets=subsets)
    return replace(case_base, profiles=profiles)


# CI also runs this module with json's C encoder switched off.
@given(_int_bounded_bases())
def test_case_base_rows_encode_as_json_dumps_writes_them(case_base):
    expected = json.dumps(
        _case_base_document(case_base), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
    )
    assert encode_case_base(case_base) == expected + "\n"


def test_taxonomy_violations_surface():
    document = json.dumps(
        {
            "format_version": 1,
            "taxonomy": [
                {"name": "a", "parent": None},
                {"name": "b", "parent": None},
            ],
            "fuzzy_profiles": [],
            "cases": [],
        }
    )
    with pytest.raises(DocumentValidationError) as excinfo:
        decode_case_base(document)
    assert any(v.startswith("$.taxonomy:") for v in excinfo.value.violations)


def test_taxonomy_survives_round_trip():
    taxonomy = Taxonomy([("root", None), ("mid", "root"), ("leaf", "mid")])
    case_base = CaseBase(taxonomy=taxonomy, profiles={}, cases={})
    assert decode_case_base(encode_case_base(case_base)).taxonomy == taxonomy


@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400], ids=["nan", "inf", "-inf", "1e400"]
)
@pytest.mark.parametrize(
    "path", ["$.cases[3].descriptors[3].value.numeric", "$.fuzzy_profiles[0].domain_lower"]
)
def test_non_finite_number_rejected_with_path(fixture_text, token, path):
    doc = json.loads(fixture_text)
    assert doc["cases"][3]["descriptors"][3]["id"] == "ds3"
    if path.startswith("$.cases"):
        doc["cases"][3]["descriptors"][3]["value"]["numeric"] = "MARK"
    else:
        doc["fuzzy_profiles"][0]["domain_lower"] = "MARK"
    text = json.dumps(doc).replace('"MARK"', token)
    with pytest.raises(DocumentSyntaxError) as excinfo:
        decode_case_base(text)
    assert str(excinfo.value).startswith(f"{path}: expected a finite number, got ")


def test_encoders_refuse_non_finite_numbers(engine_case_base):
    target = engine_case_base.cases["target"]
    ds3 = target.descriptors["ds3"]
    outcome = diagnose(target, engine_case_base)
    best = outcome.ranking[0]

    def explain(retrieval, adaptation):
        return encode_explanation(
            outcome.mode, target.id, best.case_id, outcome.corrections_applied, retrieval, adaptation
        )

    retrieval = RetrievalResult(best.m_r, best.breakdown_r)
    adaptation = AdaptationResult(best.m_a, best.breakdown_a)
    explain(retrieval, adaptation)
    for bad in (math.nan, math.inf, -math.inf):
        bad_target = replace(
            target, descriptors={**target.descriptors, "ds3": replace(ds3, value=NumericValue(bad, "°C"))}
        )
        with pytest.raises(ValueError):
            encode_case_base(replace(engine_case_base, cases={**engine_case_base.cases, "target": bad_target}))
        corrections = [replace(outcome.corrections_applied[0], original=bad)]
        with pytest.raises(ValueError):
            encode_outcome(replace(outcome, corrections_applied=corrections))
        # A breakdown row goes to the encoder with the rest of its list; a
        # ranking entry's scores are encoded one by one.
        rows = [replace(best.breakdown_r[0], product=bad), *best.breakdown_r[1:]]
        with pytest.raises(ValueError):
            encode_outcome(replace(outcome, ranking=[replace(best, breakdown_r=rows)]))
        with pytest.raises(ValueError):
            encode_outcome(replace(outcome, ranking=[replace(best, m_r=bad)]))
        with pytest.raises(ValueError):
            explain(replace(retrieval, score=bad), adaptation)
        with pytest.raises(ValueError):
            explain(retrieval, replace(adaptation, breakdown=[replace(adaptation.breakdown[0], term=bad)]))
    # Finite terms whose running sum overflows.
    for sign in (1, -1):
        huge = replace(adaptation.breakdown[0], term=sign * 1e308)
        with pytest.raises(ValueError):
            explain(retrieval, replace(adaptation, breakdown=[huge, huge]))


@pytest.mark.parametrize(
    "rows, field, value", [("breakdown_r", "phi_state", 0.5), ("breakdown_a", "weight", 2.9)]
)
def test_outcome_integer_fields_reject_fractions(engine_case_base, rows, field, value):
    doc = json.loads(encode_outcome(diagnose(engine_case_base.cases["target"], engine_case_base)))
    doc["ranking"][0][rows][0][field] = value
    with pytest.raises(DocumentSyntaxError) as excinfo:
        decode_outcome(json.dumps(doc))
    assert str(excinfo.value) == f"$.ranking[0].{rows}[0].{field}: expected an integer, got {value!r}"


# The flat rows of the fixture's outcome document, by their path of keys.
OUTCOME_ROWS = [
    ("solution",),
    ("corrections_applied", 0),
    ("ranking", 0, "breakdown_r", 0),
    ("ranking", 0, "breakdown_a", 0),
]


@pytest.mark.parametrize("keys", OUTCOME_ROWS, ids=_json_path)
def test_outcome_row_faults_name_the_field(engine_case_base, keys):
    # Each field of the row, deleted or given a value of the wrong JSON type,
    # is rejected with its path and its checker's text. The type a field
    # must have is read off the document: a string, an integer or a float.
    text = encode_outcome(diagnose(engine_case_base.cases["target"], engine_case_base))
    path = _json_path(keys)
    fields = _container(json.loads(text), keys)[keys[-1]]
    assert fields
    for name, value in fields.items():
        faults = [(None, f"{path}: missing required field {name!r}")]
        if isinstance(value, str):
            faults.append((0, f"{path}.{name}: expected a string, got int"))
        else:
            faults.append(("1", f"{path}.{name}: expected a number, got str"))
            if isinstance(value, int):
                faults.append((0.5, f"{path}.{name}: expected an integer, got 0.5"))
        for replacement, message in faults:
            document = json.loads(text)
            row = _container(document, keys)[keys[-1]]
            if replacement is None:
                del row[name]
            else:
                row[name] = replacement
            with pytest.raises(DocumentSyntaxError) as excinfo:
                decode_outcome(json.dumps(document))
            assert str(excinfo.value) == message


@given(st.data())
def test_single_field_mutation_fails_only_as_a_document_error(fixture_text, data):
    # Decoding one mutation of the fixture either rejects the document with
    # one of the two document errors or yields a case base that queries
    # without raising.
    document = data.draw(single_field_mutations(json.loads(fixture_text)))
    try:
        case_base = decode_case_base(json.dumps(document))
    except (DocumentSyntaxError, DocumentValidationError):
        return
    for target in case_base.targets():
        for mode in ScoringMode:
            retrieve(target, case_base, mode, 3)
        diagnose(target, case_base)


# Replacements for the single-fault error-text golden: a value of each JSON
# scalar type, an integer where floats are written, a non-finite number, a
# lone surrogate, a non-ASCII string (any checker accepts it, no label or code
# matches it) and an object.
FAULT_VALUES = [None, True, 0, 1.5, float("nan"), "\ud800", "é", {}]

# One line per fault, as the path-tagged checkers reported it when the file
# was written.
GOLDEN_DECODE_ERRORS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "decode_errors.txt")


def _decode_outcome(document: dict) -> str:
    try:
        decode_case_base(json.dumps(document))
    except (DocumentSyntaxError, DocumentValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _single_fault_lines(fixture_text: str) -> list[str]:
    """One line per single fault in the fixture, ``path<TAB>replacement<TAB>
    outcome``: every object key deleted, then every value replaced by each
    of ``FAULT_VALUES``."""
    lines = []
    paths = [path for path, _ in json_items(json.loads(fixture_text))]
    for keys in paths:
        if isinstance(keys[-1], str):
            document = json.loads(fixture_text)
            del _container(document, keys)[keys[-1]]
            lines.append(f"{_json_path(keys)}\t(deleted)\t{_decode_outcome(document)}")
    for keys in paths:
        for value in FAULT_VALUES:
            document = _replaced(json.loads(fixture_text), keys, value)
            lines.append(f"{_json_path(keys)}\t{json.dumps(value)}\t{_decode_outcome(document)}")
    return lines


def test_single_fault_error_text_matches_golden(fixture_text):
    # Pins the exact message of every single-fault decode, so a faster decoder
    # must report the first error where and as the checkers always have.
    with open(GOLDEN_DECODE_ERRORS, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert _single_fault_lines(fixture_text) == expected
