"""Acceptance gate: seven numbered criteria, one printed verdict line each.

Criteria 1-5 pin the engine to the bundled four-case fixture: exact fuzzy
correction values, exact and toleranced retrieval/adaptation scores, the
retrieval order, and the final selection. Criterion 6 runs the randomized
property suites (at least 200 instances each), and criterion 7 checks the
engine against the independent brute-force scorer in tests/naive_reference.py.

Each criterion prints "CRITERION n PASS" or "CRITERION n FAIL" directly to
the terminal, bypassing capture, so the report is visible in a plain
`pytest -v` run. A failing criterion also fails its test; the printed line is
reporting, never gating.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbrdiag import (
    CaseBase,
    Descriptor,
    OperatingMode,
    ScoringContext,
    ScoringMode,
    SymbolicValue,
    Taxonomy,
    adaptation_measure,
    correct_imprecise,
    decode_case_base,
    diagnose,
    encode_case_base,
    membership,
    prepare_target,
    retrieval_measure,
    retrieve,
)
from naive_reference import naive_retrieve
from strategies import case_bundles, clean_cases, fuzzy_profiles, profile_magnitudes, taxonomies


@contextlib.contextmanager
def criterion(capsys, number: int):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {number} FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"CRITERION {number} PASS")


def _context(case_base: CaseBase, mode: ScoringMode) -> ScoringContext:
    return ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)


def test_criterion_1_fuzzy_exactness(capsys, engine_case_base):
    with criterion(capsys, 1):
        profile = engine_case_base.profiles["ds3"]
        assert membership(95.0, profile) == 0.25
        assert correct_imprecise(95.0, profile) == 100.0


def test_criterion_2_exact_scores(capsys, engine_case_base):
    with criterion(capsys, 2):
        target = engine_case_base.cases["target"]
        typical = _context(engine_case_base, ScoringMode.TYPICAL)
        m_r_s1 = retrieval_measure(target, engine_case_base.cases["source1"], typical).score
        assert abs(m_r_s1 - 0.5) <= 1e-9

        prepared, _ = prepare_target(target, engine_case_base.profiles)
        enhanced = _context(engine_case_base, ScoringMode.ENHANCED)
        m_a_s1 = adaptation_measure(prepared, engine_case_base.cases["source1"], enhanced).score
        m_a_s3 = adaptation_measure(prepared, engine_case_base.cases["source3"], enhanced).score
        assert abs(m_a_s1 - 1.5) <= 1e-9
        assert abs(m_a_s3 - 2.0) <= 1e-9


def test_criterion_3_toleranced_scores(capsys, engine_case_base):
    with criterion(capsys, 3):
        target = engine_case_base.cases["target"]
        typical = _context(engine_case_base, ScoringMode.TYPICAL)
        m_r_s2 = retrieval_measure(target, engine_case_base.cases["source2"], typical).score
        m_r_s3 = retrieval_measure(target, engine_case_base.cases["source3"], typical).score
        assert 0.75 <= m_r_s2 <= 0.85
        assert 0.70 <= m_r_s3 <= 0.80


def test_criterion_4_ranking_and_selection(capsys, engine_case_base):
    with criterion(capsys, 4):
        target = engine_case_base.cases["target"]
        ranking = retrieve(target, engine_case_base, ScoringMode.TYPICAL, 3)
        assert [sc.case_id for sc in ranking] == ["source2", "source3", "source1"]

        outcome = diagnose(target, engine_case_base, top_k=3)
        assert outcome.selected_case_id == "source3"

        prepared, _ = prepare_target(target, engine_case_base.profiles)
        enhanced = _context(engine_case_base, ScoringMode.ENHANCED)
        m_a_s2 = adaptation_measure(prepared, engine_case_base.cases["source2"], enhanced).score
        assert m_a_s2 < 2.0


def test_criterion_5_enhanced_scores(capsys, engine_case_base):
    with criterion(capsys, 5):
        target = engine_case_base.cases["target"]
        prepared, _ = prepare_target(target, engine_case_base.profiles)
        enhanced = _context(engine_case_base, ScoringMode.ENHANCED)
        m_r_s2 = retrieval_measure(prepared, engine_case_base.cases["source2"], enhanced).score
        m_r_s3 = retrieval_measure(prepared, engine_case_base.cases["source3"], enhanced).score
        assert m_r_s2 == 1.0
        assert m_r_s3 == 1.0


# Criterion 6 property suite. Each function below runs one randomized
# property for the full example budget when called; none is collected as a
# test on its own.

_MODES = st.sampled_from(list(ScoringMode))


@given(case_bundles(min_sources=1), _MODES)
def _mr_bounded(bundle, mode):
    case_base, target = bundle
    ctx = _context(case_base, mode)
    for source in case_base.sources():
        score = retrieval_measure(target, source, ctx).score
        assert 0.0 <= score <= 1.0


@given(clean_cases(), _MODES)
def _mr_clean_identity(bundle, mode):
    case_base, case = bundle
    assert retrieval_measure(case, case, _context(case_base, mode)).score == 1.0


@given(case_bundles(min_sources=1), _MODES, st.booleans())
def _mr_presence_gating_noop(bundle, mode, widen_target):
    case_base, target = bundle
    source = case_base.sources()[0]
    ctx = _context(case_base, mode)
    before = retrieval_measure(target, source, ctx).score
    extra = Descriptor(
        id="zz_extra",
        name="extra",
        value=SymbolicValue(label=case_base.taxonomy.root),
        operating_mode=OperatingMode.NORMAL,
    )
    if widen_target:
        target = replace(target, descriptors={**target.descriptors, extra.id: extra})
    else:
        source = replace(source, descriptors={**source.descriptors, extra.id: extra})
    assert retrieval_measure(target, source, ctx).score == before


@given(case_bundles(min_sources=1))
def _mr_exclusion_equivalence(bundle):
    case_base, target = bundle
    source = case_base.sources()[0]
    ctx = _context(case_base, ScoringMode.ENHANCED)
    full = retrieval_measure(target, source, ctx).score
    doubtful = {
        did
        for did in set(target.descriptors) & set(source.descriptors)
        if target.descriptors[did].flags.uncertain or source.descriptors[did].flags.uncertain
    }
    trimmed_target = replace(
        target, descriptors={k: v for k, v in target.descriptors.items() if k not in doubtful}
    )
    trimmed_source = replace(
        source, descriptors={k: v for k, v in source.descriptors.items() if k not in doubtful}
    )
    assert retrieval_measure(trimmed_target, trimmed_source, ctx).score == full


@given(case_bundles(min_sources=1), _MODES)
def _mr_breakdown_exact(bundle, mode):
    case_base, target = bundle
    source = case_base.sources()[0]
    result = retrieval_measure(target, source, _context(case_base, mode))
    numerator = 0.0
    denominator = 0
    for row in result.breakdown:
        numerator += row.product
        denominator += row.phi_presence
    assert result.score == (numerator / denominator if denominator else 0.0)


@given(case_bundles(min_sources=1))
def _ma_bounded(bundle):
    case_base, target = bundle
    prepared, _ = prepare_target(target, case_base.profiles)
    ctx = _context(case_base, ScoringMode.ENHANCED)
    for source in case_base.sources():
        score = adaptation_measure(prepared, source, ctx).score
        assert 0.0 <= score <= 4.0


@given(case_bundles(min_sources=1))
def _ma_flip_to_abnormal_monotonic(bundle):
    case_base, target = bundle
    source = case_base.sources()[0]
    shared = sorted(set(target.descriptors) & set(source.descriptors))
    if not shared:
        return
    did = shared[0]
    ctx = _context(case_base, ScoringMode.ENHANCED)

    def with_modes(mode):
        t = replace(
            target,
            descriptors={
                **target.descriptors,
                did: replace(target.descriptors[did], operating_mode=mode),
            },
        )
        s = replace(
            source,
            descriptors={
                **source.descriptors,
                did: replace(source.descriptors[did], operating_mode=mode),
            },
        )
        return adaptation_measure(t, s, ctx).score

    assert with_modes(OperatingMode.NORMAL) <= with_modes(OperatingMode.ABNORMAL)


@given(case_bundles(min_sources=2), st.sampled_from([0.5, 2.0, 4.0]))
def _ma_argmax_scaling_invariance(bundle, scale):
    case_base, target = bundle
    prepared, _ = prepare_target(target, case_base.profiles)
    ctx = _context(case_base, ScoringMode.ENHANCED)
    plain = []
    scaled = []
    for source in case_base.sources():
        result = adaptation_measure(prepared, source, ctx)
        numerator = 0.0
        denominator = 0
        for row in result.breakdown:
            numerator += (scale * row.weight) * row.phi_presence * row.phi_value
            denominator += row.phi_presence
        plain.append((result.score, source.id))
        scaled.append((numerator / denominator if denominator else 0.0, source.id))
    order = lambda pairs: [sid for _, sid in sorted(pairs, key=lambda p: (-p[0], p[1]))]
    assert order(plain) == order(scaled)


@given(case_bundles(min_sources=1))
def _ma_breakdown_exact(bundle):
    case_base, target = bundle
    source = case_base.sources()[0]
    prepared, _ = prepare_target(target, case_base.profiles)
    result = adaptation_measure(prepared, source, _context(case_base, ScoringMode.ENHANCED))
    numerator = 0.0
    denominator = 0
    for row in result.breakdown:
        numerator += row.term
        denominator += row.phi_presence
    assert result.score == (numerator / denominator if denominator else 0.0)


@given(st.data())
def _fuzzy_membership_symmetry(data):
    profile = data.draw(fuzzy_profiles("d"))
    reach = int(
        min(profile.prototype - profile.domain_lower, profile.domain_upper - profile.prototype)
    )
    delta = float(data.draw(st.integers(min_value=0, max_value=reach)))
    above, below = profile.prototype + delta, profile.prototype - delta
    # A float prototype plus or minus delta can round, and then the two
    # readings are not equally far from it; whole numbers never round here.
    assume(above - profile.prototype == delta == profile.prototype - below)
    assert membership(above, profile) == membership(below, profile)


@given(st.data())
def _fuzzy_correction_idempotent(data):
    profile = data.draw(fuzzy_profiles("d"))
    x = data.draw(profile_magnitudes(profile))
    once = correct_imprecise(x, profile)
    assert correct_imprecise(once, profile) == once


@given(st.data())
def _fuzzy_domain_closure(data):
    profile = data.draw(fuzzy_profiles("d"))
    x = data.draw(profile_magnitudes(profile))
    assert 0.0 <= membership(x, profile) <= 1.0
    assert profile.domain_lower <= correct_imprecise(x, profile) <= profile.domain_upper


@given(taxonomies(), st.data())
def _tax_symmetry(taxonomy, data):
    a = data.draw(st.sampled_from(taxonomy.nodes()))
    b = data.draw(st.sampled_from(taxonomy.nodes()))
    assert taxonomy.value_similarity(a, b) == taxonomy.value_similarity(b, a)


@given(taxonomies(), st.data())
def _tax_identity(taxonomy, data):
    a = data.draw(st.sampled_from(taxonomy.nodes()))
    b = data.draw(st.sampled_from(taxonomy.nodes()))
    assert taxonomy.value_similarity(a, a) == 1.0
    assert (taxonomy.value_similarity(a, b) == 1.0) == (a == b)


def _chain_similarity(attach: int, depth_a: int, depth_b: int) -> float:
    nodes: list[tuple[str, str | None]] = [("c0", None)]
    nodes += [(f"c{i}", f"c{i - 1}") for i in range(1, attach + 1)]
    prev = f"c{attach}"
    for i in range(attach + 1, depth_a + 1):
        nodes.append((f"a{i}", prev))
        prev = f"a{i}"
    leaf_a = prev
    prev = f"c{attach}"
    for i in range(attach + 1, depth_b + 1):
        nodes.append((f"b{i}", prev))
        prev = f"b{i}"
    leaf_b = prev
    return Taxonomy(nodes).value_similarity(leaf_a, leaf_b)


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def _tax_lca_depth_monotonic(shallow, gap, tail_a, tail_b):
    deep = shallow + gap
    depth_a = deep + tail_a
    depth_b = deep + tail_b
    assert _chain_similarity(shallow, depth_a, depth_b) <= _chain_similarity(
        deep, depth_a, depth_b
    )


@given(case_bundles())
def _codec_roundtrip_identity(bundle):
    case_base, _ = bundle
    assert decode_case_base(encode_case_base(case_base)) == case_base


@given(case_bundles())
def _codec_deterministic_bytes(bundle):
    case_base, _ = bundle
    text = encode_case_base(case_base)
    assert encode_case_base(case_base) == text
    reordered = CaseBase(
        taxonomy=case_base.taxonomy,
        profiles=dict(reversed(list(case_base.profiles.items()))),
        cases=dict(reversed(list(case_base.cases.items()))),
    )
    assert encode_case_base(reordered) == text


_PROPERTY_SUITE = [
    _mr_bounded,
    _mr_clean_identity,
    _mr_presence_gating_noop,
    _mr_exclusion_equivalence,
    _mr_breakdown_exact,
    _ma_bounded,
    _ma_flip_to_abnormal_monotonic,
    _ma_argmax_scaling_invariance,
    _ma_breakdown_exact,
    _fuzzy_membership_symmetry,
    _fuzzy_correction_idempotent,
    _fuzzy_domain_closure,
    _tax_symmetry,
    _tax_identity,
    _tax_lca_depth_monotonic,
    _codec_roundtrip_identity,
    _codec_deterministic_bytes,
]


def test_criterion_6_property_suites(capsys):
    with criterion(capsys, 6):
        assert settings.default.max_examples >= 200
        for run_property in _PROPERTY_SUITE:
            run_property()


@given(case_bundles(), _MODES, st.integers(min_value=1, max_value=12))
def _oracle_equivalence(bundle, mode, top_k):
    case_base, target = bundle
    engine = retrieve(target, case_base, mode, top_k)
    reference = naive_retrieve(target, case_base, mode is ScoringMode.ENHANCED, top_k)
    assert [(sc.case_id, sc.m_r) for sc in engine] == reference


def test_criterion_7_oracle_equivalence(capsys):
    with criterion(capsys, 7):
        assert settings.default.max_examples >= 200
        _oracle_equivalence()
