from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrdiag import (
    FuzzyDomainError,
    FuzzyProfile,
    FuzzySubset,
    classify_subset,
    correct_imprecise,
    membership,
    same_class,
)
from naive_reference import naive_classify
from strategies import fuzzy_profiles, profile_magnitudes

NAN = float("nan")


@pytest.fixture(scope="module")
def temperature() -> FuzzyProfile:
    return FuzzyProfile(
        descriptor_id="ds3",
        domain_lower=0.0,
        domain_upper=100.0,
        prototype=80.0,
        half_width=20.0,
        subsets=[
            FuzzySubset(label="A1", lower=60.0, upper=79.0),
            FuzzySubset(label="A2", lower=81.0, upper=100.0),
        ],
    )


def test_membership_peak(temperature):
    assert membership(80.0, temperature) == 1.0


def test_membership_slope(temperature):
    assert membership(95.0, temperature) == 0.25


def test_membership_zero_at_half_width(temperature):
    assert membership(100.0, temperature) == 0.0
    assert membership(60.0, temperature) == 0.0


def test_membership_out_of_domain(temperature):
    with pytest.raises(FuzzyDomainError) as err:
        membership(101.0, temperature)
    assert err.value.descriptor_id == "ds3"


def test_classify_printed_intervals(temperature):
    assert classify_subset(95.0, temperature).label == "A2"
    assert classify_subset(70.0, temperature).label == "A1"


def test_classify_below_every_subset(temperature):
    assert classify_subset(30.0, temperature) is None


def test_classify_gap_values(temperature):
    # the gaps (79, 80) and (80, 81) left by the printed intervals
    assert classify_subset(79.5, temperature).label == "A1"
    assert classify_subset(80.5, temperature).label == "A2"
    assert classify_subset(80.0, temperature).label == "A2"


def test_correct_far_value_snaps_outward(temperature):
    assert correct_imprecise(95.0, temperature) == 100.0


def test_correct_prototype_is_fixed(temperature):
    assert correct_imprecise(80.0, temperature) == 80.0


def test_correct_close_value_snaps_to_prototype(temperature):
    assert membership(85.0, temperature) == 0.75
    assert correct_imprecise(85.0, temperature) == 80.0


def test_correct_uncovered_value_unchanged(temperature):
    assert correct_imprecise(30.0, temperature) == 30.0


def test_correct_low_subset_snaps_to_lower_terminal(temperature):
    # 65 is in A1 with membership 0.25; the terminal farther from 80 is 60
    assert correct_imprecise(65.0, temperature) == 60.0


def test_same_class_examples(temperature):
    assert same_class(95.0, 100.0, temperature)
    assert same_class(82.0, 82.0, temperature)
    assert not same_class(70.0, 95.0, temperature)
    assert not same_class(30.0, 30.0, temperature)


def test_profile_rejects_overlapping_subsets():
    with pytest.raises(ValueError):
        FuzzyProfile(
            descriptor_id="x",
            domain_lower=0.0,
            domain_upper=10.0,
            prototype=5.0,
            half_width=2.0,
            subsets=[
                FuzzySubset(label="a", lower=0.0, upper=4.0),
                FuzzySubset(label="b", lower=4.0, upper=8.0),
            ],
        )


def test_profile_rejects_prototype_outside_domain():
    with pytest.raises(ValueError):
        FuzzyProfile(
            descriptor_id="x", domain_lower=0.0, domain_upper=10.0, prototype=11.0, half_width=2.0
        )


def test_profile_rejects_a_span_that_overflows():
    with pytest.raises(ValueError, match="^profile 'x': domain span inf is not finite$"):
        FuzzyProfile(
            descriptor_id="x", domain_lower=-1.7e308, domain_upper=1.7e308, prototype=0.0, half_width=2.0
        )


def test_profile_rejects_subset_leaving_domain():
    with pytest.raises(ValueError):
        FuzzyProfile(
            descriptor_id="x",
            domain_lower=0.0,
            domain_upper=10.0,
            prototype=5.0,
            half_width=2.0,
            subsets=[FuzzySubset(label="a", lower=8.0, upper=12.0)],
        )


def test_subset_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        FuzzySubset(label="a", lower=3.0, upper=2.0)


@pytest.mark.parametrize("lower, upper", [(NAN, NAN), (NAN, 2.0), (2.0, NAN)])
def test_subset_rejects_nan_bounds(lower, upper):
    with pytest.raises(ValueError, match="^subset 'a': bounds .* must be numbers$"):
        FuzzySubset(label="a", lower=lower, upper=upper)


def test_nan_is_outside_every_domain(temperature):
    for check in (temperature.check_domain, lambda x: membership(x, temperature)):
        with pytest.raises(FuzzyDomainError) as err:
            check(NAN)
        assert str(err.value) == "value nan for descriptor 'ds3' outside domain [0.0, 100.0]"


@given(st.data())
def test_membership_bounded(data):
    profile = data.draw(fuzzy_profiles("d"))
    x = data.draw(profile_magnitudes(profile))
    assert 0.0 <= membership(x, profile) <= 1.0


@given(st.data())
def test_same_class_symmetric(data):
    profile = data.draw(fuzzy_profiles("d"))
    x, y = (data.draw(profile_magnitudes(profile)) for _ in range(2))
    assert same_class(x, y, profile) == same_class(y, x, profile)


@given(st.data())
def test_same_class_transitive(data):
    profile = data.draw(fuzzy_profiles("d"))
    x, y, z = (data.draw(profile_magnitudes(profile)) for _ in range(3))
    if same_class(x, y, profile) and same_class(y, z, profile):
        assert same_class(x, z, profile)


@st.composite
def float_profiles(draw) -> FuzzyProfile:
    """Profiles over [0, 100] with non-integer bounds, single-point subsets
    and a prototype anywhere, gaps included."""
    finite = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
    bounds = sorted(draw(st.lists(finite, min_size=0, max_size=8, unique=True)))
    subsets = []
    i = 0
    while i < len(bounds):
        if i + 1 < len(bounds) and draw(st.booleans()):
            subsets.append(FuzzySubset(label=f"S{i}", lower=bounds[i], upper=bounds[i + 1]))
            i += 2
        else:
            subsets.append(FuzzySubset(label=f"S{i}", lower=bounds[i], upper=bounds[i]))
            i += 1
    return FuzzyProfile(
        descriptor_id="d",
        domain_lower=0.0,
        domain_upper=100.0,
        prototype=draw(st.one_of(finite, st.sampled_from(bounds or [50.0]))),
        half_width=draw(st.floats(min_value=0.5, max_value=50.0)),
        subsets=subsets,
    )


@given(float_profiles(), st.data())
def test_classify_matches_naive_reference(profile, data):
    landmarks = [profile.prototype, profile.domain_lower, profile.domain_upper]
    for s in profile.subsets:
        landmarks += [s.lower, s.upper, (s.lower + s.upper) / 2]
    for a, b in zip(profile.subsets, profile.subsets[1:]):
        landmarks.append((a.upper + b.lower) / 2)
    x = data.draw(
        st.one_of(
            st.sampled_from(landmarks),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        )
    )
    assert classify_subset(x, profile) == naive_classify(x, profile)


def test_classify_rejects_out_of_domain(temperature):
    with pytest.raises(FuzzyDomainError) as err:
        classify_subset(-0.5, temperature)
    assert str(err.value) == "value -0.5 for descriptor 'ds3' outside domain [0.0, 100.0]"
