"""Triangular fuzzy membership and correction of imprecise numeric values.

A numeric descriptor gets a profile: a value domain, a prototype value where
membership peaks at 1, a half-width where it falls to 0, and labeled subsets
of the domain. Correction snaps an imprecise reading to the prototype when
its membership reaches the 0.5 alpha-cut, and otherwise pushes it out to the
far bound of the subset it falls in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .errors import FuzzyDomainError


@dataclass(frozen=True)
class FuzzySubset:
    """A labeled closed interval of the value domain."""

    label: str
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError(f"subset {self.label!r}: bounds {self.lower!r}, {self.upper!r} must be numbers")
        if self.lower > self.upper:
            raise ValueError(f"subset {self.label!r}: lower {self.lower!r} > upper {self.upper!r}")


@dataclass(frozen=True)
class FuzzyProfile:
    """Fuzzy description of one numeric descriptor's value domain.

    The domain's span must be a finite float. Subsets must be pairwise
    disjoint (shared endpoints count as overlap) and lie inside the domain.
    Any iterable of subsets is accepted; they are kept as a tuple sorted by
    lower bound.
    """

    descriptor_id: str
    domain_lower: float
    domain_upper: float
    prototype: float
    half_width: float
    subsets: tuple[FuzzySubset, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.subsets, key=lambda s: (s.lower, s.upper)))
        if not self.domain_lower <= self.prototype <= self.domain_upper:
            raise ValueError(
                f"profile {self.descriptor_id!r}: prototype {self.prototype!r} outside domain "
                f"[{self.domain_lower!r}, {self.domain_upper!r}]"
            )
        # Closeness divides by the span, so it must be a finite float too.
        if not math.isfinite(self.domain_upper - self.domain_lower):
            raise ValueError(
                f"profile {self.descriptor_id!r}: domain span "
                f"{self.domain_upper - self.domain_lower!r} is not finite"
            )
        if not self.half_width > 0:
            raise ValueError(f"profile {self.descriptor_id!r}: half_width must be positive")
        labels = [s.label for s in ordered]
        if len(set(labels)) != len(labels):
            raise ValueError(f"profile {self.descriptor_id!r}: duplicate subset labels")
        for s in ordered:
            if s.lower < self.domain_lower or s.upper > self.domain_upper:
                raise ValueError(
                    f"profile {self.descriptor_id!r}: subset {s.label!r} leaves the domain"
                )
        for a, b in zip(ordered, ordered[1:]):
            if a.upper >= b.lower:
                raise ValueError(
                    f"profile {self.descriptor_id!r}: subsets {a.label!r} and {b.label!r} overlap"
                )
        object.__setattr__(self, "subsets", ordered)

    def check_domain(self, x: float) -> None:
        # Written so that NaN, which no comparison admits, fails it too.
        if not self.domain_lower <= x <= self.domain_upper:
            raise FuzzyDomainError(self.descriptor_id, x, self.domain_lower, self.domain_upper)


_lower = attrgetter("lower")


def membership(x: float, profile: FuzzyProfile) -> float:
    """Triangular membership degree of ``x``: 1 at the prototype, falling
    linearly to 0 at ``half_width`` away from it."""
    profile.check_domain(x)
    return max(0.0, 1.0 - abs(x - profile.prototype) / profile.half_width)


def classify_subset(x: float, profile: FuzzyProfile) -> Optional[FuzzySubset]:
    """Return the subset whose range covers ``x``, or None.

    Ranges are the declared intervals extended toward the prototype, so the
    gaps a profile leaves between a subset and the prototype still classify:
    each subset reaches up to the prototype or the next declared bound,
    half-open on the side below the prototype. The prototype itself belongs
    to the subset just above it, when one exists.
    """
    profile.check_domain(x)
    subsets = profile.subsets
    # Subsets are disjoint and sorted, so subsets[:i] start at or below x and
    # lie below it unless subsets[i - 1] covers x; subsets[i:] start above x.
    i = bisect_right(subsets, x, key=_lower)
    if i and x <= subsets[i - 1].upper:
        return subsets[i - 1]
    if x < profile.prototype:
        return subsets[i - 1] if i else None
    return subsets[i] if i < len(subsets) else None


def correct_imprecise(x: float, profile: FuzzyProfile) -> float:
    """Snap an imprecise reading to the profile's landmark values.

    Membership at or above the 0.5 alpha-cut means the reading is close
    enough to stand for the prototype. Below the cut it is pushed to the
    outer terminal (the bound farthest from the prototype) of its subset.
    A reading covered by no subset is left unchanged. Idempotent, and never
    leaves the domain.
    """
    if membership(x, profile) >= 0.5:
        return profile.prototype
    s = classify_subset(x, profile)
    if s is None:
        return x
    if abs(s.lower - profile.prototype) > abs(s.upper - profile.prototype):
        return s.lower
    return s.upper


def same_class(x: float, y: float, profile: FuzzyProfile) -> bool:
    """True iff both values classify into the same subset."""
    cx = classify_subset(x, profile)
    cy = classify_subset(y, profile)
    return cx is not None and cx == cy
