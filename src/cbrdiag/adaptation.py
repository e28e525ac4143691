"""Operating-mode weights and the adaptation measure.

After retrieval narrows the sources down, the adaptation measure ranks how
well each retrieved case's knowledge transfers to the target. It is a
presence-normalized sum of value similarities weighted by how abnormal the
operating modes are: descriptors in failure mode point at the components
most likely to be at fault, so they dominate the choice.

Only co-present descriptors annotated with an operating mode on at least one
side enter the sums, and uncertain descriptors participate: doubt disqualifies
a value from similarity, not from pointing at a failing component.

The measure is a kernel over the scoring records of :mod:`cbrdiag.measures`,
beside the retrieval kernel. It takes each pair's weight from the two
operating-mode codes and its value, in enhanced mode, from the pair-value
dispatch that retrieval uses. :func:`~cbrdiag.pipeline.diagnose` runs it on
the records its ranking already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cases import Case, OperatingMode
from .measures import ScoringContext, _pair_value, _source_records, _target_records

_ABNORMAL = OperatingMode.ABNORMAL.value
_UNSPECIFIED = OperatingMode.UNSPECIFIED.value


def _weight(target_code: str, source_code: str) -> int:
    """The weight of two operating-mode codes, doubling per abnormal side."""
    return 2 ** ((target_code == _ABNORMAL) + (source_code == _ABNORMAL))


def lambda_weight(target_mode: OperatingMode, source_mode: OperatingMode) -> int:
    """Weight doubling per abnormal side: 1, 2, or 4.

    An unspecified mode weighs like a normal one; absence of evidence of
    failure must not add weight.
    """
    return _weight(target_mode.value, source_mode.value)


@dataclass(frozen=True)
class AdaptationTerm:
    """Per-descriptor weighted contribution; term is the numerator share."""

    descriptor_id: str
    weight: int
    phi_presence: int
    phi_value: float
    term: float


@dataclass(frozen=True)
class AdaptationResult:
    score: float
    breakdown: list[AdaptationTerm]


def _adapt(
    target: Case,
    target_records: list[tuple],
    source: Case,
    source_records: Mapping[str, tuple],
    ctx: ScoringContext,
) -> AdaptationResult:
    """The adaptation kernel: the score of one source with its breakdown,
    from the target's records (as ``measures._target_records`` gives them)
    and the source's records by descriptor id.

    Sums run over co-present descriptors in id order, leaving out pairs whose
    operating modes are both unspecified.
    """
    rows: list[AdaptationTerm] = []
    numerator = 0.0
    denominator = 0
    for t in target_records:
        s = source_records.get(t[0])
        if s is None:
            continue
        t_om, s_om = t[5], s[4]
        if t_om == _UNSPECIFIED and s_om == _UNSPECIFIED:
            continue
        presence = 1
        weight = _weight(t_om, s_om)
        value = _pair_value(target, t, source, s, True, ctx)
        term = weight * presence * value
        rows.append(
            AdaptationTerm(
                descriptor_id=t[0],
                weight=weight,
                phi_presence=presence,
                phi_value=value,
                term=term,
            )
        )
        numerator += term
        denominator += presence
    score = numerator / denominator if denominator else 0.0
    return AdaptationResult(score=score, breakdown=rows)


def adaptation_measure(target: Case, source: Case, ctx: ScoringContext) -> AdaptationResult:
    """Adaptation score with its per-descriptor breakdown, in [0, 4].

    Numeric values are compared by fuzzy class equality, so callers pass the
    target in corrected form (the pipeline always does). Sums run in
    descriptor-id order; with no mode-bearing co-present descriptor the score
    is 0.
    """
    return _adapt(target, _target_records(target, ctx), source, _source_records(source, target, ctx), ctx)
