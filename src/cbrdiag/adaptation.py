"""Operating-mode weights and the adaptation measure.

After retrieval narrows the sources down, the adaptation measure ranks how
well each retrieved case's knowledge transfers to the target. It is a
presence-normalized sum of value similarities weighted by how abnormal the
operating modes are: descriptors in failure mode point at the components
most likely to be at fault, so they dominate the choice.

Only co-present descriptors annotated with an operating mode on at least one
side enter the sums, and uncertain descriptors participate: doubt disqualifies
a value from similarity, not from pointing at a failing component.

The adaptation rows come from the scoring kernel of :mod:`cbrdiag.measures`,
which defines the result types and the weight rule re-exported here.
:func:`~cbrdiag.pipeline.diagnose` has the kernel build each returned
source's adaptation rows in the call that builds its retrieval rows, from
one value per pair.
"""

from __future__ import annotations

from .cases import Case, OperatingMode
from .measures import _ADAPTATION, AdaptationResult, AdaptationTerm, ScoringContext, ScoringMode, _measure_one, _weight


def lambda_weight(target_mode: OperatingMode, source_mode: OperatingMode) -> int:
    """Weight doubling per abnormal side: 1, 2, or 4.

    An unspecified mode weighs like a normal one; absence of evidence of
    failure must not add weight.
    """
    return _weight(target_mode.value, source_mode.value)


def adaptation_measure(target: Case, source: Case, ctx: ScoringContext) -> AdaptationResult:
    """Adaptation score with its per-descriptor breakdown, in [0, 4].

    Numeric values are compared by fuzzy class equality, so callers pass the
    target in corrected form (the pipeline always does). Sums run in
    descriptor-id order; with no mode-bearing co-present descriptor the score
    is 0.
    """
    # Adaptation compares values as enhanced mode does, whatever ctx says.
    if ctx.mode is not ScoringMode.ENHANCED:
        ctx = ScoringContext(taxonomy=ctx.taxonomy, profiles=ctx.profiles)
    return _measure_one(target, source, ctx, _ADAPTATION)[1]
