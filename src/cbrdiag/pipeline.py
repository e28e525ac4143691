"""Diagnosis pipeline: correct, retrieve, refine, select.

The full query runs in four steps: imprecise numeric descriptors of the
target are corrected through their fuzzy profiles, retrieval scores every
source (excluding uncertain descriptors), the top ranked cases get an
adaptation score, and the case with the highest adaptation score is selected
so its recorded solution can be proposed. Each top ranked case gets its
retrieval and adaptation breakdowns from one call of the scoring kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .cases import Case, CaseBase, NumericValue, Solution
from .errors import ConfigurationError, MissingProfileError
from .fuzzy import FuzzyProfile, correct_imprecise
from .measures import _ADAPTATION, _RETRIEVAL, AdaptationTerm, LocalScores, ScoringMode, rank_sources
from .measures import _compiled_sources, _refuse


@dataclass(frozen=True)
class Correction:
    descriptor_id: str
    original: float
    corrected: float


@dataclass(frozen=True)
class ScoredCase:
    """A source case with its scores and explanation breakdowns.

    The adaptation fields are filled only for cases that survived retrieval.
    """

    case_id: str
    m_r: float
    breakdown_r: list[LocalScores]
    m_a: Optional[float] = None
    breakdown_a: Optional[list[AdaptationTerm]] = None


@dataclass(frozen=True)
class DiagnosisOutcome:
    selected_case_id: Optional[str]
    solution: Optional[Solution]
    ranking: list[ScoredCase]
    mode: ScoringMode
    corrections_applied: list[Correction]


def prepare_target(
    target: Case, profiles: Mapping[str, FuzzyProfile]
) -> tuple[Case, list[Correction]]:
    """Correct every imprecise numeric descriptor of the target.

    Flags are kept on the corrected descriptors for audit, and the log lists
    every imprecise numeric descriptor even when correction was the identity.
    """
    corrections: list[Correction] = []
    updated = dict(target.descriptors)
    for did in sorted(target.descriptors):
        d = target.descriptors[did]
        if not (d.flags.imprecise and isinstance(d.value, NumericValue)):
            continue
        profile = profiles.get(did)
        if profile is None:
            raise MissingProfileError(did)
        corrected = correct_imprecise(d.value.magnitude, profile)
        corrections.append(Correction(descriptor_id=did, original=d.value.magnitude, corrected=corrected))
        updated[did] = replace(d, value=NumericValue(magnitude=corrected, unit=d.value.unit))
    prepared = replace(target, descriptors=updated)
    return prepared, corrections


def _retrieve(
    target: Case, case_base: CaseBase, mode: ScoringMode, top_k: int, kinds: int = _RETRIEVAL
) -> DiagnosisOutcome:
    """Retrieval as :func:`retrieve` runs it: the outcome with its ranking
    and correction log but no selection. With ``_ADAPTATION`` in ``kinds``
    (enhanced mode only), every ranked case also gets its adaptation score
    and breakdown, from the kernel call that builds its retrieval breakdown.
    An invalid base is refused as it compiles, then an invalid target."""
    if top_k < 1:
        raise ConfigurationError(f"top_k must be at least 1, got {top_k}")
    _compiled_sources(case_base)
    _refuse([target], case_base.taxonomy, case_base.profiles)
    corrections: list[Correction] = []
    if mode is ScoringMode.ENHANCED:
        target, corrections = prepare_target(target, case_base.profiles)
    ranking = [
        ScoredCase(
            case_id=source.id,
            m_r=retrieval.score,
            breakdown_r=retrieval.breakdown,
            m_a=None if adaptation is None else adaptation.score,
            breakdown_a=None if adaptation is None else adaptation.breakdown,
        )
        for source, retrieval, adaptation in rank_sources(target, case_base, mode, top_k, kinds)
    ]
    return DiagnosisOutcome(
        selected_case_id=None,
        solution=None,
        ranking=ranking,
        mode=mode,
        corrections_applied=corrections,
    )


def retrieve(target: Case, case_base: CaseBase, mode: ScoringMode, top_k: int) -> list[ScoredCase]:
    """Score every source against the target and keep the top_k best.

    Sources are ordered by descending retrieval score, ties broken by case id.
    In enhanced mode the target is corrected first. An empty case base gives
    an empty list. Sources of the case base that :func:`validate_case`
    reports, or else a target it reports, raise ``DocumentValidationError``
    with their violations before any score or correction; so does
    :func:`diagnose`.
    """
    return _retrieve(target, case_base, mode, top_k).ranking


def diagnose(target: Case, case_base: CaseBase, top_k: int = 3) -> DiagnosisOutcome:
    """Run the full enhanced pipeline and select the most adaptable case.

    Selection is the retrieved case with the highest adaptation score, ties
    broken by higher retrieval score and then case id. The outcome carries
    the selected case's solution, both breakdowns for every retrieved case,
    and the correction log; with nothing retrieved, nothing is selected.
    """
    retrieved = _retrieve(target, case_base, ScoringMode.ENHANCED, top_k, _RETRIEVAL | _ADAPTATION)
    if not retrieved.ranking:
        return retrieved
    selected = min(retrieved.ranking, key=lambda sc: (-sc.m_a, -sc.m_r, sc.case_id))
    return replace(
        retrieved,
        selected_case_id=selected.case_id,
        solution=case_base.cases[selected.case_id].solution,
    )
