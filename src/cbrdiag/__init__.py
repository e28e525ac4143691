"""Case-based retrieval engine for equipment fault diagnosis.

Retrieval ranks solved source cases against a target case by aggregating
per-descriptor similarities; a second, adaptation-oriented measure then picks
the retrieved case that is easiest to adapt. Descriptors may be imprecise
(numeric values corrected through fuzzy profiles), uncertain (excluded from
enhanced similarity), or simply absent.
"""

from .cases import (
    AlignmentPair,
    Case,
    CaseBase,
    CaseKind,
    Descriptor,
    DescriptorValue,
    ImperfectionFlags,
    NumericValue,
    OperatingMode,
    Solution,
    SymbolicValue,
    align,
    validate_case,
)
from .codec import decode_case_base, decode_outcome, encode_case_base, encode_outcome
from .errors import (
    CbrError,
    ConfigurationError,
    DocumentSyntaxError,
    DocumentValidationError,
    FuzzyDomainError,
    MissingProfileError,
    UnknownLabelError,
)
from .fuzzy import FuzzyProfile, FuzzySubset, classify_subset, correct_imprecise, membership, same_class
from .measures import (
    AdaptationResult,
    AdaptationTerm,
    LocalScores,
    RetrievalResult,
    ScoringContext,
    ScoringMode,
    adaptation_measure,
    lambda_weight,
    retrieval_measure,
)
from .pipeline import (
    Correction,
    DiagnosisOutcome,
    ScoredCase,
    diagnose,
    prepare_target,
    retrieve,
)
from .taxonomy import Taxonomy

__all__ = [
    "AdaptationResult",
    "AdaptationTerm",
    "AlignmentPair",
    "Case",
    "CaseBase",
    "CaseKind",
    "CbrError",
    "ConfigurationError",
    "Correction",
    "Descriptor",
    "DescriptorValue",
    "DiagnosisOutcome",
    "DocumentSyntaxError",
    "DocumentValidationError",
    "FuzzyDomainError",
    "FuzzyProfile",
    "FuzzySubset",
    "ImperfectionFlags",
    "LocalScores",
    "MissingProfileError",
    "NumericValue",
    "OperatingMode",
    "RetrievalResult",
    "ScoredCase",
    "ScoringContext",
    "ScoringMode",
    "Solution",
    "SymbolicValue",
    "Taxonomy",
    "UnknownLabelError",
    "adaptation_measure",
    "align",
    "classify_subset",
    "correct_imprecise",
    "decode_case_base",
    "decode_outcome",
    "diagnose",
    "encode_case_base",
    "encode_outcome",
    "lambda_weight",
    "membership",
    "prepare_target",
    "retrieval_measure",
    "retrieve",
    "validate_case",
]
