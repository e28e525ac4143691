"""Exception types shared across the engine.

The CLI maps these onto exit codes: domain/validation problems exit 1,
document syntax problems exit 2, configuration problems exit 3.
"""

from __future__ import annotations


class CbrError(Exception):
    """Base class for all engine errors."""


class UnknownLabelError(CbrError):
    """A symbolic label does not resolve to a taxonomy node."""

    def __init__(self, label: str) -> None:
        super().__init__(f"unknown taxonomy label: {label!r}")
        self.label = label


class FuzzyDomainError(CbrError):
    """A numeric value lies outside its fuzzy profile's domain."""

    def __init__(self, descriptor_id: str, value: float, lower: float, upper: float) -> None:
        super().__init__(
            f"value {value!r} for descriptor {descriptor_id!r} outside domain "
            f"[{lower!r}, {upper!r}]"
        )
        self.descriptor_id = descriptor_id
        self.value = value
        self.lower = lower
        self.upper = upper


class MissingProfileError(CbrError):
    """A numeric descriptor needs a fuzzy profile that is not registered."""

    def __init__(self, descriptor_id: str) -> None:
        super().__init__(f"no fuzzy profile registered for descriptor {descriptor_id!r}")
        self.descriptor_id = descriptor_id


class ConfigurationError(CbrError):
    """A query was configured inconsistently (bad mode, bad top-k, ...)."""


class DocumentSyntaxError(CbrError):
    """A document could not be parsed at all: bad syntax, bad structure,
    or an unsupported format version."""


class DocumentValidationError(CbrError):
    """A structurally well-formed document violates semantic constraints,
    or scoring was given a case that ``validate_case`` reports, or the
    encoder one holding a field of the wrong type.

    Carries every violation found, each prefixed with the field path
    where it was detected.
    """

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = list(violations)
