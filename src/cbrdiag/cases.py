"""Case and descriptor model.

A case is an identified bundle of descriptors; each descriptor carries a
symbolic or numeric value, an optional state label, an operating mode, and
two independent imperfection flags (imprecise, uncertain). Incompleteness is
never a flag: a missing descriptor is simply absent from the case, and every
measure scores only the descriptors that both cases record.

All types are immutable values after construction and safe to share across
concurrent scorers.
"""

from __future__ import annotations

import contextlib
import enum
import gc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Union

from .errors import FuzzyDomainError

if TYPE_CHECKING:
    from .fuzzy import FuzzyProfile
    from .taxonomy import Taxonomy


class OperatingMode(enum.Enum):
    """Operating mode of the observed component.

    UNSPECIFIED stands for a blank annotation and is distinct from NORMAL:
    a blank never certifies normal operation.
    """

    NORMAL = "N"
    ABNORMAL = "A"
    UNSPECIFIED = "U"


class CaseKind(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


@dataclass(frozen=True)
class ImperfectionFlags:
    """Imprecision and uncertainty markers; the flags may co-occur."""

    imprecise: bool = False
    uncertain: bool = False


# Every flag value there is, keyed by (imprecise, uncertain). Decoding shares
# these four objects instead of building one per descriptor.
FLAG_VALUES = {
    (imprecise, uncertain): ImperfectionFlags(imprecise=imprecise, uncertain=uncertain)
    for imprecise in (False, True)
    for uncertain in (False, True)
}
CLEAN = FLAG_VALUES[False, False]


@dataclass(frozen=True)
class SymbolicValue:
    """A label naming a node of the case base's component taxonomy."""

    label: str


@dataclass(frozen=True)
class NumericValue:
    """A measured magnitude with its unit."""

    magnitude: float
    unit: str


DescriptorValue = Union[SymbolicValue, NumericValue]


@dataclass(frozen=True)
class Descriptor:
    """One observed attribute of a case."""

    id: str
    name: str
    value: DescriptorValue
    state: Optional[str] = None
    operating_mode: OperatingMode = OperatingMode.UNSPECIFIED
    flags: ImperfectionFlags = CLEAN


# The decoder builds a NumericValue and a Descriptor per descriptor of a
# document. These two build what the constructors build with one dict write
# per field, where a frozen dataclass's __init__ pays an object.__setattr__
# call per field. Reading __dict__ gives the instance a dict object of its
# own (64 bytes on CPython 3.11), so the public constructors keep the
# generated __init__: objects that callers build and keep stay as small as
# ever, and only a decoded base pays for the dicts.
_new = object.__new__


def _numeric_value(magnitude: float, unit: str) -> NumericValue:
    v = _new(NumericValue)
    d = v.__dict__
    d["magnitude"] = magnitude
    d["unit"] = unit
    return v


def _descriptor(
    id: str,
    name: str,
    value: DescriptorValue,
    state: Optional[str],
    operating_mode: OperatingMode,
    flags: ImperfectionFlags,
) -> Descriptor:
    descriptor = _new(Descriptor)
    d = descriptor.__dict__
    d["id"] = id
    d["name"] = name
    d["value"] = value
    d["state"] = state
    d["operating_mode"] = operating_mode
    d["flags"] = flags
    return descriptor


@dataclass(frozen=True)
class Solution:
    """Diagnosis attached to a solved source case."""

    failing_component: str
    action: str


@dataclass(frozen=True)
class Case:
    """Identified bundle of descriptors, optionally with a solution.

    Source cases used for final selection should carry a solution; target
    cases carry none.
    """

    id: str
    kind: CaseKind
    descriptors: Mapping[str, Descriptor] = field(default_factory=dict)
    solution: Optional[Solution] = None

    def descriptor_ids(self) -> list[str]:
        return sorted(self.descriptors)


@dataclass(frozen=True)
class AlignmentPair:
    """A descriptor co-present in the target and a source case."""

    descriptor_id: str
    target: Descriptor
    source: Descriptor


def align(target: Case, source: Case) -> list[AlignmentPair]:
    """Pair up the descriptors present in both cases.

    Returns one pair per co-present descriptor id, sorted by id; descriptors
    present on only one side are dropped (they can only ever gate presence).
    """
    shared = sorted(set(target.descriptors) & set(source.descriptors))
    return [
        AlignmentPair(descriptor_id=did, target=target.descriptors[did], source=source.descriptors[did])
        for did in shared
    ]


@dataclass(frozen=True)
class CaseBase:
    """Immutable snapshot of cases, a taxonomy, and fuzzy profiles.

    The snapshot may bundle target cases next to the sources; retrieval only
    ever scores against the sources.

    A case base compiles its sources into scoring records on its first query,
    together with posting lists keyed by descriptor id, casefolded state and
    operating mode, and per source a bitmask of its descriptor ids (one of
    all of them, one of its certain ones), and keeps them all. A query adds
    up its scores from the posting lists that match its target's
    descriptors, since a pair whose state or mode disagrees adds 0. Each
    returned source's records are read once more, one source at a time, for
    its breakdown rows. That first compile validates the sources
    (:func:`validate_case`), unless the base comes from
    ``decode_case_base`` with validation on, which has just done it; a base
    holding a source validation reports is refused then, and at every query
    after it, with a ``DocumentValidationError`` carrying those sources'
    violations. Neither the case base nor the mappings it holds may be
    mutated afterwards; build a new one instead (``dataclasses.replace``
    starts with nothing compiled or validated).
    Concurrent first queries compile it once, under a lock; concurrent first
    reads of a posting list may both build its columns, which is harmless:
    either result serves.
    """

    taxonomy: "Taxonomy"
    profiles: Mapping[str, "FuzzyProfile"] = field(default_factory=dict)
    cases: Mapping[str, Case] = field(default_factory=dict)
    _compiled: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _validated: bool = field(default=False, init=False, repr=False, compare=False)

    def sources(self) -> list[Case]:
        return [self.cases[cid] for cid in sorted(self.cases) if self.cases[cid].kind is CaseKind.SOURCE]

    def targets(self) -> list[Case]:
        return [self.cases[cid] for cid in sorted(self.cases) if self.cases[cid].kind is CaseKind.TARGET]


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a case base is built or
    encoded.

    Decoding, compiling and encoding allocate many tracked objects and build
    no cycles, so every collection meanwhile would walk all of them for
    nothing. The caller's state is restored on every exit: the collector is
    re-enabled only if it was enabled on entry. The switch is process-wide.

    What was built meanwhile is long-lived but still young. Left there, the
    next young-generation collections would walk all of it, once per
    generation, at a point set only by how many objects the caller allocates
    next. So before re-enabling, every tracked object moves to the oldest
    generation, without being walked: frozen, then unfrozen into it. That is
    skipped if the caller froze objects, which unfreezing would release.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _wrong_types(d: Descriptor) -> list[str]:
    """What :func:`validate_case` reports, without the path, of each field
    of the descriptor that is not of its declared type (a bool magnitude is
    not a number, an int flag is not a bool). No document holds one: the
    decoder refuses each."""
    wrong = []
    if not isinstance(d.name, str):
        wrong.append(f"name {d.name!r} is not a string")
    value = d.value
    if isinstance(value, SymbolicValue):
        if not isinstance(value.label, str):
            wrong.append(f"label {value.label!r} is not a string")
    elif isinstance(value, NumericValue):
        if isinstance(value.magnitude, bool) or not isinstance(value.magnitude, (float, int)):
            wrong.append(f"magnitude {value.magnitude!r} is not a number")
        if not isinstance(value.unit, str):
            wrong.append(f"unit {value.unit!r} is not a string")
    else:
        wrong.append(f"value {value!r} is neither symbolic nor numeric")
    if d.state is not None and not isinstance(d.state, str):
        wrong.append(f"state {d.state!r} is neither a string nor None")
    if not isinstance(d.operating_mode, OperatingMode):
        wrong.append(f"operating mode {d.operating_mode!r} is not an OperatingMode")
    flags = d.flags
    if not isinstance(flags, ImperfectionFlags):
        wrong.append(f"flags {flags!r} are not ImperfectionFlags")
    else:
        if not isinstance(flags.imprecise, bool):
            wrong.append(f"imprecise flag {flags.imprecise!r} is not a bool")
        if not isinstance(flags.uncertain, bool):
            wrong.append(f"uncertain flag {flags.uncertain!r} is not a bool")
    return wrong


def _type_violations(case: Case) -> list[str]:
    """The type half of :func:`validate_case`, what no document can hold:
    per descriptor, in key order, an id that differs from its key and each
    field :func:`_wrong_types` reports; then a solution that is not a
    ``Solution`` or holds a field that is not a string."""
    violations: list[str] = []
    for key in sorted(case.descriptors):
        d = case.descriptors[key]
        if d.id != key:
            violations.append(f"{case.id}/{key}: descriptor id {d.id!r} does not match its key")
        wrong = _wrong_types(d)
        if wrong:
            violations.extend(f"{case.id}/{key}: {message}" for message in wrong)
    solution = case.solution
    if isinstance(solution, Solution):
        component, action = solution.failing_component, solution.action
        if not isinstance(component, str):
            violations.append(f"{case.id}/solution: failing component {component!r} is not a string")
        if not isinstance(action, str):
            violations.append(f"{case.id}/solution: action {action!r} is not a string")
    elif solution is not None:
        violations.append(f"{case.id}/solution: {solution!r} is not a Solution")
    return violations


def _semantic_violations(
    case: Case,
    taxonomy: "Taxonomy",
    profiles: Mapping[str, "FuzzyProfile"],
) -> list[str]:
    """The semantic half of :func:`validate_case`, for a case of which
    :func:`_type_violations` reports nothing. A validating decode runs only
    this half: its inline field checks refuse all the type half reports."""
    violations: list[str] = []
    for key in sorted(case.descriptors):
        d = case.descriptors[key]
        if isinstance(d.value, SymbolicValue):
            if not taxonomy.contains(d.value.label):
                violations.append(f"{case.id}/{key}: unknown taxonomy label {d.value.label!r}")
        else:
            profile = profiles.get(d.id)
            if profile is None:
                kind = "imprecise numeric" if d.flags.imprecise else "numeric"
                violations.append(f"{case.id}/{key}: {kind} descriptor has no fuzzy profile")
            else:
                try:
                    profile.check_domain(d.value.magnitude)
                except FuzzyDomainError as exc:
                    violations.append(f"{case.id}/{key}: {exc}")
    if case.solution is not None and not taxonomy.contains(case.solution.failing_component):
        violations.append(
            f"{case.id}/solution: unknown taxonomy label {case.solution.failing_component!r}"
        )
    return violations


def validate_case(
    case: Case,
    taxonomy: "Taxonomy",
    profiles: Mapping[str, "FuzzyProfile"],
) -> list[str]:
    """Report the case's violations against a taxonomy and profile registry.

    Checks its types first (:func:`_type_violations`): each descriptor's id
    must match its map key and its fields, and the solution's, must be of
    their declared types. A case that passes those gets the semantic checks
    (:func:`_semantic_violations`): a symbolic label must name a taxonomy
    node, a numeric must have a fuzzy profile and a magnitude inside that
    profile's domain, and a solution's failing component must name a
    taxonomy node. A case with a type violation reports only those, since
    the semantic checks read each field as its declared type. This is the
    one acceptance rule: scoring refuses every case it reports, and cases
    that pass against the same taxonomy and profiles score against each
    other in either mode without raising. An empty report means the case is
    valid; callers decide severity.
    """
    return _type_violations(case) or _semantic_violations(case, taxonomy, profiles)
