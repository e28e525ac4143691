"""Shared hypothesis strategies for randomized case bases.

Profile domains are drawn from five families: the fixed domain
``DOMAIN_LOWER..DOMAIN_UPPER`` with whole-number magnitudes, and negative,
fractional, subnormal-wide and nearly ``sys.float_info.max``-wide ones with
float magnitudes. Magnitudes land on a domain's bounds, on the next float
inside each bound, and between them; prototypes and subset bounds stay
inside the domain. The naive reference computes with the same expression
shapes, so comparisons against it stay bit-exact. A descriptor id is either
symbolic everywhere or has one fuzzy profile for the whole case base; every
numeric descriptor has its id's profile and a magnitude inside the profile
domain, and every label is a taxonomy node, unless the bundle is drawn with
``valid=False``: then some numerics have no profile, some lie just outside
their profile's domain, some labels are outside the taxonomy, and some
bundles hold one field of a type no document can hold (a bool magnitude, an
int flag, or a state or solution action that is not a string), so
``validate`` may reject the case base.

Schemas reach forty ids while a case records at most twelve, and usually a
handful. Three sources in four record some of the target's ids, so almost
every target shares a descriptor with some source, while many bundles also
hold sources that share none. Cases still disagree in ways scoring must
handle: a profiled id may be symbolic in some cases, numerics of one id may
carry different units, and states may differ only in letter case.

Documents are attacked with single-field mutations: one value replaced by
any JSON value, strings drawn from all of Unicode, or one key deleted.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import replace
from typing import Any, Iterator

from hypothesis import strategies as st

from cbrdiag import (
    Case,
    CaseBase,
    CaseKind,
    Descriptor,
    FuzzyProfile,
    FuzzySubset,
    ImperfectionFlags,
    NumericValue,
    OperatingMode,
    Solution,
    SymbolicValue,
    Taxonomy,
)

DOMAIN_LOWER = 0.0
DOMAIN_UPPER = 100.0
_MAX = sys.float_info.max
_TINY = math.ulp(0.0)  # the smallest subnormal
_UNKNOWN_LABEL = "warp drive"  # never a node of a drawn taxonomy


def _domains() -> st.SearchStrategy[tuple[float, float]]:
    """Profile domains (lower, upper), lower < upper, with a finite span."""
    return st.one_of(
        st.just((DOMAIN_LOWER, DOMAIN_UPPER)),
        # negative
        st.tuples(st.integers(-1000, -2), st.integers(1, 999)).map(
            lambda lw: (float(lw[0]), float(min(lw[0] + lw[1], -1)))
        ),
        # fractional
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted).map(tuple),
        # subnormal-wide: a few multiples of the smallest subnormal
        st.tuples(st.integers(-50, 50), st.integers(1, 100)).map(lambda lw: (lw[0] * _TINY, (lw[0] + lw[1]) * _TINY)),
        # nearly as wide as the largest finite float
        st.sampled_from([(0.0, _MAX), (-_MAX, 0.0), (-_MAX / 2, _MAX / 2), (-_MAX, -_MAX / 2)]),
    )


def magnitudes(lower: float = DOMAIN_LOWER, upper: float = DOMAIN_UPPER) -> st.SearchStrategy[float]:
    """Magnitudes in [lower, upper]: its bounds, the next float inside each
    bound, and values between; whole numbers in the fixed domain."""
    if (lower, upper) == (DOMAIN_LOWER, DOMAIN_UPPER):
        between = st.integers(min_value=0, max_value=100).map(float)
    else:
        between = st.floats(min_value=lower, max_value=upper)
    edges = [lower, math.nextafter(lower, upper), math.nextafter(upper, lower), upper]
    return st.one_of(st.sampled_from(edges), between)


def profile_magnitudes(profile: FuzzyProfile) -> st.SearchStrategy[float]:
    """:func:`magnitudes` of a profile's domain."""
    return magnitudes(profile.domain_lower, profile.domain_upper)


@st.composite
def taxonomies(draw) -> Taxonomy:
    size = draw(st.integers(min_value=1, max_value=12))
    nodes: list[tuple[str, str | None]] = [("n0", None)]
    for i in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        nodes.append((f"n{i}", f"n{parent}"))
    return Taxonomy(nodes)


@st.composite
def fuzzy_profiles(draw, descriptor_id: str) -> FuzzyProfile:
    lower, upper = draw(_domains())
    if (lower, upper) == (DOMAIN_LOWER, DOMAIN_UPPER):
        prototype = float(draw(st.integers(min_value=10, max_value=90)))
        half_width = float(draw(st.integers(min_value=5, max_value=50)))
    else:
        prototype = draw(magnitudes(lower, upper))
        half_width = (upper - lower) / draw(st.sampled_from([1, 2, 4, 10]))
        half_width = half_width if half_width > 0 else _TINY
    subset_count = draw(st.integers(min_value=0, max_value=3))
    # A narrow subnormal domain may hold too few floats for every subset.
    bounds = sorted(draw(st.lists(magnitudes(lower, upper), max_size=2 * subset_count, unique=True)))
    subsets = [
        FuzzySubset(label=f"S{i}", lower=bounds[2 * i], upper=bounds[2 * i + 1]) for i in range(len(bounds) // 2)
    ]
    return FuzzyProfile(
        descriptor_id=descriptor_id,
        domain_lower=lower,
        domain_upper=upper,
        prototype=prototype,
        half_width=half_width,
        subsets=subsets,
    )


@st.composite
def descriptor_schemas(draw) -> dict[str, FuzzyProfile | None]:
    """Map of descriptor id to its fuzzy profile, or None for an id that is
    symbolic in every case."""
    count = draw(st.integers(min_value=1, max_value=40))
    schema: dict[str, FuzzyProfile | None] = {}
    for i in range(count):
        did = f"d{i:02d}"
        if draw(st.booleans()):
            schema[did] = draw(fuzzy_profiles(did))
        else:
            schema[did] = None
    return schema


@st.composite
def descriptors(
    draw,
    did: str,
    profile: FuzzyProfile | None,
    taxonomy: Taxonomy,
    allow_flags: bool = True,
    valid: bool = True,
) -> Descriptor:
    if profile is not None:
        numeric = draw(st.sampled_from([True, True, True, False]))
    else:
        numeric = not valid and draw(st.sampled_from([False, False, False, True]))
    if numeric:
        unit = draw(st.sampled_from(["u", "u", "u", "v"]))
        lower, upper = (DOMAIN_LOWER, DOMAIN_UPPER) if profile is None else (profile.domain_lower, profile.domain_upper)
        if not valid and draw(st.integers(0, 5)) == 0:
            # A finite magnitude just outside the domain.
            outside = (math.nextafter(lower, -math.inf), math.nextafter(upper, math.inf))
            magnitude = draw(st.sampled_from([x for x in outside if math.isfinite(x)]))
        else:
            magnitude = draw(magnitudes(lower, upper))
        value = NumericValue(magnitude=magnitude, unit=unit)
        imprecise = allow_flags and draw(st.booleans())
    else:
        labels = taxonomy.nodes() if valid else [*taxonomy.nodes(), _UNKNOWN_LABEL]
        value = SymbolicValue(label=draw(st.sampled_from(labels)))
        imprecise = False
    uncertain = allow_flags and draw(st.sampled_from([False, False, True]))
    return Descriptor(
        id=did,
        name=did.upper(),
        value=value,
        state=draw(st.sampled_from([None, "s1", "S1", "s2"])),
        operating_mode=draw(st.sampled_from(list(OperatingMode))),
        flags=ImperfectionFlags(imprecise=imprecise, uncertain=uncertain),
    )


@st.composite
def cases(
    draw,
    case_id: str,
    kind: CaseKind,
    schema: dict[str, FuzzyProfile | None],
    taxonomy: Taxonomy,
    min_descriptors: int = 0,
    allow_flags: bool = True,
    valid: bool = True,
    shared: tuple[str, ...] = (),
) -> Case:
    chosen = draw(
        st.lists(st.sampled_from(sorted(schema)), unique=True, min_size=min_descriptors, max_size=12)
    )
    if shared and draw(st.sampled_from([True, True, True, False])):
        # Three cases in four record some of the ``shared`` ids in place of
        # ids drawn from the schema, keeping their size, or one id.
        picked = draw(st.lists(st.sampled_from(shared), unique=True, min_size=1))
        chosen = (picked + [did for did in chosen if did not in picked])[: max(len(chosen), 1)]
    built = {
        did: draw(descriptors(did, schema[did], taxonomy, allow_flags=allow_flags, valid=valid))
        for did in chosen
    }
    solution = None
    if kind is CaseKind.SOURCE:
        solution = Solution(
            failing_component=draw(st.sampled_from(taxonomy.nodes())), action="inspect"
        )
    return Case(id=case_id, kind=kind, descriptors=built, solution=solution)


@st.composite
def mistyped(draw, case: Case) -> Case:
    """``case`` with one field of a type no document can hold: a bool
    magnitude, an int flag, a state that is not a string, or a solution
    action that is not a string."""
    fields = [(did, name) for did in sorted(case.descriptors) for name in ("flag", "state")]
    fields += [(did, "magnitude") for did, d in sorted(case.descriptors.items()) if isinstance(d.value, NumericValue)]
    if case.solution is not None:
        fields.append(("", "action"))
    did, name = draw(st.sampled_from(fields))
    if name == "action":
        return replace(case, solution=replace(case.solution, action=draw(st.sampled_from([None, 5]))))
    d = case.descriptors[did]
    if name == "magnitude":
        d = replace(d, value=NumericValue(magnitude=draw(st.booleans()), unit=d.value.unit))
    elif name == "flag":
        d = replace(d, flags=ImperfectionFlags(imprecise=int(d.flags.imprecise), uncertain=d.flags.uncertain))
    else:
        d = replace(d, state=draw(st.sampled_from([1, 0.5])))
    return replace(case, descriptors={**case.descriptors, did: d})


@st.composite
def case_bundles(
    draw, min_sources: int = 0, max_sources: int = 16, valid: bool = True
) -> tuple[CaseBase, Case]:
    """A randomized case base plus its target case (also bundled inside)."""
    # Hypothesis gives late draws their simplest value more often, so the
    # source count is drawn first and the target before the sources.
    count = draw(st.integers(min_value=min_sources, max_value=max_sources))
    taxonomy = draw(taxonomies())
    schema = draw(descriptor_schemas())
    profiles = {did: p for did, p in schema.items() if p is not None}
    target = draw(cases("t", CaseKind.TARGET, schema, taxonomy, min_descriptors=1, valid=valid))
    all_cases = {target.id: target}
    # Sources draw part of their ids from the target's, so that few targets
    # share no descriptor with any source.
    shared = tuple(sorted(target.descriptors))
    for i in range(count):
        c = draw(cases(f"s{i}", CaseKind.SOURCE, schema, taxonomy, valid=valid, shared=shared))
        all_cases[c.id] = c
    if not valid and draw(st.sampled_from([False, False, False, True])):
        # The target always has a field to mistype.
        cid = draw(st.sampled_from(sorted(all_cases)))
        all_cases[cid] = draw(mistyped(all_cases[cid]))
        target = all_cases[target.id]
    return CaseBase(taxonomy=taxonomy, profiles=profiles, cases=all_cases), target


@st.composite
def clean_cases(draw) -> tuple[CaseBase, Case]:
    """A case with at least one descriptor and no imperfection flags, with
    the context needed to score it against itself."""
    taxonomy = draw(taxonomies())
    schema = draw(descriptor_schemas())
    profiles = {did: p for did, p in schema.items() if p is not None}
    case = draw(
        cases("c", CaseKind.SOURCE, schema, taxonomy, min_descriptors=1, allow_flags=False)
    )
    return CaseBase(taxonomy=taxonomy, profiles=profiles, cases={"c": case}), case


def top_ks() -> st.SearchStrategy[int]:
    """Valid ``top_k`` values: small ones, and ones past ``sys.maxsize``."""
    return st.one_of(st.integers(min_value=1, max_value=12), st.integers(sys.maxsize + 1, 2**80))


def wide_text(max_size: int = 8) -> st.SearchStrategy[str]:
    """Strings over all of Unicode, often with lone surrogates (category Cs,
    which Hypothesis's default alphabet leaves out) and characters outside
    the BMP."""
    alphabet = st.one_of(
        st.characters(exclude_categories=()),
        st.characters(categories=["Cs"]),
        st.characters(min_codepoint=0x10000),
    )
    return st.text(alphabet, max_size=max_size)


def json_items(node: Any, path: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """Every value below a parsed JSON ``node`` with its path of keys and
    indexes."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from json_items(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | wide_text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(wide_text(), children, max_size=3),
    max_leaves=4,
)


@st.composite
def single_field_mutations(draw, document: dict) -> dict:
    """A copy of a parsed JSON document with one value replaced (NaN and
    infinities included) or one object key deleted."""
    document = copy.deepcopy(document)
    items = list(json_items(document))
    *parents, last = draw(st.sampled_from([path for path, _ in items]))
    container = document
    for key in parents:
        container = container[key]
    if isinstance(container, dict) and draw(st.booleans()):
        del container[last]
    else:
        # A scalar already in the document often has the right type, so the
        # mutation gets past the syntax checks to the semantic ones.
        scalars = [value for _, value in items if not isinstance(value, (dict, list))]
        container[last] = draw(st.sampled_from(scalars) | JSON_VALUES)
    return document
