"""Seeded case-base generator for the benchmark.

Every workload's inputs come from ``random.Random`` streams keyed by the
shape name and the seed, so the same seed always gives the same document
bytes. The schema (taxonomy, descriptors, fuzzy profiles), the sources and
the target stream use separate streams: the benchmark process can rebuild
the schema and draw fresh targets without regenerating the sources.

Every numeric is drawn inside its profile's [0, 100] domain and every
numeric descriptor has a profile, as in a well-formed base. The base
therefore never reaches the validation gaps where a source numeric lies
outside its domain or a numeric has no profile; an error rate of 0 on these
inputs says nothing about those gaps.

Run as a script to write one document:

    PYTHONPATH=src python3 perfbench/gen.py --shape dense --seed 1 --out doc.json
"""

from __future__ import annotations

import argparse
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

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
    encode_case_base,
)


@dataclass(frozen=True)
class Shape:
    """Every parameter that fixes a generated case base."""

    sources: int
    descriptors: int
    presence: float  # share of the schema each case records, rounded to a whole count
    bundled_targets: int  # target cases written into the document
    taxonomy_depth: int = 4
    taxonomy_branching: int = 6
    numeric_share: float = 0.5  # share of the schema that is numeric
    uncertain_rate: float = 0.10  # per present descriptor
    imprecise_rate: float = 0.30  # per present numeric descriptor
    domain: tuple[float, float] = (0.0, 100.0)


# dense_warm and cold_cli use "dense", sparse_warm uses "sparse"; "tiny"
# keeps the self-tests fast.
SHAPES = {
    "dense": Shape(sources=1000, descriptors=40, presence=0.70, bundled_targets=64),
    "sparse": Shape(sources=20000, descriptors=400, presence=0.015, bundled_targets=64),
    "tiny": Shape(sources=60, descriptors=12, presence=0.5, bundled_targets=8),
}

_STATES = ("Nominal", "Worn", "Leaking", "Blocked", None)
_MODES = (OperatingMode.NORMAL, OperatingMode.ABNORMAL, OperatingMode.UNSPECIFIED)
_UNITS = ("bar", "degC", "rpm", "mm", "V")


@dataclass(frozen=True)
class DescriptorSpec:
    id: str
    name: str
    unit: Optional[str]  # None for symbolic descriptors
    labels: tuple[str, ...]  # taxonomy labels a symbolic descriptor draws from


@dataclass(frozen=True)
class Schema:
    taxonomy: Taxonomy
    labels: tuple[str, ...]  # every non-root taxonomy node
    profiles: dict[str, FuzzyProfile]
    descriptors: tuple[DescriptorSpec, ...]


def _stream(shape: str, seed: int, part: str) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"cbrdiag-bench:{shape}:{seed}:{part}")


def _taxonomy_nodes(depth: int, branching: int) -> list[tuple[str, Optional[str]]]:
    nodes: list[tuple[str, Optional[str]]] = [("plant", None)]
    level = ["plant"]
    for _ in range(depth):
        nxt = []
        for parent in level:
            for i in range(branching):
                name = f"{parent}.{i}" if parent != "plant" else f"c{i}"
                nodes.append((name, parent))
                nxt.append(name)
        level = nxt
    return nodes


def _profile(did: str, rng: random.Random, shape: Shape) -> FuzzyProfile:
    low, high = shape.domain
    p = round(rng.uniform(35.0, 65.0), 1)
    # Three disjoint subsets with gaps: one well below the prototype, one
    # tight around it and one well above it.
    return FuzzyProfile(
        descriptor_id=did,
        domain_lower=low,
        domain_upper=high,
        prototype=p,
        half_width=round(rng.uniform(8.0, 20.0), 1),
        subsets=(
            FuzzySubset("low", low, round(p - rng.uniform(15.0, 25.0), 1)),
            FuzzySubset("mid", round(p - rng.uniform(3.0, 8.0), 1), round(p + rng.uniform(3.0, 8.0), 1)),
            FuzzySubset("high", round(p + rng.uniform(15.0, 25.0), 1), high),
        ),
    )


def build_schema(shape_name: str, seed: int) -> Schema:
    shape = SHAPES[shape_name]
    rng = _stream(shape_name, seed, "schema")
    nodes = _taxonomy_nodes(shape.taxonomy_depth, shape.taxonomy_branching)
    taxonomy = Taxonomy(nodes)
    labels = tuple(name for name, parent in nodes if parent is not None)
    n_numeric = round(shape.descriptors * shape.numeric_share)
    numeric = set(rng.sample(range(shape.descriptors), n_numeric))
    width = len(str(shape.descriptors - 1))
    specs = []
    profiles = {}
    for i in range(shape.descriptors):
        did = f"d{i:0{width}d}"
        if i in numeric:
            specs.append(DescriptorSpec(did, f"measure {i}", rng.choice(_UNITS), ()))
            profiles[did] = _profile(did, rng, shape)
        else:
            # Each symbolic descriptor draws from one top-level subtree, so
            # its labels share ancestors below the root and score above 0.
            home = f"c{rng.randrange(shape.taxonomy_branching)}"
            subtree = tuple(n for n in labels if n == home or n.startswith(home + "."))
            specs.append(DescriptorSpec(did, f"component {i}", None, subtree))
    return Schema(taxonomy=taxonomy, labels=labels, profiles=profiles, descriptors=tuple(specs))


def _case(case_id: str, kind: CaseKind, schema: Schema, shape: Shape, rng: random.Random) -> Case:
    # Every case records the same number of descriptors, so that request
    # cost varies with the values drawn and not with how many were drawn.
    count = round(shape.presence * shape.descriptors)
    recorded = set(rng.sample(range(shape.descriptors), count))
    descriptors = {}
    for index, spec in enumerate(schema.descriptors):
        if index not in recorded:
            continue
        if spec.unit is None:
            value = SymbolicValue(rng.choice(spec.labels))
            imprecise = False
        else:
            low, high = shape.domain
            value = NumericValue(round(rng.uniform(low, high), 1), spec.unit)
            imprecise = rng.random() < shape.imprecise_rate
        descriptors[spec.id] = Descriptor(
            id=spec.id,
            name=spec.name,
            value=value,
            state=rng.choice(_STATES),
            operating_mode=rng.choice(_MODES),
            flags=ImperfectionFlags(imprecise=imprecise, uncertain=rng.random() < shape.uncertain_rate),
        )
    solution = None
    if kind is CaseKind.SOURCE:
        component = rng.choice(schema.labels)
        solution = Solution(failing_component=component, action=f"replace {component}")
    return Case(id=case_id, kind=kind, descriptors=descriptors, solution=solution)


def iter_targets(shape_name: str, seed: int, schema: Schema) -> Iterator[Case]:
    """The endless stream of distinct targets: t0, t1, ...

    The first ``bundled_targets`` of them are the ones written into the
    document.
    """
    shape = SHAPES[shape_name]
    rng = _stream(shape_name, seed, "targets")
    for i in itertools.count():
        yield _case(f"t{i:06d}", CaseKind.TARGET, schema, shape, rng)


def build_case_base(shape_name: str, seed: int) -> CaseBase:
    shape = SHAPES[shape_name]
    schema = build_schema(shape_name, seed)
    rng = _stream(shape_name, seed, "sources")
    cases = {}
    for i in range(shape.sources):
        case = _case(f"s{i:06d}", CaseKind.SOURCE, schema, shape, rng)
        cases[case.id] = case
    for target in itertools.islice(iter_targets(shape_name, seed, schema), shape.bundled_targets):
        cases[target.id] = target
    return CaseBase(taxonomy=schema.taxonomy, profiles=schema.profiles, cases=cases)


def generate_document(shape_name: str, seed: int) -> str:
    """The canonical document of the shape's case base."""
    return encode_case_base(build_case_base(shape_name, seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    text = generate_document(args.shape, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)


if __name__ == "__main__":
    main()
