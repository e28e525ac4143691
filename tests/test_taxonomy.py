from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrdiag import Taxonomy, UnknownLabelError
from naive_reference import naive_value_similarity
from strategies import taxonomies


@pytest.fixture()
def engine_tree(engine_case_base) -> Taxonomy:
    return engine_case_base.taxonomy


def test_lca_self(engine_tree):
    assert engine_tree.lowest_common_ancestor("Comp.", "Comp.") == "Comp."


def test_lca_siblings(engine_tree):
    assert engine_tree.lowest_common_ancestor("Timing belt", "Camshaft") == "belt drive"


def test_lca_with_root(engine_tree):
    assert engine_tree.lowest_common_ancestor("engine", "Monolith") == "engine"


def test_lca_ancestor_descendant(engine_tree):
    assert engine_tree.lowest_common_ancestor("Comp.", "Turbo comp.") == "Comp."


def test_value_similarity_identity(engine_tree):
    assert engine_tree.value_similarity("Monolith", "Monolith") == 1.0


def test_value_similarity_belt_pair(engine_tree):
    assert engine_tree.value_similarity("Timing belt", "Camshaft") == 0.75


def test_value_similarity_compressor_pair(engine_tree):
    assert engine_tree.value_similarity("Comp.", "Turbo comp.") == 0.8


def test_value_similarity_disjoint_branches(engine_tree):
    # lca is the root at depth 0
    assert engine_tree.value_similarity("Monolith", "spark plugs") == 0.0


def test_unknown_label(engine_tree):
    with pytest.raises(UnknownLabelError):
        engine_tree.value_similarity("Monolith", "warp drive")
    with pytest.raises(UnknownLabelError):
        engine_tree.lowest_common_ancestor("warp drive", "Monolith")


def test_unknown_label_in_either_place(engine_tree):
    # The error names the unknown label, a before b when both are unknown.
    for a, b, unknown in [
        ("warp drive", "Monolith", "warp drive"),
        ("Monolith", "warp drive", "warp drive"),
        ("warp drive", "flux capacitor", "warp drive"),
    ]:
        with pytest.raises(UnknownLabelError) as excinfo:
            engine_tree.value_similarity(a, b)
        assert str(excinfo.value) == f"unknown taxonomy label: {unknown!r}"
        assert excinfo.value.label == unknown


@given(st.data())
def test_similarity_matches_naive_reference(data):
    taxonomy = data.draw(taxonomies())
    nodes = taxonomy.nodes()
    a = data.draw(st.sampled_from(nodes))
    b = data.draw(st.one_of(st.sampled_from(nodes), st.just(a), st.just(taxonomy.root)))
    assert taxonomy.value_similarity(a, b).hex() == naive_value_similarity(taxonomy, a, b).hex()


def test_depths(engine_tree):
    assert engine_tree.depth("engine") == 0
    assert engine_tree.depth("pressure system") == 1
    assert engine_tree.depth("Comp.") == 2
    assert engine_tree.depth("Turbo comp.") == 3
    assert engine_tree.depth("Timing belt") == 4


def test_rejects_multiple_roots():
    with pytest.raises(ValueError):
        Taxonomy([("a", None), ("b", None)])


def test_rejects_cycle():
    with pytest.raises(ValueError):
        Taxonomy([("r", None), ("a", "b"), ("b", "a")])


def test_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Taxonomy([("r", None), ("a", "r"), ("a", "r")])


def test_rejects_unknown_parent():
    with pytest.raises(ValueError):
        Taxonomy([("r", None), ("a", "ghost")])


def test_rejects_empty():
    with pytest.raises(ValueError):
        Taxonomy([])


@given(st.data())
def test_similarity_symmetric_and_bounded(data):
    taxonomy = data.draw(taxonomies())
    a = data.draw(st.sampled_from(taxonomy.nodes()))
    b = data.draw(st.sampled_from(taxonomy.nodes()))
    sim = taxonomy.value_similarity(a, b)
    assert sim == taxonomy.value_similarity(b, a)
    assert 0.0 <= sim <= 1.0
    assert (sim == 1.0) == (a == b)


def _attached_tree(attach: int, depth_a: int, depth_b: int) -> tuple[Taxonomy, str, str]:
    """A chain r0..r{attach} with two tails of the given total depths."""
    nodes: list[tuple[str, str | None]] = [("r0", None)]
    for i in range(1, attach + 1):
        nodes.append((f"r{i}", f"r{i - 1}"))
    label_a = f"r{attach}"
    for i in range(attach + 1, depth_a + 1):
        name = f"a{i}"
        nodes.append((name, label_a))
        label_a = name
    label_b = f"r{attach}"
    for i in range(attach + 1, depth_b + 1):
        name = f"b{i}"
        nodes.append((name, label_b))
        label_b = name
    return Taxonomy(nodes), label_a, label_b


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_deeper_lca_never_decreases_similarity(attach, extra, tail_a, tail_b):
    # same node depths in both trees; only the lca moves deeper
    depth_a = attach + extra + tail_a
    depth_b = attach + extra + tail_b
    shallow, a1, b1 = _attached_tree(attach, depth_a, depth_b)
    deep, a2, b2 = _attached_tree(attach + extra, depth_a, depth_b)
    assert shallow.value_similarity(a1, b1) <= deep.value_similarity(a2, b2)


def _chain(length: int) -> list[tuple[str, str | None]]:
    return [("n0", None)] + [(f"n{i}", f"n{i - 1}") for i in range(1, length)]


def _retained(nodes: list[tuple[str, str | None]]) -> int:
    """The traced bytes a taxonomy built from ``nodes`` holds once built."""
    tracemalloc.start()
    try:
        taxonomy = Taxonomy(nodes)  # alive while the traced memory is read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_deep_chain_retains_memory_linear_in_its_length():
    # Parent and depth tables grow about 4 times for a chain 4 times as long;
    # a root path per node, about n * n / 2 references, would grow 16 times.
    assert _retained(_chain(4000)) <= 6 * _retained(_chain(1000))
