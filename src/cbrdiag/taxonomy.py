"""Component taxonomy and the hierarchical value similarity for symbolic labels.

The taxonomy is a single rooted tree of named nodes. Two labels a and b are
compared by the depth-ratio measure 2*depth(lca) / (depth(a) + depth(b)), lca
being their lowest common ancestor: 1 exactly for identical labels (the
depth-0 root, which has no ratio, scores 1 by definition) and 0 for labels
whose only shared ancestor is the root. Ranking takes the same floats from
position tables (``_ancestry`` and ``_coordinates``) rather than a walk per
pair.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import UnknownLabelError


class Taxonomy:
    """Immutable rooted tree of component names."""

    def __init__(self, nodes: Iterable[tuple[str, Optional[str]]]) -> None:
        parent: dict[str, Optional[str]] = {}
        for name, par in nodes:
            if name in parent:
                raise ValueError(f"duplicate taxonomy node {name!r}")
            parent[name] = par
        roots = [n for n, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"taxonomy must have exactly one root, found {len(roots)}")
        for name, par in parent.items():
            if par is not None and par not in parent:
                raise ValueError(f"taxonomy node {name!r} has unknown parent {par!r}")
        # The depth and the pre-order position of every node, and the last
        # position of its subtree (a subtree's nodes take consecutive
        # positions), so that tables linear in the size of the tree, not a
        # root path per node, serve every comparison.
        depth: dict[str, int] = {roots[0]: 0}
        first: dict[str, int] = {}
        children: dict[str, list[str]] = {n: [] for n in parent}
        for name, par in parent.items():
            if par is not None:
                children[par].append(name)
        frontier = [roots[0]]
        while frontier:
            node = frontier.pop()
            first[node] = len(first)
            for child in children[node]:
                depth[child] = depth[node] + 1
                frontier.append(child)
        if len(depth) != len(parent):
            orphaned = sorted(set(parent) - set(depth))
            raise ValueError(f"taxonomy contains a cycle through {orphaned!r}")
        last = dict(first)
        for node in reversed(first):  # every node after its parent
            par = parent[node]
            if par is not None and last[node] > last[par]:
                last[par] = last[node]
        self._parent = parent
        self._depth = depth
        self._first = first
        self._last = last
        self._root = roots[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Taxonomy) and self._parent == other._parent

    @property
    def root(self) -> str:
        return self._root

    def contains(self, name: str) -> bool:
        return name in self._parent

    def nodes(self) -> list[str]:
        return sorted(self._parent)

    def parent(self, name: str) -> Optional[str]:
        self._require(name)
        return self._parent[name]

    def depth(self, name: str) -> int:
        self._require(name)
        return self._depth[name]

    def _require(self, name: str) -> None:
        if name not in self._parent:
            raise UnknownLabelError(name)

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """Deepest node that is an ancestor-or-self of both labels."""
        self._require(a)
        self._require(b)
        first, last = self._first, self._last
        # The first of b and its ancestors whose subtree holds a.
        while not first[b] <= first[a] <= last[b]:
            b = self._parent[b]
        return b

    def value_similarity(self, a: str, b: str) -> float:
        """Depth-ratio similarity of two labels, in [0, 1]: 1.0 for identical
        labels, else 2 * depth(lca) / (depth(a) + depth(b)) with ``lca``
        their :meth:`lowest_common_ancestor`.

        Distinct same-depth siblings score strictly below 1; labels meeting
        only at the depth-0 root score 0.
        """
        lca = self.lowest_common_ancestor(a, b)
        if a == b:
            return 1.0
        depth = self._depth
        return 2.0 * depth[lca] / (depth[a] + depth[b])

    def _coordinates(self, name: str) -> tuple[int, int]:
        """The pre-order position and the depth of a label in the tree: with
        :meth:`_ancestry` of a label ``a`` they give the similarity of ``a``
        and this label."""
        return self._first[name], self._depth[name]

    def _ancestry(self, a: str) -> tuple[list[int], list[float]]:
        """``(bounds, twice)`` for a label ``a`` in the tree: for a label at
        pre-order position ``p``, ``twice[bisect_right(bounds, p)]`` is twice
        the depth of its lowest common ancestor with ``a``, as a float, the
        numerator of their similarity when they differ.

        That ancestor is the deepest of ``a`` and its ancestors below the
        root whose subtree holds the label. Their first positions and their
        (last + 1) positions, all in ascending order, are the bounds: ``i``
        of them lie at or before ``p``, and ``i`` is that ancestor's depth,
        or twice ``a``'s depth less it when ``p`` comes after ``a``'s subtree.
        """
        first, last = self._first, self._last
        starts, ends = [], []
        node = a
        while node != self._root:
            starts.append(first[node])
            ends.append(last[node] + 1)
            node = self._parent[node]
        twice = [2.0 * i for i in range(len(starts) + 1)]
        return starts[::-1] + ends, twice + twice[-2::-1]
