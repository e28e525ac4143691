"""Component taxonomy and the hierarchical value similarity for symbolic labels.

The taxonomy is a single rooted tree of named nodes. Two labels are compared
by the depth-ratio measure 2*depth(lca) / (depth(a) + depth(b)), which is 1
exactly for identical labels and 0 for labels whose only shared ancestor is
the root.
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
        # The depth of every node, so that a table linear in the size of the
        # tree, not a root path per node, serves every comparison.
        depth: dict[str, int] = {roots[0]: 0}
        children: dict[str, list[str]] = {n: [] for n in parent}
        for name, par in parent.items():
            if par is not None:
                children[par].append(name)
        frontier = [roots[0]]
        while frontier:
            node = frontier.pop()
            for child in children[node]:
                depth[child] = depth[node] + 1
                frontier.append(child)
        if len(depth) != len(parent):
            orphaned = sorted(set(parent) - set(depth))
            raise ValueError(f"taxonomy contains a cycle through {orphaned!r}")
        self._parent = parent
        self._depth = depth
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

    def _ancestors(self, name: Optional[str]) -> set[str]:
        """A known label and all its ancestors."""
        ancestors = set()
        while name is not None:
            ancestors.add(name)
            name = self._parent[name]
        return ancestors

    def _lowest_in(self, ancestors: set[str], name: str) -> str:
        """The deepest of a known label and its ancestors that is in
        ``ancestors``, a set holding the root."""
        while name not in ancestors:
            name = self._parent[name]
        return name

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """Deepest node that is an ancestor-or-self of both labels."""
        self._require(a)
        self._require(b)
        return self._lowest_in(self._ancestors(a), b)

    def value_similarity(self, a: str, b: str) -> float:
        """Depth-ratio similarity of two labels, in [0, 1].

        1.0 iff the labels are identical; distinct same-depth siblings score
        strictly below 1; labels meeting only at a depth-0 root score 0.
        """
        return self.value_similarities(a, [b])[0]

    def value_similarities(self, a: str, labels: list[str]) -> list[float]:
        """The :meth:`value_similarity` of ``a`` and each of ``labels``, in
        order, computed once per distinct label."""
        self._require(a)
        depth = self._depth
        # The lowest common ancestor of a and b is the first of b's ancestors in a's.
        ancestors = self._ancestors(a)
        depth_a = depth[a]
        similarity = {a: 1.0}
        for b in labels:
            if b not in similarity:
                depth_b = depth.get(b)
                if depth_b is None:
                    raise UnknownLabelError(b)
                common = depth[self._lowest_in(ancestors, b)]
                similarity[b] = 2.0 * common / (depth_a + depth_b)
        return list(map(similarity.__getitem__, labels))
