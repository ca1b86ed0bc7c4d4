"""Behavior classification of gadgets on vertex sets, between sets, and over
partitioned or constant graphs, plus canonical-copy search.

A gadget is canonical on a region when its pair behavior there depends only
on the pair kind.  Sets carrying only one pair kind cannot separate all
classes, so classification returns the full set of consistent classes; an
empty set means contradictory evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice
from typing import Iterable, Iterator

from .gadgets import FunctionGadget, PairColor, pair_color
from .graphs import Embedding, Graph, PairKind, iter_embedding_maps, pair_kind
from .structures import (
    ConstantGraph,
    PartitionedGraph,
    associate_partitioned,
    find_const_embeddings,
    find_part_embeddings,
)


class BehaviorClass(Enum):
    IDENTITY = "identity"
    MINUS = "minus"
    EE = "eE"
    EN = "eN"
    CONSTANT = "constant"


_PREDICTED: dict[BehaviorClass, dict[PairKind, PairColor]] = {
    BehaviorClass.IDENTITY: {PairKind.EDGE: PairColor.EDGE, PairKind.NONEDGE: PairColor.NONEDGE},
    BehaviorClass.MINUS: {PairKind.EDGE: PairColor.NONEDGE, PairKind.NONEDGE: PairColor.EDGE},
    BehaviorClass.EE: {PairKind.EDGE: PairColor.EDGE, PairKind.NONEDGE: PairColor.EDGE},
    BehaviorClass.EN: {PairKind.EDGE: PairColor.NONEDGE, PairKind.NONEDGE: PairColor.NONEDGE},
    BehaviorClass.CONSTANT: {PairKind.EDGE: PairColor.COLLAPSED, PairKind.NONEDGE: PairColor.COLLAPSED},
}

LABEL_CLASS = {
    "identity": BehaviorClass.IDENTITY,
    "minus": BehaviorClass.MINUS,
    "eE": BehaviorClass.EE,
    "eN": BehaviorClass.EN,
    "const": BehaviorClass.CONSTANT,
}


def _consistent_classes(
    f: FunctionGadget, pairs: Iterable[tuple[int, int]]
) -> frozenset[BehaviorClass]:
    alive = set(BehaviorClass)
    for x, y in pairs:
        kind = pair_kind(f.src, x, y)
        color = pair_color(f, x, y)
        alive = {c for c in alive if _PREDICTED[c][kind] is color}
        if not alive:
            break
    return frozenset(alive)


def _require_dom(f: FunctionGadget, vertices: Iterable[int], what: str) -> None:
    dom = set(f.dom)
    outside = [v for v in vertices if v not in dom]
    if outside:
        raise ValueError(f"{what} contains vertices outside the gadget domain: {sorted(outside)}")


def classify_on_set(f: FunctionGadget, s: Iterable[int]) -> frozenset[BehaviorClass]:
    """Classes consistent with every pair inside ``s``; empty means
    non-canonical, a singleton means determined.

    Only pair kinds actually present in ``s`` give evidence, so e.g. an
    independent set cannot rule out classes agreeing on non-edges.
    """
    vs = sorted(set(s))
    if len(vs) < 2:
        raise ValueError("classification needs at least two vertices")
    _require_dom(f, vs, "set")
    return _consistent_classes(f, combinations(vs, 2))


def is_canonical_between(
    f: FunctionGadget, s1: Iterable[int], s2: Iterable[int]
) -> frozenset[BehaviorClass]:
    """Classes consistent with every cross pair between disjoint ``s1``,
    ``s2``."""
    a, b = sorted(set(s1)), sorted(set(s2))
    if not a or not b:
        raise ValueError("both sets must be nonempty")
    if set(a) & set(b):
        raise ValueError("sets must be disjoint")
    _require_dom(f, a + b, "set")
    return _consistent_classes(f, ((x, y) for x in a for y in b))


UNDETERMINED = "undetermined"
NON_CANONICAL = "noncanonical"


@dataclass(frozen=True)
class BehaviorProfile:
    """Symmetric matrix of consistent-class sets over the parts of a
    partitioned region.

    Entry (i, i) covers pairs inside part i, entry (i, j) the pairs between
    parts i and j.  ``entry`` resolves a cell to a class name, or to
    ``undetermined`` (several consistent classes, e.g. no evidence) or
    ``noncanonical`` (no consistent class).
    """

    parts: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[frozenset[BehaviorClass], ...], ...]

    def classes(self, i: int, j: int) -> frozenset[BehaviorClass]:
        return self.matrix[i][j]

    def entry(self, i: int, j: int) -> str:
        cell = self.matrix[i][j]
        if not cell:
            return NON_CANONICAL
        if len(cell) == 1:
            return next(iter(cell)).value
        return UNDETERMINED

    @property
    def is_canonical(self) -> bool:
        return all(cell for row in self.matrix for cell in row)

    def to_json_dict(self) -> dict:
        m = len(self.parts)
        return {
            "parts": [list(p) for p in self.parts],
            "diag": [self.entry(i, i) for i in range(m)],
            "off": [[i, j, self.entry(i, j)] for i, j in combinations(range(m), 2)],
        }


def _profile_over_parts(
    f: FunctionGadget, parts: Iterable[Iterable[int]]
) -> BehaviorProfile:
    sorted_parts = tuple(tuple(sorted(set(p))) for p in parts)
    for part in sorted_parts:
        _require_dom(f, part, "part")
    m = len(sorted_parts)
    matrix = [[frozenset(BehaviorClass)] * m for _ in range(m)]
    for i in range(m):
        if len(sorted_parts[i]) >= 2:
            matrix[i][i] = _consistent_classes(f, combinations(sorted_parts[i], 2))
    for i, j in combinations(range(m), 2):
        cross = _consistent_classes(
            f, ((x, y) for x in sorted_parts[i] for y in sorted_parts[j])
        )
        matrix[i][j] = cross
        matrix[j][i] = cross
    return BehaviorProfile(sorted_parts, tuple(tuple(row) for row in matrix))


def profile_partitioned(f: FunctionGadget, pg: PartitionedGraph) -> BehaviorProfile:
    """Full behavior profile over the parts of ``pg`` (all inside dom(f))."""
    if pg.graph != f.src:
        raise ValueError("partitioned graph must live on the gadget's source graph")
    return _profile_over_parts(f, pg.parts)


def is_canonical_constant_graph(f: FunctionGadget, cg: ConstantGraph) -> BehaviorProfile:
    """Profile over the n + 2^n partition associated with ``cg``."""
    if cg.graph != f.src:
        raise ValueError("constant graph must live on the gadget's source graph")
    return _profile_over_parts(f, associate_partitioned(cg).parts)


def _constant_image_parts(
    f: FunctionGadget, image_constants: tuple[int, ...], image_rest: tuple[int, ...]
) -> list[tuple[int, ...]]:
    # associated partition of the copy, computed inside the host graph
    n = len(image_constants)
    buckets: dict[int, list[int]] = {p: [] for p in range(2**n)}
    for v in image_rest:
        p = 0
        for i, c in enumerate(image_constants):
            if f.src.has_edge(v, c):
                p |= 1 << (n - 1 - i)
        buckets[p].append(v)
    parts: list[tuple[int, ...]] = [(c,) for c in image_constants]
    parts.extend(tuple(buckets[p]) for p in range(2**n - 1, -1, -1))
    return parts


def find_canonical_copy(
    f: FunctionGadget,
    pattern: Graph | PartitionedGraph | ConstantGraph,
    host: Graph | PartitionedGraph | ConstantGraph,
    limit: int,
):
    """Least embedding of ``pattern`` into ``host`` (inside dom(f)) whose
    induced profile has no non-canonical entry; None if no such copy shows up
    within ``limit`` candidates.

    Absence within the budget is not evidence of nonexistence; only returned
    copies are certified (and re-verified here).
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    dom_mask = f.dom_mask()

    def candidates() -> Iterator[tuple[Embedding, BehaviorProfile]]:
        if isinstance(pattern, Graph):
            if not isinstance(host, Graph) or host != f.src:
                raise ValueError("plain pattern needs the gadget's source graph as host")
            for mapping in islice(
                iter_embedding_maps(pattern, host, allowed=dom_mask), limit
            ):
                emb = Embedding(pattern, host, mapping)
                profile = _profile_over_parts(f, [emb.image()])
                yield emb, profile
        elif isinstance(pattern, PartitionedGraph):
            if not isinstance(host, PartitionedGraph) or host.graph != f.src:
                raise ValueError("partitioned pattern needs a partitioned host on f.src")
            for emb in find_part_embeddings(pattern, host, limit):
                if any(not dom_mask >> v & 1 for v in emb.mapping):
                    continue
                image_parts = [
                    tuple(sorted(emb.mapping[v] for v in part)) for part in pattern.parts
                ]
                yield emb, _profile_over_parts(f, image_parts)
        elif isinstance(pattern, ConstantGraph):
            if not isinstance(host, ConstantGraph) or host.graph != f.src:
                raise ValueError("constant pattern needs a constant host on f.src")
            for emb in find_const_embeddings(pattern, host, limit):
                if any(not dom_mask >> v & 1 for v in emb.mapping):
                    continue
                image_constants = tuple(emb.mapping[c] for c in pattern.constants)
                rest = tuple(
                    sorted(set(emb.mapping) - set(image_constants))
                )
                parts = _constant_image_parts(f, image_constants, rest)
                yield emb, _profile_over_parts(f, parts)
        else:
            raise TypeError(f"unsupported pattern type {type(pattern).__name__}")

    for emb, profile in candidates():
        if profile.is_canonical:
            return emb
    return None
