"""Behavior classification of gadgets on vertex sets and over partitioned
graphs, plus canonical-copy search.

A gadget is canonical on a region when its pair behavior there depends only
on the pair kind.  Sets carrying only one pair kind cannot separate all
classes, so classification returns the full set of consistent classes; an
empty set means contradictory evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Sequence

from .gadgets import FunctionGadget, PairColor
from .graphs import Embedding, PairKind
from .relations import _Rewrite
from .structures import PartitionedGraph, Structure, _structure_search


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

# evidence bit 3 * k + c: some pair of the k-th kind got the c-th color
_EVIDENCE = tuple(
    product(
        (PairKind.EDGE, PairKind.NONEDGE),
        (PairColor.COLLAPSED, PairColor.EDGE, PairColor.NONEDGE),
    )
)

# the classes consistent with each set of evidence bits
_CONSISTENT = tuple(
    frozenset(
        c
        for c in BehaviorClass
        if all(
            _PREDICTED[c][kind] is color
            for bit, (kind, color) in enumerate(_EVIDENCE)
            if seen >> bit & 1
        )
    )
    for seen in range(1 << len(_EVIDENCE))
)


def _consistent_classes(
    rw: _Rewrite, cell: Iterable[tuple[int, int]]
) -> frozenset[BehaviorClass]:
    """Classes consistent with the pairs {x, y}, y in ``partners``, over
    (x, partners) in ``cell``, all inside the pullback's domain.  The source
    row gives each partner's pair kind, the pulled row and the collapsed
    mask its pair color."""
    seen = 0
    for x, partners in cell:
        edges = rw.src[x] & partners
        nonedges = partners ^ edges
        collapsed, adjacent = rw.collapsed[x], rw.dst[x]
        apart = ~(collapsed | adjacent)
        seen |= (
            bool(edges & collapsed) | bool(edges & adjacent) << 1 | bool(edges & apart) << 2
            | bool(nonedges & collapsed) << 3 | bool(nonedges & adjacent) << 4
            | bool(nonedges & apart) << 5
        )
    return _CONSISTENT[seen]


def _inside(part: Sequence[int]) -> Iterator[tuple[int, int]]:
    # the pairs inside ``part``, each seen from both ends
    mask = sum(1 << v for v in part)
    return ((x, mask ^ 1 << x) for x in part)


def _between(a: Sequence[int], b: Sequence[int]) -> Iterator[tuple[int, int]]:
    mask = sum(1 << v for v in b)
    return ((x, mask) for x in a)


def _pullback_on(f: FunctionGadget, parts: Sequence[Sequence[int]], what: str) -> _Rewrite:
    # the pullback of f, read at the vertices of ``parts``, which must lie
    # inside dom(f): the gadget's rows, built once for its whole domain
    for part in parts:
        outside = [v for v in part if v not in f._lookup]
        if outside:
            raise ValueError(
                f"{what} contains vertices outside the gadget domain: {sorted(outside)}"
            )
    return f._rewrite


def classify_on_set(f: FunctionGadget, s: Iterable[int]) -> frozenset[BehaviorClass]:
    """Classes consistent with every pair inside ``s``; empty means
    non-canonical, a singleton means determined.

    Only pair kinds actually present in ``s`` give evidence, so e.g. an
    independent set cannot rule out classes agreeing on non-edges.
    """
    vs = sorted(set(s))
    if len(vs) < 2:
        raise ValueError("classification needs at least two vertices")
    return _consistent_classes(_pullback_on(f, (vs,), "set"), _inside(vs))


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
    rw = _pullback_on(f, sorted_parts, "part")
    m = len(sorted_parts)
    matrix = [[None] * m for _ in range(m)]
    for i in range(m):
        matrix[i][i] = _consistent_classes(rw, _inside(sorted_parts[i]))
    for i, j in combinations(range(m), 2):
        cross = _consistent_classes(rw, _between(sorted_parts[i], sorted_parts[j]))
        matrix[i][j] = cross
        matrix[j][i] = cross
    return BehaviorProfile(sorted_parts, tuple(tuple(row) for row in matrix))


def profile_partitioned(f: FunctionGadget, pg: PartitionedGraph) -> BehaviorProfile:
    """Full behavior profile over the parts of ``pg`` (all inside dom(f))."""
    if pg.graph != f.src:
        raise ValueError("partitioned graph must live on the gadget's source graph")
    return _profile_over_parts(f, pg.parts)


def find_canonical_copy(
    f: FunctionGadget, pattern: Structure, host: Structure, limit: int
) -> Embedding | None:
    """Least embedding of ``pattern`` into ``host`` inside dom(f) whose
    induced profile has no non-canonical entry; None if no such copy shows up
    among the first ``limit`` embeddings inside dom(f).

    The profile is taken over the pattern's parts pushed through the map:
    one part for a plain pattern, the parts of a partitioned one, the n + 2^n
    associated partition of a constant one (the map fixes the constants, so
    it keeps every vertex's adjacency toward them).  ``limit`` counts only
    embeddings inside dom(f), for every kind of pattern.

    Absence within the budget is not evidence of nonexistence; only returned
    copies are certified (the ``Embedding`` verifies itself when built).
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    parts, pattern_graph, host_graph, maps = _structure_search(pattern, host, allowed=f.dom_mask())
    if host_graph != f.src:
        raise ValueError("host must live on the gadget's source graph")
    for mapping in islice(maps, limit):
        image_parts = [[mapping[v] for v in part] for part in parts]
        if _profile_over_parts(f, image_parts).is_canonical:
            return Embedding(pattern_graph, host_graph, mapping)
    return None
