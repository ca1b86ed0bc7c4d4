"""Desk-scale verification of arrow statements and monochromatic copy search.

Copies of a pattern in a structure are vertex subsets inducing an isomorphic
substructure; the canonical copy enumeration lists them as sorted tuples in
lexicographic order.  The embedding search behind it reaches each copy
through exactly one map: order conditions derived from the pattern's
automorphism group (Grochow–Kellis stabiliser-chain conditions) cut the
other |Aut| - 1, and ordered patterns admit only the order-preserving map.
Arrow verification searches colorings of the P-copies depth first in
lexicographic order, with the first copy's color fixed (the only symmetry
reduction on colorings), and cuts a branch as soon as a monochromatic H-copy
is complete.  The copy budget bounds both the P- and the H-copies; the
coloring budget refuses a query up front, before any search, and so also
bounds the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Mapping

from .gadgets import FunctionGadget, PairColor, pair_color
from .graphs import Embedding, Graph
from .structures import PartitionedGraph, Structure, as_partitioned, iter_structure_maps

DEFAULT_COLORING_BUDGET = 2**24
DEFAULT_COPY_BUDGET = 10**5


@lru_cache(maxsize=256)  # keyed by pattern, like the embedding kernel's tables
def _symmetry_breaking(p: Structure) -> tuple[tuple[int, int], ...]:
    """Grochow–Kellis conditions: order pairs (a, b), demanding
    map[a] < map[b], that exactly one embedding onto each copy of ``p`` meets.

    The embeddings onto one copy are phi composed with Aut(p), the
    automorphisms that keep parts and constants.  Walking the stabiliser
    chain, take the least vertex v whose orbit under the current stabiliser
    is nontrivial, demand phi(v) < phi(w) for every other w in that orbit
    (all above v, since lesser vertices are fixed), then fix v.  Fixing a
    vertex splits it off its part of ``as_partitioned(p)`` as a singleton,
    so w is in v's orbit when p, with v split off, maps into p with w split
    off.  These existence queries never list Aut(p) itself (m! maps for K_m).
    """
    pg = as_partitioned(p)
    graph, parts = pg.graph, list(pg.parts)
    order = []
    for v in range(graph.n):
        i = next(i for i, part in enumerate(parts) if v in part)
        rest = parts[i] - {v}
        if not rest:
            continue
        pinned = PartitionedGraph(graph, (*parts[:i], rest, *parts[i + 1:], frozenset({v})))
        for w in sorted(rest):
            moved = (*parts[:i], parts[i] - {w}, *parts[i + 1:], frozenset({w}))
            if next(iter_structure_maps(pinned, PartitionedGraph(graph, moved)), None) is not None:
                order.append((v, w))
        parts[i] = rest
        parts.append(frozenset({v}))
    return tuple(order)


def enumerate_copies(
    big: Structure, small: Structure, *, ordered: bool = False, budget: int | None = None
) -> list[tuple[int, ...]]:
    """Canonical copy enumeration: distinct image sets as sorted tuples,
    lexicographically ascending.  ``budget`` caps the number of copies.

    Each copy is reached by exactly one map: ordered patterns through the
    order-preserving one, the others through the one that meets the
    symmetry-breaking conditions of the pattern's automorphism group."""
    if ordered:
        order = tuple(combinations(range(as_partitioned(small).graph.n), 2))
    else:
        order = _symmetry_breaking(small)
    copies = []
    for mapping in iter_structure_maps(small, big, order=order):
        copies.append(tuple(sorted(mapping)))
        if budget is not None and len(copies) > budget:
            raise CopyBudgetExceeded(len(copies))
    copies.sort()
    return copies


class CopyBudgetExceeded(RuntimeError):
    def __init__(self, count: int):
        super().__init__(f"more than {count - 1} copies of the pattern")
        self.count = count


@dataclass(frozen=True)
class CopyColoring:
    """Total assignment of colors 0..k-1 to the canonical copy enumeration."""

    copies: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.copies) != len(self.colors):
            raise ValueError("coloring must be total on all copies")
        if any(not 0 <= c < self.k for c in self.colors):
            raise ValueError("color out of range")
        if self.k < 1:
            raise ValueError("need at least one color")

    def color_of(self, copy: tuple[int, ...]) -> int:
        key = tuple(sorted(copy))
        try:
            return self.colors[self.copies.index(key)]
        except ValueError:
            raise KeyError(f"{key} is not a copy in this coloring") from None


@dataclass(frozen=True)
class ArrowQuery:
    S: Structure
    H: Structure
    P: Structure
    k: int
    ordered: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one color")

    @property
    def vacuous(self) -> bool:
        """True when P has no copy in H, making the arrow trivially true."""
        return not enumerate_copies(self.H, self.P, ordered=self.ordered)


@dataclass(frozen=True)
class ArrowBudget:
    colorings: int = DEFAULT_COLORING_BUDGET
    copies: int = DEFAULT_COPY_BUDGET


@dataclass(frozen=True)
class ArrowResult:
    verdict: str  # "holds" | "fails" | "budget_exceeded"
    witness: CopyColoring | None = None
    stats: dict = field(default_factory=dict)


def find_mono_copy(
    S: Structure, H: Structure, P: Structure, coloring: CopyColoring
) -> Embedding | None:
    """Least embedding of H into S all of whose internal P-copies share one
    color; None when no copy of H works."""
    s_graph, h_graph = as_partitioned(S).graph, as_partitioned(H).graph
    if set(coloring.copies) != set(enumerate_copies(S, P)):
        raise ValueError("coloring is not over the copies of P in S")
    copy_index = {c: i for i, c in enumerate(coloring.copies)}
    p_copies = coloring.copies
    for mapping in iter_structure_maps(H, S):
        image = set(mapping)
        inside = [copy_index[c] for c in p_copies if set(c) <= image]
        palette = {coloring.colors[i] for i in inside}
        if len(palette) <= 1:
            emb = Embedding(h_graph, s_graph, mapping)
            assert emb.verify()
            return emb
    return None


def verify_arrow(q: ArrowQuery, budget: ArrowBudget | None = None) -> ArrowResult:
    """Decide the arrow S -> (H)^P_k by a pruned lexicographic search.

    Copies of P are colored one by one in enumeration order, copy 0 fixed to
    color 0 (sound: any coloring is color-permutation equivalent to such a
    one, and relabeling colors does not change monochromaticity).  Each
    H-copy is checked when its largest P-copy gets a color; a monochromatic
    one cuts the branch, since every extension then has a monochromatic
    H-copy.  Leaves are reached in lexicographic order, so on failure the
    first leaf is the least witness coloring.  An H-copy containing no P-copy
    makes the arrow hold at once.

    The query is refused up front when the P- or the H-copies exceed the copy
    budget (``stats`` then holds ``copies_seen`` and ``budget_copies``), or
    when the k^(m-1) colorings exceed the coloring budget, which also caps
    the search at k/(k-1) * k^(m-1) nodes (m nodes when k = 1).
    ``stats["colorings_checked"]`` counts search nodes: one per color
    assigned to a copy, copy 0's fixed color included.
    """
    if budget is None:
        budget = ArrowBudget()
    try:
        p_copies = enumerate_copies(q.S, q.P, ordered=q.ordered, budget=budget.copies)
        h_copies = enumerate_copies(q.S, q.H, ordered=q.ordered, budget=budget.copies)
    except CopyBudgetExceeded as exc:
        return ArrowResult("budget_exceeded", stats={"copies_seen": exc.count, "budget_copies": budget.copies})
    m = len(p_copies)
    stats = {"p_copies": m, "h_copies": len(h_copies), "colorings_checked": 0}

    if m == 0:
        empty = CopyColoring((), (), q.k)
        if h_copies:
            return ArrowResult("holds", stats=stats)
        return ArrowResult("fails", witness=empty, stats=stats)

    total = q.k ** (m - 1)
    if total > budget.colorings:
        stats["colorings_total"] = total
        stats["budget_colorings"] = budget.colorings
        return ArrowResult("budget_exceeded", stats=stats)

    # closing[i]: the other P-copies of each H-copy whose largest P-copy is i
    p_index = {c: i for i, c in enumerate(p_copies)}
    p_size = len(p_copies[0])
    closing: list[list[list[int]]] = [[] for _ in range(m)]
    for h_copy in h_copies:
        inside = [p_index[c] for c in combinations(h_copy, p_size) if c in p_index]
        if not inside:
            return ArrowResult("holds", stats=stats)
        closing[inside[-1]].append(inside[:-1])

    k = q.k
    colors = [0] * m
    i = nodes = 0
    while True:
        nodes += 1
        c = colors[i]
        mono = False
        for rest in closing[i]:
            for j in rest:
                if colors[j] != c:
                    break
            else:
                mono = True
                break
        if not mono:
            if i == m - 1:
                stats["colorings_checked"] = nodes
                witness = CopyColoring(tuple(p_copies), tuple(colors), k)
                return ArrowResult("fails", witness=witness, stats=stats)
            i += 1
            colors[i] = 0
            continue
        while i > 0 and colors[i] == k - 1:
            i -= 1
        if i == 0:
            stats["colorings_checked"] = nodes
            return ArrowResult("holds", stats=stats)
        colors[i] += 1


def find_edge_nonedge_mono_copy(
    host: Graph,
    pattern: Graph,
    edge_coloring: Mapping[tuple[int, int], object],
    nonedge_coloring: Mapping[tuple[int, int], object],
) -> Embedding | None:
    """Least copy of ``pattern`` whose edges carry one edge-color and whose
    non-edges carry one non-edge-color.

    The colorings are keyed by host pairs (u, v) with u < v and must be total
    on the host's edges and non-edges respectively.
    """
    for u, v in host.edges():
        if (u, v) not in edge_coloring:
            raise ValueError(f"edge coloring missing pair ({u}, {v})")
    for u, v in host.nonedges():
        if (u, v) not in nonedge_coloring:
            raise ValueError(f"non-edge coloring missing pair ({u}, {v})")
    for mapping in iter_structure_maps(pattern, host):
        edge_colors = set()
        nonedge_colors = set()
        ok = True
        image = sorted(mapping)
        for i in range(len(image)):
            for j in range(i + 1, len(image)):
                u, v = image[i], image[j]
                if host.has_edge(u, v):
                    edge_colors.add(edge_coloring[(u, v)])
                    if len(edge_colors) > 1:
                        ok = False
                        break
                else:
                    nonedge_colors.add(nonedge_coloring[(u, v)])
                    if len(nonedge_colors) > 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            emb = Embedding(pattern, host, mapping)
            assert emb.verify()
            return emb
    return None


def induced_pair_coloring(
    f: FunctionGadget,
) -> tuple[dict[tuple[int, int], PairColor], dict[tuple[int, int], PairColor]]:
    """Color every source pair by what the gadget does to it (collapsed, edge
    or non-edge image), split into the edge and the non-edge coloring."""
    if len(f.dom) != f.src.n:
        raise ValueError("induced coloring needs a gadget defined on the whole source")
    chi_e: dict[tuple[int, int], PairColor] = {}
    chi_n: dict[tuple[int, int], PairColor] = {}
    for u in range(f.src.n):
        for v in range(u + 1, f.src.n):
            color = pair_color(f, u, v)
            if f.src.has_edge(u, v):
                chi_e[(u, v)] = color
            else:
                chi_n[(u, v)] = color
    return chi_e, chi_n
