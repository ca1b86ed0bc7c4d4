"""Desk-scale verification of arrow statements and monochromatic copy search.

Copies of a pattern in a structure are vertex subsets inducing an isomorphic
substructure; the canonical copy enumeration lists them as sorted tuples in
lexicographic order.  The embedding search behind it reaches each copy
through exactly one map: order conditions derived from the pattern's
automorphism group (Grochow–Kellis stabiliser-chain conditions) cut the
other |Aut| - 1, and ordered patterns admit only the order-preserving map.
Arrow verification searches colorings of the P-copies depth first in
lexicographic order with two cuts that keep the least bad coloring: forward
checking (Haralick–Elliott) takes a color out of a copy's domain as soon as
it would complete a monochromatic H-copy there, and cuts a branch that
leaves a copy no color; color precedence (Law–Lee value precedence) lets a
copy take color c + 1 only after some earlier copy took c.  The copy budget
bounds both the P- and the H-copies; the coloring budget refuses a query up
front, as soon as the P-copies are known and before any H-copy is
enumerated, and so also bounds the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice
from typing import Mapping

from .gadgets import FunctionGadget, PairColor, pair_color
from .graphs import Embedding, Graph
from .structures import (
    PartitionedGraph,
    Structure,
    _structure_search,
    as_partitioned,
    iter_structure_maps,
)

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


def _order_preserving(p: Structure) -> tuple[tuple[int, int], ...]:
    # the pairs a < b of p's vertices: only the order-preserving map meets them all
    return tuple(combinations(range(as_partitioned(p).graph.n), 2))


@lru_cache(maxsize=256)  # beside _symmetry_breaking, keyed by pattern
def _copy_order(p: Structure, ordered: bool) -> tuple[tuple[tuple[int, int], ...], bool]:
    # the order conditions of p's copy search, and whether they demand
    # map[0] < map[1] < ... < map[m - 1]: then each map is its copy, sorted,
    # and the search yields the copies in lexicographic order
    order = _order_preserving(p) if ordered else _symmetry_breaking(p)
    m = as_partitioned(p).graph.n
    return order, all((v, v + 1) in order for v in range(m - 1))


def enumerate_copies(
    big: Structure, small: Structure, *, ordered: bool = False, budget: int | None = None
) -> list[tuple[int, ...]]:
    """Canonical copy enumeration: distinct image sets as sorted tuples,
    lexicographically ascending.  ``budget`` caps the number of copies;
    :class:`CopyBudgetExceeded` is raised once budget + 1 are found, and a
    negative budget raises ``ValueError``.

    Each copy is reached by exactly one map: ordered patterns through the
    order-preserving one, the others through the one that meets the
    symmetry-breaking conditions of the pattern's automorphism group.  When
    those conditions order every pair a < b of pattern vertices (ordered
    patterns, cliques, independent sets), each map is already its sorted
    copy and the kernel yields them in lexicographic order, so no sort runs;
    otherwise each map is sorted and so is the list."""
    if budget is not None and budget < 0:
        raise ValueError("copy budget must be non-negative")
    order, in_order = _copy_order(small, ordered)
    maps = islice(iter_structure_maps(small, big, order=order), None if budget is None else budget + 1)
    copies = list(maps) if in_order else sorted([tuple(sorted(mapping)) for mapping in maps])
    if budget is not None and len(copies) > budget:
        raise CopyBudgetExceeded(len(copies))
    return copies


class CopyBudgetExceeded(RuntimeError):
    def __init__(self, count: int):
        super().__init__(f"more than {count - 1} copies of the pattern")
        self.count = count


@dataclass(frozen=True)
class CopyColoring:
    """Total assignment of colors 0..k-1 to the canonical copy enumeration,
    each copy listed once; construction raises ``ValueError`` otherwise."""

    copies: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one color")
        if len(self.copies) != len(self.colors):
            raise ValueError("coloring must be total on all copies")
        seen: set[tuple[int, ...]] = set()
        for copy in self.copies:
            if copy in seen:
                raise ValueError(f"copy {copy} is listed twice")
            seen.add(copy)
        if any(not 0 <= c < self.k for c in self.colors):
            raise ValueError("color out of range")


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


@dataclass(frozen=True)
class ArrowBudget:
    colorings: int = DEFAULT_COLORING_BUDGET
    copies: int = DEFAULT_COPY_BUDGET

    def __post_init__(self):
        if self.colorings < 0:
            raise ValueError("coloring budget must be non-negative")
        if self.copies < 0:
            raise ValueError("copy budget must be non-negative")


@dataclass(frozen=True)
class ArrowResult:
    verdict: str  # "holds" | "fails" | "budget_exceeded"
    witness: CopyColoring | None = None
    stats: dict = field(default_factory=dict)


def find_mono_copy(
    S: Structure, H: Structure, P: Structure, coloring: CopyColoring, *, ordered: bool = False
) -> Embedding | None:
    """Least embedding of H into S all of whose internal P-copies share one
    color; None when no copy of H works.  With ``ordered``, the coloring is
    over the ordered copies of P and only order-preserving maps of H count."""
    if set(coloring.copies) != set(enumerate_copies(S, P, ordered=ordered)):
        raise ValueError("coloring is not over the copies of P in S")
    copy_index = {c: i for i, c in enumerate(coloring.copies)}
    p_copies = coloring.copies
    order = _order_preserving(H) if ordered else ()
    _, h_graph, s_graph, maps = _structure_search(H, S, allowed=None, order=order)
    for mapping in maps:
        image = set(mapping)
        inside = [copy_index[c] for c in p_copies if set(c) <= image]
        palette = {coloring.colors[i] for i in inside}
        if len(palette) <= 1:
            return Embedding(h_graph, s_graph, mapping)
    return None


def verify_arrow(q: ArrowQuery, budget: ArrowBudget | None = None) -> ArrowResult:
    """Decide the arrow S -> (H)^P_k by a pruned lexicographic search.

    Copies of P are colored one by one in enumeration order, with two cuts.
    Color precedence: copy i may take color c + 1 only if an earlier copy has
    color c, so copy 0 gets color 0 (sound: relabeling the colors in order of
    first use keeps a coloring bad and makes it no larger).  Forward
    checking: each color c keeps a mask of the copies it is forbidden at.
    An H-copy's largest P-copy is the last of its copies to be colored, so
    when its second-largest one gets color c and all its smaller ones have c,
    c is forbidden at its largest one; a copy left with every color forbidden
    cuts the branch, since every extension then has a monochromatic H-copy.
    Neither cut drops a bad coloring that is least in lexicographic order,
    and leaves are reached in that order, so on failure the first leaf is the
    least witness coloring.  An H-copy with fewer than two P-copies is
    monochromatic under every coloring and makes the arrow hold at once.

    The query is refused up front, checked in this order: when the P-copies
    exceed the copy budget; when their k^(m-1) colorings exceed the coloring
    budget, before any H-copy is enumerated (``stats`` then holds
    ``p_copies``, ``colorings_checked``, ``colorings_total`` and
    ``budget_colorings``); when the H-copies exceed the copy budget.  A copy
    refusal's ``stats`` holds ``copies_seen`` and ``budget_copies``.  The
    coloring budget also caps the search at k/(k-1) * k^(m-1) nodes (m nodes
    when k = 1).
    ``stats["colorings_checked"]`` counts search nodes: one per color tried
    at a copy, including one that empties a later copy's domain; a color
    that is forbidden there or barred by precedence is not counted.
    """
    if budget is None:
        budget = ArrowBudget()
    try:
        p_copies = enumerate_copies(q.S, q.P, ordered=q.ordered, budget=budget.copies)
        m = len(p_copies)
        total = q.k ** (m - 1) if m else 0
        if m and total > budget.colorings:
            return ArrowResult("budget_exceeded", stats={
                "p_copies": m, "colorings_checked": 0,
                "colorings_total": total, "budget_colorings": budget.colorings,
            })
        h_copies = enumerate_copies(q.S, q.H, ordered=q.ordered, budget=budget.copies)
    except CopyBudgetExceeded as exc:
        return ArrowResult("budget_exceeded", stats={"copies_seen": exc.count, "budget_copies": budget.copies})
    stats = {"p_copies": m, "h_copies": len(h_copies), "colorings_checked": 0}

    if m == 0:
        empty = CopyColoring((), (), q.k)
        if h_copies:
            return ArrowResult("holds", stats=stats)
        return ArrowResult("fails", witness=empty, stats=stats)

    # watch[i]: (mask of the smaller P-copies, bit of the largest) of each
    # H-copy whose second-largest P-copy is i
    p_index = {c: i for i, c in enumerate(p_copies)}
    p_size = len(p_copies[0])
    watch: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for h_copy in h_copies:
        inside = [p_index[c] for c in combinations(h_copy, p_size) if c in p_index]
        if len(inside) < 2:
            return ArrowResult("holds", stats=stats)
        mask = 0
        for j in inside[:-2]:
            mask |= 1 << j
        watch[inside[-2]].append((mask, 1 << inside[-1]))

    k = q.k
    others = [tuple(d for d in range(k) if d != c) for c in range(k)]
    forbid = [0] * k  # forbid[c]: the copies where color c completes a monochromatic H-copy
    have = [0] * k  # have[c]: the colored copies with color c
    colors = [0] * m
    saved = [0] * m  # forbid[colors[i]] before copy i got its color
    bound = [1] * m  # precedence: copy i takes a color below bound[i]
    i = c = nodes = 0
    while True:
        bit = 1 << i
        top = bound[i]
        while c < top and forbid[c] & bit:
            c += 1
        if c == top:
            if i == 0:
                stats["colorings_checked"] = nodes
                return ArrowResult("holds", stats=stats)
            i -= 1
            c = colors[i]
            forbid[c] = saved[i]
            have[c] ^= 1 << i
            c += 1
            continue
        nodes += 1
        f, h, new = forbid[c], have[c], 0
        for rest, bits in watch[i]:
            if rest & h == rest:
                new |= bits
        if new:  # wiped: the copies where every color is now forbidden
            wiped = new
            for d in others[c]:
                wiped &= forbid[d]
            if wiped:
                c += 1
                continue
        colors[i] = c
        if i == m - 1:
            stats["colorings_checked"] = nodes
            witness = CopyColoring(tuple(p_copies), tuple(colors), k)
            return ArrowResult("fails", witness=witness, stats=stats)
        saved[i] = f
        forbid[c] = f | new
        have[c] = h | bit
        bound[i + 1] = top + 1 if c + 1 == top < k else top
        i += 1
        c = 0


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
        edge_colors, nonedge_colors = set(), set()
        for u, v in combinations(sorted(mapping), 2):
            if host.has_edge(u, v):
                edge_colors.add(edge_coloring[(u, v)])
            else:
                nonedge_colors.add(nonedge_coloring[(u, v)])
            if len(edge_colors) > 1 or len(nonedge_colors) > 1:
                break
        else:
            return Embedding(pattern, host, mapping)
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
