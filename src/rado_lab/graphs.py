"""Finite simple graphs with bit-packed adjacency, extension-property machinery
and embedding search.

Vertices are always the contiguous ids 0..n-1.  Adjacency is stored as one
integer bitmask per vertex, so a pair query is one integer operation.  The
extension check tells whether a level fails by one depth-first pass over
supports that carries the witness masks of all (U, U') splits of the prefix,
one AND per split.  At the last vertex of a support, a graph on 21 to 160
vertices tests a window of more than 6 candidates in one packed step per
split: its rows and non-neighbour rows sit in fields of n + 1 bits, and a
split that misses a candidate's row leaves that field's guard bit clear.
Narrower windows and other graphs keep the loop over candidates.  A rescan
from ``lo`` whose last window [lo, n) holds at most 6 vertices swaps the
last two levels instead: each of those vertices tests every second-to-last
vertex below lo in one packed step, and only the flagged ones go on.  On a
failing level, a walk in (U, U') order stops at the least failing pair.
Host automorphisms found by embedding search can stand in for all supports
but those through a few representative vertices, on every level below the
first where one of those fails.
Embedding search likewise carries the candidate mask of every unassigned
pattern vertex, all packed into one integer, and narrows them all when it
assigns one (forward checking).
It assigns pattern vertices in order and host vertices in increasing order,
so the first map found is the lexicographically least: callers take it as
their witness.

Determinism conventions used throughout the package:

* vertex sets are handled as sorted tuples,
* search results come out in lexicographic order of the mapped tuple,
* "least witness" always means first in that order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, islice
from math import comb, isqrt
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class GraphFormatError(ValueError):
    """Raised by the text-format reader on malformed input."""


class BuildBudgetError(RuntimeError):
    """Raised when :func:`build_ec` would return or grow a graph beyond its
    size budget.

    Carries that graph and ``check_extension(partial, k).failing``, its
    least failing pair, so callers can report progress; ``None`` when the
    graph passes, as a random start graph over the budget may.
    """

    def __init__(self, message: str, partial: "Graph", failing: tuple | None):
        super().__init__(message)
        self.partial = partial
        self.failing = failing


class PairKind(Enum):
    EQUAL = "equal"
    EDGE = "edge"
    NONEDGE = "nonedge"


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    ``rows[u]`` is the neighbourhood of ``u`` as a bitmask.  Instances are
    hashable and compare structurally, so graphs can be used as dict keys and
    set members (orbit computations rely on this).  Like the hash, the
    extension verdicts already computed (per k) are kept on the instance;
    equality and hashing ignore them.
    """

    __slots__ = ("n", "_rows", "_hash", "_extension")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(rows) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {u} has out-of-range bits")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u in range(n):
            for_bits = rows[u]
            while for_bits:
                b = for_bits & -for_bits
                v = b.bit_length() - 1
                for_bits ^= b
                if not rows[v] >> u & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self._rows = rows
        self._hash = hash((n, rows))
        self._extension: dict[int, ExtensionResult] | None = None

    @classmethod
    def _derived(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        # a graph on rows in range, loop-free and symmetric by construction:
        # none of __init__'s checks run.  Only a direct Graph(n, rows) walks
        # rows from outside the library
        g = object.__new__(cls)
        g.n = n
        g._rows = rows
        g._hash = hash((n, rows))
        g._extension = None
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on 0..n-1 with ``edges``; n and each edge are checked, and
        rows set bit by bit with their mirrors need no symmetry walk."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._derived(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def row(self, u: int) -> int:
        return self._rows[u]

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as pairs (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            bits = self._rows[u] >> (u + 1) << (u + 1)
            while bits:
                b = bits & -bits
                yield (u, b.bit_length() - 1)
                bits ^= b

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def nonedges(self) -> Iterator[tuple[int, int]]:
        for u, v in combinations(range(self.n), 2):
            if not self.has_edge(u, v):
                yield (u, v)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``, which must be vertices of this
        graph, relabelled to 0..len(vertices)-1 in given order."""
        vs = list(vertices)
        rows = [self._rows[v] for v in vs]
        return Graph._derived(
            len(vs), tuple(sum(1 << i for i, w in enumerate(vs) if row >> w & 1) for row in rows)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def pair_kind(g: Graph, u: int, v: int) -> PairKind:
    if u == v:
        return PairKind.EQUAL
    return PairKind.EDGE if g.has_edge(u, v) else PairKind.NONEDGE


# ---------------------------------------------------------------------------
# small constructors used all over the test-bench


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph._derived(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    full = (1 << n) - 1
    return Graph._derived(n, tuple(full ^ (1 << u) for u in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# graph rewrites


def complement_graph(g: Graph) -> Graph:
    full = g.full_mask
    return Graph._derived(g.n, tuple(~g.row(u) & full & ~(1 << u) for u in range(g.n)))


def switch_graph(g: Graph, s: Iterable[int]) -> Graph:
    """Flip all pairs with exactly one endpoint in ``s``.

    Empty and full ``s`` act as the identity.  Involution for every ``s``.
    """
    smask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"switch set vertex {v} out of range")
        smask |= 1 << v
    full = g.full_mask
    out = []
    for u in range(g.n):
        if smask >> u & 1:
            flip = ~smask & full
        else:
            flip = smask
        out.append((g.row(u) ^ flip) & full & ~(1 << u))
    return Graph._derived(g.n, tuple(out))


# ---------------------------------------------------------------------------
# edge codes of small graphs, built and split only here: bit b is the b-th
# vertex pair of combinations(range(n), 2), set when that pair is an edge


def induced_code(rows: Sequence[int], vertices: Sequence[int]) -> int:
    """The edge code of the graph that adjacency ``rows`` induce on
    ``vertices``, relabelled to 0..len(vertices)-1 in the given order."""
    code, bit = 0, 1
    for x, y in combinations(vertices, 2):
        if rows[x] >> y & 1:
            code |= bit
        bit <<= 1
    return code


def edge_code(g: Graph) -> int:
    return induced_code(g.rows, range(g.n))


@lru_cache(maxsize=1100)  # every graph on at most 5 vertices: 2^C(n, 2) summed over n = 0..5
def graph_of_code(n: int, code: int) -> Graph:
    return Graph.from_edges(n, [p for b, p in enumerate(combinations(range(n), 2)) if code >> b & 1])


@lru_cache(maxsize=None)  # keyed by vertex count
def switch_masks(n: int) -> tuple[int, ...]:
    """Per vertex v, the code bits of the pairs that switching {v} flips."""
    pairs = list(combinations(range(n), 2))
    return tuple(sum(1 << bit for bit, p in enumerate(pairs) if v in p) for v in range(n))


# ---------------------------------------------------------------------------
# Paley graphs


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for d in range(2, isqrt(q) + 1):
        if q % d == 0:
            return False
    return True


class SelfComplementaryGraph(NamedTuple):
    """A graph together with a permutation witnessing graph ~ complement."""

    graph: Graph
    complement_witness: tuple[int, ...]


def build_paley(q: int) -> SelfComplementaryGraph:
    """Paley graph on Z_q: a ~ b iff a-b is a nonzero quadratic residue.

    Requires q prime with q = 1 mod 4 (so -1 is a residue and the relation is
    symmetric).  The witness permutation is x -> g*x mod q for the least
    quadratic non-residue g; it maps edges onto non-edges and vice versa.
    """
    if not _is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if q % 4 != 1:
        raise ValueError(f"q={q} is not congruent to 1 mod 4")
    squares = {pow(i, 2, q) for i in range(1, q)}
    edges = [(a, b) for a, b in combinations(range(q), 2) if (b - a) % q in squares]
    g0 = next(x for x in range(2, q) if x not in squares)
    witness = tuple(g0 * x % q for x in range(q))
    return SelfComplementaryGraph(Graph.from_edges(q, edges), witness)


# ---------------------------------------------------------------------------
# extension property


@dataclass(frozen=True)
class ExtensionResult:
    """Verdict of the k-extension check; ``failing`` is the least bad pair.

    ``generators`` are host automorphisms, as vertex maps, that generate a
    rank 3 group and so let the check skip all supports but representative
    ones on the levels below the first where one of those fails; empty when
    every level was scanned in full.
    """

    passed: bool
    failing: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    generators: tuple[tuple[int, ...], ...] = ()


def _failures_of_size(
    g: Graph, t: int, lo: int = 0, through: tuple[int, ...] = ()
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # failing pairs with |U|+|U'| == t whose support contains the sorted
    # vertices ``through`` and a vertex >= lo, in (support, split) order; bit
    # i of a split puts support[i] in U'
    n, full = g.n, g.full_mask
    if t == 0:  # the empty pair has no witness only in the empty graph
        return iter([((), ())] if lo == 0 and not full else [])
    rows, nrows = g._rows, _non_neighbour_rows(g)
    support = [0] * t
    # the packed test beats the loop over candidates from windows of about
    # 6 on.  Below 21 vertices packing the rows costs more than it saves, and
    # from about 200 on its fields of n + 1 bits cost more than the loop
    packable = 20 < n <= 160

    def rec(d: int, start: int, masks: list[int], need: tuple[int, ...]):
        # support[d] leaves room for t - d - 1 more vertices and skips no
        # vertex of ``need``, the part of ``through`` not yet in the support
        stop = n - t + d + 1
        if need:
            stop = min(stop, need[0] + 1)
            if len(need) == t - d:
                start = need[0]
        if d + 1 < t:
            vs = range(start, stop)
            if d + 2 == t and packable and not need and n - lo <= 6 < lo - start:
                # a rescan's last window [lo, n) is narrow and the window
                # below lo wide: only the v < lo it flags build masks
                vs = [*_rescan_candidates(g, masks, start, lo), *range(lo, stop)]
            for v in vs:
                support[d] = v
                row, nrow = rows[v], nrows[v]
                yield from rec(
                    d + 1,
                    v + 1,
                    [m & row for m in masks] + [m & nrow for m in masks],
                    need[1:] if need and v == need[0] else need,
                )
            return
        start = max(start, lo)
        candidates = range(start, stop)
        if packable and stop - start > 6:
            # a window this wide runs to n (a vertex of ``need`` would make
            # it one wide): only the candidates one packed test fails go on
            candidates = _emptying_candidates(g, masks, start)
        for v in candidates:
            row, nrow = rows[v], nrows[v]
            # stop at the first empty split: only a failing support builds masks
            for m in masks:
                if not (m & row and m & nrow):
                    break
            else:
                continue
            support[d] = v
            for split, m in enumerate([m & row for m in masks] + [m & nrow for m in masks]):
                if not m:
                    u2 = [support[i] for i in range(t) if split >> i & 1]
                    yield tuple(x for x in support if x not in u2), tuple(u2)

    return rec(0, 0, [full], through)


def _emptying_candidates(g: Graph, masks: list[int], start: int) -> list[int]:
    # the vertices v >= start for which some mask of ``masks`` misses all
    # neighbours or all non-neighbours of v other than v, in increasing
    # order.  The packed rows are shifted so that vertex start has field 0;
    # per mask, one multiplication spreads it over every field, and a field
    # that the mask misses does not carry into its guard bit
    n, w = g.n, g.n + 1
    p, q, feet = _packed_rows(g)
    shift = start * w
    p, q, feet = p >> shift, q >> shift, feet >> shift
    guard = feet << n
    low = guard - feet
    ok = guard
    for m in masks:
        spread = m * feet
        ok &= (p & spread) + low & (q & spread) + low
    bad = guard ^ ok
    out = []
    while bad:
        b = bad & -bad
        bad ^= b
        out.append(start + (b.bit_length() - 1) // w)
    return out


def _rescan_candidates(g: Graph, masks: list[int], start: int, lo: int) -> list[int]:
    # the second-to-last support vertices v in [start, lo), in increasing
    # order, that some last vertex x >= lo may complete to a failing support:
    # x's row and non-neighbour row join ``masks``, and one packed test over
    # the masks of every x flags each v that one of them empties
    rows, nrows = g._rows, _non_neighbour_rows(g)
    joined = [m & r for x in range(lo, g.n) for r in (rows[x], nrows[x]) for m in masks]
    return [v for v in _emptying_candidates(g, joined, start) if v < lo]


@lru_cache(maxsize=4)
def _non_neighbour_rows(g: Graph) -> tuple[int, ...]:
    # per vertex v, the vertices other than v that are not adjacent to it;
    # kept for the last few graphs, since a check reads them on every level
    full = g.full_mask
    return tuple([full ^ row ^ (1 << v) for v, row in enumerate(g._rows)])


@lru_cache(maxsize=4)
def _packed_rows(g: Graph) -> tuple[int, int, int]:
    # (rows, nrows, feet): the rows and the non-neighbour rows of g, row v in
    # the field of width n + 1 at bit v * (n + 1), and a 1 at the foot of each
    # field.  O(n^2) bits, built on a graph's first wide window and kept for
    # the last few graphs, as _later_relations keeps its large entries
    n, w = g.n, g.n + 1
    feet = ((1 << n * w) - 1) // ((1 << w) - 1)
    return _packed(g._rows, w), _packed(_non_neighbour_rows(g), w), feet


def check_extension(g: Graph, k: int) -> ExtensionResult:
    """Pass iff every disjoint (U, U') with |U|+|U'| <= k has an outside vertex
    adjacent to all of U and none of U'.  The verdict is kept on ``g``, so a
    second check of the same instance at the same k does not scan.

    For k >= 3, a regular host in which 0 has a neighbour and a non-neighbour
    is first scanned only on representative supports, from level 2 on: those
    through {0, a} or {0, b}, a and b the least neighbour and non-neighbour
    of 0, which meet every orbit of supports of size 2 or more when the
    automorphisms are rank 3 (and {0} meets every orbit at level 1).  If
    they pass at least level 3, automorphisms found by pinned embedding
    searches and checked against the rows may prove rank 3; then every level
    below the first with a failing representative passes, ``generators``
    holds the automorphisms, and only the levels from there up are scanned
    in full.  Otherwise, or when the searches exceed about the cost of the
    level 3 and higher scans they replace, every level is scanned in full.
    A level is scanned until its first failure, and a failing one is walked
    again in (U, U') order up to its least pair, so ``failing`` is always
    the least pair.
    """
    if g._extension is None:
        g._extension = {}
    result = g._extension.get(k)
    if result is None:
        result = g._extension[k] = _extension_verdict(g, k)
    return result


def _extension_verdict(g: Graph, k: int) -> ExtensionResult:
    if k < 1:
        raise ValueError("k must be at least 1")
    gens, first = _levels_passed_by_symmetry(g, k)
    for t in range(first, k + 1):
        if next(_failures_of_size(g, t), None) is not None:
            return ExtensionResult(False, _least_failure(g, t), gens)
    return ExtensionResult(True, None, gens)


def _least_failure(g: Graph, t: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    # the least failing pair with |U| + |U'| == t, walking pairs in (U, U')
    # order: U over sorted tuples, each before its extensions, and for each
    # U, U' over the sorted (t - |U|)-sets outside U.  The witness mask of a
    # pair is the AND of U's rows and U''s non-neighbour rows; it fails when
    # that is empty, and then so does every pair that extends U'
    n, full, rows, nrows = g.n, g.full_mask, g._rows, _non_neighbour_rows(g)

    def least_u2(free: list[int], s: int, i: int, mask: int) -> tuple[int, ...] | None:
        # the least s-set of free[i:] that empties ``mask``
        if not s:
            return None if mask else ()
        for j in range(i, len(free) - s + 1):
            m = mask & nrows[free[j]]
            if not m:
                return tuple(free[j : j + s])
            tail = least_u2(free, s - 1, j + 1, m)
            if tail is not None:
                return (free[j], *tail)
        return None

    def walk(
        u_set: tuple[int, ...], free: list[int], mask: int, i: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        # free: the vertices outside u_set, those above it from free[i] on
        u2 = least_u2(free, t - len(u_set), 0, mask)
        if u2 is not None:
            return u_set, u2
        if len(u_set) < t:
            for j in range(i, len(free)):
                v = free[j]
                pair = walk((*u_set, v), free[:j] + free[j + 1 :], mask & rows[v], j)
                if pair is not None:
                    return pair
        return None

    return walk((), list(range(n)), full, 0)


# ---------------------------------------------------------------------------
# symmetry certificates for the extension check
#
# A pair (U, U') fails exactly when its image under a host automorphism
# fails.  If the automorphisms are rank 3 (transitive on vertices, on ordered
# edges and on ordered non-edges), every support of size >= 2 has an image
# through {0, a} or {0, b}, a the least neighbour of 0 and b its least
# non-neighbour; those sorted vertex sets are the bases below.  Every
# support of size 1 has the image {0}, whose pairs pass when 0 has both a
# neighbour and a non-neighbour.


def _least(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _first_failing_level(g: Graph, levels: range, bases: tuple[tuple[int, ...], ...]) -> int:
    # the least level with a failing support through one of ``bases``, else
    # levels.stop; such a failure is real, whatever the automorphisms are
    for t in levels:
        if any(next(_failures_of_size(g, t, through=base), None) for base in bases):
            return t
    return levels.stop


def _levels_passed_by_symmetry(g: Graph, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    # (generators, first): every level below first passes by the generators'
    # orbits; first = 0 with no generators when nothing is proved.  Rank 3
    # needs a regular host in which 0 has a neighbour and a non-neighbour;
    # then the pairs of level 1 through {0} pass, and level 0 too
    rows = g._rows
    degree = rows[0].bit_count() if rows else 0
    if k < 3 or not 0 < degree < g.n - 1 or any(row.bit_count() != degree for row in rows):
        return (), 0
    a, b = _least(rows[0]), _least(g.full_mask ^ rows[0] ^ 1)
    top = _first_failing_level(g, range(2, k + 1), ((0, a), (0, b)))
    if top > 3:
        # the searches may cost about what the full scan of levels 3..top - 1
        # costs, a search node about n candidate pairs.  Levels 0-2, cheap
        # beside those, stay out of the budget: it decides which searches
        # finish, and so which generators a verdict reports
        budget = sum(comb(g.n, t) << t for t in range(3, top)) // g.n
        gens = _automorphisms(g, a, b, budget)
        if gens:
            return gens, top
    return (), 0


class _OutOfBudget(Exception):
    pass


class _BudgetedHost:
    """``g`` as the host of an embedding search that may read at most
    ``budget`` adjacency rows; the search reads one per node."""

    __slots__ = ("full_mask", "_rows", "_left")

    def __init__(self, g: Graph, budget: int):
        self.full_mask, self._rows, self._left = g.full_mask, g._rows, budget

    def row(self, u: int) -> int:
        self._left -= 1
        if self._left < 0:
            raise _OutOfBudget
        return self._rows[u]


@lru_cache(maxsize=1)  # the host whose automorphisms are being checked
def _row_bits(g: Graph) -> tuple[str, ...]:
    # the rows as bit strings: _row_bits(g)[u][v] == "1" iff u ~ v
    return tuple([format(row, f"0{g.n}b")[::-1] for row in g._rows])


def _is_automorphism(g: Graph, perm: tuple[int, ...]) -> bool:
    # pull the rows back as bit strings: row perm[u] read at perm[0], ...,
    # perm[n - 1] must be row u
    n = g.n
    if sorted(perm) != list(range(n)):
        return False
    bits = _row_bits(g)
    take = itemgetter(*perm)
    return all("".join(take(bits[perm[u]])) == bits[u] for u in range(n))


def _adjacency_cells(g: Graph, points: Sequence[int]) -> list[int]:
    # the vertices other than ``points`` cut by adjacency to them: bit i of a
    # cell's index is set when its vertices are not adjacent to points[i]
    rows = g._rows
    cells = [g.full_mask & ~sum(1 << p for p in points)]
    for p in points:
        cells = [c & rows[p] for c in cells] + [c & ~rows[p] for c in cells]
    return cells


def _pin_signatures(g: Graph, points: list[int]) -> list[tuple[int, ...]]:
    # per vertex: its adjacency to each of ``points``, then its number of
    # neighbours in each cell of the other vertices, cut by adjacency to them
    rows = g._rows
    columns = [[row >> p & 1 for row in rows] for p in points]
    columns += [[(row & c).bit_count() for row in rows] for c in _adjacency_cells(g, points)]
    return list(zip(*columns))


def _pin_masks(g: Graph, pins: dict[int, int], signatures: list[tuple[int, ...]]) -> dict[int, int]:
    # per_vertex masks for the maps of g onto itself that send each pinned p
    # to pins[p], given each vertex's signature against the pinned sources
    # (``_pin_signatures(g, list(pins))``).  Such a map keeps every vertex's
    # signature against the pins (read against their images), so only
    # vertices of equal signature are candidates: the masks drop no map, and
    # the search finds the same first map with far fewer dead branches
    by_signature: dict[tuple[int, ...], int] = {}
    for h, sig in enumerate(_pin_signatures(g, list(pins.values()))):
        by_signature[sig] = by_signature.get(sig, 0) | 1 << h
    images = sum(1 << w for w in pins.values())
    masks = {v: by_signature.get(sig, 0) & ~images for v, sig in enumerate(signatures)}
    masks.update((p, 1 << w) for p, w in pins.items())
    return masks


def _orbit(v: int, gens: list[tuple[int, ...]]) -> int:
    # the orbit of v under the group the permutations generate, as a mask
    orbit, todo = 1 << v, [v]
    while todo:
        u = todo.pop()
        for perm in gens:
            w = perm[u]
            if not orbit >> w & 1:
                orbit |= 1 << w
                todo.append(w)
    return orbit


def _automorphisms(g: Graph, a: int, b: int, budget: int) -> tuple[tuple[int, ...], ...]:
    """Generators for a rank 3 group of host automorphisms, or () when a
    search fails or exceeds ``budget``; a and b are the least neighbour and
    non-neighbour of 0.

    The stabiliser of 0 must be transitive on the neighbours and on the
    non-neighbours of 0, so search a map pinning 0 -> 0 and a -> w (b -> w)
    for each w not yet in the orbit of a (of b).  Then the vertex orbit of 0:
    pin 0 -> w and a -> the least neighbour of w for each w not yet in it.
    Every map is checked against the rows before its orbits count.
    """
    rows = g._rows
    host = _BudgetedHost(g, budget)
    gens: list[tuple[int, ...]] = []
    # every search pins the sources 0 and a, or 0 and b; a root's
    # signatures are computed when its first search starts
    signatures: dict[int, list[tuple[int, ...]]] = {}

    def found(root: int, pins: dict[int, int]) -> bool:
        if root not in signatures:
            signatures[root] = _pin_signatures(g, [0, root])
        perm = next(iter_embedding_maps(g, host, per_vertex=_pin_masks(g, pins, signatures[root])), None)
        if perm is None or not _is_automorphism(g, perm):
            return False
        gens.append(perm)
        return True

    try:
        # the maps of this first loop all fix 0
        for root, cell in ((a, rows[0]), (b, g.full_mask ^ rows[0] ^ 1)):
            while rest := cell & ~_orbit(root, gens):
                if not found(root, {0: 0, root: _least(rest)}):
                    return ()
        while rest := g.full_mask & ~_orbit(0, gens):
            w = _least(rest)
            if not found(a, {0: w, a: _least(rows[w])}):
                return ()
    except _OutOfBudget:
        return ()
    return tuple(gens)


def build_ec(k: int, seed: int = 0, *, max_vertices: int | None = None) -> Graph:
    """Build a graph passing ``check_extension(g, k)``, deterministically.

    Strategy: seeded random graph at a size heuristic, then repair rounds.  A
    round collects every failing (U, U') pair and adds new witness vertices;
    pairwise-compatible demands are packed greedily onto one new vertex, whose
    remaining adjacencies are random coin flips.  Later rounds rescan only
    supports through an added vertex; on 21 to 160 vertices each added one
    tests every second-to-last vertex below them in one packed step.  The
    graph returned passes a full ``check_extension(g, k)``, its certificate.
    :class:`BuildBudgetError` is raised when the graph would exceed
    ``max_vertices``, the start graph included.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(seed)
    n = max(6, k * k * 2**k)
    if max_vertices is None:
        max_vertices = 4 * n + 32
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.5:
            rows[u] |= 1 << v
            rows[v] |= 1 << u

    prev_n = 0
    for _round in range(64):
        g = Graph._derived(n, tuple(rows))  # every bit is set with its mirror
        # failing pairs touching a vertex >= prev_n, in (size, support, split)
        # order: demands are packed greedily in this order, so it fixes the
        # build.  Adding vertices never invalidates a witness, so after a
        # repair round only these pairs need rechecking
        failures = [pair for t in range(k + 1) for pair in _failures_of_size(g, t, prev_n)]
        bundles: list[dict[int, bool]] = []
        for u_set, u2 in failures:
            demand = {u: True for u in u_set}
            demand.update({v: False for v in u2})
            for bundle in bundles:
                if all(bundle.get(x, want) == want for x, want in demand.items()):
                    bundle.update(demand)
                    break
            else:
                bundles.append(dict(demand))
        if n + len(bundles) > max_vertices:
            raise BuildBudgetError(
                f"size budget {max_vertices} exceeded at n={n} with "
                f"{len(failures)} failing pairs",
                partial=g,
                failing=check_extension(g, k).failing,
            )
        if not failures and check_extension(g, k).passed:
            return g
        prev_n = n
        for demand in bundles:
            new_row = 0
            for v in range(n):
                want = demand.get(v)
                if want is None:
                    want = rng.random() < 0.5
                if want:
                    new_row |= 1 << v
                    rows[v] |= 1 << n
            rows.append(new_row)
            n += 1
    g = Graph._derived(n, tuple(rows))
    raise BuildBudgetError(
        "repair loop did not converge within 64 rounds",
        partial=g,
        failing=check_extension(g, k).failing,
    )


# ---------------------------------------------------------------------------
# embeddings


@dataclass(frozen=True)
class Embedding:
    """Injective map realizing ``source`` as an induced subgraph of ``target``;
    construction raises ``ValueError`` for any other map."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        if not self.verify():
            raise ValueError(f"map {self.mapping} is not an induced embedding of source into target")

    def verify(self) -> bool:
        m, n = self.mapping, self.source.n
        if len(m) != n or len(set(m)) != n or (m and not 0 <= min(m) <= max(m) < self.target.n):
            return False
        for u, v in combinations(range(n), 2):
            if self.source.has_edge(u, v) != self.target.has_edge(m[u], m[v]):
                return False
        return True


# per pattern vertex: (adj, nadj, low, guard, above, below), see below
_Level = tuple[int, int, int, int, int, int]


def _later_relations(pattern: Graph, order: tuple[tuple[int, int], ...], n: int) -> tuple[int, tuple[_Level, ...]]:
    # cached per (pattern, order, host size).  An entry holds about 2 m * m * w
    # bits, so beside the many small patterns searched repeatedly only the
    # last few large ones are kept: a whole host searched for its
    # automorphisms is dropped once the next host comes
    return (_later_small if pattern.n <= 16 else _later_large)(pattern, order, n)


def _compute_later_relations(
    pattern: Graph, order: tuple[tuple[int, int], ...], n: int
) -> tuple[int, tuple[_Level, ...]]:
    # (w, levels): levels[u] describes, for pattern vertex u < m - 1, the
    # packed layout of the search state after u is assigned, one field of
    # width w per later vertex, u + 1 at the bottom.  It holds adj and nadj,
    # a 1 at the foot of each field whose vertex is adjacent / not adjacent
    # to u; low, the n bits of each field below its guard bit n, and guard,
    # those guard bits; and above and below, a 1 at the foot of each field
    # whose vertex must map above / below u, the multipliers that spread the
    # order bounds of u over the fields.  Level m - 2 has the last vertex's
    # field alone, so its adj, above and below are 0/1 flags
    m, rows = pattern.n, pattern._rows
    w = max(m, n) + 1  # room for a pattern row, and for a host mask below its guard
    above, below = [0] * m, [0] * m
    for a, b in order:
        if a == b or not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"order pair ({a}, {b}) needs two distinct pattern vertices")
        lo, hi = min(a, b), max(a, b)
        foot = 1 << (hi - lo - 1) * w
        if a < b:
            above[lo] |= foot
        else:
            below[lo] |= foot
    # field v of the matrix holds row v, so by symmetry the feet of
    # matrix >> u spell row u
    matrix = _packed(rows, w)
    feet = ((1 << m * w) - 1) // ((1 << w) - 1)
    levels: list[_Level] = []
    for u in range(m - 1):
        shift = (u + 1) * w
        later = feet >> shift
        adj = matrix >> u + shift & later
        levels.append((adj, later ^ adj, (later << n) - later, later << n, above[u], below[u]))
    return w, tuple(levels)


def _packed(values: Sequence[int], w: int) -> int:
    # values[i] in the field of width w at bit i * w
    packed = 0
    for value in reversed(values):
        packed = packed << w | value
    return packed


_later_small = lru_cache(maxsize=256)(_compute_later_relations)
_later_large = lru_cache(maxsize=4)(_compute_later_relations)


def iter_embedding_maps(
    pattern: Graph,
    host: Graph,
    *,
    allowed: int | None = None,
    per_vertex: Mapping[int, int] | None = None,
    order: Iterable[tuple[int, int]] = (),
) -> Iterator[tuple[int, ...]]:
    """Injective induced-subgraph maps of ``pattern`` into ``host``, in
    lexicographic order of the mapped tuple.

    ``allowed`` is a global host bitmask, ``per_vertex`` bitmasks restrict
    individual pattern vertices (a one-bit mask pins a vertex).  ``order``
    holds pairs (a, b) of distinct pattern vertices that demand map[a] <
    map[b] (symmetry-breaking conditions); ordering every pair a < b demands
    an order-preserving map.

    Forward-checking search: pattern vertices are assigned in order 0..m-1,
    each to its candidate host vertices in increasing order, so the maps come
    out lexicographically and the first one is the least.  The search carries
    the candidate mask of every unassigned pattern vertex, packed into one
    integer: a field of width w = max(m, n) + 1 per vertex, the next one at
    the bottom.  Mapping u to h ANDs each later field with h's row or with
    h's non-neighbours other than h (which keeps the map injective) by two
    multiplications, the rows spread over the feet of the adjacent and of the
    non-adjacent fields, and clears the vertices below (above) h in the
    fields that must map above (below) u by two more, the masks spread over
    the feet of those fields.  A branch is cut as soon as a later field is
    empty, which one addition tells: it carries into a guard bit at position
    n of each nonempty field.  The last two levels close in one loop: each
    candidate h of vertex m - 2 reads its row, ANDs the last vertex's mask
    with it or with h's non-neighbours, applies the one order bound between
    the two, and yields a map per vertex left.  Each candidate of a vertex
    other than the last reads one host row, as an unpacked search would, and
    the maps come in the same order; the state costs O(m * n) bits a node,
    so hosts of a few hundred vertices pay for the multiplications.
    """
    m, full = pattern.n, host.full_mask
    w, levels = _later_relations(pattern, tuple(order), full.bit_length())
    if m == 0:
        yield ()
        return
    avail = full if allowed is None else allowed & full
    masks = [avail] * m
    if per_vertex is not None:
        masks = [avail & per_vertex.get(u, avail) for u in range(m)]
    if not all(masks):
        return
    if m == 1:
        c = masks[0]
        while c:
            b = c & -c
            c ^= b
            yield (b.bit_length() - 1,)
        return
    # rest[u]: the fields of pattern vertices u+1, ..., m-1 given im[:u],
    # u + 1 at the bottom; cand[u]: the candidates of u not tried yet
    rest = [_packed(masks, w) >> w] * m
    cand = [masks[0]] * m
    im = [0] * m
    penult = m - 2
    u = 0
    while u >= 0:
        c = cand[u]
        if u == penult:
            # rest[u] is the last vertex's mask alone
            adj, _, _, _, above, below = levels[u]
            last = rest[u]
            while c:
                b = c & -c
                c ^= b
                h = b.bit_length() - 1
                row = host.row(h)
                leaves = last & (row if adj else full ^ row ^ b)
                if above:
                    leaves &= -(b << 1)
                if below:
                    leaves &= b - 1
                if leaves:
                    im[u] = h
                    while leaves:
                        x = leaves & -leaves
                        leaves ^= x
                        im[-1] = x.bit_length() - 1
                        yield tuple(im)
            u -= 1
            continue
        if not c:
            u -= 1
            continue
        b = c & -c
        cand[u] = c ^ b
        im[u] = b.bit_length() - 1
        row = host.row(im[u])
        adj, nadj, low, guard, above, below = levels[u]
        state = rest[u] & (row * adj | (full ^ row ^ b) * nadj)
        if above or below:
            state &= ~((b - 1) * above | (full ^ ((b << 1) - 1)) * below)
        if (state + low) & guard == guard:
            u += 1
            rest[u] = state >> w
            cand[u] = state & full


def find_embeddings(pattern: Graph, host: Graph, limit: int) -> list[Embedding]:
    """Up to ``limit`` induced embeddings in lexicographic order of the mapped
    tuple; empty list iff no copy exists."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    return [Embedding(pattern, host, m) for m in islice(iter_embedding_maps(pattern, host), limit)]


# ---------------------------------------------------------------------------
# text format


def format_graph(g: Graph) -> str:
    """Serialize: first line ``n <count>``, then one ``u v`` line per edge
    with u < v, newline-terminated."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _parse_header(line: str, lineno: int) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise GraphFormatError(f"line {lineno}: expected header 'n <count>'")
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: vertex count is not an integer") from None
    if n < 0:
        raise GraphFormatError(f"line {lineno}: negative vertex count")
    return n


def parse_graph(text: str) -> Graph:
    """Strict reader for the text format; rejects loops, duplicate edges,
    out-of-range ids and lines with u >= v."""
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("empty input")
    n = _parse_header(lines[0], 1)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge endpoints must be integers") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex id out of range")
        if u > v:
            raise GraphFormatError(f"line {lineno}: edges must be written with u < v")
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph.from_edges(n, edges)
