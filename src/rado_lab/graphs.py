"""Finite simple graphs with bit-packed adjacency, extension-property machinery
and embedding search.

Vertices are always the contiguous ids 0..n-1.  Adjacency is stored as one
integer bitmask per vertex, so a pair query is one integer operation.  The
extension check is one depth-first pass over supports that carries the
candidate masks of all (U, U') splits of the prefix, one AND per split.
Embedding search likewise carries the candidate mask of every unassigned
pattern vertex and narrows them all when it assigns one (forward checking),
after a degree filter on the host vertices.  It still assigns pattern
vertices in order and host vertices in increasing order, so the first map
found is the lexicographically least: callers take it as their witness.

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
from math import isqrt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class GraphFormatError(ValueError):
    """Raised by the text-format reader on malformed input."""


class BuildBudgetError(RuntimeError):
    """Raised when the repair loop of :func:`build_ec` exceeds its size budget.

    Carries the partial graph and the least still-failing pair so callers can
    report progress.
    """

    def __init__(self, message: str, partial: "Graph", failing: tuple):
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
    extension verdicts already computed (per k) and the degree range are kept
    on the instance; equality and hashing ignore them.
    """

    __slots__ = ("n", "_rows", "_hash", "_extension", "_degrees")

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
        self._degrees: tuple[int, int] | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def row(self, u: int) -> int:
        return self._rows[u]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, u: int) -> int:
        return self._rows[u].bit_count()

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
        """Induced subgraph, relabelled to 0..len(vertices)-1 in given order."""
        vs = list(vertices)
        return Graph.from_edges(
            len(vs),
            [
                (i, j)
                for i, j in combinations(range(len(vs)), 2)
                if self.has_edge(vs[i], vs[j])
            ],
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
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


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
    return Graph(g.n, tuple(~g.row(u) & full & ~(1 << u) for u in range(g.n)))


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
    return Graph(g.n, tuple(out))


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
    """Verdict of the k-extension check; ``failing`` is the least bad pair."""

    passed: bool
    failing: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _failures_of_size(
    g: Graph, t: int, lo: int = 0
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # failing pairs with |U|+|U'| == t and a support vertex >= lo, in
    # (support, split) order; bit i of a split puts support[i] in U'
    n, full = g.n, g.full_mask
    if t == 0:  # the empty pair has no witness only in the empty graph
        return iter([((), ())] if lo == 0 and not full else [])
    rows = [g.row(v) for v in range(n)]
    nrows = [full ^ row ^ (1 << v) for v, row in enumerate(rows)]
    support = [0] * t

    def rec(d: int, start: int, masks: list[int]):
        if d + 1 < t:
            for v in range(start, n - t + d + 1):
                support[d] = v
                row, nrow = rows[v], nrows[v]
                yield from rec(d + 1, v + 1, [m & row for m in masks] + [m & nrow for m in masks])
            return
        for v in range(max(start, lo), n):
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

    return rec(0, 0, [full])


def iter_extension_failures(g: Graph, k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All failing (U, U') pairs with |U|+|U'| <= k, ordered by (size, U, U');
    each size level is found in full and sorted before its first pair comes out."""
    if k < 1:
        raise ValueError("k must be at least 1")
    for t in range(k + 1):
        yield from sorted(_failures_of_size(g, t))


def check_extension(g: Graph, k: int) -> ExtensionResult:
    """Pass iff every disjoint (U, U') with |U|+|U'| <= k has an outside vertex
    adjacent to all of U and none of U'.  The verdict is kept on ``g``, so a
    second check of the same instance at the same k does not scan."""
    if g._extension is None:
        g._extension = {}
    result = g._extension.get(k)
    if result is None:
        failing = next(iter_extension_failures(g, k), None)
        result = g._extension[k] = ExtensionResult(failing is None, failing)
    return result


def _iter_failures_touching(
    g: Graph, k: int, lo: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # failing pairs touching a vertex >= lo, in (size, support, split) order:
    # build_ec packs demands greedily in this order, so it fixes the build.
    # Adding vertices never invalidates a witness, so after a repair round
    # only these pairs need rechecking
    for t in range(k + 1):
        yield from _failures_of_size(g, t, lo)


def _ec_start_size(k: int) -> int:
    return max(6, k * k * 2**k)


def build_ec(k: int, seed: int = 0, *, max_vertices: int | None = None) -> Graph:
    """Build a graph passing ``check_extension(g, k)``, deterministically.

    Strategy: seeded random graph at a size heuristic, then repair rounds.  A
    round collects every failing (U, U') pair and adds new witness vertices;
    pairwise-compatible demands are packed greedily onto one new vertex, whose
    remaining adjacencies are random coin flips.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(seed)
    n = _ec_start_size(k)
    if max_vertices is None:
        max_vertices = 4 * n + 32
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.5:
            rows[u] |= 1 << v
            rows[v] |= 1 << u

    prev_n = 0
    for _round in range(64):
        g = Graph(n, tuple(rows))
        failures = list(_iter_failures_touching(g, k, prev_n))
        if not failures:
            final = check_extension(g, k)
            if final.passed:
                return g
            failures = list(iter_extension_failures(g, k))
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
                failing=failures[0],
            )
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
    raise BuildBudgetError(
        "repair loop did not converge within 64 rounds",
        partial=Graph(n, tuple(rows)),
        failing=next(iter_extension_failures(Graph(n, tuple(rows)), k)),
    )


# ---------------------------------------------------------------------------
# embeddings


@dataclass(frozen=True)
class Embedding:
    """Injective map realizing ``source`` as an induced subgraph of ``target``."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def apply(self, v: int) -> int:
        return self.mapping[v]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))

    def verify(self) -> bool:
        if len(set(self.mapping)) != self.source.n:
            return False
        for u, v in combinations(range(self.source.n), 2):
            if self.source.has_edge(u, v) != self.target.has_edge(
                self.mapping[u], self.mapping[v]
            ):
                return False
        return True


def _degree_range(g: Graph) -> tuple[int, int]:
    # (min, max) vertex degree, kept on the instance like the extension verdicts
    if g._degrees is None:
        degrees = [row.bit_count() for row in g._rows] or [0]
        g._degrees = (min(degrees), max(degrees))
    return g._degrees


@lru_cache(maxsize=256)  # keyed by pattern; hits on the small patterns searched repeatedly
def _later_relations(
    pattern: Graph, order: tuple[tuple[int, int], ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, bool], ...], ...]]:
    # adjacency[u]: adjacency of pattern vertex u to m-1, m-2, ..., u+1, in
    # that order; bounds[u]: (position in that order, must map above u) for
    # each later vertex ordered against u
    m, rows = pattern.n, pattern._rows
    bounds: list[list[tuple[int, bool]]] = [[] for _ in range(m)]
    for a, b in order:
        if a == b or not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"order pair ({a}, {b}) needs two distinct pattern vertices")
        lo, hi = min(a, b), max(a, b)
        bounds[lo].append((m - 1 - hi, a < b))
    adjacency = tuple(tuple(rows[u] >> v & 1 for v in range(m - 1, u, -1)) for u in range(m - 1))
    return adjacency, tuple(map(tuple, bounds))


def _degree_filter(pattern: Graph, host: Graph, masks: list[int], avail: int) -> None:
    # h keeps pattern vertex u iff, with a neighbours of h inside avail,
    # deg(u) <= a and m-1-deg(u) <= |avail|-1-a
    m, size = pattern.n, avail.bit_count()
    degrees = [pattern.degree(u) for u in range(m)]
    fits = dict.fromkeys(degrees, 0)
    bits = avail
    while bits:
        b = bits & -bits
        bits ^= b
        a = (host.row(b.bit_length() - 1) & avail).bit_count()
        for d in fits:
            if a + m - size <= d <= a:
                fits[d] |= b
    for u in range(m):
        masks[u] &= fits[degrees[u]]


def iter_embedding_maps(
    pattern: Graph,
    host: Graph,
    *,
    allowed: int | None = None,
    per_vertex: Mapping[int, int] | None = None,
    fixed: Mapping[int, int] | None = None,
    order: Iterable[tuple[int, int]] = (),
) -> Iterator[tuple[int, ...]]:
    """Injective induced-subgraph maps of ``pattern`` into ``host``, in
    lexicographic order of the mapped tuple.

    ``allowed`` is a global host bitmask, ``per_vertex`` bitmasks restrict
    individual pattern vertices, ``fixed`` pins pattern vertices to host
    vertices.  ``order`` holds pairs (a, b) of distinct pattern vertices that
    demand map[a] < map[b] (symmetry-breaking conditions); ordering every
    pair a < b demands an order-preserving map.

    Forward-checking search: pattern vertices are assigned in order 0..m-1,
    each to its candidate host vertices in increasing order, so the maps come
    out lexicographically and the first one is the least.  The search carries
    the candidate mask of every unassigned pattern vertex; mapping u to h ANDs
    each later mask with h's row or with h's non-neighbours other than h
    (which keeps the map injective) and, for a later vertex ordered against
    u, with the vertices above or below h.  A branch is cut as soon as a
    later mask is empty.

    Before the search, a degree filter keeps h as a candidate of u only if h
    has deg(u) neighbours and m-1-deg(u) other non-neighbours inside
    ``avail``, the union of the initial masks, where the rest of the pattern
    must land.  It costs a popcount per vertex of ``avail``, so it is skipped
    when the degree range of the host (kept on the instance) shows that every
    vertex passes, the common case of a small pattern in a large host.
    """
    m, n, full = pattern.n, host.n, host.full_mask
    later, bounds = _later_relations(pattern, tuple(order))
    if m == 0:
        yield ()
        return
    avail = full if allowed is None else allowed & full
    masks = [avail] * m
    if per_vertex is not None or fixed is not None:
        for u in range(m):
            mk = avail
            if per_vertex is not None and u in per_vertex:
                mk &= per_vertex[u]
            if fixed is not None and u in fixed:
                mk &= 1 << fixed[u]
            masks[u] = mk
        avail = 0
        for mk in masks:
            avail |= mk
    # inside avail every h has at least lo - outside neighbours and at least
    # n-1-hi - outside other non-neighbours, so the filter can drop a vertex
    # only when the pattern's degree range demands more
    outside = n - avail.bit_count()
    lo, hi = _degree_range(host)
    plo, phi = _degree_range(pattern)
    if phi > lo - outside or m - 1 - plo > n - 1 - hi - outside:
        _degree_filter(pattern, host, masks, avail)
    if not all(masks):
        return
    # level[u]: the masks of pattern vertices m-1, ..., u given im[:u], in
    # that order, so zip with later[u] drops u's own; cand[u]: the
    # candidates of u not tried yet
    level = [masks[::-1]] * m
    cand = [masks[0]] * m
    im = [0] * m
    last = m - 1
    u = 0
    while u >= 0:
        c = cand[u]
        if u == last:
            while c:
                b = c & -c
                c ^= b
                im[u] = b.bit_length() - 1
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
        nrow = full ^ row ^ b
        nxt = [mk & row if adj else mk & nrow for mk, adj in zip(level[u], later[u])]
        if bounds[u]:
            above, below = full ^ ((b << 1) - 1), b - 1
            for i, up in bounds[u]:
                nxt[i] &= above if up else below
        if all(nxt):
            u += 1
            level[u] = nxt
            cand[u] = nxt[-1]


def find_embeddings(pattern: Graph, host: Graph, limit: int) -> list[Embedding]:
    """Up to ``limit`` induced embeddings in lexicographic order of the mapped
    tuple; empty list iff no copy exists."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    out = []
    for mapping in islice(iter_embedding_maps(pattern, host), limit):
        emb = Embedding(pattern, host, mapping)
        assert emb.verify()
        out.append(emb)
    return out


# ---------------------------------------------------------------------------
# partial isomorphisms


@dataclass(frozen=True)
class PartialIso:
    """Isomorphism between two induced subgraphs of ``host``, given as a
    sorted tuple of (domain vertex, image vertex) pairs."""

    host: Graph
    pairs: tuple[tuple[int, int], ...]

    @property
    def dom(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(y for _, y in self.pairs)

    def apply(self, v: int) -> int:
        for x, y in self.pairs:
            if x == v:
                return y
        raise KeyError(v)

    def verify(self) -> bool:
        if len(set(self.values)) != len(self.pairs):
            return False
        if list(self.pairs) != sorted(self.pairs):
            return False
        for (x1, y1), (x2, y2) in combinations(self.pairs, 2):
            if self.host.has_edge(x1, x2) != self.host.has_edge(y1, y2):
                return False
        return True


def extend_partial_iso(p: PartialIso, v: int) -> PartialIso | None:
    """Extend ``p`` to ``v``, choosing the least image vertex realizing v's
    adjacency pattern over the image of ``p``.

    Success is guaranteed when the host passes check_extension(., k) for some
    k >= len(p.pairs).  Returns None when no witness exists.
    """
    if any(x == v for x, _ in p.pairs):
        raise ValueError(f"vertex {v} already in domain")
    g = p.host
    cand = g.full_mask
    block = 0
    for x, y in p.pairs:
        cand &= g.row(y) if g.has_edge(v, x) else ~g.row(y)
        block |= 1 << y
    cand &= ~block & g.full_mask
    if not cand:
        return None
    w = (cand & -cand).bit_length() - 1
    return PartialIso(g, tuple(sorted(p.pairs + ((v, w),))))


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
