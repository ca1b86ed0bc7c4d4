"""Independent checkers for the benchmark's verdicts.

Nothing here calls a rado_lab search kernel.  The checkers read graphs only
through ``Graph.has_edge``, ``Graph.n`` and ``Graph.edges`` and redo the
mathematics with plain loops, so a faster kernel cannot pass a wrong verdict
by sharing code with the checker.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

# ---------------------------------------------------------------------------
# extension property


def extension_pairs(n: int, k: int) -> int:
    """Number of disjoint (U, U') pairs with |U| + |U'| <= k on n vertices:
    the work a passing k-extension check must cover."""
    return sum(comb(n, t) * 2**t for t in range(k + 1))


def has_witness(g, inside, outside) -> bool:
    """Naive double loop: some vertex off the support is adjacent to every
    vertex of ``inside`` and to no vertex of ``outside``."""
    support = set(inside) | set(outside)
    for v in range(g.n):
        if v in support:
            continue
        if all(g.has_edge(v, u) for u in inside) and not any(
            g.has_edge(v, w) for w in outside
        ):
            return True
    return False


def sample_pairs(rng, n: int, k: int, count: int):
    """``count`` random disjoint (U, U') with 1 <= |U| + |U'| <= min(k, n)."""
    out = []
    for _ in range(count):
        t = rng.randint(1, min(k, n))
        support = rng.sample(range(n), t)
        cut = rng.randint(0, t)
        out.append((tuple(sorted(support[:cut])), tuple(sorted(support[cut:]))))
    return out


def extension_problem(g, k: int, result, rng, samples: int = 24) -> str | None:
    """Check a k-extension verdict: a failing pair must have no witness, a
    pass must hold on a random sample of pairs."""
    if not result.passed:
        inside, outside = result.failing
        if set(inside) & set(outside) or len(inside) + len(outside) > k:
            return f"malformed failing pair {result.failing}"
        if has_witness(g, inside, outside):
            return f"failing pair {result.failing} has a witness"
        return None
    for inside, outside in sample_pairs(rng, g.n, k, samples):
        if not has_witness(g, inside, outside):
            return f"pass claimed but ({inside}, {outside}) has no witness"
    return None


# ---------------------------------------------------------------------------
# embeddings and parity


def is_induced_embedding(pattern, host, mapping) -> bool:
    if len(mapping) != pattern.n or len(set(mapping)) != pattern.n:
        return False
    return all(
        pattern.has_edge(u, v) == host.has_edge(mapping[u], mapping[v])
        for u, v in combinations(range(pattern.n), 2)
    )


def embeddings_problem(pattern, host, mappings, limit: int) -> str | None:
    """Returned maps must be induced embeddings, distinct, in strictly
    increasing lexicographic order, and at most ``limit`` of them."""
    if len(mappings) > limit:
        return f"{len(mappings)} embeddings returned, limit {limit}"
    for a, b in zip(mappings, mappings[1:]):
        if not a < b:
            return f"embeddings out of order: {a} then {b}"
    for m in mappings:
        if not is_induced_embedding(pattern, host, m):
            return f"{m} is not an induced embedding"
    return None


def odd_edges(g, t) -> bool:
    """Parity relation by hand: distinct entries spanning an odd edge count."""
    if len(set(t)) != len(t):
        return False
    return sum(g.has_edge(x, y) for x, y in combinations(t, 2)) % 2 == 1


def paley_triangles(q: int) -> int:
    """Triangles of the Paley graph on q vertices: q(q-1)(q-5)/48."""
    return q * (q - 1) * (q - 5) // 48


# ---------------------------------------------------------------------------
# the five-class lattice (Thomas 1991, Reducts of the random graph)

GENERATORS = {
    "graph": frozenset(),
    "minus": frozenset({"minus"}),
    "switch": frozenset({"switch"}),
    "minus-switch": frozenset({"minus", "switch"}),
}


def join(a: str, b: str) -> str:
    """Join of two classes: equality absorbs everything, otherwise the class
    whose generators are the union."""
    if "equality" in (a, b):
        return "equality"
    merged = GENERATORS[a] | GENERATORS[b]
    return next(name for name, gens in GENERATORS.items() if gens == merged)


# ---------------------------------------------------------------------------
# orbit closure on small types, by bit codes over the vertex pairs


class OrbitOracle:
    """Breadth-first closure over canonical codes of graphs on <= 5 vertices.

    A graph on n vertices is a bit code over ``combinations(range(n), 2)``;
    its canonical code is the least code over all relabelings, tabulated once
    for every labelled graph.
    """

    def __init__(self, max_n: int = 5):
        self.pairs = {}
        self.index = {}
        self.canon = {}
        self.switch_flips = {}
        for n in range(1, max_n + 1):
            pairs = list(combinations(range(n), 2))
            index = {p: i for i, p in enumerate(pairs)}
            images = []
            for perm in permutations(range(n)):
                images.append(
                    [1 << index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
                )
            table = []
            for code in range(1 << len(pairs)):
                bits = [i for i in range(len(pairs)) if code >> i & 1]
                table.append(min(sum(img[i] for i in bits) for img in images))
            self.pairs[n] = pairs
            self.index[n] = index
            self.canon[n] = table
            flips = []
            for size in range(n + 1):
                for cut in combinations(range(n), size):
                    side = set(cut)
                    flips.append(
                        sum(
                            1 << i
                            for i, (a, b) in enumerate(pairs)
                            if (a in side) != (b in side)
                        )
                    )
            self.switch_flips[n] = flips

    def key(self, g) -> tuple[int, int]:
        index = self.index[g.n]
        code = sum(1 << index[e] for e in g.edges())
        return g.n, self.canon[g.n][code]

    def _images(self, n: int, code: int, kinds):
        full = (1 << len(self.pairs[n])) - 1
        if "minus" in kinds:
            yield n, code ^ full
        if "switch" in kinds:
            for flip in self.switch_flips[n]:
                yield n, code ^ flip
        if "eE" in kinds:
            yield n, full
        if "eN" in kinds:
            yield n, 0
        if "const" in kinds:
            yield 1, 0

    def closure(self, start, kinds) -> set[tuple[int, int]]:
        first = self.key(start)
        seen = {first}
        work = [first]
        while work:
            n, code = work.pop()
            for m, image in self._images(n, code, kinds):
                key = (m, self.canon[m][image])
                if key not in seen:
                    seen.add(key)
                    work.append(key)
        return seen
