import hashlib
import random
import re
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rado_lab import (
    ArrowBudget,
    ArrowQuery,
    CopyColoring,
    PairColor,
    classify_on_set,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_copies,
    find_edge_nonedge_mono_copy,
    find_mono_copy,
    induced_pair_coloring,
    make_named,
    path_graph,
    verify_arrow,
)
from rado_lab.graphs import Graph, build_paley
from rado_lab.ramsey import CopyBudgetExceeded, _copy_order, _symmetry_breaking
from rado_lab.structures import ConstantGraph, PartitionedGraph, iter_structure_maps
from conftest import random_graph as seeded_graph, relabelled


def edge_copies(g: Graph):
    return enumerate_copies(g, complete_graph(2))


def pentagon_witness() -> CopyColoring:
    """Cycle edges of K5 colored 0, diagonal edges colored 1."""
    k5 = complete_graph(5)
    cycle_edges = set(cycle_graph(5).edges())
    copies = tuple(edge_copies(k5))
    colors = tuple(0 if c in cycle_edges else 1 for c in copies)
    return CopyColoring(copies, colors, 2)


class TestCopies:
    def test_edges_of_k6(self):
        assert len(edge_copies(complete_graph(6))) == 15

    def test_triangles_of_k6(self):
        assert len(enumerate_copies(complete_graph(6), complete_graph(3))) == 20

    def test_order_is_sorted_lex(self):
        copies = edge_copies(complete_graph(4))
        assert copies == sorted(copies)

    def test_induced_only(self):
        # no induced path on three vertices inside a triangle
        assert enumerate_copies(complete_graph(3), path_graph(3)) == []

    def test_ordered_restriction(self):
        host = path_graph(3)
        plain = enumerate_copies(host, path_graph(2))
        ordered = enumerate_copies(host, path_graph(2), ordered=True)
        assert plain == ordered  # symmetric pattern: same sets either way


def _naive_copies(big, small, ordered):
    # every vertex subset of the pattern's size, kept when some bijection
    # from the pattern onto it is induced and keeps parts, constants and, for
    # ordered structures, the vertex order
    bg, sg = (x if isinstance(x, Graph) else x.graph for x in (big, small))
    m = sg.n

    def respects(p):
        if isinstance(small, PartitionedGraph):
            return all(big.part_of(p[u]) == small.part_of(u) for u in range(m))
        if isinstance(small, ConstantGraph):
            return all(p[c] == d for c, d in zip(small.constants, big.constants))
        return True

    return [
        subset
        for subset in combinations(range(bg.n), m)
        if any(
            (not ordered or p == subset)
            and respects(p)
            and all(sg.has_edge(u, v) == bg.has_edge(p[u], p[v]) for u, v in combinations(range(m), 2))
            for p in permutations(subset)
        )
    ]


@st.composite
def copy_instances(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    m = draw(st.integers(min_value=0, max_value=min(n, 4)))

    def graph(size):
        pairs = list(combinations(range(size), 2))
        if draw(st.booleans()):  # cliques and empty graphs have the largest automorphism groups
            return Graph.from_edges(size, pairs if draw(st.booleans()) else [])
        code = draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
        return Graph.from_edges(size, [p for b, p in enumerate(pairs) if code >> b & 1])

    host, pattern = graph(n), graph(m)
    kind = draw(st.sampled_from(["plain", "partitioned", "constant"]))
    if kind == "partitioned":
        count = draw(st.integers(min_value=1, max_value=3))

        def parts(size):
            label = draw(st.lists(st.integers(0, count - 1), min_size=size, max_size=size))
            return tuple(frozenset(v for v in range(size) if label[v] == i) for i in range(count))

        big, small = PartitionedGraph(host, parts(n)), PartitionedGraph(pattern, parts(m))
    elif kind == "constant":
        count = draw(st.integers(min_value=0, max_value=min(m, 2)))
        big = ConstantGraph(host, tuple(draw(st.permutations(range(n)))[:count]))
        small = ConstantGraph(pattern, tuple(draw(st.permutations(range(m)))[:count]))
    else:
        big, small = host, pattern
    return big, small, draw(st.booleans())


def _bipartite(a, b):
    return Graph.from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


class TestCopiesOracle:
    @given(copy_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, instance):
        big, small, ordered = instance
        want = _naive_copies(big, small, ordered)
        assert enumerate_copies(big, small, ordered=ordered) == want
        for budget in {0, 1, 3, len(want), max(len(want) - 1, 0)}:
            try:
                copies = enumerate_copies(big, small, ordered=ordered, budget=budget)
                count = None
            except CopyBudgetExceeded as exc:
                copies, count = None, exc.count
            assert count == (budget + 1 if len(want) > budget else None)
            assert copies == (None if count else want)

    @pytest.mark.parametrize(
        "big,small,ordered,in_order",
        [
            (build_paley(13).graph, complete_graph(3), False, True),
            (build_paley(13).graph, empty_graph(3), False, True),
            (build_paley(13).graph, path_graph(3), True, True),
            (build_paley(13).graph, cycle_graph(4), True, True),
            (build_paley(13).graph, path_graph(3), False, False),
            (build_paley(13).graph, cycle_graph(4), False, False),
            (
                PartitionedGraph(complete_graph(6), (frozenset({0, 2, 4}), frozenset({1, 3, 5}))),
                PartitionedGraph(complete_graph(3), (frozenset({0, 1}), frozenset({2}))),
                False,
                False,
            ),
        ],
        ids=["K3", "E3", "P3-ordered", "C4-ordered", "P3", "C4", "partitioned"],
    )
    def test_budget_at_the_copy_count(self, big, small, ordered, in_order):
        # in_order: the maps are the copies, sorted, in order, and no sort runs
        assert _copy_order(small, ordered)[1] is in_order
        want = _naive_copies(big, small, ordered)
        assert enumerate_copies(big, small, ordered=ordered, budget=len(want)) == want != []
        with pytest.raises(CopyBudgetExceeded) as exc:
            enumerate_copies(big, small, ordered=ordered, budget=len(want) - 1)
        assert exc.value.count == len(want)

    def test_triangles_of_relabelled_paley17(self):
        g = relabelled(build_paley(17).graph, 17)
        want = _naive_copies(g, complete_graph(3), False)
        assert len(want) == 68 and enumerate_copies(g, complete_graph(3)) == want

    @pytest.mark.parametrize(
        "big,small",
        [
            (complete_graph(6), complete_graph(1)),
            (complete_graph(6), complete_graph(4)),
            (complete_graph(7), complete_graph(5)),
            (build_paley(13).graph, cycle_graph(5)),
            (build_paley(13).graph, path_graph(4)),
            (_bipartite(3, 4), _bipartite(2, 3)),
            (
                PartitionedGraph(complete_graph(6), (frozenset({0, 2, 4}), frozenset({1, 3, 5}))),
                PartitionedGraph(complete_graph(3), (frozenset({0, 1}), frozenset({2}))),
            ),
            (ConstantGraph(complete_graph(6), (2,)), ConstantGraph(complete_graph(4), (1,))),
        ],
    )
    def test_one_map_per_copy(self, big, small):
        images = [
            tuple(sorted(mapping))
            for mapping in iter_structure_maps(small, big, order=_symmetry_breaking(small))
        ]
        assert len(images) == len(set(images))
        assert sorted(images) == _naive_copies(big, small, False) != []

    def test_clique_conditions_are_every_pair(self):
        assert _symmetry_breaking(complete_graph(5)) == tuple(combinations(range(5), 2))


class TestFindMonoCopy:
    def test_single_color_trivial(self):
        k4 = complete_graph(4)
        copies = tuple(edge_copies(k4))
        chi = CopyColoring(copies, (0,) * len(copies), 1)
        emb = find_mono_copy(k4, complete_graph(3), complete_graph(2), chi)
        assert emb is not None
        assert emb.mapping == (0, 1, 2)

    def test_k6_always_finds_triangle(self):
        k6 = complete_graph(6)
        copies = tuple(edge_copies(k6))
        rng = random.Random(0)
        for _ in range(50):
            chi = CopyColoring(
                copies, tuple(rng.randrange(2) for _ in copies), 2
            )
            assert find_mono_copy(k6, complete_graph(3), complete_graph(2), chi) is not None

    @pytest.mark.parametrize("extra_first", [False, True], ids=["extra-last", "extra-first"])
    def test_copy_listed_twice_is_refused(self, extra_first):
        # K5's witness with copy (0, 1) listed again in the other color: an
        # index keyed by copy would keep whichever entry came last
        w = pentagon_witness()
        extra = ((w.copies[0],), (1 - w.colors[0],))
        if extra_first:
            copies, colors = extra[0] + w.copies, extra[1] + w.colors
        else:
            copies, colors = w.copies + extra[0], w.colors + extra[1]
        with pytest.raises(ValueError, match=r"^copy \(0, 1\) is listed twice$"):
            CopyColoring(copies, colors, 2)

    def test_pentagon_split_has_no_mono_triangle(self):
        assert (
            find_mono_copy(
                complete_graph(5), complete_graph(3), complete_graph(2), pentagon_witness()
            )
            is None
        )

    def test_holds_soundness_spot_check(self):
        # a holding arrow means every random coloring admits a mono copy
        k6 = complete_graph(6)
        assert verify_arrow(ArrowQuery(k6, complete_graph(3), complete_graph(2), 2)).verdict == "holds"
        copies = tuple(edge_copies(k6))
        rng = random.Random(1)
        for _ in range(1000):
            chi = CopyColoring(copies, tuple(rng.randrange(2) for _ in copies), 2)
            assert find_mono_copy(k6, complete_graph(3), complete_graph(2), chi) is not None

    def test_ordered_witness_is_checked_over_ordered_copies(self):
        s = seeded_graph(6, 0)
        p = Graph.from_edges(3, [(0, 2), (1, 2)])
        h = Graph.from_edges(4, [(0, 2), (0, 3), (1, 3), (2, 3)])
        result = verify_arrow(ArrowQuery(s, h, p, 2, ordered=True))
        assert result.verdict == "fails"
        assert result.witness == CopyColoring(((0, 1, 4), (1, 3, 4)), (0, 1), 2)
        # S has 5 unordered copies of P, so the default check refuses it
        with pytest.raises(ValueError):
            find_mono_copy(s, h, p, result.witness)
        # the only ordered H-copy, (0, 1, 3, 4), holds both colors
        assert enumerate_copies(s, h, ordered=True) == [(0, 1, 3, 4)]
        assert find_mono_copy(s, h, p, result.witness, ordered=True) is None


class TestVerifyArrow:
    def test_k6_arrow_holds(self):
        result = verify_arrow(ArrowQuery(complete_graph(6), complete_graph(3), complete_graph(2), 2))
        assert result.verdict == "holds"
        assert result.stats["colorings_checked"] == 226

    def test_k7_arrow_holds(self):
        result = verify_arrow(ArrowQuery(complete_graph(7), complete_graph(3), complete_graph(2), 2))
        assert result.verdict == "holds"
        assert result.stats["colorings_checked"] == 482

    def test_k5_arrow_fails_with_verified_witness(self):
        result = verify_arrow(ArrowQuery(complete_graph(5), complete_graph(3), complete_graph(2), 2))
        assert result.verdict == "fails"
        assert result.stats["colorings_checked"] == 26
        witness = result.witness
        assert find_mono_copy(
            complete_graph(5), complete_graph(3), complete_graph(2), witness
        ) is None
        # both color classes of the unique bad coloring are 5-cycles
        for color in (0, 1):
            class_edges = [c for c, col in zip(witness.copies, witness.colors) if col == color]
            assert len(class_edges) == 5
            degree = {v: 0 for v in range(5)}
            for u, v in class_edges:
                degree[u] += 1
                degree[v] += 1
            assert all(d == 2 for d in degree.values())

    def test_single_color_holds(self):
        g = cycle_graph(5)
        assert verify_arrow(ArrowQuery(g, g, complete_graph(2), 1)).verdict == "holds"

    def test_antitone_witness_transport(self):
        # a failing coloring on K5 restricts to a failing coloring on K4
        k5_result = verify_arrow(ArrowQuery(complete_graph(5), complete_graph(3), complete_graph(2), 2))
        assert k5_result.verdict == "fails"
        k4 = complete_graph(4)
        restricted_copies = tuple(edge_copies(k4))
        witness = k5_result.witness
        restricted_colors = tuple(witness.colors[witness.copies.index(c)] for c in restricted_copies)
        chi = CopyColoring(restricted_copies, restricted_colors, 2)
        assert find_mono_copy(k4, complete_graph(3), complete_graph(2), chi) is None
        assert verify_arrow(ArrowQuery(k4, complete_graph(3), complete_graph(2), 2)).verdict == "fails"

    def test_pruning_matches_unpruned_brute_force(self):
        # small instances: compare against enumeration over all k^m colorings;
        # the least witness is the first bad coloring in that order, which
        # has copy 0 colored 0
        from rado_lab import ConstantGraph, PartitionedGraph

        k1, k2, k3 = complete_graph(1), complete_graph(2), complete_graph(3)
        instances = [
            (complete_graph(4), k3, k2, 2, False),
            (cycle_graph(5), path_graph(3), k2, 2, False),
            (complete_graph(4), path_graph(3), k2, 3, False),
            (complete_graph(5), k3, k2, 2, True),
            (path_graph(4), empty_graph(2), k2, 2, False),  # H-copy without P-copy
            (cycle_graph(5), k2, k3, 2, False),  # m = 0, holds
            (empty_graph(3), k2, k3, 2, False),  # m = 0, fails
            (k2, k2, k2, 2, False),  # m = 1, holds
            (k2, k3, k2, 3, False),  # m = 1, fails
        ]
        cross = PartitionedGraph(k2, (frozenset({0}), frozenset({1})))
        for a in (2, 3):
            host = PartitionedGraph(
                complete_graph(a + 3), (frozenset(range(a)), frozenset(range(a, a + 3)))
            )
            goal = PartitionedGraph(k3, (frozenset({0, 1}), frozenset({2})))
            instances.append((host, goal, cross, 2, False))
        instances.append((
            ConstantGraph(complete_graph(5), (0,)),
            ConstantGraph(k3, (0,)),
            ConstantGraph(k2, (0,)),
            2,
            False,
        ))

        rng = random.Random(2024)

        def random_graph(n):
            return Graph.from_edges(
                n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
            )

        h_patterns = [k1, k2, k3, path_graph(3), empty_graph(2), empty_graph(3)]
        p_patterns = [k1, k2, k2, k2, k3, empty_graph(2)]
        while len(instances) < 150:
            n = rng.randint(2, 7)
            g = random_graph(n)
            h, p = rng.choice(h_patterns), rng.choice(p_patterns)
            kind = rng.choice(("plain", "partitioned", "constant"))
            if kind == "partitioned":
                side = frozenset(v for v in range(n) if rng.random() < 0.5)
                g = PartitionedGraph(g, (side, frozenset(range(n)) - side))
                h = PartitionedGraph(h, (frozenset(range(h.n - 1)), frozenset({h.n - 1})))
                p = PartitionedGraph(p, (frozenset(range(p.n - 1)), frozenset({p.n - 1})))
            elif kind == "constant":
                g = ConstantGraph(g, (rng.randrange(n),))
                h, p = ConstantGraph(h, (0,)), ConstantGraph(p, (0,))
            ordered = rng.random() < 0.5
            k = rng.randint(1, 3)
            if k ** len(enumerate_copies(g, p, ordered=ordered)) <= 512:
                instances.append((g, h, p, k, ordered))

        for s, h, p, k, ordered in instances:
            p_copies = enumerate_copies(s, p, ordered=ordered)
            h_copies = enumerate_copies(s, h, ordered=ordered)
            first_bad = None
            for colors in product(range(k), repeat=len(p_copies)):
                chi = dict(zip(p_copies, colors))
                good = False
                for hc in h_copies:
                    inner = {chi[c] for c in p_copies if set(c) <= set(hc)}
                    if len(inner) <= 1:
                        good = True
                        break
                if not good:
                    first_bad = colors
                    break
            result = verify_arrow(ArrowQuery(s, h, p, k, ordered=ordered))
            if first_bad is None:
                assert result.verdict == "holds"
                assert result.witness is None
            else:
                assert result.verdict == "fails"
                assert result.witness.copies == tuple(p_copies)
                assert result.witness.colors == first_bad
                assert find_mono_copy(s, h, p, result.witness, ordered=ordered) is None
            assert result.stats["p_copies"] == len(p_copies)
            assert result.stats["h_copies"] == len(h_copies)

    def test_coloring_budget(self):
        q = ArrowQuery(complete_graph(6), complete_graph(3), complete_graph(2), 2)
        result = verify_arrow(q, ArrowBudget(colorings=100))
        assert result.verdict == "budget_exceeded"
        assert result.stats["colorings_total"] == 2**14

    def test_copy_budget(self):
        q = ArrowQuery(complete_graph(6), complete_graph(3), complete_graph(2), 2)
        result = verify_arrow(q, ArrowBudget(copies=5))
        assert result.verdict == "budget_exceeded"

    def test_zero_budgets_are_allowed(self):
        q = ArrowQuery(complete_graph(6), complete_graph(3), complete_graph(2), 2)
        result = verify_arrow(q, ArrowBudget(colorings=0, copies=0))
        assert result.verdict == "budget_exceeded"
        assert result.stats == {"copies_seen": 1, "budget_copies": 0}

    def test_copy_budget_covers_h_copies(self):
        # 6 vertex copies fit the budget of 10, the 15 edge copies do not
        q = ArrowQuery(complete_graph(6), complete_graph(2), complete_graph(1), 2)
        assert verify_arrow(q).verdict == "holds"
        result = verify_arrow(q, ArrowBudget(copies=10))
        assert result.verdict == "budget_exceeded"
        assert result.stats == {"copies_seen": 11, "budget_copies": 10}

    def test_coloring_refusal_before_h_copies(self, monkeypatch):
        # K6 has 15 edges (2^14 colorings) and 20 triangles: with both
        # budgets exceeded the coloring refusal wins, and no H-copy is listed
        from rado_lab import ramsey

        listed = []
        enumerate_real = ramsey.enumerate_copies
        monkeypatch.setattr(
            ramsey, "enumerate_copies",
            lambda big, small, **kw: listed.append(small) or enumerate_real(big, small, **kw),
        )
        q = ArrowQuery(complete_graph(6), complete_graph(3), complete_graph(2), 2)
        result = verify_arrow(q, ArrowBudget(colorings=100, copies=16))
        assert result.verdict == "budget_exceeded"
        assert result.stats == {
            "p_copies": 15, "colorings_checked": 0, "colorings_total": 2**14, "budget_colorings": 100,
        }
        assert listed == [complete_graph(2)]
        # with room for the colorings, the triangles exceed the copy budget
        result = verify_arrow(q, ArrowBudget(copies=16))
        assert result.verdict == "budget_exceeded"
        assert result.stats == {"copies_seen": 17, "budget_copies": 16}

    def test_partitioned_structures(self):
        from rado_lab import PartitionedGraph

        # part-respecting copies: coloring cross edges of a bipartite-ish host
        host = PartitionedGraph(
            complete_graph(6), (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
        )
        pattern = PartitionedGraph(
            complete_graph(2), (frozenset({0}), frozenset({1}))
        )
        goal = PartitionedGraph(
            complete_graph(4), (frozenset({0, 1}), frozenset({2, 3}))
        )
        copies = enumerate_copies(host, pattern)
        assert len(copies) == 9  # only cross pairs
        result = verify_arrow(ArrowQuery(host, goal, pattern, 1))
        assert result.verdict == "holds"

    def test_constant_structures(self):
        from rado_lab import ConstantGraph

        host = ConstantGraph(complete_graph(5), (0,))
        pattern = ConstantGraph(complete_graph(2), (0,))
        copies = enumerate_copies(host, pattern)
        # the constant must map to the host constant
        assert copies == [(0, v) for v in range(1, 5)]

    def test_ordered_arrow(self):
        from rado_lab import Graph

        # ordered edge pattern: a directed-looking constraint on copies
        host = complete_graph(4)
        result = verify_arrow(
            ArrowQuery(host, complete_graph(3), complete_graph(2), 2, ordered=True)
        )
        assert result.verdict in ("holds", "fails")


def _lexicographic_arrow(s, h, p, k, ordered):
    """Verdict, witness colors and node count of the plain lexicographic
    search: copy 0 fixed to color 0, each H-copy checked when its largest
    P-copy gets a color, one node per color assigned, no other cut."""
    p_copies = enumerate_copies(s, p, ordered=ordered)
    h_copies = enumerate_copies(s, h, ordered=ordered)
    m = len(p_copies)
    if m == 0:
        return ("holds", None, 0) if h_copies else ("fails", (), 0)
    p_index = {c: i for i, c in enumerate(p_copies)}
    closing = [[] for _ in range(m)]
    for h_copy in h_copies:
        inside = [p_index[c] for c in combinations(h_copy, len(p_copies[0])) if c in p_index]
        if not inside:
            return "holds", None, 0
        closing[inside[-1]].append(inside[:-1])
    colors = [0] * m
    i = nodes = 0
    while True:
        nodes += 1
        if not any(all(colors[j] == colors[i] for j in rest) for rest in closing[i]):
            if i == m - 1:
                return "fails", tuple(colors), nodes
            i += 1
            colors[i] = 0
            continue
        while i > 0 and colors[i] == k - 1:
            i -= 1
        if i == 0:
            return "holds", None, nodes
        colors[i] += 1


def _precedence_ordered(colors):
    # colors first appear in the order 0, 1, 2, ...
    seen = 0
    for c in colors:
        if c > seen:
            return False
        seen = max(seen, c + 1)
    return True


_K1, _K2, _K3, _K4 = (complete_graph(n) for n in (1, 2, 3, 4))
_E2, _E3, _P3, _P4, _C4 = empty_graph(2), empty_graph(3), path_graph(3), path_graph(4), cycle_graph(4)
_STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
# (H, P) with at least two copies of P in H, except (E3, K2), whose H-copies
# hold no P-copy
ARROW_PATTERNS = (
    (_K2, _K1), (_K3, _K1), (_E2, _K1), (_P3, _K1),
    (_K3, _K2), (_P3, _K2), (_K4, _K2), (_C4, _K2), (_P4, _K2), (_STAR, _K2), (_E3, _K2),
    (_E3, _E2), (_P3, _E2), (_C4, _E2), (_STAR, _E2),
    (_C4, _P3), (_P4, _P3), (_STAR, _P3), (_K4, _K3),
)


def _arrow_structures(kind, g, h, p, side, const):
    # S, H and P of one kind: plain, two parts (H's and P's last vertex in
    # the second), or one constant (H's and P's vertex 0)
    if kind == "partitioned":
        return (
            PartitionedGraph(g, (side, frozenset(range(g.n)) - side)),
            PartitionedGraph(h, (frozenset(range(h.n - 1)), frozenset({h.n - 1}))),
            PartitionedGraph(p, (frozenset(range(p.n - 1)), frozenset({p.n - 1}))),
        )
    if kind == "constant":
        return ConstantGraph(g, (const,)), ConstantGraph(h, (0,)), ConstantGraph(p, (0,))
    return g, h, p


def _small_enough(s, p, k, ordered):
    # k^(m-1) colorings at most, so the plain loop stays fast
    return k ** max(len(enumerate_copies(s, p, ordered=ordered)) - 1, 0) <= 2 ** 16


def _arrow_battery(count):
    # seeded instances on 3-9 vertices with k = 1-4: plain, partitioned,
    # constant and ordered
    rng = random.Random(31)
    instances = []
    while len(instances) < count:
        n = rng.randint(3, 9)
        density = rng.choice((0.3, 0.5, 0.7, 0.9))
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        h, p = rng.choice(ARROW_PATTERNS)
        kind = rng.choice(("plain", "partitioned", "constant"))
        side = frozenset(v for v in range(n) if rng.random() < 0.5)
        s, h, p = _arrow_structures(kind, g, h, p, side, rng.randrange(n))
        ordered = rng.random() < 0.3
        k = rng.randint(1, 4)
        if _small_enough(s, p, k, ordered):
            instances.append((s, h, p, k, ordered))
    return instances


ARROW_BATTERY_DIGEST = "53e452a1cf3bea4d8c270adc3c0dbce5f2bef347f5bb5724962f42ba6af4fea0"


class TestSearchAgainstLexicographicLoop:
    """The forward-checked search with color precedence against the plain
    lexicographic loop it replaced: same verdicts and witnesses, no more nodes."""

    def test_oracle_is_the_plain_loop(self):
        # the node counts the plain loop was pinned at
        k2, k3 = complete_graph(2), complete_graph(3)
        assert [_lexicographic_arrow(complete_graph(n), k3, k2, 2, False)[2] for n in (5, 6, 7)] == [71, 987, 3493]

    def test_battery_matches_oracle(self):
        lines, holds, searched = [], 0, 0
        for s, h, p, k, ordered in _arrow_battery(1600):
            verdict, colors, nodes = _lexicographic_arrow(s, h, p, k, ordered)
            result = verify_arrow(ArrowQuery(s, h, p, k, ordered=ordered))
            assert result.verdict == verdict
            assert (result.witness and result.witness.colors) == colors
            assert result.stats["colorings_checked"] <= nodes
            lines.append(f"{verdict} {colors}")
            holds += verdict == "holds"
            searched += nodes > 1
        # the plain loop's verdicts and witnesses gave this digest too
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ARROW_BATTERY_DIGEST
        assert holds >= 300 and searched >= 800

    @pytest.mark.parametrize(
        "q, h, k, verdict, nodes",
        [
            (13, path_graph(3), 3, "holds", 265),
            (13, path_graph(4), 2, "holds", 1692),
            (17, complete_graph(3), 2, "fails", 126),
            (17, path_graph(4), 2, "holds", 3715),
        ],
        ids=["paley13-P3-3", "paley13-P4-2", "paley17-K3-2", "paley17-P4-2"],
    )
    def test_paley_node_counts(self, q, h, k, verdict, nodes):
        s, k2 = build_paley(q).graph, complete_graph(2)
        result = verify_arrow(ArrowQuery(s, h, k2, k), ArrowBudget(colorings=k ** 67))
        assert (result.verdict, result.stats["colorings_checked"]) == (verdict, nodes)
        if verdict == "fails":
            assert result.witness.colors == _lexicographic_arrow(s, h, k2, k, False)[1]
            assert find_mono_copy(s, h, k2, result.witness) is None


@st.composite
def arrow_instances(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    pairs = list(combinations(range(n), 2))
    code = draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
    g = Graph.from_edges(n, [e for b, e in enumerate(pairs) if code >> b & 1])
    h, p = draw(st.sampled_from(ARROW_PATTERNS))
    kind = draw(st.sampled_from(["plain", "partitioned", "constant"]))
    side = frozenset(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    s, h, p = _arrow_structures(kind, g, h, p, side, draw(st.integers(min_value=0, max_value=n - 1)))
    ordered, k = draw(st.booleans()), draw(st.integers(min_value=1, max_value=4))
    assume(_small_enough(s, p, k, ordered))
    return s, h, p, k, ordered


@given(arrow_instances())
@settings(max_examples=200, deadline=None)
def test_failing_witness_is_precedence_ordered(instance):
    # colors first appear in the order 0, 1, 2, ..., in the plain loop's
    # least witness as in the search's
    s, h, p, k, ordered = instance
    result = verify_arrow(ArrowQuery(s, h, p, k, ordered=ordered))
    _, colors, _ = _lexicographic_arrow(s, h, p, k, ordered)
    if result.verdict == "fails":
        assert _precedence_ordered(result.witness.colors) and _precedence_ordered(colors)
        assert find_mono_copy(s, h, p, result.witness, ordered=ordered) is None


class TestEdgeNonedgeSearch:
    def test_constant_colorings_least_copy(self, paley13):
        g = paley13.graph
        chi_e = {e: 0 for e in g.edges()}
        chi_n = {p: 0 for p in g.nonedges()}
        emb = find_edge_nonedge_mono_copy(g, path_graph(3), chi_e, chi_n)
        assert emb is not None
        from rado_lab import find_embeddings

        assert emb.mapping == find_embeddings(path_graph(3), g, 1)[0].mapping

    def test_single_edge_pattern(self, paley13):
        g = paley13.graph
        chi_e = {e: (e[0] + e[1]) % 2 for e in g.edges()}
        chi_n = {p: 0 for p in g.nonedges()}
        emb = find_edge_nonedge_mono_copy(g, complete_graph(2), chi_e, chi_n)
        assert emb is not None
        assert emb.mapping == (0, 1)  # vacuous non-edge condition, least copy

    def test_residue_coloring_on_paley13(self, paley13):
        g = paley13.graph
        chi_e = {e: (e[0] + e[1]) % 2 for e in g.edges()}
        chi_n = {p: (p[0] + p[1]) % 2 for p in g.nonedges()}
        emb = find_edge_nonedge_mono_copy(g, path_graph(3), chi_e, chi_n)
        assert emb is not None
        image = sorted(emb.mapping)
        e_colors = {
            chi_e[(u, v)]
            for u, v in combinations(image, 2)
            if g.has_edge(u, v)
        }
        n_colors = {
            chi_n[(u, v)]
            for u, v in combinations(image, 2)
            if not g.has_edge(u, v)
        }
        assert len(e_colors) == 1 and len(n_colors) == 1

    def test_skips_copy_with_two_edge_colors(self):
        # the least copy 0-1-2 has its edges colored 0 and 1
        host = path_graph(4)
        chi_e = {(0, 1): 0, (1, 2): 1, (2, 3): 1}
        chi_n = {p: 0 for p in host.nonedges()}
        assert find_edge_nonedge_mono_copy(host, path_graph(3), chi_e, chi_n).mapping == (1, 2, 3)

    def test_skips_copies_with_two_nonedge_colors(self):
        # every map through both 0 and 1 sees non-edge colors 1 and 0
        host = empty_graph(4)
        chi_n = {p: int(p == (0, 1)) for p in host.nonedges()}
        assert find_edge_nonedge_mono_copy(host, empty_graph(3), {}, chi_n).mapping == (0, 2, 3)

    def test_missing_color_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            find_edge_nonedge_mono_copy(g, complete_graph(2), {}, {})

    def test_none_exactly_when_a_naive_loop_finds_no_copy(self):
        # every injective map in lexicographic order, filtered by the
        # definition; the colorings are seeded, 3 colors per family
        def naive(host, pattern, chi_e, chi_n):
            for p in permutations(range(host.n), pattern.n):
                pairs = list(combinations(range(pattern.n), 2))
                if any(pattern.has_edge(u, v) != host.has_edge(p[u], p[v]) for u, v in pairs):
                    continue
                keys = [tuple(sorted((p[u], p[v]))) for u, v in pairs]
                edge_colors = {chi_e[e] for e in keys if e in chi_e}
                nonedge_colors = {chi_n[e] for e in keys if e in chi_n}
                if len(edge_colors) <= 1 and len(nonedge_colors) <= 1:
                    return p
            return None

        rng = random.Random(4)
        misses = 0
        for _ in range(60):
            host = seeded_graph(6, rng.randrange(1000))
            pattern = rng.choice([path_graph(3), complete_graph(3), empty_graph(3), path_graph(4)])
            chi_e = {e: rng.randrange(3) for e in host.edges()}
            chi_n = {e: rng.randrange(3) for e in host.nonedges()}
            emb = find_edge_nonedge_mono_copy(host, pattern, chi_e, chi_n)
            want = naive(host, pattern, chi_e, chi_n)
            assert (emb and emb.mapping) == want
            misses += want is None
        assert misses >= 10
        # the pentagon's edges in three colors, no two adjacent ones alike
        c5 = cycle_graph(5)
        chi_e = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (3, 4): 1, (0, 4): 2}
        chi_n = {e: 0 for e in c5.nonedges()}
        assert find_edge_nonedge_mono_copy(c5, path_graph(3), chi_e, chi_n) is None
        assert naive(c5, path_graph(3), chi_e, chi_n) is None


class TestInducedColoring:
    def test_identity(self, paley13):
        f = make_named("identity", paley13.graph)
        chi_e, chi_n = induced_pair_coloring(f)
        assert set(chi_e.values()) == {PairColor.EDGE}
        assert set(chi_n.values()) == {PairColor.NONEDGE}

    def test_const(self):
        f = make_named("const", cycle_graph(5), target=1)
        chi_e, chi_n = induced_pair_coloring(f)
        assert set(chi_e.values()) == {PairColor.COLLAPSED}
        assert set(chi_n.values()) == {PairColor.COLLAPSED}

    def test_minus(self, paley13):
        f = make_named("minus", paley13.graph)
        chi_e, chi_n = induced_pair_coloring(f)
        assert set(chi_e.values()) == {PairColor.NONEDGE}
        assert set(chi_n.values()) == {PairColor.EDGE}

    def test_partial_domain_rejected(self):
        f = make_named("identity", cycle_graph(5), dom=(0, 1))
        with pytest.raises(ValueError):
            induced_pair_coloring(f)

    def test_composition_with_copy_search_classifies(self, paley13):
        # the computational shape of the behavior-interpolation argument:
        # color pairs by what f does, find a copy both colorings are constant
        # on, classify f there; the class set is determined or a pair
        g = paley13.graph
        pattern = path_graph(3)
        gadgets = [
            make_named("identity", g),
            make_named("minus", g),
            make_named("eN", g, dst=empty_graph(13)),
            make_named("const", g, target=0),
        ]
        for f in gadgets:
            chi_e, chi_n = induced_pair_coloring(f)
            emb = find_edge_nonedge_mono_copy(g, pattern, chi_e, chi_n)
            assert emb is not None
            classes = classify_on_set(f, sorted(emb.mapping))
            assert 1 <= len(classes) <= 2


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: CopyColoring(((0, 1),), (), 2), ValueError, "coloring must be total on all copies"),
        (lambda: CopyColoring(((0, 1),), (2,), 2), ValueError, "color out of range"),
        (lambda: CopyColoring((), (), 0), ValueError, "need at least one color"),
        # k is checked before the colors, which no color can satisfy when k = 0
        (lambda: CopyColoring(((0,),), (0,), 0), ValueError, "need at least one color"),
        (lambda: ArrowQuery(path_graph(3), path_graph(2), path_graph(2), 0), ValueError, "need at least one color"),
        (
            lambda: find_edge_nonedge_mono_copy(path_graph(3), path_graph(2), {(0, 1): 0, (1, 2): 0}, {}),
            ValueError,
            "non-edge coloring missing pair (0, 2)",
        ),
        (lambda: ArrowBudget(colorings=-1), ValueError, "coloring budget must be non-negative"),
        (lambda: ArrowBudget(copies=-1), ValueError, "copy budget must be non-negative"),
        (lambda: ArrowBudget(colorings=-1, copies=-1), ValueError, "coloring budget must be non-negative"),
        (
            lambda: enumerate_copies(complete_graph(3), complete_graph(2), budget=-1),
            ValueError,
            "copy budget must be non-negative",
        ),
        (
            lambda: enumerate_copies(empty_graph(3), complete_graph(2), budget=-1),
            ValueError,
            "copy budget must be non-negative",
        ),
    ],
    ids=[
        "not-total", "color-range", "no-colors", "no-colors-with-copies", "query-no-colors", "nonedge-missing",
        "colorings-negative", "copies-negative", "both-negative",
        "enumerate-budget-negative", "enumerate-budget-negative-no-copies",
    ],
)
def test_argument_rejections(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
