import hashlib
import json
import random
import re
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rado_lab import (
    Graph,
    GraphFormatError,
    PairKind,
    build_ec,
    build_paley,
    check_extension,
    complement_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    find_embeddings,
    format_graph,
    pair_kind,
    parse_graph,
    path_graph,
    switch_graph,
)
from rado_lab import graphs
from rado_lab.graphs import (
    BuildBudgetError,
    Embedding,
    edge_code,
    graph_of_code,
    induced_code,
    iter_embedding_maps,
    switch_masks,
)
from conftest import all_raw_graphs, random_graph, relabelled


small_graphs = st.integers(min_value=0, max_value=2**15 - 1).map(
    lambda code: Graph.from_edges(
        6, [p for b, p in enumerate(combinations(range(6), 2)) if code >> b & 1]
    )
)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            Graph.from_edges(-1, [])

    @pytest.mark.parametrize(
        "n, rows, message",
        [
            (-1, (), "vertex count must be non-negative"),
            (2, (0,), "adjacency row count does not match vertex count"),
            (2, (0b100, 0), "row 0 has out-of-range bits"),
            (2, (0, 0b10), "self-loop at vertex 1"),
            (3, (0b110, 0b001, 0), r"adjacency not symmetric at \(0, 2\)"),
        ],
        ids=["negative", "row-count", "out-of-range", "self-loop", "asymmetric"],
    )
    def test_rows_rejected(self, n, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(n, rows)

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
        assert list(g.edges()) == [(0, 1), (1, 3), (2, 3)]

    def test_pair_kind(self):
        g = path_graph(3)
        assert pair_kind(g, 0, 0) is PairKind.EQUAL
        assert pair_kind(g, 0, 1) is PairKind.EDGE
        assert pair_kind(g, 0, 2) is PairKind.NONEDGE

    def test_induced(self):
        g = cycle_graph(5)
        sub = g.induced([0, 1, 3])
        assert list(sub.edges()) == [(0, 1)]

    def test_hashable_structural(self):
        assert complete_graph(3) == complete_graph(3)
        assert len({complete_graph(3), complete_graph(3), empty_graph(3)}) == 2


class TestPaley:
    def test_paley5_is_pentagon(self):
        result = build_paley(5)
        assert sorted(result.graph.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert result.complement_witness == (0, 2, 4, 1, 3)

    def test_paley5_witness_all_ten_pairs(self):
        result = build_paley(5)
        g, w = result.graph, result.complement_witness
        comp = complement_graph(g)
        for u, v in combinations(range(5), 2):
            assert g.has_edge(u, v) == comp.has_edge(w[u], w[v])

    @pytest.mark.parametrize("q", [13, 17, 29])
    def test_self_complementary_witness(self, q):
        result = build_paley(q)
        g, w = result.graph, result.complement_witness
        assert sorted(w) == list(range(q))
        for u, v in combinations(range(q), 2):
            assert g.has_edge(u, v) != g.has_edge(w[u], w[v])

    def test_paley13_two_extension(self, paley13):
        assert check_extension(paley13.graph, 2).passed

    def test_paley29_three_extension(self, paley29):
        assert check_extension(paley29.graph, 3).passed

    @pytest.mark.parametrize("q", [6, 7, 9, 15, 21])
    def test_rejects_bad_modulus(self, q):
        with pytest.raises(ValueError):
            build_paley(q)


class TestCheckExtension:
    def test_k3_fails_at_least_pair(self):
        # no vertex of a triangle has a non-neighbor
        result = check_extension(complete_graph(3), 1)
        assert not result.passed
        assert result.failing == ((), (0,))

    def test_paley5_fails_k2(self):
        assert not check_extension(build_paley(5).graph, 2).passed

    def test_verdict_kept_on_instance(self, monkeypatch):
        g = build_paley(13).graph
        first = check_extension(g, 2), check_extension(g, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("cached verdict scanned again")

        monkeypatch.setattr(graphs, "_failures_of_size", refuse)
        assert (check_extension(g, 2), check_extension(g, 3)) == first
        assert first[0].passed and not first[1].passed
        # the verdict belongs to the instance: an equal graph scans anew
        with pytest.raises(AssertionError, match="scanned again"):
            check_extension(Graph(g.n, tuple(g.row(u) for u in range(g.n))), 2)

    def test_k1_by_definition(self):
        g = build_ec(1, seed=3)
        for v in range(g.n):
            assert any(g.has_edge(v, w) for w in range(g.n) if w != v)
            assert any(not g.has_edge(v, w) for w in range(g.n) if w != v)

    @given(small_graphs, st.integers(min_value=2, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, g, k):
        if check_extension(g, k).passed:
            assert check_extension(g, k - 1).passed


class TestBuildEc:
    @pytest.mark.parametrize("k,seed", [(1, 0), (2, 0), (2, 5)])
    def test_passes_requested_level(self, k, seed):
        g = build_ec(k, seed)
        assert check_extension(g, k).passed

    def test_deterministic(self):
        assert build_ec(2, seed=4) == build_ec(2, seed=4)

    def test_budget_error_reports_partial(self):
        # k = 3: the random start graph already has 72 vertices, so the first
        # round exceeds the budget; k = 2 stops after one repair round; k = 1:
        # the 6-vertex start graph passes but is over the budget
        for k, seed, max_vertices, n, least in [
            (3, 0, 20, 72, ((), (13, 38, 71))),
            (2, 2, 17, 16, ((), (1, 4))),
            (1, 0, 3, 6, None),
        ]:
            with pytest.raises(BuildBudgetError) as info:
                build_ec(k, seed=seed, max_vertices=max_vertices)
            partial = info.value.partial
            assert partial.n == n
            # the least failing pair of a fresh instance, not the first pair
            # of the repair round
            fresh = Graph(partial.n, tuple(partial.row(v) for v in range(partial.n)))
            assert info.value.failing == check_extension(fresh, k).failing == least
            if least is None:
                # the graph an unbounded build returns as it is
                assert partial == build_ec(k, seed=seed)
            else:
                assert not _naive_has_witness(partial, *least)

    @pytest.mark.parametrize(
        "k,seed,digest",
        [
            (3, 0, "01513a88a849d453039a9315eee09b775a8bcd690f18c73df13aba081064ada6"),
            (3, 3, "c33d5fe9a6c01cb69646eb9e93f12e86471047721c7b5c1e30e9545d465b6dfa"),
            (2, 0, "d3966d42d21fbf2e3c57f5461598aec8c10b87557ad42f25b18f024ea3bfee86"),
            (3, 8, "c6423ae973d3f88b55cbcea61b7ebb1293ee55bc1e0203b5b3ac4ded1751d0e3"),
            (3, 26, "f99d4ed12af337e9a010b5685b8176e0b53676f27c62cf146f99b803ee6b1cac"),
            (3, 29, "d573edcb8668590e192254abf08516293018d750d4a9fcc3e2152071bfb2e5d9"),
            (3, 35, "8c7cb9ab6f1738c55c364d1422411aa5cd7ba8b066ba67e0af22a622540cc8fc"),
            (3, 36, "5ebebad706aac376aaca6491ede63b7832854967adb156b893b62d0b31ed0a36"),
        ],
        ids=["k3-s0", "k3-s3", "k2-s0", "k3-s8", "k3-s26", "k3-s29", "k3-s35", "k3-s36"],
    )
    def test_build_bytes_pinned(self, k, seed, digest):
        text = format_graph(build_ec(k, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_benchmark_ec3_seeds_build_75_vertices(self):
        # perfbench's classify workload picks its n=75 hosts from these seeds
        for seed in (0, 3, 8, 26, 29, 35, 36):
            assert build_ec(3, seed).n == 75


def _naive_has_witness(g, u_set, u2):
    support = set(u_set) | set(u2)
    return any(
        all(g.has_edge(w, u) for u in u_set) and not any(g.has_edge(w, v) for v in u2)
        for w in range(g.n)
        if w not in support
    )


def _naive_failures(g, k):
    # (size, U, U') order: every level collected in full, then sorted
    out = []
    for t in range(k + 1):
        level = []
        for size in range(t + 1):
            for u_set in combinations(range(g.n), size):
                rest = [v for v in range(g.n) if v not in u_set]
                for u2 in combinations(rest, t - size):
                    if not _naive_has_witness(g, u_set, u2):
                        level.append((u_set, u2))
        out.extend(sorted(level))
    return out


def _naive_failures_touching(g, k, lo):
    # (size, support, split) order; bit i of split puts support[i] in U'
    out = []
    for t in range(k + 1):
        for support in combinations(range(g.n), t):
            if lo and max(support, default=-1) < lo:
                continue
            for split in range(1 << t):
                u2 = tuple(support[i] for i in range(t) if split >> i & 1)
                u_set = tuple(v for v in support if v not in u2)
                if not _naive_has_witness(g, u_set, u2):
                    out.append((u_set, u2))
    return out


@st.composite
def graphs_up_to_12(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = list(combinations(range(n), 2))
    code = draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
    return Graph.from_edges(n, [p for b, p in enumerate(pairs) if code >> b & 1])


def _assert_same_graph(derived: Graph, validated: Graph):
    assert derived == validated and validated == derived
    assert hash(derived) == hash(validated)
    assert [derived.row(u) for u in range(derived.n)] == [validated.row(u) for u in range(validated.n)]


class TestDerivedConstructors:
    """The constructors that skip ``Graph.__init__``'s checks build the graph
    the validated constructors build."""

    @given(graphs_up_to_12(), st.integers(min_value=0, max_value=2**32 - 1))
    @example(Graph(0, ()), 0)
    @example(Graph(1, (0,)), 0)
    @example(Graph(1, (0,)), 1)
    @settings(max_examples=150, deadline=None)
    def test_match_validated_construction(self, g, seed):
        rng = random.Random(seed)
        n, pairs = g.n, list(combinations(range(g.n), 2))
        _assert_same_graph(empty_graph(n), Graph(n, (0,) * n))
        _assert_same_graph(complete_graph(n), Graph.from_edges(n, pairs))
        _assert_same_graph(complement_graph(g), Graph.from_edges(n, [p for p in pairs if not g.has_edge(*p)]))
        cut = set(rng.sample(range(n), rng.randint(0, n)))
        flipped = [(u, v) for u, v in pairs if g.has_edge(u, v) != ((u in cut) != (v in cut))]
        _assert_same_graph(switch_graph(g, cut), Graph.from_edges(n, flipped))
        vs = rng.sample(range(n), rng.randint(0, n))  # any subset, in any order
        kept = [(i, j) for i, j in combinations(range(len(vs)), 2) if g.has_edge(vs[i], vs[j])]
        _assert_same_graph(g.induced(vs), Graph.from_edges(len(vs), kept))

    @pytest.mark.parametrize("build", [empty_graph, complete_graph])
    def test_negative_vertex_count_rejected(self, build):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            build(-1)


class TestExtensionKernel:
    @given(
        graphs_up_to_12(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=13),
    )
    @example(Graph(0, ()), 1, 0)
    @example(Graph(0, ()), 3, 1)
    @example(complete_graph(2), 4, 1)
    @example(empty_graph(3), 4, 2)
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_oracle(self, g, k, lo):
        want = _naive_failures(g, k)
        assert list(_sorted_failures(g, k)) == want
        touching = [pair for t in range(k + 1) for pair in graphs._failures_of_size(g, t, lo)]
        assert touching == _naive_failures_touching(g, k, lo)
        # a fresh instance, so no verdict kept on g is reused
        result = check_extension(Graph(g.n, tuple(g.row(v) for v in range(g.n))), k)
        assert (result.passed, result.failing) == (not want, want[0] if want else None)
        for t in range(k + 1):
            level = [(u_set, u2) for u_set, u2 in want if len(u_set) + len(u2) == t]
            assert graphs._least_failure(g, t) == (level[0] if level else None)


def _naive_failures_of_size(g: Graph, t: int, lo: int, through: tuple[int, ...]):
    # (support, split) order over the t-vertex supports that contain
    # ``through`` and end at or above lo; bit i of split puts support[i] in
    # U', and a pair fails when no vertex outside its support is adjacent to
    # all of U and to none of U'
    out = []
    for support in combinations(range(g.n), t):
        if support[-1] < lo or not set(through) <= set(support):
            continue
        for split in range(1 << t):
            u2 = tuple(support[i] for i in range(t) if split >> i & 1)
            u_set = tuple(v for v in support if v not in u2)
            witnesses = g.full_mask
            for u in u_set:
                witnesses &= g.row(u)
            for v in (*u2, *support):
                witnesses &= ~(1 << v)
            for v in u2:
                witnesses &= ~g.row(v)
            if not witnesses:
                out.append((u_set, u2))
    return out


class TestExtensionKernelWindows:
    """The last level of the kernel on graphs large enough for its packed
    test, and on the narrow windows that ``lo`` and ``through`` leave,
    where a narrow ``lo`` swaps the last two levels."""

    @pytest.mark.parametrize(
        "n, t, density",
        [
            (40, 1, 0.5),
            (40, 2, 0.2),
            (40, 2, 0.5),
            (40, 3, 0.2),
            (40, 3, 0.5),
            (27, 3, 0.8),
            (16, 4, 0.5),
            (22, 4, 0.5),
        ],
    )
    def test_yields_the_naive_sequence(self, n, t, density, monkeypatch):
        rng = random.Random(f"{n}:{t}:{density}")
        g = Graph.from_edges(n, [p for p in combinations(range(n), 2) if rng.random() < density])
        packed_windows = []
        emptying_candidates = graphs._emptying_candidates

        def recorded(h, masks, start):
            packed_windows.append(start)
            return emptying_candidates(h, masks, start)

        monkeypatch.setattr(graphs, "_emptying_candidates", recorded)
        swapped_cuts = set()
        rescan_candidates = graphs._rescan_candidates

        def recorded_swap(h, masks, start, lo):
            swapped_cuts.add(lo)
            return rescan_candidates(h, masks, start, lo)

        monkeypatch.setattr(graphs, "_rescan_candidates", recorded_swap)
        # full-range windows, one-field windows and a cut in between, then
        # the cuts of build_ec's rounds that add two or three vertices
        cuts = (0, n - 1, rng.randrange(1, n - 1), n - 2, n - 3)
        for lo in cuts:
            assert list(graphs._failures_of_size(g, t, lo)) == _naive_failures_of_size(g, t, lo, ())
        # the representative bases of _first_failing_level
        a = next(v for v in range(1, n) if g.has_edge(0, v))
        b = next(v for v in range(1, n) if not g.has_edge(0, v))
        for base in ((0, a), (0, b)) if t >= 2 else ((0,), (a,)):
            assert list(graphs._failures_of_size(g, t, through=base)) == _naive_failures_of_size(g, t, 0, base)
        assert bool(packed_windows) == (n > 20)
        # the swapped last two levels run on packed graphs at a narrow cut
        assert swapped_cuts == {lo for lo in cuts if n > 20 and t >= 2 and n - lo <= 6}


def _circulant(n: int, steps) -> Graph:
    return Graph.from_edges(n, sorted({tuple(sorted((u, (u + s) % n))) for u in range(n) for s in steps}))


def _quartic_circulant(p: int) -> Graph:
    # p prime, p = 1 mod 8: x ~ y iff x - y is a fourth power or a fixed
    # non-square times one.  The maps x -> cx + t, c a fourth power, act on
    # it, so it is vertex-transitive, but it is not strongly regular
    fourth = {pow(x, 4, p) for x in range(1, p)}
    squares = {pow(x, 2, p) for x in range(1, p)}
    c = min(x for x in range(2, p) if x not in squares)
    return _circulant(p, fourth | {c * x % p for x in fourth})


# the 4x4 rook's graph (rank 3) and the Shrikhande graph (vertex-transitive,
# not rank 3): both strongly regular with parameters (16, 6, 2, 2)
ROOK = Graph.from_edges(
    16, [(u, v) for u, v in combinations(range(16), 2) if (u // 4 == v // 4) != (u % 4 == v % 4)]
)
SHRIKHANDE = Graph.from_edges(
    16,
    [
        (u, v)
        for u, v in combinations(range(16), 2)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    ],
)


# sha256 over the JSON of [q, seed, k, passed, failing, generators] in
# TestSymmetryPath.test_relabelled_paley_certificates_pinned
PALEY_CERTIFICATES = "6a133f8d38531e3cea249e4e91a81b446b7c4e11aed9079969b1f3da0f25b163"


def _sorted_failures(g: Graph, k: int):
    # the full-scan reference: every failing pair with |U|+|U'| <= k in
    # (size, U, U') order, each level found in full and sorted
    for t in range(k + 1):
        yield from sorted(graphs._failures_of_size(g, t))


def _full_scan(g: Graph, k: int):
    return next(_sorted_failures(g, k), None)


def _assert_matches_full_scan(g: Graph, k: int):
    # a fresh instance, so no verdict kept on g is reused
    result = check_extension(Graph(g.n, tuple(g.row(v) for v in range(g.n))), k)
    want = _full_scan(g, k)
    assert (result.passed, result.failing) == (want is None, want)
    if result.generators:
        _assert_rank_3(g, result.generators)
    return result


def _least_neighbour_and_non_neighbour(g: Graph) -> tuple[int, int]:
    return (
        next(v for v in range(1, g.n) if g.has_edge(0, v)),
        next(v for v in range(1, g.n) if not g.has_edge(0, v)),
    )


@pytest.fixture()
def no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("automorphism search started")

    monkeypatch.setattr(graphs, "iter_embedding_maps", refuse)


def _orbit(gens, start: int) -> set[int]:
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for perm in gens:
            if perm[v] not in seen:
                seen.add(perm[v])
                todo.append(perm[v])
    return seen


def _assert_rank_3(g: Graph, gens):
    # with has_edge alone and naive orbits: the generators are automorphisms,
    # their group is transitive on vertices, and the maps among them that fix
    # 0 are transitive on the neighbours and on the non-neighbours of 0
    assert gens
    for perm in gens:
        assert sorted(perm) == list(range(g.n))
        for u, v in combinations(range(g.n), 2):
            assert g.has_edge(u, v) == g.has_edge(perm[u], perm[v])
    assert _orbit(gens, 0) == set(range(g.n))
    neighbours = {v for v in range(g.n) if g.has_edge(0, v)}
    others = set(range(1, g.n)) - neighbours
    stabiliser = [perm for perm in gens if perm[0] == 0]
    assert _orbit(stabiliser, min(neighbours)) == neighbours
    assert _orbit(stabiliser, min(others)) == others


@st.composite
def regular_graphs(draw):
    # a circulant of about half density, perhaps with one degree-preserving
    # swap of two edges (which usually leaves no symmetry), under a random
    # labelling; on 13 to 17 vertices about half of them pass level 2 and so
    # reach the symmetry path at level 3
    n = draw(st.integers(min_value=13, max_value=17))
    steps = draw(st.permutations(range(1, n // 2 + 1)))[: (n // 2 + 1) // 2]
    edges = {tuple(sorted((u, (u + s) % n))) for u in range(n) for s in steps}
    swap = draw(st.booleans())
    if swap:
        (a, b), (c, d) = draw(st.permutations(sorted(edges)))[:2]
        new = {tuple(sorted((a, c))), tuple(sorted((b, d)))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = (edges - {(a, b), (c, d)}) | new
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


class TestSymmetryPath:
    @pytest.mark.parametrize("q", [13, 17, 29, 37, 41, 53, 61])
    def test_relabelled_paley_matches_full_scan(self, q):
        g = relabelled(build_paley(q).graph, q)
        assert _assert_matches_full_scan(g, 2).generators == ()
        result = _assert_matches_full_scan(g, 3)
        # Paley(q) is 3-e.c. from q = 29 on, and then the certificate stands in
        # for level 3; Paley(13) and (17) fail at a representative support
        assert result.passed == bool(result.generators) == (q >= 29)

    @pytest.mark.parametrize("q", [13, 17])
    def test_failing_paley_never_searches(self, q, no_search):
        g = relabelled(build_paley(q).graph, 1)
        assert not _assert_matches_full_scan(g, 3).passed
        assert _assert_matches_full_scan(g, 4).failing == _full_scan(g, 3)

    def test_relabelled_paley_certificates_pinned(self):
        # verdicts, least pairs and generators of relabelled Paley graphs.  The
        # digest was taken with the vertex-transitive fallback and the
        # strong-regularity gate still in place: these hosts need neither
        out = []
        for q in (13, 17, 29, 37, 41, 53, 61):
            for seed in range(2):
                for k in (3, 4) if q <= 41 else (3,):
                    r = check_extension(relabelled(build_paley(q).graph, 100 * q + seed), k)
                    out.append([q, seed, k, r.passed, r.failing, r.generators])
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        assert digest == PALEY_CERTIFICATES

    @pytest.mark.parametrize("g", [ROOK, SHRIKHANDE], ids=["rook", "shrikhande"])
    def test_srg16_fail_at_level_3(self, g):
        for seed in range(3):
            h = relabelled(g, seed)
            result = _assert_matches_full_scan(h, 3)
            assert len(result.failing[0] + result.failing[1]) == 3
            assert result.generators == ()

    @pytest.mark.parametrize("n, steps", [(24, (3, 4, 8)), (30, (1, 4, 5, 6, 9, 10, 12, 14)), (41, (3, 4, 6, 8, 9, 13, 16))])
    def test_failing_circulants(self, n, steps):
        result = _assert_matches_full_scan(relabelled(_circulant(n, steps), n), 3)
        assert not result.passed and result.generators == ()

    @pytest.mark.parametrize("p", [41])
    def test_vertex_transitive_circulant_passes_by_its_orbit(self, p):
        # the rotations make vertex 0 represent every vertex, and every
        # support through 0 passes level 3; vertex transitivity alone is no
        # certificate, so the verdict comes from the full scan
        g = relabelled(_quartic_circulant(p), p)
        assert graphs._first_failing_level(g, range(3, 4), ((0,),)) == 4
        result = _assert_matches_full_scan(g, 3)
        assert result.passed and result.generators == ()

    @pytest.mark.parametrize(
        "g, passed",
        [
            (_quartic_circulant(41), True),
            (relabelled(_quartic_circulant(73), 73), True),
            (_circulant(25, (1, 3, 8, 9, 10, 12)), False),
        ],
        ids=["quartic41", "quartic73", "circulant25"],
    )
    def test_rank3_gate_on_a_graph_that_is_not_rank_3(self, g, passed):
        # every representative support through {0, a} or {0, b} passes, but
        # these vertex-transitive hosts are not rank 3, so the search proves
        # nothing and level 3 is scanned in full: the circulant on 25
        # vertices fails it only at supports through neither, as labelled here
        a, b = _least_neighbour_and_non_neighbour(g)
        assert graphs._first_failing_level(g, range(3, 4), ((0, a), (0, b))) == 4
        assert graphs._automorphisms(g, a, b, 10**6) == ()
        result = _assert_matches_full_scan(g, 3)
        assert result.passed == passed and result.generators == ()

    @pytest.mark.parametrize("q", [29, 41])
    def test_regular_graph_without_symmetry_scans_in_full(self, q, monkeypatch):
        # Paley(q) with edges 0-b and c-d traded for 0-c and b-d stays
        # regular and 3-e.c., but no map of 0 onto every vertex is left
        g = build_paley(q).graph
        edges = set(g.edges())
        (_, b), (c, d) = next(
            (e, f) for e, f in combinations(sorted(edges), 2)
            if e[0] == 0 and len({*e, *f}) == 4 and not {(0, f[0]), tuple(sorted((e[1], f[1])))} & edges
        )
        h = relabelled(Graph.from_edges(q, (edges - {(0, b), (c, d)}) | {(0, c), tuple(sorted((b, d)))}), q)
        searched = []
        automorphisms = graphs._automorphisms

        def recorded(*args):
            searched.append(automorphisms(*args))
            return searched[-1]

        monkeypatch.setattr(graphs, "_automorphisms", recorded)
        result = _assert_matches_full_scan(h, 3)
        assert result.passed and result.generators == ()
        assert searched == [()]
        # not for want of budget
        assert automorphisms(h, *_least_neighbour_and_non_neighbour(h), 10**6) == ()

    def test_signatures_only_for_roots_that_search(self, monkeypatch):
        # on relabelled Paley hosts the neighbour loop alone makes the
        # stabiliser transitive on the non-neighbours too, so only the root a
        # has its signatures computed: every other _pin_signatures call is
        # the one each pinned search makes for its images
        calls, searches = [], []
        signatures, pin_masks = graphs._pin_signatures, graphs._pin_masks
        monkeypatch.setattr(graphs, "_pin_signatures", lambda *args: calls.append(args) or signatures(*args))
        monkeypatch.setattr(graphs, "_pin_masks", lambda *args: searches.append(args) or pin_masks(*args))
        for q in (29, 37):
            for seed in range(3):
                calls.clear(), searches.clear()
                g = relabelled(build_paley(q).graph, seed)
                assert check_extension(g, 3).generators
                a, _ = _least_neighbour_and_non_neighbour(g)
                assert len(calls) == len(searches) + 1
                assert calls[0] == (g, [0, a])

    def test_pin_masks_keep_every_automorphism(self):
        # the maps x -> sx + t, s a nonzero square, are automorphisms of
        # Paley(29): pinned at one or two of their values, each keeps every
        # vertex inside its candidate mask
        q = 29
        g = build_paley(q).graph
        for s in sorted({x * x % q for x in range(1, q)}):
            for t in (0, 1, 17):
                sigma = [(s * x + t) % q for x in range(q)]
                for pinned in ((0,), (0, 1), (0, 2), (3, 5)):
                    pins = {p: sigma[p] for p in pinned}
                    masks = graphs._pin_masks(g, pins, graphs._pin_signatures(g, list(pins)))
                    assert all(masks[v] >> sigma[v] & 1 for v in range(q))

    @pytest.mark.parametrize("k", [2, 3])
    def test_build_ec_and_random_graphs_never_search(self, k, ec3_host, no_search):
        for seed in range(4):
            _assert_matches_full_scan(build_ec(2, seed), k)
        for n in range(10, 17):
            _assert_matches_full_scan(random_graph(n, n), k)
        _assert_matches_full_scan(ec3_host, k)

    def test_out_of_budget_scans_in_full(self, monkeypatch):
        g = relabelled(build_paley(29).graph, 5)
        assert graphs._automorphisms(g, *_least_neighbour_and_non_neighbour(g), 0) == ()
        budgeted = graphs._BudgetedHost
        monkeypatch.setattr(graphs, "_BudgetedHost", lambda h, budget: budgeted(h, 30))
        result = _assert_matches_full_scan(g, 3)
        assert result.passed and result.generators == ()

    def test_map_that_is_no_automorphism_is_not_used(self, monkeypatch):
        g = relabelled(build_paley(29).graph, 6)
        swap01 = (1, 0) + tuple(range(2, g.n))
        assert not graphs._is_automorphism(g, swap01)
        monkeypatch.setattr(graphs, "iter_embedding_maps", lambda *args, **kwargs: iter([swap01]))
        result = _assert_matches_full_scan(g, 3)
        assert result.passed and result.generators == ()

    def test_is_automorphism_refuses_a_map_that_is_no_permutation(self):
        g = relabelled(build_paley(13).graph, 2)
        identity = tuple(range(g.n))
        assert graphs._is_automorphism(g, identity)
        assert not graphs._is_automorphism(g, identity[:-1])
        assert not graphs._is_automorphism(g, identity + (g.n,))
        assert not graphs._is_automorphism(g, (0,) + identity[:-1])  # 0 twice, n - 1 never

    @given(regular_graphs())
    @settings(max_examples=25, deadline=None)
    def test_regular_graphs_match_naive_oracle(self, g):
        assume(check_extension(g, 2).passed)
        result = check_extension(g, 3)
        want = _naive_failures(g, 3)
        assert (result.passed, result.failing) == (not want, want[0] if want else None)
        if result.generators:
            _assert_rank_3(g, result.generators)

    @given(regular_graphs())
    @settings(max_examples=25, deadline=None)
    def test_regular_graphs_failing_below_level_3_match_naive_oracle(self, g):
        # hosts that fail level 1 or 2 meet the representative scans, and
        # perhaps a search, before the full scan
        result = check_extension(g, 3)
        want = _naive_failures(g, 3)
        assert (result.passed, result.failing) == (not want, want[0] if want else None)
        if want and len(want[0][0] + want[0][1]) < 3:
            assert result.generators == ()
        if result.generators:
            _assert_rank_3(g, result.generators)

    @pytest.mark.parametrize("q", [29, 61])
    def test_passing_paley_scans_representatives_only(self, q, monkeypatch):
        # the certificate covers levels 0-2 as well as level 3, so every scan
        # is one through a representative support
        g = relabelled(build_paley(q).graph, q + 1)
        throughs = []
        failures_of_size = graphs._failures_of_size

        def recorded(h, t, lo=0, through=()):
            throughs.append(through)
            return failures_of_size(h, t, lo, through)

        monkeypatch.setattr(graphs, "_failures_of_size", recorded)
        result = check_extension(g, 3)
        assert result.passed and result.generators
        assert throughs and all(throughs)


class TestSymmetryCertificate:
    """Re-checks the generators a passing verdict relied on with has_edge
    alone, and recomputes their orbits without union-find."""

    @pytest.mark.parametrize("q", [29, 37, 41])
    def test_paley_certificate_is_rank_3(self, q):
        g = relabelled(build_paley(q).graph, 7 * q)
        _assert_rank_3(g, check_extension(g, 3).generators)


class _RowCounter(Graph):
    """A host that counts the adjacency rows read through ``row``."""

    __slots__ = ("reads",)

    def __init__(self, g: Graph):
        super().__init__(g.n, tuple(g.row(v) for v in range(g.n)))
        self.reads = 0

    def row(self, u: int) -> int:
        self.reads += 1
        return super().row(u)


def _naive_candidates(pattern, host, allowed, per_vertex, fixed):
    out = []
    for u in range(pattern.n):
        c = set(range(host.n))
        if allowed is not None:
            c = {h for h in c if allowed >> h & 1}
        if per_vertex is not None and u in per_vertex:
            c = {h for h in c if per_vertex[u] >> h & 1}
        if fixed is not None and u in fixed:
            c &= {fixed[u]}
        out.append(c)
    return out


def _naive_embeddings(pattern, host, cands, order):
    # every injective map in lexicographic order, filtered by the definition
    m = pattern.n
    return [
        p
        for p in permutations(range(host.n), m)
        if all(p[u] in cands[u] for u in range(m))
        and all(p[a] < p[b] for a, b in order)
        and all(pattern.has_edge(u, v) == host.has_edge(p[u], p[v]) for u, v in combinations(range(m), 2))
    ]


def _naive_row_reads(pattern, host, cands, order):
    # The rows a forward-checking search reads: one per search node that
    # assigns a pattern vertex other than the last.  A node is visited when
    # its host vertex fits after its prefix and every later pattern vertex
    # still has a fitting host vertex after that prefix.
    m, n = pattern.n, host.n
    if m == 0:
        return 0
    reads = 0

    def fits(prefix, v, h):
        return (
            h in cands[v]
            and h not in prefix
            and all(h < prefix[b] for a, b in order if a == v and b < len(prefix))
            and all(prefix[a] < h for a, b in order if b == v and a < len(prefix))
            and all(pattern.has_edge(w, v) == host.has_edge(x, h) for w, x in enumerate(prefix))
        )

    def forward_ok(prefix):
        return all(any(fits(prefix, v, h) for h in range(n)) for v in range(len(prefix), m))

    level = [()]
    for _ in range(m - 1):
        level = [p + (h,) for p in level if forward_ok(p) for h in range(n) if fits(p, len(p), h)]
        reads += len(level)
    return reads


@st.composite
def embedding_instances(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    m = draw(st.integers(min_value=0, max_value=n + 2))  # a pattern may outgrow the host

    def graph(size):
        pairs = list(combinations(range(size), 2))
        code = draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
        return Graph.from_edges(size, [p for b, p in enumerate(pairs) if code >> b & 1])

    host, pattern = graph(n), graph(m)
    masks = st.integers(min_value=0, max_value=2 ** (n + 1) - 1)  # one bit past the host
    keys = st.integers(min_value=0, max_value=m)  # one pattern vertex too many
    kwargs = {
        "allowed": draw(st.none() | masks),
        "per_vertex": draw(st.none() | st.dictionaries(keys, masks)),
        "fixed": draw(st.none() | st.dictionaries(keys, st.integers(min_value=0, max_value=n))),
        # pairs (a, b) demanding map[a] < map[b], either way round
        "order": draw(
            st.lists(
                st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda p: p[0] != p[1]),
                max_size=4,
            )
            if m >= 2
            else st.just([])
        ),
    }
    if draw(st.booleans()):
        # an order-preserving map, as ordered structures demand
        kwargs["order"] += list(combinations(range(m), 2))
    return pattern, host, kwargs


_NO_RESTRICTION = {"allowed": None, "per_vertex": None, "fixed": None, "order": ()}


class TestEmbeddingKernel:
    @given(embedding_instances())
    @example((empty_graph(0), empty_graph(3), _NO_RESTRICTION))
    @example((switch_graph(cycle_graph(5), {0}), cycle_graph(5), _NO_RESTRICTION))
    @example((cycle_graph(5), cycle_graph(5), _NO_RESTRICTION))
    @example((complete_graph(3), complete_graph(6), {**_NO_RESTRICTION, "allowed": 0b000111}))
    @example((path_graph(3), complete_graph(4), {**_NO_RESTRICTION, "order": list(combinations(range(3), 2))}))
    # an order pair both ways round admits no map
    @example((complete_graph(2), complete_graph(3), {**_NO_RESTRICTION, "order": [(0, 1), (1, 0)]}))
    @example((cycle_graph(4), cycle_graph(6), {**_NO_RESTRICTION, "order": [(2, 0), (1, 3)]}))
    # mapping the centre 0 to host vertex 1 empties the mask of pattern
    # vertex 2 (only host vertex 3) while vertex 1 still has candidates
    @example((Graph.from_edges(3, [(0, 1), (0, 2)]), path_graph(4), {**_NO_RESTRICTION, "per_vertex": {2: 0b1000}}))
    # a pattern larger than its host makes each packed field wider than
    # n + 1 bits: a field's emptiness is read at its bit n, not at its top
    @example((path_graph(4), path_graph(3), {**_NO_RESTRICTION, "per_vertex": {3: 0b001}}))
    # the last two levels close in one loop: with m = 2 it is level 0, with
    # m = 1 there is no row to read
    @example((path_graph(2), cycle_graph(5), _NO_RESTRICTION))
    @example((empty_graph(2), cycle_graph(5), {**_NO_RESTRICTION, "allowed": 0b11011}))
    @example((complete_graph(1), path_graph(3), {**_NO_RESTRICTION, "allowed": 0b101}))
    # a down bound on that level, and a pair both ways round there
    @example((complete_graph(2), complete_graph(4), {**_NO_RESTRICTION, "order": [(1, 0)]}))
    @example((path_graph(3), cycle_graph(6), {**_NO_RESTRICTION, "order": [(2, 1)]}))
    @example((empty_graph(3), empty_graph(5), {**_NO_RESTRICTION, "order": [(1, 2), (2, 1)]}))
    # a pin on the last vertex only
    @example((path_graph(3), path_graph(5), {**_NO_RESTRICTION, "per_vertex": {2: 0b00100}}))
    # patterns larger than their hosts, with no restriction
    @example((complete_graph(4), complete_graph(3), _NO_RESTRICTION))
    @example((empty_graph(2), empty_graph(1), _NO_RESTRICTION))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_oracle(self, instance):
        pattern, host, kwargs = instance
        counter = _RowCounter(host)
        cands = _naive_candidates(pattern, host, kwargs["allowed"], kwargs["per_vertex"], kwargs["fixed"])
        # the kernel takes each drawn pin as a one-bit per-vertex mask
        per_vertex = kwargs["per_vertex"]
        if kwargs["fixed"] is not None:
            per_vertex = dict(per_vertex or {})
            for u, h in kwargs["fixed"].items():
                per_vertex[u] = per_vertex.get(u, -1) & 1 << h
        search = {"allowed": kwargs["allowed"], "per_vertex": per_vertex, "order": kwargs["order"]}
        assert list(iter_embedding_maps(pattern, counter, **search)) == _naive_embeddings(
            pattern, host, cands, kwargs["order"]
        )
        # forward checking reads exactly these rows
        assert counter.reads == _naive_row_reads(pattern, host, cands, kwargs["order"])

    @pytest.mark.parametrize(
        "pattern, order",
        [
            (path_graph(3), [(0, 2)]),
            (cycle_graph(4), [(0, 1), (0, 3)]),
            (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), [(1, 2), (2, 3)]),
            (Graph.from_edges(4, [(0, 1), (2, 3)]), [(3, 0)]),
        ],
        ids=["P3", "C4", "K13", "2K2"],
    )
    def test_matches_naive_oracle_on_paley29(self, paley29, pattern, order):
        # each packed field is 30 bits or more wide, past one CPython digit;
        # relabelled, so that consecutive vertices are not always adjacent
        g = relabelled(paley29.graph, 29)
        host = _RowCounter(g)
        allowed, per_vertex = g.full_mask ^ 0b1011 << 9, {1: 0b111 << 4}
        cands = _naive_candidates(pattern, g, allowed, per_vertex, None)
        maps = list(iter_embedding_maps(pattern, host, allowed=allowed, per_vertex=per_vertex, order=order))
        assert maps and maps == _naive_embeddings(pattern, g, cands, order)
        assert host.reads == _naive_row_reads(pattern, g, cands, order)

    def test_row_reads_of_triangles_in_paley17(self):
        # one read per vertex for the first level, one per edge up from it
        # for the second; the triangles themselves read none
        g = relabelled(build_paley(17).graph, 17)
        host = _RowCounter(g)
        order = list(combinations(range(3), 2))
        cands = [set(range(17))] * 3
        maps = list(iter_embedding_maps(complete_graph(3), host, order=order))
        assert len(maps) == 68 and maps == _naive_embeddings(complete_graph(3), g, cands, order)
        assert host.reads == _naive_row_reads(complete_graph(3), g, cands, order) == 17 + 68

    @pytest.mark.parametrize("pair", [(1, 1), (0, 3), (-1, 0)])
    def test_order_pairs_name_two_pattern_vertices(self, pair):
        with pytest.raises(ValueError):
            next(iter_embedding_maps(path_graph(3), complete_graph(4), order=[pair]))

    def test_isomorphism_case_is_cut_by_degrees(self, paley13):
        # switching one vertex of a regular host leaves degrees no host
        # vertex has, so no map exists; forward checking alone finds that
        # only after searching, and reads the rows its oracle predicts
        pattern = switch_graph(paley13.graph, {0})
        host = _RowCounter(paley13.graph)
        assert list(iter_embedding_maps(pattern, host)) == []
        cands = [set(range(13))] * 13
        assert host.reads == _naive_row_reads(pattern, paley13.graph, cands, ()) == 481


class TestEmbeddings:
    def test_single_vertex_everywhere(self):
        host = cycle_graph(5)
        embs = find_embeddings(complete_graph(1), host, 10)
        assert [e.mapping for e in embs] == [(v,) for v in range(5)]

    def test_no_triangle_in_c5(self):
        assert find_embeddings(complete_graph(3), cycle_graph(5), 5) == []

    def test_no_induced_path_in_k3(self):
        assert find_embeddings(path_graph(3), complete_graph(3), 5) == []

    def test_lexicographic_order(self):
        embs = find_embeddings(complete_graph(2), complete_graph(3), 10)
        assert [e.mapping for e in embs] == [
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
        ]

    def test_embeddings_verify(self, paley13):
        for emb in find_embeddings(path_graph(4), paley13.graph, 25):
            assert emb.verify()

    def test_limit_respected(self, paley13):
        assert len(find_embeddings(complete_graph(2), paley13.graph, 7)) == 7

    def test_construction_rejects_non_embeddings(self):
        # a non-edge onto an edge, a collapse, a map missing a vertex
        for target, mapping in ((complete_graph(3), (0, 1, 2)), (path_graph(4), (0, 0, 1)), (path_graph(4), (0, 1))):
            with pytest.raises(ValueError, match="is not an induced embedding"):
                Embedding(path_graph(3), target, mapping)


@st.composite
def graph_and_vertices(draw):
    # a graph on 0..12 vertices and distinct vertices of it, in any order
    g = draw(graphs_up_to_12())
    vs = draw(st.permutations(range(g.n)))
    return g, tuple(vs[: draw(st.integers(min_value=0, max_value=g.n))])


def _naive_induced_code(g: Graph, vs) -> int:
    # bit b is the b-th position pair (i, j), i < j, in (0, 1), (0, 2), ...,
    # (1, 2), ... order, set when g has the edge vs[i] vs[j]
    code = bit = 0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if g.has_edge(vs[i], vs[j]):
                code |= 1 << bit
            bit += 1
    return code


class TestEdgeCodes:
    @given(graph_and_vertices())
    @example((Graph(0, ()), ()))
    @example((Graph(1, (0,)), ()))
    @example((Graph(1, (0,)), (0,)))
    @example((path_graph(3), (2, 0, 1)))
    @settings(max_examples=200, deadline=None)
    def test_induced_code_matches_has_edge(self, case):
        g, vs = case
        assert g.rows == tuple(g.row(u) for u in range(g.n))
        assert induced_code(g.rows, vs) == _naive_induced_code(g, vs)
        assert induced_code(g.rows, vs) == edge_code(g.induced(vs))
        assert edge_code(g) == _naive_induced_code(g, range(g.n))

    def test_round_trip_every_small_graph(self):
        for n in range(6):
            for g in all_raw_graphs(n):
                assert graph_of_code(n, edge_code(g)) == g
        # bit b is the b-th pair of combinations(range(4), 2): (0, 2) and (2, 3)
        assert edge_code(Graph.from_edges(4, [(0, 2), (2, 3)])) == 0b100010

    def test_switch_masks_switch_one_vertex(self):
        for n in range(6):
            masks = switch_masks(n)
            assert len(masks) == n
            for g in all_raw_graphs(n):
                for v, mask in enumerate(masks):
                    assert edge_code(switch_graph(g, {v})) == edge_code(g) ^ mask


class TestRewrites:
    def test_switch_k3_at_vertex(self):
        g = switch_graph(complete_graph(3), {0})
        assert list(g.edges()) == [(1, 2)]

    def test_switch_empty_makes_star(self):
        g = switch_graph(empty_graph(3), {0})
        assert list(g.edges()) == [(0, 1), (0, 2)]

    def test_switch_identity_cuts(self):
        g = cycle_graph(5)
        assert switch_graph(g, set()) == g
        assert switch_graph(g, range(5)) == g

    def test_complement_k3(self):
        assert complement_graph(complete_graph(3)) == empty_graph(3)

    def test_c5_self_complementary(self):
        g = cycle_graph(5)
        comp = complement_graph(g)
        w = [2 * x % 5 for x in range(5)]
        for u, v in combinations(range(5), 2):
            assert g.has_edge(u, v) == comp.has_edge(w[u], w[v])

    def test_involutions_exhaustive_small(self):
        for n in range(1, 5):
            for g in all_raw_graphs(n):
                assert complement_graph(complement_graph(g)) == g
                for v in range(n):
                    assert switch_graph(switch_graph(g, {v}), {v}) == g

    @given(small_graphs, st.sets(st.integers(min_value=0, max_value=5)))
    @settings(max_examples=60, deadline=None)
    def test_switch_involution(self, g, s):
        assert switch_graph(switch_graph(g, s), s) == g

    def test_involutions_random_8(self):
        for seed in range(10):
            g = random_graph(8, seed)
            assert complement_graph(complement_graph(g)) == g
            assert switch_graph(switch_graph(g, {1, 3}), {1, 3}) == g


class TestTextFormat:
    def test_round_trip(self, paley13):
        g = paley13.graph
        assert parse_graph(format_graph(g)) == g

    def test_format_shape(self):
        assert format_graph(path_graph(3)) == "n 3\n0 1\n1 2\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x 3\n",
            "n 3\n0 0\n",
            "n 3\n0 5\n",
            "n 3\n1 0\n",
            "n 3\n0 1\n0 1\n",
            "n 3\n0 1 2\n",
            "n 3\na b\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: graphs.cycle_graph(2), ValueError, "cycle needs at least 3 vertices"),
        (lambda: graphs.switch_graph(graphs.path_graph(3), [1, 3]), ValueError, "switch set vertex 3 out of range"),
        (lambda: graphs.build_paley(1), ValueError, "q=1 is not prime"),
        (lambda: graphs.build_ec(0), ValueError, "k must be at least 1"),
        (lambda: graphs.find_embeddings(graphs.path_graph(2), graphs.path_graph(3), 0), ValueError, "limit must be at least 1"),
        (lambda: graphs.parse_graph("n x\n"), GraphFormatError, "line 1: vertex count is not an integer"),
        (lambda: graphs.parse_graph("n -1\n"), GraphFormatError, "line 1: negative vertex count"),
        (
            lambda: graphs.Embedding(graphs.path_graph(2), graphs.path_graph(3), (0, 1, 1)),
            ValueError,
            "map (0, 1, 1) is not an induced embedding of source into target",
        ),
        (
            lambda: graphs.Embedding(graphs.empty_graph(1), graphs.complete_graph(3), (7,)),
            ValueError,
            "map (7,) is not an induced embedding of source into target",
        ),
        (
            lambda: graphs.Embedding(graphs.empty_graph(2), graphs.complete_graph(3), (5, 9)),
            ValueError,
            "map (5, 9) is not an induced embedding of source into target",
        ),
    ],
    ids=[
        "cycle-2", "switch-range", "paley-1", "ec-k0", "embeddings-limit0",
        "header-not-integer", "header-negative", "embedding-long-map", "embedding-image-range",
        "embedding-images-range",
    ],
)
def test_argument_rejections(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
