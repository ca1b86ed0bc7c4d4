import hashlib
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rado_lab import (
    Graph,
    GraphFormatError,
    PairKind,
    PartialIso,
    build_ec,
    build_paley,
    check_extension,
    complement_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    extend_partial_iso,
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
    _iter_failures_touching,
    iter_embedding_maps,
    iter_extension_failures,
)
from conftest import all_raw_graphs, random_graph


small_graphs = st.integers(min_value=0, max_value=2**15 - 1).map(
    lambda code: Graph.from_edges(
        6, [p for b, p in enumerate(combinations(range(6), 2)) if code >> b & 1]
    )
)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

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
        with pytest.raises(BuildBudgetError) as info:
            build_ec(3, seed=0, max_vertices=20)
        # the random start graph already has 72 vertices, so the first round
        # exceeds the budget
        partial, (u_set, u2) = info.value.partial, info.value.failing
        assert partial.n == 72
        assert not _naive_has_witness(partial, u_set, u2)

    @pytest.mark.parametrize(
        "k,seed,digest",
        [
            (3, 0, "01513a88a849d453039a9315eee09b775a8bcd690f18c73df13aba081064ada6"),
            (3, 3, "c33d5fe9a6c01cb69646eb9e93f12e86471047721c7b5c1e30e9545d465b6dfa"),
            (2, 0, "d3966d42d21fbf2e3c57f5461598aec8c10b87557ad42f25b18f024ea3bfee86"),
        ],
        ids=["k3-s0", "k3-s3", "k2-s0"],
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
        assert list(iter_extension_failures(g, k)) == _naive_failures(g, k)
        assert list(_iter_failures_touching(g, k, lo)) == _naive_failures_touching(g, k, lo)


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
    # The rows a forward-checking search with the degree filter reads: one
    # per vertex of avail when the filter runs, plus one per search node that
    # assigns a pattern vertex other than the last.  A node is visited when
    # its host vertex fits after its prefix and every later pattern vertex
    # still has a fitting host vertex after that prefix.
    m, n = pattern.n, host.n
    if m == 0:
        return 0
    cands = [set(c) for c in cands]
    avail = set().union(*cands)
    pdeg = [sum(pattern.has_edge(u, v) for v in range(m) if v != u) for u in range(m)]
    hdeg = [sum(host.has_edge(h, x) for x in range(n) if x != h) for h in range(n)]
    lo, hi = min(hdeg, default=0), max(hdeg, default=0)
    outside = n - len(avail)
    reads = 0
    if max(pdeg) > lo - outside or m - 1 - min(pdeg) > n - 1 - hi - outside:
        reads += len(avail)
        inside = {h: sum(host.has_edge(h, x) for x in avail) for h in avail}
        cands = [
            {h for h in cands[u] if inside[h] >= pdeg[u] and len(avail) - 1 - inside[h] >= m - 1 - pdeg[u]}
            for u in range(m)
        ]

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
    m = draw(st.integers(min_value=0, max_value=n))

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
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_oracle(self, instance):
        pattern, host, kwargs = instance
        counter = _RowCounter(host)
        cands = _naive_candidates(pattern, host, kwargs["allowed"], kwargs["per_vertex"], kwargs["fixed"])
        assert list(iter_embedding_maps(pattern, counter, **kwargs)) == _naive_embeddings(
            pattern, host, cands, kwargs["order"]
        )
        # forward checking and the degree filter read exactly these rows
        assert counter.reads == _naive_row_reads(pattern, host, cands, kwargs["order"])

    @pytest.mark.parametrize("pair", [(1, 1), (0, 3), (-1, 0)])
    def test_order_pairs_name_two_pattern_vertices(self, pair):
        with pytest.raises(ValueError):
            next(iter_embedding_maps(path_graph(3), complete_graph(4), order=[pair]))

    def test_isomorphism_case_is_cut_by_degrees(self, paley13):
        # switching one vertex of a regular host leaves degrees no host
        # vertex has, so the filter empties the masks before any node
        host = _RowCounter(paley13.graph)
        assert list(iter_embedding_maps(switch_graph(paley13.graph, {0}), host)) == []
        assert host.reads == 13


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


class TestPartialIso:
    def test_empty_extends_to_zero(self, paley13):
        p = PartialIso(paley13.graph, ())
        q = extend_partial_iso(p, 5)
        assert q.pairs == ((5, 0),)

    def test_extends_to_least_neighbor(self, paley13):
        g = paley13.graph
        p = PartialIso(g, ((0, 0),))
        neighbor = next(v for v in range(1, 13) if g.has_edge(0, v))
        q = extend_partial_iso(p, neighbor)
        assert q is not None
        image = q.apply(neighbor)
        assert g.has_edge(0, image)
        assert image == min(v for v in range(13) if g.has_edge(0, v))

    def test_fail_when_no_witness(self):
        # one edge plus an isolated vertex: nothing is adjacent to vertex 2
        g = Graph.from_edges(3, [(0, 1)])
        p = PartialIso(g, ((0, 2),))
        assert extend_partial_iso(p, 1) is None

    def test_property_extends_in_ec_host(self, paley13):
        g = paley13.graph
        for a in range(13):
            for b in range(13):
                p = PartialIso(g, ((a, b),))
                for v in range(13):
                    if v == a:
                        continue
                    q = extend_partial_iso(p, v)
                    assert q is not None and q.verify()


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
