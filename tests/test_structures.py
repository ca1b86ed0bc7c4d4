import hashlib
import random
import re
from itertools import combinations, islice, permutations

import pytest

from rado_lab import (
    ConstantGraph,
    FunctionGadget,
    GraphFormatError,
    PartitionedGraph,
    associate_partitioned,
    build_paley,
    complete_graph,
    cycle_graph,
    enumerate_copies,
    find_canonical_copy,
    find_const_embeddings,
    find_embeddings,
    find_part_embeddings,
    iter_structure_maps,
    make_named,
    parse_structure,
    path_graph,
)
from rado_lab.graphs import Graph
from rado_lab.ramsey import CopyBudgetExceeded, _symmetry_breaking
from conftest import random_graph


class TestTypes:
    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            PartitionedGraph(path_graph(3), (frozenset({0}), frozenset({1})))

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PartitionedGraph(
                path_graph(3), (frozenset({0, 1}), frozenset({1, 2}))
            )

    def test_empty_parts_allowed(self):
        pg = PartitionedGraph(
            path_graph(2), (frozenset(), frozenset({0, 1}), frozenset())
        )
        assert pg.part_of(0) == 1

    def test_constants_distinct(self):
        with pytest.raises(ValueError):
            ConstantGraph(path_graph(3), (1, 1))


class TestAssociatePartitioned:
    def test_k2_both_constants(self):
        cg = ConstantGraph(complete_graph(2), (0, 1))
        pg = associate_partitioned(cg)
        assert len(pg.parts) == 2 + 4
        assert pg.parts[0] == frozenset({0})
        assert pg.parts[1] == frozenset({1})
        assert all(not p for p in pg.parts[2:])

    def test_path_center_constant(self):
        cg = ConstantGraph(path_graph(3), (1,))
        pg = associate_partitioned(cg)
        # adjacent pattern part precedes the non-adjacent one
        assert pg.parts == (frozenset({1}), frozenset({0, 2}), frozenset())

    def test_c5_neighbors_then_nonneighbors(self):
        cg = ConstantGraph(cycle_graph(5), (0,))
        pg = associate_partitioned(cg)
        assert pg.parts == (frozenset({0}), frozenset({1, 4}), frozenset({2, 3}))

    def test_part_count_always_n_plus_2n(self, paley13):
        for constants in [(0,), (0, 5), (1, 2, 3)]:
            cg = ConstantGraph(paley13.graph, constants)
            pg = associate_partitioned(cg)
            n = len(constants)
            assert len(pg.parts) == n + 2**n
            for i, c in enumerate(constants):
                assert pg.parts[i] == frozenset({c})

    def test_same_part_same_adjacency(self, paley13):
        cg = ConstantGraph(paley13.graph, (0, 7))
        pg = associate_partitioned(cg)
        for part in pg.parts[2:]:
            for c in cg.constants:
                kinds = {paley13.graph.has_edge(v, c) for v in part}
                assert len(kinds) <= 1


class TestPartEmbeddings:
    def test_single_part_reduces_to_plain(self):
        pattern = PartitionedGraph(path_graph(3), (frozenset({0, 1, 2}),))
        host = PartitionedGraph(cycle_graph(5), (frozenset(range(5)),))
        part_maps = [e.mapping for e in find_part_embeddings(pattern, host, 100)]
        plain_maps = [e.mapping for e in find_embeddings(path_graph(3), cycle_graph(5), 100)]
        assert part_maps == plain_maps

    def test_empty_host_part(self):
        pattern = PartitionedGraph(
            Graph.from_edges(1, []), (frozenset(), frozenset({0}))
        )
        host = PartitionedGraph(path_graph(3), (frozenset({0, 1, 2}), frozenset()))
        assert find_part_embeddings(pattern, host, 5) == []

    def test_two_part_edge_into_k3(self):
        pattern = PartitionedGraph(
            complete_graph(2), (frozenset({0}), frozenset({1}))
        )
        host = PartitionedGraph(complete_graph(3), (frozenset({0}), frozenset({1, 2})))
        maps = [e.mapping for e in find_part_embeddings(pattern, host, 10)]
        assert maps == [(0, 1), (0, 2)]

    def test_part_count_mismatch(self):
        pattern = PartitionedGraph(complete_graph(2), (frozenset({0, 1}),))
        host = PartitionedGraph(complete_graph(3), (frozenset({0}), frozenset({1, 2})))
        with pytest.raises(ValueError):
            find_part_embeddings(pattern, host, 5)


class TestConstEmbeddings:
    def test_constants_only_exact_map(self):
        pattern = ConstantGraph(complete_graph(2), (0, 1))
        host = ConstantGraph(complete_graph(3), (2, 0))
        embs = find_const_embeddings(pattern, host, 5)
        assert len(embs) == 1
        assert embs[0].mapping == (2, 0)

    def test_missing_edge_between_host_constants(self):
        pattern = ConstantGraph(complete_graph(2), (0, 1))
        host = ConstantGraph(path_graph(3), (0, 2))  # non-adjacent constants
        assert find_const_embeddings(pattern, host, 5) == []

    def test_path_into_paley13(self, paley13):
        g = paley13.graph
        pattern = ConstantGraph(path_graph(3), (1,))
        host = ConstantGraph(g, (0,))
        embs = find_const_embeddings(pattern, host, 50)
        assert embs
        first = embs[0].mapping
        assert first[1] == 0
        assert g.has_edge(first[0], 0) and g.has_edge(first[2], 0)
        assert not g.has_edge(first[0], first[2])
        # least embedding: endpoints are the least valid choices in order
        neighbors = [v for v in range(13) if g.has_edge(0, v)]
        assert first[0] == neighbors[0]
        assert first[2] == min(
            v for v in neighbors if v != first[0] and not g.has_edge(v, first[0])
        )

    def test_constant_count_mismatch(self):
        pattern = ConstantGraph(complete_graph(2), (0,))
        host = ConstantGraph(complete_graph(3), (0, 1))
        with pytest.raises(ValueError):
            find_const_embeddings(pattern, host, 5)


def _naive_structure_maps(small, big, allowed):
    # every injective tuple in lexicographic order, kept when it is induced,
    # stays inside ``allowed`` and keeps parts or constants
    sg = small if isinstance(small, Graph) else small.graph
    bg = big if isinstance(big, Graph) else big.graph
    if allowed is None:
        allowed = (1 << bg.n) - 1

    def respects(p):
        if isinstance(small, PartitionedGraph):
            return all(p[v] in big.parts[small.part_of(v)] for v in range(sg.n))
        if isinstance(small, ConstantGraph):
            return all(p[c] == d for c, d in zip(small.constants, big.constants))
        return True

    return [
        p
        for p in permutations(range(bg.n), sg.n)
        if all(allowed >> h & 1 for h in p)
        and all(sg.has_edge(u, v) == bg.has_edge(p[u], p[v]) for u, v in combinations(range(sg.n), 2))
        and respects(p)
    ]


def _structure_pairs():
    # (small, big, allowed) of each kind: hand-picked ones, then seeded random
    # graphs with random parts, constants and allowed masks
    c6 = cycle_graph(6)
    pairs = [
        (path_graph(3), c6, None),
        (path_graph(3), c6, 0b111011),
        (
            PartitionedGraph(path_graph(3), (frozenset({0, 2}), frozenset({1}))),
            PartitionedGraph(c6, (frozenset({0, 2, 4}), frozenset({1, 3, 5}))),
            0b101111,
        ),
        (ConstantGraph(path_graph(3), (1,)), ConstantGraph(c6, (3,)), 0b111101),
        (ConstantGraph(path_graph(3), (1,)), ConstantGraph(c6, (3,)), 0b110111),
    ]
    for seed in range(36):
        rng = random.Random(seed)
        n, m = rng.randint(1, 7), rng.randint(0, 3)
        m = min(m, n)
        host, pattern = random_graph(n, 2 * seed), random_graph(m, 2 * seed + 1)
        allowed = rng.choice([None, (1 << n) - 1 - (1 << rng.randrange(n))])
        kind = seed % 3
        if kind == 0:
            pairs.append((pattern, host, allowed))
        elif kind == 1:
            count = rng.randint(1, 3)
            label_h = [rng.randrange(count) for _ in range(n)]
            label_p = [rng.randrange(count) for _ in range(m)]
            pairs.append((
                PartitionedGraph(pattern, tuple(frozenset(v for v in range(m) if label_p[v] == i) for i in range(count))),
                PartitionedGraph(host, tuple(frozenset(v for v in range(n) if label_h[v] == i) for i in range(count))),
                allowed,
            ))
        else:
            count = rng.randint(0, m)
            pairs.append((
                ConstantGraph(pattern, tuple(rng.sample(range(m), count))),
                ConstantGraph(host, tuple(rng.sample(range(n), count))),
                allowed,
            ))
    return pairs


class TestIterStructureMaps:
    @pytest.mark.parametrize("small,big,allowed", _structure_pairs())
    def test_matches_naive_filter(self, small, big, allowed):
        want = _naive_structure_maps(small, big, allowed)
        assert list(iter_structure_maps(small, big, allowed=allowed)) == want

    @pytest.mark.parametrize(
        "small,big,message",
        [
            (
                path_graph(2),
                PartitionedGraph(path_graph(2), (frozenset({0, 1}),)),
                "structure kind mismatch: pattern is a plain graph, host is a partitioned graph",
            ),
            (
                ConstantGraph(path_graph(2), (0,)),
                PartitionedGraph(path_graph(2), (frozenset({0, 1}),)),
                "structure kind mismatch: pattern is a constant graph, host is a partitioned graph",
            ),
            (
                PartitionedGraph(path_graph(2), (frozenset({0, 1}),)),
                PartitionedGraph(path_graph(3), (frozenset({0}), frozenset({1, 2}))),
                "part count mismatch: pattern has 1, host has 2",
            ),
            (
                ConstantGraph(path_graph(2), (0,)),
                ConstantGraph(path_graph(3), (0, 1)),
                "constant count mismatch: pattern has 1, host has 2",
            ),
        ],
        ids=["kind", "kind-constant", "parts", "constants"],
    )
    def test_mismatch_raises_at_call(self, small, big, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            iter_structure_maps(small, big)


class TestTextFormat:
    def test_partitioned_round_trip(self):
        # the empty middle part is kept in its place
        text = "n 4\n0 1\n1 2\n2 3\npart 0: 0 2\npart 1:\npart 2: 1 3\n"
        pg = PartitionedGraph(path_graph(4), (frozenset({0, 2}), frozenset(), frozenset({1, 3})))
        assert parse_structure(text) == pg

    def test_constant_round_trip(self):
        # constants keep their order, not their sorted one
        text = "n 5\n0 1\n0 4\n1 2\n2 3\n3 4\nconst: 3 0\n"
        assert parse_structure(text) == ConstantGraph(cycle_graph(5), (3, 0))

    def test_plain_graph_passthrough(self):
        from rado_lab import format_graph

        g = path_graph(3)
        assert parse_structure(format_graph(g)) == g

    def test_rejects_mixed_lines(self):
        text = "n 2\n0 1\npart 0: 0 1\nconst: 0\n"
        with pytest.raises(GraphFormatError):
            parse_structure(text)

    def test_rejects_bad_part_indices(self):
        text = "n 2\n0 1\npart 1: 0 1\n"
        with pytest.raises(GraphFormatError):
            parse_structure(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 2\nconst: 0\nconst: 1\n", "line 3: duplicate const line"),
            ("n 2\nconst: 0 x\n", "line 2: constants must be integers"),
            ("n 2\npart 0 1: 0\n", "line 2: expected 'part <i>: ...'"),
            ("n 2\npart x: 0 1\n", "line 2: malformed part line"),
            ("n 2\npart 0: 0 y\n", "line 2: malformed part line"),
            ("n 2\npart 0: 0\npart 0: 1\n", "line 3: duplicate part index 0"),
            ("", "empty input"),
            # lines the constructors refuse
            ("n 2\nconst: 1 1\n", "line 2: constants must be pairwise distinct"),
            ("n 2\npart 0: 0\n", "parts do not cover the vertex set"),
        ],
        ids=[
            "duplicate-const", "non-integer-const", "part-head", "part-index", "part-member", "duplicate-part",
            "empty", "const-refused", "part-refused",
        ],
    )
    def test_rejects_malformed_extra_lines(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            parse_structure(text)

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("n 3\n\n0 5\n", 3),
            ("n 3\npart 0: 0 1\npart 1: 2\n1 7\n", 4),
            ("n 3\nconst: 1\n\n0 1\n1 1\n", 5),
        ],
        ids=["blank", "part", "const"],
    )
    def test_edge_errors_name_their_own_line(self, text, lineno):
        # blank, part and const lines still count towards the line number
        with pytest.raises(GraphFormatError, match=f"^line {lineno}: "):
            parse_structure(text)


# sha256 over the lines of _constant_battery, taken while each constant was
# still pinned by a one-bit mask: searching through the associated partition
# changes no output
CONSTANT_BATTERY = "815e422ae41913ce4f2bc06b65b4cbb8ab4a4e0e120eeadcb53a2b430b3f3d5c"


def _sorted_parts(pg: PartitionedGraph) -> list[list[int]]:
    return [sorted(part) for part in pg.parts]


def _constant_battery() -> list[str]:
    # seeded constant structures with 0-3 constants on Paley(13), Paley(29)
    # and eight random hosts on 5-12 vertices, each pattern an induced
    # subgraph of its host: their maps under random ``allowed`` masks and
    # ``order`` pairs, copies, symmetry-breaking orders, embeddings,
    # canonical copies and associated partitions (parts sorted)
    hosts = [build_paley(13).graph, build_paley(29).graph]
    hosts += [random_graph(n, 500 + n) for n in range(5, 13)]
    lines = []
    for index, host in enumerate(hosts):
        rng = random.Random(index)
        for _ in range(25):
            m = rng.randint(2, 5)
            count = rng.randint(0, 3 if m > 3 else m)
            # mostly a copy of an induced subgraph whose constants the host
            # shares, so that maps exist
            image = rng.sample(range(host.n), m)
            constants = tuple(rng.sample(range(m), count))
            host_constants = tuple(image[c] for c in constants)
            if rng.random() < 0.25:
                host_constants = tuple(rng.sample(range(host.n), count))
            small = ConstantGraph(host.induced(image), constants)
            big = ConstantGraph(host, host_constants)
            allowed = rng.choice([None, host.full_mask & ~(1 << rng.randrange(host.n)), rng.getrandbits(host.n)])
            if allowed is not None:
                allowed |= sum(1 << h for h in host_constants)
            order = tuple(tuple(rng.sample(range(m), 2)) for _ in range(rng.randint(0, 2)))
            maps = list(islice(iter_structure_maps(small, big, allowed=allowed, order=order), 40))
            try:
                copies = enumerate_copies(big, small, budget=150)
            except CopyBudgetExceeded as exc:
                copies = exc.count
            embeddings = [e.mapping for e in find_const_embeddings(small, big, 20)]
            dom = sorted(rng.sample(range(host.n), rng.randint(m, host.n)))
            kind = rng.randrange(3)
            if kind == 0:
                f = make_named("identity", host, dom=dom)
            elif kind == 1:
                f = make_named("minus", host, dom=dom)
            else:
                f = FunctionGadget(host, host, tuple((x, rng.randrange(host.n)) for x in dom))
            canonical = find_canonical_copy(f, small, big, 30)
            lines += [
                repr(("maps", small, big, allowed, order, maps)),
                repr(("copies", copies)),
                repr(("order", _symmetry_breaking(small))),
                repr(("embeddings", embeddings)),
                repr(("canonical", f.mapping, f.label, canonical and canonical.mapping)),
                repr(("partition", _sorted_parts(associate_partitioned(small)), _sorted_parts(associate_partitioned(big)))),
            ]
    return lines


def test_constant_battery_pinned():
    lines = _constant_battery()
    assert len(lines) == 1500
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CONSTANT_BATTERY


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PartitionedGraph(path_graph(2), (frozenset({0, 1, 2}),)), ValueError, "part 0 contains out-of-range vertex 2"),
        (lambda: PartitionedGraph(path_graph(2), (frozenset({0, 1}),)).part_of(2), KeyError, "2"),
        (lambda: ConstantGraph(path_graph(2), (2,)), ValueError, "constant 2 out of range"),
        (lambda: iter_structure_maps(path_graph(2), "n 2\n"), TypeError, "unsupported structure type str"),
        (
            lambda: find_part_embeddings(
                PartitionedGraph(path_graph(2), (frozenset({0, 1}),)), PartitionedGraph(path_graph(2), (frozenset({0, 1}),)), 0
            ),
            ValueError,
            "limit must be at least 1",
        ),
    ],
    ids=["part-range", "part-of-missing", "constant-range", "unsupported", "limit-0"],
)
def test_argument_rejections(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
