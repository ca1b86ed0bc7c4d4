import hashlib
import json
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rado_lab import (
    BehaviorClass,
    ConstantGraph,
    FunctionGadget,
    Graph,
    PartitionedGraph,
    classify_on_set,
    classify_reduct,
    complete_graph,
    cycle_graph,
    distinct_relation,
    edge_relation,
    empty_graph,
    find_canonical_copy,
    find_embeddings,
    make_named,
    nonedge_relation,
    parity_relation,
    parse_relation_spec,
    path_graph,
    profile_partitioned,
    violates,
)
from rado_lab.canonicity import UNDETERMINED
from rado_lab.structures import associate_partitioned
from conftest import random_graph


def random_gadget(src: Graph, dst: Graph, seed: int) -> FunctionGadget:
    rng = random.Random(seed)
    return FunctionGadget(
        src, dst,
        tuple((v, rng.randrange(dst.n)) for v in range(src.n)),
        "custom",
    )


class TestClassifyOnSet:
    def test_identity_with_both_kinds(self):
        f = make_named("identity", path_graph(3))
        assert classify_on_set(f, (0, 1, 2)) == frozenset({BehaviorClass.IDENTITY})

    def test_const_on_any_set(self):
        f = make_named("const", cycle_graph(5), target=0)
        assert classify_on_set(f, (1, 2, 3)) == frozenset({BehaviorClass.CONSTANT})

    def test_en_on_independent_set_is_ambiguous(self):
        g = path_graph(3)
        f = make_named("eN", g, dst=empty_graph(3))
        # only non-edge evidence: identity and eN both map non-edges to non-edges
        assert classify_on_set(f, (0, 2)) == frozenset(
            {BehaviorClass.IDENTITY, BehaviorClass.EN}
        )

    def test_too_small_set(self):
        f = make_named("identity", path_graph(3))
        with pytest.raises(ValueError):
            classify_on_set(f, (0,))

    def test_outside_domain(self):
        f = make_named("identity", path_graph(3), dom=(0, 1))
        with pytest.raises(ValueError):
            classify_on_set(f, (0, 2))

    def test_named_gadgets_exact_class_on_mixed_sets(self, paley13):
        g = paley13.graph
        gadgets = {
            BehaviorClass.IDENTITY: make_named("identity", g),
            BehaviorClass.MINUS: make_named("minus", g),
            BehaviorClass.EE: make_named("eE", g, dst=complete_graph(13)),
            BehaviorClass.EN: make_named("eN", g, dst=empty_graph(13)),
            BehaviorClass.CONSTANT: make_named("const", g, target=0),
        }
        mixed = [
            s for s in combinations(range(6), 3)
            if len({g.has_edge(x, y) for x, y in combinations(s, 2)}) == 2
        ]
        assert mixed
        for cls, f in gadgets.items():
            for s in mixed:
                assert classify_on_set(f, s) == frozenset({cls})

    def test_monotone_shrinking(self, paley13):
        g = paley13.graph
        for seed in range(5):
            f = random_gadget(g, g, seed)
            small, large = (0, 1, 2), (0, 1, 2, 3, 4)
            assert classify_on_set(f, large) <= classify_on_set(f, small)

    def test_constant_excluded_with_uncollapsed_pair(self):
        # any set with an edge, a non-edge, and one non-collapsed pair
        for seed in range(10):
            g = random_graph(6, seed)
            f = random_gadget(g, g, seed + 100)
            s = range(6)
            kinds = {g.has_edge(x, y) for x, y in combinations(s, 2)}
            colors = [
                f.apply(x) == f.apply(y) for x, y in combinations(s, 2)
            ]
            if len(kinds) == 2 and not all(colors):
                assert BehaviorClass.CONSTANT not in classify_on_set(f, s)


class TestBetween:
    # between-set classes are the off-diagonal cells of a covering profile
    def test_identity_between(self):
        g = path_graph(4)  # cross pairs of {0} and {1, 3}: edge and non-edge
        f = make_named("identity", g)
        pg = PartitionedGraph(g, (frozenset({0}), frozenset({1, 3}), frozenset({2})))
        assert profile_partitioned(f, pg).classes(0, 1) == frozenset({BehaviorClass.IDENTITY})

    def test_switch_between_cut_sides(self):
        g = path_graph(3)
        f = make_named("switch", g, s={0})
        # (0,1) edge flipped, (0,2) non-edge flipped: both kinds of evidence
        pg = PartitionedGraph(g, (frozenset({0}), frozenset({1, 2})))
        assert profile_partitioned(f, pg).classes(0, 1) == frozenset({BehaviorClass.MINUS})

    def test_switch_away_from_cut(self):
        g = path_graph(4)
        f = make_named("switch", g, s={0})
        pg = PartitionedGraph(g, (frozenset({0}), frozenset({1}), frozenset({2, 3})))
        result = profile_partitioned(f, pg).classes(1, 2)
        assert BehaviorClass.IDENTITY in result
        assert BehaviorClass.MINUS not in result


class TestProfiles:
    def test_identity_profile_all_identity_where_determined(self, paley13):
        g = paley13.graph
        f = make_named("identity", g)
        pg = PartitionedGraph(
            g, (frozenset(range(0, 6)), frozenset(range(6, 13)))
        )
        prof = profile_partitioned(f, pg)
        for i in range(2):
            for j in range(2):
                assert BehaviorClass.IDENTITY in prof.classes(i, j)
                assert prof.entry(i, j) in ("identity", UNDETERMINED)
        assert prof.entry(0, 0) == "identity"

    def test_const_profile(self):
        g = cycle_graph(5)
        f = make_named("const", g, target=0)
        pg = PartitionedGraph(g, (frozenset({0, 1, 2}), frozenset({3, 4})))
        prof = profile_partitioned(f, pg)
        assert prof.entry(0, 0) == "constant"
        assert prof.entry(0, 1) == "constant"

    def test_identity_on_parts_minus_between(self):
        # both pair kinds inside each part and across the cut
        g = Graph.from_edges(6, [(0, 1), (3, 4), (0, 3), (1, 4), (2, 5)])
        f = make_named("switch", g, s={0, 1, 2})
        pg = PartitionedGraph(g, (frozenset({0, 1, 2}), frozenset({3, 4, 5})))
        prof = profile_partitioned(f, pg)
        assert prof.entry(0, 0) == "identity"
        assert prof.entry(1, 1) == "identity"
        assert prof.entry(0, 1) == "minus"

    def test_profile_json_shape(self):
        g = cycle_graph(5)
        f = make_named("identity", g)
        pg = PartitionedGraph(g, (frozenset({0, 1, 2}), frozenset({3, 4})))
        blob = profile_partitioned(f, pg).to_json_dict()
        assert set(blob) == {"parts", "diag", "off"}
        assert len(blob["diag"]) == 2
        assert blob["off"] == [[0, 1, profile_partitioned(f, pg).entry(0, 1)]]

    def test_domain_coverage_error(self):
        g = cycle_graph(5)
        f = make_named("identity", g, dom=(0, 1, 2))
        pg = PartitionedGraph(g, (frozenset({0, 1, 2}), frozenset({3, 4})))
        with pytest.raises(ValueError):
            profile_partitioned(f, pg)


class TestArgumentRejections:
    # each rejection names what is wrong with the arguments
    def test_structures_on_another_graph(self):
        f = make_named("identity", path_graph(3))
        other = cycle_graph(3)
        with pytest.raises(ValueError) as info:
            profile_partitioned(f, PartitionedGraph(other, (frozenset(range(3)),)))
        assert str(info.value) == "partitioned graph must live on the gadget's source graph"

    def test_copy_search_limit_and_host(self):
        f = make_named("identity", path_graph(3))
        with pytest.raises(ValueError) as info:
            find_canonical_copy(f, path_graph(2), path_graph(3), limit=0)
        assert str(info.value) == "limit must be at least 1"
        with pytest.raises(ValueError) as info:
            find_canonical_copy(f, path_graph(2), cycle_graph(3), limit=1)
        assert str(info.value) == "host must live on the gadget's source graph"


class TestConstantGraphProfiles:
    def test_identity_always_canonical(self, paley13):
        f = make_named("identity", paley13.graph)
        for constants in [(0,), (0, 1)]:
            prof = profile_partitioned(f, associate_partitioned(ConstantGraph(paley13.graph, constants)))
            assert prof.is_canonical
            for i in range(len(prof.parts)):
                for j in range(len(prof.parts)):
                    assert BehaviorClass.IDENTITY in prof.classes(i, j)

    def test_single_edge_deletion_profile(self):
        # identity vertex map onto the host minus one edge: the behavior the
        # main generation argument isolates between the two constants
        host = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (0, 5)]
        )
        deleted = Graph.from_edges(6, [e for e in host.edges() if e != (0, 1)])
        f = FunctionGadget(host, deleted, tuple((v, v) for v in range(6)), "custom")
        prof = profile_partitioned(f, associate_partitioned(ConstantGraph(host, (0, 1))))
        assert prof.is_canonical
        # between the two constant singletons: the edge was deleted
        cell = prof.classes(0, 1)
        assert cell == frozenset({BehaviorClass.MINUS, BehaviorClass.EN})
        # everywhere else the identity stays consistent
        m = len(prof.parts)
        for i in range(m):
            for j in range(m):
                if {i, j} != {0, 1}:
                    assert BehaviorClass.IDENTITY in prof.classes(i, j)

    def test_en_gadget_profile_entries(self, paley13):
        g = paley13.graph
        f = make_named("eN", g, dst=empty_graph(13))
        prof = profile_partitioned(f, associate_partitioned(ConstantGraph(g, (0,))))
        m = len(prof.parts)
        for i in range(m):
            for j in range(m):
                assert BehaviorClass.EN in prof.classes(i, j)
            if prof.entry(i, i) not in (UNDETERMINED,):
                assert prof.entry(i, i) == "eN"


class TestFindCanonicalCopy:
    def test_identity_returns_least_embedding(self, paley13):
        g = paley13.graph
        f = make_named("identity", g)
        emb = find_canonical_copy(f, path_graph(3), g, limit=100)
        assert emb is not None
        assert emb.mapping == find_embeddings(path_graph(3), g, 1)[0].mapping

    def test_named_gadgets_globally_canonical(self, paley13):
        g = paley13.graph
        for f in (
            make_named("minus", g),
            make_named("eN", g, dst=empty_graph(13)),
            make_named("const", g, target=4),
        ):
            emb = find_canonical_copy(f, complete_graph(2), g, limit=10)
            assert emb is not None
            assert emb.mapping == find_embeddings(complete_graph(2), g, 1)[0].mapping

    def test_matches_brute_force_on_scrambled_gadget(self):
        host = random_graph(8, 11)
        pattern = path_graph(3)
        found_any = False
        for seed in range(30):
            f = random_gadget(host, host, seed)
            copies = [
                e.mapping for e in find_embeddings(pattern, host, 10**4)
            ]
            expected = next(
                (m for m in copies if classify_on_set(f, m)), None
            )
            got = find_canonical_copy(f, pattern, host, limit=10**4)
            if expected is None:
                assert got is None
            else:
                found_any = True
                assert got is not None
                assert got.mapping == expected
                assert classify_on_set(f, sorted(got.mapping))
        assert found_any

    def test_partitioned_copy_search(self, paley13):
        g = paley13.graph
        f = make_named("minus", g)
        pattern = PartitionedGraph(
            complete_graph(2), (frozenset({0}), frozenset({1}))
        )
        host = PartitionedGraph(
            g, (frozenset(range(0, 5)), frozenset(range(5, 13)))
        )
        emb = find_canonical_copy(f, pattern, host, limit=50)
        assert emb is not None
        assert emb.mapping[0] < 5 <= emb.mapping[1]

    def test_constant_copy_search(self, paley13):
        g = paley13.graph
        f = make_named("identity", g)
        pattern = ConstantGraph(path_graph(3), (1,))
        host = ConstantGraph(g, (0,))
        emb = find_canonical_copy(f, pattern, host, limit=50)
        assert emb is not None
        assert emb.mapping[1] == 0

    def test_limit_counts_only_domain_maps(self, paley13):
        # the least maps of both patterns leave dom(f); limit 1 still finds
        # the least copy inside it
        g = paley13.graph
        f = make_named("identity", g, dom=range(5, 13))
        pattern = ConstantGraph(path_graph(3), (1,))
        emb = find_canonical_copy(f, pattern, ConstantGraph(g, (5,)), limit=1)
        assert emb.mapping == (6, 5, 8)
        pattern = PartitionedGraph(complete_graph(2), (frozenset({0}), frozenset({1})))
        host = PartitionedGraph(g, (frozenset(range(7)), frozenset(range(7, 13))))
        emb = find_canonical_copy(f, pattern, host, limit=1)
        assert emb.mapping == (5, 8)



# the five classes' rules, written out: (color of an edge, color of a non-edge)
_RULES = {
    BehaviorClass.IDENTITY: ("edge", "nonedge"),
    BehaviorClass.MINUS: ("nonedge", "edge"),
    BehaviorClass.EE: ("edge", "edge"),
    BehaviorClass.EN: ("nonedge", "nonedge"),
    BehaviorClass.CONSTANT: ("collapsed", "collapsed"),
}


def naive_classes(f, pairs):
    """Classes whose rule matches every pair, one has_edge per pair."""
    alive = set(BehaviorClass)
    for x, y in pairs:
        fx, fy = f.apply(x), f.apply(y)
        color = "collapsed" if fx == fy else "edge" if f.dst.has_edge(fx, fy) else "nonedge"
        kind = 0 if f.src.has_edge(x, y) else 1
        alive = {c for c in alive if _RULES[c][kind] == color}
    return frozenset(alive)


def naive_matrix(f, parts):
    m = len(parts)
    return tuple(
        tuple(
            naive_classes(f, combinations(parts[i], 2) if i == j else product(parts[i], parts[j]))
            for j in range(m)
        )
        for i in range(m)
    )


def naive_canonical_copy(f, pattern, limit):
    """The least induced embedding of ``pattern`` inside dom(f) whose image
    is canonical, among the first ``limit`` such embeddings, by brute force."""
    dom, host = sorted(f.dom), f.src
    seen = 0
    for image in permutations(dom, pattern.n):
        if all(
            pattern.has_edge(a, b) == host.has_edge(image[a], image[b])
            for a, b in combinations(range(pattern.n), 2)
        ):
            if seen == limit:
                return None
            seen += 1
            if naive_classes(f, combinations(image, 2)):
                return image
    return None


def _graph(draw, n):
    pairs = list(combinations(range(n), 2))
    code = draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
    return Graph.from_edges(n, [p for b, p in enumerate(pairs) if code >> b & 1])


@st.composite
def gadgets_on(draw, whole_domain):
    """A map from a random graph on 1-12 vertices into a random graph on 1-12
    vertices, with images drawn from a random prefix of the destination, so
    collapsing maps are common."""
    src = _graph(draw, draw(st.integers(min_value=1, max_value=12)))
    dst = _graph(draw, draw(st.integers(min_value=1, max_value=12)))
    pool = draw(st.integers(min_value=1, max_value=dst.n))
    if whole_domain:
        dom = list(range(src.n))
    else:
        dom = sorted(draw(st.sets(st.integers(0, src.n - 1), min_size=1)))
    images = draw(st.lists(st.integers(0, pool - 1), min_size=len(dom), max_size=len(dom)))
    return FunctionGadget(src, dst, tuple(zip(dom, images)))


class TestKernelAgainstNaiveOracle:
    @given(gadgets_on(False), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_on_set_and_between(self, f, rng):
        dom = list(f.dom)
        if len(dom) >= 2:
            s = rng.sample(dom, rng.randint(2, len(dom)))
            # classes between two sets: test_profiles checks the off-diagonal cells
            assert classify_on_set(f, s) == naive_classes(f, combinations(s, 2))

    @given(gadgets_on(True), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_profiles(self, f, rng):
        n = f.src.n
        m = rng.randint(1, 4)
        labels = [rng.randrange(m) for _ in range(n)]
        parts = tuple(frozenset(v for v in range(n) if labels[v] == i) for i in range(m))
        prof = profile_partitioned(f, PartitionedGraph(f.src, parts))
        assert prof.matrix == naive_matrix(f, [sorted(p) for p in parts])
        cg = ConstantGraph(f.src, tuple(rng.sample(range(n), rng.randint(0, min(3, n)))))
        prof = profile_partitioned(f, associate_partitioned(cg))
        assert prof.matrix == naive_matrix(f, [sorted(p) for p in associate_partitioned(cg).parts])

    @given(gadgets_on(False), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_canonical_copy(self, f, size, limit):
        for pattern in (path_graph(size), complete_graph(size), empty_graph(size)):
            if pattern.n <= f.src.n:
                emb = find_canonical_copy(f, pattern, f.src, limit)
                want = naive_canonical_copy(f, pattern, limit)
                assert (emb and emb.mapping) == want


def _json_battery(paleys):
    """JSON of classifications, profiles and constant-graph profiles on the
    given Paley graphs, named and random collapsing gadgets, one seeded rng."""
    rng = random.Random(15)
    relations = [edge_relation(), nonedge_relation(), distinct_relation(2)]
    relations += [parity_relation(a) for a in range(2, 6)]
    relations += [
        parse_relation_spec("formula:" + f)
        for f in ("E(0,1) & !E(1,2) | x2=x3", "x0!=x1 & (E(0,1) | E(1,2))")
    ]
    out = []
    for paley, k in paleys:
        g = paley.graph
        n = g.n
        for r in relations:
            out.append(classify_reduct(r, g, k).to_json_dict())
        out.append(classify_reduct(relations[:2], g, k).to_json_dict())
        gadgets = [
            make_named("identity", g),
            make_named("minus", g, witness=paley.complement_witness),
            make_named("eE", g, dst=complete_graph(n)),
            make_named("eN", g, dst=empty_graph(n)),
            make_named("const", g, target=rng.randrange(n)),
            make_named("switch", g, s=rng.sample(range(n), rng.randint(1, n - 1))),
        ]
        for seed in range(4):
            small = random_graph(rng.randint(2, 6), rng.randrange(1000))
            gadgets.append(random_gadget(g, small, seed))
            few = rng.sample(range(n), 3)
            gadgets.append(FunctionGadget(g, g, tuple((v, rng.choice(few)) for v in range(n))))
        for f in gadgets:
            for _ in range(3):
                m = rng.randint(1, 4)
                labels = [rng.randrange(m) for _ in range(n)]
                parts = tuple(frozenset(v for v in range(n) if labels[v] == i) for i in range(m))
                out.append(profile_partitioned(f, PartitionedGraph(g, parts)).to_json_dict())
            constants = tuple(rng.sample(range(n), rng.randint(1, 3)))
            cg = ConstantGraph(g, constants)
            out.append(profile_partitioned(f, associate_partitioned(cg)).to_json_dict())
    return [json.dumps(blob, sort_keys=True) for blob in out]


def test_json_battery_pinned(paley13, paley29):
    lines = _json_battery(((paley13, 2), (paley29, 3)))
    assert len(lines) == 2 * (10 + 14 * 4)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b71fd31100454a673ad2d9db6f44625b06cc0652b7662450692923d9e6045ec0"


# one sha256 over the four readers of a gadget's pullback rows, for the six
# named gadgets of Paley(29): violates against parity:3 and parity:4,
# classify_on_set, a three-part profile and a canonical C4 copy
NAMED_GADGETS_DIGEST = "f1b4e9e747589b8b5f901460f321326aea0e141f4f8f2e39a23cc914d1bd281a"


def test_named_gadget_readers_pinned(paley29):
    g = paley29.graph
    gadgets = (
        make_named("identity", g), make_named("minus", g, witness=paley29.complement_witness),
        make_named("eE", g, dst=complete_graph(29)), make_named("eN", g, dst=empty_graph(29)),
        make_named("const", g, target=0), make_named("switch", g, s=range(0, 29, 3)),
    )
    parts = PartitionedGraph(g, (frozenset(range(10)), frozenset(range(10, 20)), frozenset(range(20, 29))))
    out = []
    for f in gadgets:
        out += [violates(f, parity_relation(3)), violates(f, parity_relation(4))]
        out.append(sorted(c.value for c in classify_on_set(f, range(0, 29, 4))))
        out.append(profile_partitioned(f, parts).to_json_dict())
        emb = find_canonical_copy(f, cycle_graph(4), g, 16)
        out.append(emb and emb.mapping)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == NAMED_GADGETS_DIGEST
