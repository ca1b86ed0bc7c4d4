import hashlib
import random
from itertools import combinations, permutations

import pytest

from rado_lab import (
    ConstantGraph,
    FunctionGadget,
    Graph,
    GeneratorSet,
    PairKind,
    ReductClass,
    all_graph_types,
    build_paley,
    canonical_form,
    classify_reduct,
    collapse_all,
    complete_graph,
    complement_graph,
    cycle_graph,
    delete_all_edges,
    delete_edge_step,
    distinct_relation,
    edge_relation,
    empty_graph,
    find_embeddings,
    format_graph,
    interpolate,
    make_named,
    orbit_closure,
    pair_kind,
    parity_relation,
    path_graph,
    verify_witness,
)
from rado_lab.generation import PatternNotFoundError, join_classes
from conftest import all_raw_graphs, random_graph


def collapsing_gadget(host: Graph, pair: tuple[int, int]) -> FunctionGadget:
    a, b = pair
    return FunctionGadget(
        host, host, tuple((v, b if v == a else v) for v in range(host.n)), "custom"
    )


def witness_digest(w) -> str:
    # sha256 of the transcript, roles, steps and target map of a witness
    steps = [(s.src.n, s.dst.n, s.mapping, s.label) for s in w.steps]
    return hashlib.sha256(repr((w.transcript, w.roles, steps, w.target.mapping)).encode()).hexdigest()


class TestGeneratorSet:
    def test_identity_auto_included(self):
        gens = GeneratorSet(frozenset({"minus"}))
        assert "identity" in gens.kinds

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet(frozenset({"teleport"}))


class TestInterpolate:
    def test_identity_target_depth_one(self, paley13):
        target = make_named("identity", paley13.graph, dom=(0, 1, 2))
        w = interpolate(target, GeneratorSet(), 1, [paley13.graph])
        assert w is not None
        assert w.generator_steps == 1
        assert verify_witness(w)

    def test_en_behavior_on_path(self, paley13):
        target = make_named("eN", path_graph(3), dst=empty_graph(3))
        w = interpolate(target, GeneratorSet(frozenset({"eN"})), 1, [paley13.graph])
        assert w is not None
        assert w.generator_steps == 1
        assert verify_witness(w)

    def test_edge_deletion_depth_one(self, paley29):
        host = paley29.graph
        k4 = complete_graph(4)
        gadget = delete_edge_step(ConstantGraph(k4, (0, 1)), host)
        emb = find_embeddings(k4, host, 1)[0]
        target = FunctionGadget(
            k4, host,
            tuple((i, gadget.apply(emb.mapping[i])) for i in range(4)),
            "custom",
        )
        w = interpolate(target, GeneratorSet(extra=(gadget,)), 1, [host])
        assert w is not None and verify_witness(w)

    def test_none_when_out_of_reach(self, paley13):
        # a constant target cannot come from the identity generator alone
        target = make_named("const", paley13.graph, dom=(0, 1), target=0)
        assert interpolate(target, GeneratorSet(), 2, [paley13.graph]) is None

    def test_depth_one_witnesses_pinned(self, paley13, paley29):
        # witnesses take the first map of each embedding search, so these
        # digests pin the lexicographic order of the maps
        cases = (
            (make_named("identity", paley13.graph, dom=(2, 7, 11)), GeneratorSet(), paley13.graph,
             "b040718051c8f729827f57d0ee9e6c595289f6bec57bdff199f2eb95706a0a13"),
            (make_named("eN", path_graph(3), dst=empty_graph(3)), GeneratorSet(frozenset({"eN"})),
             paley13.graph, "08258c72f8f55251532d167c622adb6aab565f4239e2337fe2032282238e162e"),
            (make_named("minus", paley29.graph, witness=paley29.complement_witness, dom=(3, 8, 19, 26)),
             GeneratorSet(frozenset({"minus"})), paley29.graph,
             "738279bd12fce85c7474a8a4199ff8904877177756e6ea16609a7cad314ab725"),
        )
        for target, gens, host, digest in cases:
            w = interpolate(target, gens, 1, [host])
            assert verify_witness(w)
            assert witness_digest(w) == digest, target.label

    def test_switch_never_reaches_full_complement_map(self, paley29):
        # Thomas 1991: switching does not generate the complement map; at
        # depth 2 the search has to prove that switched Paley(29) has no
        # copy in Paley(29)
        target = make_named("minus", paley29.graph, witness=paley29.complement_witness)
        assert interpolate(target, GeneratorSet(frozenset({"switch"})), 2, [paley29.graph]) is None

    def test_witness_verifier_rejects_tampering(self, paley13):
        target = make_named("identity", paley13.graph, dom=(0, 1, 2))
        w = interpolate(target, GeneratorSet(), 1, [paley13.graph])
        from rado_lab import InterpolationWitness

        bad = InterpolationWitness(
            make_named("const", paley13.graph, dom=(0, 1, 2), target=0),
            w.target_set,
            w.steps,
            w.roles,
            w.transcript,
        )
        assert not verify_witness(bad)

    @pytest.mark.parametrize(
        "mapping,label",
        [(((0, 5), (2, 5)), "const"), (((0, 0), (1, 2)), "custom")],
        ids=["collapse", "edge-to-nonedge"],
    )
    def test_witness_verifier_rejects_non_embedding_reposition(self, paley13, mapping, label):
        # one step agreeing pointwise with its target: accepted as a
        # generator step, rejected as a reposition step, which must be an
        # embedding (0 1 is an edge of Paley(13), 0 2 a non-edge)
        from rado_lab import InterpolationWitness

        g = paley13.graph
        step = FunctionGadget(g, g, mapping, "custom")
        target = FunctionGadget(g, g, mapping, label)
        dom = step.dom
        assert verify_witness(InterpolationWitness(target, dom, (step,), ("generator",)))
        assert not verify_witness(InterpolationWitness(target, dom, (step,), ("reposition",)))


class TestDeleteEdgeStep:
    def test_single_edge(self, paley13):
        marked = ConstantGraph(complete_graph(2), (0, 1))
        gadget = delete_edge_step(marked, paley13.graph)
        (x, y) = gadget.dom
        assert pair_kind(paley13.graph, x, y) is PairKind.EDGE
        assert pair_kind(paley13.graph, gadget.apply(x), gadget.apply(y)) is PairKind.NONEDGE

    def test_triangle_to_path(self, paley13):
        marked = ConstantGraph(complete_graph(3), (0, 1))
        gadget = delete_edge_step(marked, paley13.graph)
        image = sorted({gadget.apply(v) for v in gadget.dom})
        assert len(image) == 3
        image_edges = sum(
            paley13.graph.has_edge(u, v) for u, v in combinations(image, 2)
        )
        assert image_edges == 2  # triangle minus one edge

    def test_identity_pattern_except_marked_pair(self, paley29):
        host = paley29.graph
        marked = ConstantGraph(complete_graph(4), (1, 2))
        gadget = delete_edge_step(marked, host)
        flipped = [
            (x1, x2)
            for x1, x2 in combinations(gadget.dom, 2)
            if pair_kind(host, x1, x2)
            is not pair_kind(host, gadget.apply(x1), gadget.apply(x2))
        ]
        assert len(flipped) == 1

    def test_requires_marked_edge(self, paley13):
        with pytest.raises(ValueError):
            delete_edge_step(ConstantGraph(empty_graph(2), (0, 1)), paley13.graph)

    def test_missing_pattern(self):
        with pytest.raises(PatternNotFoundError):
            delete_edge_step(ConstantGraph(complete_graph(3), (0, 1)), cycle_graph(5))


class TestDeleteAllEdges:
    def test_k4_in_paley29(self, paley29):
        w = delete_all_edges(complete_graph(4), paley29.graph, 3)
        assert w.generator_steps == 6
        assert verify_witness(w)
        assert w.target.label == "eN"

    def test_path_in_paley13(self, paley13):
        # 2-e.c. hosts embed every 3-vertex pattern, so both steps exist
        w = delete_all_edges(path_graph(3), paley13.graph, 2)
        assert w.generator_steps == 2
        assert verify_witness(w)

    def test_path4_in_paley29(self, paley29):
        w = delete_all_edges(path_graph(4), paley29.graph, 3)
        assert w.generator_steps == 3
        assert verify_witness(w)

    def test_clique_witnesses_pinned(self, paley29):
        # witnesses take the first map of each embedding search, so these
        # digests pin the lexicographic order of the maps
        p61 = build_paley(61).graph
        for k, host, digest in (
            (4, paley29.graph, "6bfa013951ab28575e099cacb0ec2f469e09bc54167288f8d9832ad806411f54"),
            (4, p61, "8badbc89a90cd9a53851e17189d19e4b0fd2d455744f6f9c7bf2ad6ac7eb3d06"),
            (5, p61, "fdfc678821fb922583cb109b09bd87519d5a09d2c92f659762aa5a2fa14fbec9"),
        ):
            assert witness_digest(delete_all_edges(complete_graph(k), host, 3)) == digest, (k, host.n)
        # Paley(29) has clique number 4
        with pytest.raises(PatternNotFoundError):
            delete_all_edges(complete_graph(5), paley29.graph, 3)


class TestCollapseAll:
    def test_singleton_needs_no_steps(self, paley29):
        host = paley29.graph
        g = collapsing_gadget(host, next(host.edges()))
        h = collapsing_gadget(host, next(host.nonedges()))
        w = collapse_all((5,), host, g, h)
        assert w.generator_steps == 0
        assert verify_witness(w)

    def test_edge_collapses_in_one(self, paley29):
        host = paley29.graph
        g = collapsing_gadget(host, next(host.edges()))
        h = collapsing_gadget(host, next(host.nonedges()))
        edge = next(host.edges())
        w = collapse_all(edge, host, g, h)
        assert w.generator_steps == 1
        assert verify_witness(w)

    def test_four_subsets_within_bound(self, paley29):
        host = paley29.graph
        g = collapsing_gadget(host, next(host.edges()))
        h = collapsing_gadget(host, next(host.nonedges()))
        for subset in [(0, 1, 2, 3), (4, 9, 17, 23), (2, 6, 7, 28)]:
            w = collapse_all(subset, host, g, h)
            assert w.generator_steps <= 4
            assert verify_witness(w)
            final = {
                _chase(w, x) for x in subset
            }
            assert len(final) == 1

    def test_witnesses_pinned(self, paley29):
        # witnesses take the first map of each reposition search, so these
        # digests pin the lexicographic order of the maps
        digests = iter((
            "09c32fa60b61007b97e79f1cc1952a54f70788c0e1138880b9b2a6f878bc6fda",
            "75bca363b03c3b34f9287f1fcc6bd61ad3282cec35b74945acfc11794b5e2a5a",
            "05f3b7bc6d0b4037ec60746c055803dcc393dd3bbf70b4b9912582b25ed0c688",
            "270afedbc68138b3e43a9e103624496f343cfd0b5fba6708e75bc6d07d0381a5",
            "a2d49522ca1bf7b694ef1445b5720c3d4719d3abf2606437a9c6383a9a9aa468",
            "45eff50579818a9cabdc5b793ca3421a54b957e137f8028e84bc7fad72f99903",
        ))
        rng = random.Random(7)
        used = set()
        for host in (paley29.graph, build_paley(61).graph):
            edges, nonedges = list(host.edges()), list(host.nonedges())
            for size in (3, 5, 6):
                g = collapsing_gadget(host, rng.choice(edges))
                h = collapsing_gadget(host, rng.choice(nonedges))
                subset = tuple(rng.sample(range(host.n), size))
                w = collapse_all(subset, host, g, h)
                assert verify_witness(w)
                assert witness_digest(w) == next(digests), (host.n, subset)
                used |= {"g" if s is g else "h" for s in w.steps if s is g or s is h}
        # both an edge and a non-edge collapse occur among the pinned chains
        assert used == {"g", "h"}

    def test_rejects_non_collapsing_gadget(self, paley29):
        host = paley29.graph
        ident = make_named("identity", host)
        g = collapsing_gadget(host, next(host.edges()))
        with pytest.raises(ValueError):
            collapse_all((0, 1), host, g, ident)


def _chase(witness, x):
    value = x
    for step in witness.steps:
        value = step.apply(value)
    return value


class TestOrbitClosure:
    def test_identity_only(self):
        start = cycle_graph(5)
        assert orbit_closure(start, GeneratorSet()) == frozenset({canonical_form(start)})

    def test_minus_gives_complement_pair(self):
        start = complete_graph(3)
        closure = orbit_closure(start, GeneratorSet(frozenset({"minus"})))
        assert closure == frozenset(
            {canonical_form(start), canonical_form(complement_graph(start))}
        )

    def test_edge_deletion_downward_closure(self, paley13):
        # a cross-structure gadget deleting one specific edge of a rich host
        host = paley13.graph
        e = next(host.edges())
        deleted = Graph.from_edges(host.n, [x for x in host.edges() if x != e])
        gadget = FunctionGadget(
            host, deleted, tuple((v, v) for v in range(host.n)), "custom"
        )
        closure = orbit_closure(
            complete_graph(3), GeneratorSet(extra=(gadget,))
        )
        expected = {
            canonical_form(complete_graph(3)),
            canonical_form(path_graph(3)),
            canonical_form(Graph.from_edges(3, [(0, 1)])),
            canonical_form(empty_graph(3)),
        }
        assert closure == frozenset(expected)

    def test_monotone_in_generators(self):
        start = cycle_graph(4)
        small = orbit_closure(start, GeneratorSet(frozenset({"minus"})))
        large = orbit_closure(start, GeneratorSet(frozenset({"minus", "switch"})))
        assert small <= large

    def test_idempotent(self):
        start = path_graph(4)
        gens = GeneratorSet(frozenset({"switch", "const"}))
        closure = orbit_closure(start, gens)
        again = set()
        for t in closure:
            again |= orbit_closure(t, gens)
        assert again == set(closure)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            orbit_closure(empty_graph(6), GeneratorSet())


class TestTypeTables:
    def test_counts(self):
        assert [len(all_graph_types(n)) for n in range(1, 6)] == [1, 2, 4, 11, 34]

    def test_canonical_form_is_isomorphism_invariant(self):
        g = path_graph(4)
        relabeled = Graph.from_edges(4, [(3, 2), (2, 0), (0, 1)])
        assert canonical_form(g) == canonical_form(relabeled)

    @staticmethod
    def naive_canonical_form(g: Graph) -> Graph:
        pairs = list(combinations(range(g.n), 2))
        best = min(
            sum(1 << b for b, (i, j) in enumerate(pairs) if g.has_edge(perm[i], perm[j]))
            for perm in permutations(range(g.n))
        )
        return Graph.from_edges(g.n, [p for b, p in enumerate(pairs) if best >> b & 1])

    @pytest.mark.parametrize("n", range(6))
    def test_canonical_form_matches_naive_minimum(self, n):
        for g in all_raw_graphs(n):
            want = self.naive_canonical_form(g)
            assert canonical_form(g) == want
            assert canonical_form(g) == want  # answered by the memo

    def test_canonical_form_above_five_vertices(self):
        for n, seed in ((6, 0), (6, 1), (7, 0), (7, 1), (8, 0)):
            g = random_graph(n, 1000 * n + seed)
            want = self.naive_canonical_form(g)
            assert canonical_form(g) == want
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            relabeled = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_form(relabeled) == want
            assert canonical_form(g) == want

    def test_type_tuples_pinned(self):
        # the representatives and their order, as the orbit closures use them
        digests = [
            "099cc60540091bca9488a466c656f52c12356c7439f6fbab74a9dd46fb25f8f9",
            "383b80fa439b23b05901a5b384691480d989f868e0f128f1b483f29908f13960",
            "99371a8cbec82d2cfb165d596d27f980c3e7b9f1cf43b41e40441c5317e32f28",
            "d1225846094f70dcb002996951c01adec28b3bc371a76aa5dee2c5c1b0be07ea",
            "53eb2119463f084be56c0a5eb951a0457dc3260a6eec174dbd7d21f8fbfc45dc",
        ]
        for n, digest in enumerate(digests, start=1):
            text = "".join(format_graph(t) for t in all_graph_types(n))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, n


class TestJoinClasses:
    def test_join_table(self):
        assert join_classes(ReductClass.MINUS, ReductClass.SWITCH) is ReductClass.MINUS_SWITCH
        assert join_classes(ReductClass.GRAPH, ReductClass.MINUS) is ReductClass.MINUS
        assert join_classes(ReductClass.EQUALITY, ReductClass.GRAPH) is ReductClass.EQUALITY
        assert join_classes(ReductClass.MINUS_SWITCH, ReductClass.MINUS) is ReductClass.MINUS_SWITCH
        for cls in ReductClass:
            assert join_classes(cls, cls) is cls


class TestClassifyReduct:
    def test_five_reference_relations_on_paley13(self, paley13):
        host = paley13.graph
        assert classify_reduct(edge_relation(), host, 2).reduct_class is ReductClass.GRAPH
        assert classify_reduct(parity_relation(4), host, 2).reduct_class is ReductClass.MINUS
        assert classify_reduct(parity_relation(3), host, 2).reduct_class is ReductClass.SWITCH
        joint = classify_reduct([parity_relation(3), parity_relation(4)], host, 2)
        assert joint.reduct_class is ReductClass.MINUS_SWITCH
        assert classify_reduct(distinct_relation(2), host, 2).reduct_class is ReductClass.EQUALITY

    def test_exactly_one_class(self, paley13):
        host = paley13.graph
        for r in (edge_relation(), parity_relation(3), parity_relation(4), distinct_relation(2)):
            result = classify_reduct(r, host, 2)
            assert isinstance(result.reduct_class, ReductClass)

    def test_certificates_shape(self, paley13):
        host = paley13.graph
        result = classify_reduct(edge_relation(), host, 2)
        cert = result.certificates[0]
        assert not cert.equality.definable
        assert not cert.complement.preserved
        assert cert.complement.witness is not None
        assert cert.switch_violations  # some vertex switch breaks an edge
        blob = result.to_json_dict()
        assert blob["class"] == "graph"
        assert blob["relations"][0]["complement_invariant"] is False

    def test_equality_skips_invariance_tests(self, paley13):
        result = classify_reduct(distinct_relation(2), paley13.graph, 2)
        cert = result.certificates[0]
        assert cert.equality.definable
        assert cert.complement is None

    def test_host_verification(self):
        with pytest.raises(ValueError):
            classify_reduct(edge_relation(), complete_graph(3), 1)
        # and the same host is accepted with the check disabled
        classify_reduct(edge_relation(), complete_graph(3), 1, check_host=False)

    def test_host_too_small_for_arity(self):
        with pytest.raises(ValueError):
            classify_reduct(parity_relation(4), complete_graph(3), 1, check_host=False)

    def test_tuple_set_relation_is_switch_and_minus_invariant(self, paley13):
        from rado_lab import TupleSetRelation

        host = paley13.graph
        r = TupleSetRelation(2, [(0, 1), (1, 0)])
        result = classify_reduct(r, host, 2)
        # graph-independent membership survives every rewrite
        assert result.reduct_class in (ReductClass.MINUS_SWITCH, ReductClass.EQUALITY)


class TestStability:
    def test_verdicts_stable_across_hosts(self, paley13, paley29, ec3_host):
        hosts = [(paley13.graph, 2), (paley29.graph, 3), (ec3_host, 3)]
        for host, k in hosts:
            assert classify_reduct(parity_relation(3), host, k).reduct_class is ReductClass.SWITCH
