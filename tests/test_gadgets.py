import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rado_lab import (
    FunctionGadget,
    Graph,
    GadgetConstructionError,
    PairColor,
    compose,
    complement_graph,
    complete_graph,
    cycle_graph,
    edge_relation,
    empty_graph,
    find_embeddings,
    make_named,
    nonedge_relation,
    pair_color,
    parity_relation,
    path_graph,
    violates,
)
from rado_lab import relations
from rado_lab.gadgets import NAMED_KINDS, format_gadget, parse_gadget
from rado_lab.graphs import build_paley, format_graph, iter_embedding_maps, parse_graph, switch_graph
from conftest import all_raw_graphs, random_graph


class TestMakeNamed:
    def test_en_on_triangle(self):
        g = make_named("eN", complete_graph(3), dst=empty_graph(3))
        assert g.mapping == ((0, 0), (1, 1), (2, 2))
        assert g.label == "eN"

    def test_minus_via_paley5_witness(self):
        result = build_paley(5)
        g = make_named("minus", result.graph, witness=result.complement_witness)
        for x, y in combinations(range(5), 2):
            src_edge = result.graph.has_edge(x, y)
            dst_edge = result.graph.has_edge(g.apply(x), g.apply(y))
            assert src_edge != dst_edge

    def test_minus_default_complement(self):
        g = make_named("minus", path_graph(3))
        assert g.apply(0) == 0
        assert not g.dst.has_edge(0, 1) and g.dst.has_edge(0, 2)

    def test_const(self):
        g = make_named("const", cycle_graph(5), target=3)
        assert all(g.apply(v) == 3 for v in range(5))

    def test_identity_partial_dom(self):
        g = make_named("identity", cycle_graph(5), dom=(1, 3))
        assert g.dom == (1, 3)
        assert g.apply(3) == 3

    def test_switch(self):
        g = make_named("switch", complete_graph(3), s={0})
        assert list(g.dst.edges()) == [(1, 2)]

    def test_ee_finds_least_clique(self, paley13):
        g = make_named("eE", path_graph(3), dst=paley13.graph)
        image = [g.apply(v) for v in range(3)]
        for x, y in combinations(image, 2):
            assert paley13.graph.has_edge(x, y)

    def test_ee_deficit_error(self):
        with pytest.raises(GadgetConstructionError) as info:
            make_named("eE", complete_graph(4), dst=cycle_graph(5))
        assert "clique" in str(info.value)

    def test_en_deficit_error(self):
        with pytest.raises(GadgetConstructionError) as info:
            make_named("eN", complete_graph(3), dst=complete_graph(5))
        assert "independent" in str(info.value)

    def test_minus_wrong_dst(self):
        with pytest.raises(GadgetConstructionError):
            make_named("minus", path_graph(3), dst=path_graph(3))

    def test_switch_empty_cut(self):
        with pytest.raises(GadgetConstructionError):
            make_named("switch", path_graph(3), s=set())

    def test_const_needs_target(self):
        with pytest.raises(GadgetConstructionError):
            make_named("const", path_graph(3))


def _naive_label_error(label, dst, mapping):
    # the message an eE / eN label check raises: the least pair of domain
    # points whose images are equal or of the wrong adjacency, by has_edge
    need = "edge" if label == "eE" else "nonedge"
    for (x1, y1), (x2, y2) in combinations(sorted(mapping), 2):
        kind = "equal" if y1 == y2 else "edge" if dst.has_edge(y1, y2) else "nonedge"
        if kind != need:
            return f"{label} gadget images of ({x1}, {x2}) form a {kind} pair, need {need}"
    return None


class TestLabelValidation:
    def test_minus_claim_rejected(self):
        with pytest.raises(GadgetConstructionError):
            FunctionGadget(
                complete_graph(3), complete_graph(3),
                ((0, 0), (1, 1), (2, 2)), "minus",
            )

    def test_identity_claim_rejected_on_move(self):
        with pytest.raises(GadgetConstructionError):
            FunctionGadget(
                complete_graph(3), complete_graph(3),
                ((0, 1), (1, 0), (2, 2)), "identity",
            )

    def test_ee_claim_rejected(self):
        with pytest.raises(GadgetConstructionError):
            FunctionGadget(
                path_graph(3), path_graph(3), ((0, 0), (1, 2)), "eE"
            )

    @pytest.mark.parametrize(
        "label,dst,message",
        [
            ("minus", complement_graph(path_graph(3)), "minus gadget maps the edge pair (0, 1) to a equal pair"),
            ("eE", complete_graph(3), "eE gadget images of (0, 1) form a equal pair, need edge"),
            ("eN", empty_graph(3), "eN gadget images of (0, 1) form a equal pair, need nonedge"),
        ],
    )
    def test_collapsed_pair_rejected(self, label, dst, message):
        with pytest.raises(GadgetConstructionError) as exc:
            FunctionGadget(path_graph(3), dst, ((0, 0), (1, 0)), label)
        assert str(exc.value) == message

    def test_switch_claim_rejected(self):
        with pytest.raises(GadgetConstructionError):
            FunctionGadget(
                path_graph(3), complete_graph(3),
                ((0, 0), (1, 1), (2, 2)), "switch",
            )

    def test_switch_claim_accepted_for_real_cut(self):
        from rado_lab import switch_graph

        g = cycle_graph(5)
        FunctionGadget(
            g, switch_graph(g, {1, 2}),
            tuple((v, v) for v in range(5)), "switch",
        )

    def test_switch_label_matches_brute_force(self):
        # accepted exactly when dst is src switched at some vertex subset,
        # over every ordered pair of graphs on at most 4 vertices
        pairs = 0
        for n in range(5):
            graphs = list(all_raw_graphs(n))
            identity = tuple((v, v) for v in range(n))
            for src in graphs:
                switchings = {
                    switch_graph(src, s) for size in range(n + 1) for s in combinations(range(n), size)
                }
                for dst in graphs:
                    pairs += 1
                    try:
                        FunctionGadget(src, dst, identity, "switch")
                    except GadgetConstructionError as exc:
                        assert str(exc) == "destination graph is not a switching of the source graph"
                        assert dst not in switchings, (src, dst)
                    else:
                        assert dst in switchings, (src, dst)
        assert pairs == 4166

    @given(
        st.sampled_from(["eE", "eN"]),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example("eE", 0, 0)
    @example("eN", 1, 0)
    @example("eE", 2, 0)
    @example("eN", 2, 1)
    @settings(max_examples=300, deadline=None)
    def test_ee_en_labels_match_naive_pair_oracle(self, label, size, seed):
        # a domain of ``size`` points of the source, not necessarily all of
        # it, mapped one-to-one or with collisions into a sparse or dense
        # destination
        rng = random.Random(seed)
        src = random_graph(rng.randint(size, 10), seed)
        density = rng.choice([0.0, 0.3, 0.7, 1.0])
        n = rng.randint(1 if size else 0, 10)
        dst = Graph.from_edges(n, [p for p in combinations(range(n), 2) if rng.random() < density])
        dom = rng.sample(range(src.n), size)
        if size <= n and rng.random() < 0.5:
            images = rng.sample(range(n), size)
        else:
            images = rng.choices(range(n), k=size)
        mapping = tuple(zip(dom, images))
        want = _naive_label_error(label, dst, mapping)
        try:
            FunctionGadget(src, dst, mapping, label)
        except GadgetConstructionError as exc:
            assert str(exc) == want
        else:
            assert want is None

    def test_duplicate_domain_vertex(self):
        with pytest.raises(GadgetConstructionError):
            FunctionGadget(path_graph(3), path_graph(3), ((0, 0), (0, 1)), "custom")


def _random_host(rng, n):
    density = rng.choice([0.0, 0.5, 1.0])
    return Graph.from_edges(n, [p for p in combinations(range(n), 2) if rng.random() < density])


def _relabelled_complement(g, rng):
    # (perm, the complement of g moved by perm): x -> perm[x] flips every pair
    perm = list(range(g.n))
    rng.shuffle(perm)
    return perm, Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in complement_graph(g).edges()])


def _labelled_gadget(label, src, dom, rng):
    # a gadget of ``label`` on ``dom``; eE and eN land on the least clique or
    # independent set of a random destination that has one, else of a
    # complete or empty one
    if label == "identity":
        return make_named("identity", src, dom=dom)
    if label == "minus":
        if rng.random() < 0.5:
            return make_named("minus", src, dom=dom)
        perm, dst = _relabelled_complement(src, rng)
        return FunctionGadget(src, dst, tuple((x, perm[x]) for x in dom), "minus")
    if label in ("eE", "eN"):
        shape = complete_graph(len(dom)) if label == "eE" else empty_graph(len(dom))
        dst = _random_host(rng, len(dom) + rng.randint(0, 3))
        if next(iter_embedding_maps(shape, dst), None) is None:
            dst = shape
        return make_named(label, src, dom=dom, dst=dst)
    if label == "const":
        return make_named("const", src, dom=dom, target=rng.randrange(src.n))
    if label == "switch":
        return make_named("switch", src, dom=dom, s=rng.sample(range(src.n), rng.randint(1, src.n)))
    dst = _random_host(rng, rng.randint(1, 12))
    return FunctionGadget(src, dst, tuple((x, rng.randrange(dst.n)) for x in dom))


class TestRewrite:
    @given(
        st.sampled_from(NAMED_KINDS + ("custom",)),
        st.integers(min_value=1, max_value=12),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example("minus", 12, True, 0)
    @example("eE", 1, True, 0)
    @example("const", 5, False, 3)
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_pullback_walk(self, label, n, whole, seed):
        # the rows a label proves (or the minus check walked, or a custom
        # map walks when first read) are the pullback of the bare mapping,
        # on whole and partial domains of hosts with 1-12 vertices
        rng = random.Random(seed)
        src = _random_host(rng, n)
        dom = range(n) if whole else sorted(rng.sample(range(n), rng.randint(0, n)))
        f = _labelled_gadget(label, src, dom, rng)
        assert ("_rewrite" in vars(f)) == (label == "minus")
        assert f._rewrite == relations._pullback(f.as_mapping(), f.src, f.dst)
        r = parity_relation(3)
        assert violates(f, r) == relations.preserved_by_map(r, f.as_mapping(), f.src, f.dst)

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_empty_and_complete_hosts(self, n):
        for src in (empty_graph(n), complete_graph(n)):
            for label in NAMED_KINDS + ("custom",):
                f = _labelled_gadget(label, src, range(n), random.Random(n))
                assert f._rewrite == relations._pullback(f.as_mapping(), f.src, f.dst)


def _naive_minus_error(src, dst, mapping):
    # the message a minus label check raises: the least pair of domain
    # points whose images are equal or keep the pair's kind, by has_edge
    for (x1, y1), (x2, y2) in combinations(sorted(mapping), 2):
        kind = "equal" if y1 == y2 else "edge" if dst.has_edge(y1, y2) else "nonedge"
        src_kind = "edge" if src.has_edge(x1, x2) else "nonedge"
        if kind in ("equal", src_kind):
            return f"minus gadget maps the {src_kind} pair ({x1}, {x2}) to a {kind} pair"
    return None


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
@example(2, 0)
@settings(max_examples=300, deadline=None)
def test_minus_label_names_the_least_failing_pair(n, seed):
    # an anti-embedding into a relabelled complement, kept as it is, with
    # one destination pair toggled, or with two domain points sent to one
    # image: the check accepts exactly the maps the pair walk accepts and
    # names the same least pair
    rng = random.Random(seed)
    src = _random_host(rng, n)
    perm, dst = _relabelled_complement(src, rng)
    dom = sorted(rng.sample(range(n), rng.randint(0, n)))
    images = {x: perm[x] for x in dom}
    change = rng.choice(["none", "toggle", "collide"])
    if change == "toggle" and n >= 2:
        u, v = rng.sample(range(n), 2)
        dst = Graph.from_edges(n, set(dst.edges()) ^ {(min(u, v), max(u, v))})
    elif change == "collide" and len(dom) >= 2:
        a, b = rng.sample(dom, 2)
        images[a] = images[b]
    mapping = tuple(images.items())
    want = _naive_minus_error(src, dst, mapping)
    try:
        f = FunctionGadget(src, dst, mapping, "minus")
    except GadgetConstructionError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert f._rewrite == relations._pullback(f.as_mapping(), src, dst)


class TestCompose:
    def test_identity_neutral(self):
        f = make_named("const", path_graph(3), target=1)
        ident = make_named("identity", path_graph(3))
        composed = compose(ident, f)
        assert composed.mapping == f.mapping

    def test_minus_twice_restores_pair_kinds(self):
        result = build_paley(5)
        minus = make_named("minus", result.graph, witness=result.complement_witness)
        twice = compose(minus, minus)
        for x, y in combinations(range(5), 2):
            assert result.graph.has_edge(x, y) == result.graph.has_edge(
                twice.apply(x), twice.apply(y)
            )

    def test_en_after_embedding(self, paley13):
        emb = find_embeddings(path_graph(3), paley13.graph, 1)[0]
        step = FunctionGadget(
            path_graph(3), paley13.graph,
            tuple((v, emb.mapping[v]) for v in range(3)), "custom",
        )
        en = make_named("eN", paley13.graph, dst=empty_graph(13))
        composed = compose(en, step)
        image = [composed.apply(v) for v in range(3)]
        assert len(set(image)) == 3
        for x, y in combinations(image, 2):
            assert not composed.dst.has_edge(x, y)

    def test_graph_mismatch(self):
        f = make_named("identity", path_graph(3))
        g = make_named("identity", cycle_graph(5))
        with pytest.raises(GadgetConstructionError):
            compose(g, f)

    def test_domain_coverage(self):
        f = make_named("const", path_graph(3), target=2)
        g = make_named("identity", path_graph(3), dom=(0, 1))
        with pytest.raises(GadgetConstructionError):
            compose(g, f)


class TestPairColor:
    def test_const_collapses(self):
        f = make_named("const", path_graph(3), target=0)
        assert pair_color(f, 0, 2) is PairColor.COLLAPSED

    def test_identity_on_edge(self):
        f = make_named("identity", path_graph(3))
        assert pair_color(f, 0, 1) is PairColor.EDGE
        assert pair_color(f, 0, 2) is PairColor.NONEDGE

    def test_minus_on_edge(self):
        f = make_named("minus", path_graph(3))
        assert pair_color(f, 0, 1) is PairColor.NONEDGE

    def test_symmetric(self):
        f = make_named("minus", cycle_graph(5))
        for x, y in combinations(range(5), 2):
            assert pair_color(f, x, y) is pair_color(f, y, x)

    def test_minus_swaps_every_pair(self):
        for seed in range(5):
            g = random_graph(6, seed)
            f = make_named("minus", g)
            for x, y in combinations(range(6), 2):
                color = pair_color(f, x, y)
                if g.has_edge(x, y):
                    assert color is PairColor.NONEDGE
                else:
                    assert color is PairColor.EDGE

    def test_out_of_domain(self):
        f = make_named("identity", path_graph(3), dom=(0, 1))
        with pytest.raises(KeyError):
            pair_color(f, 0, 2)


class TestViolates:
    def test_en_preserves_nonedge_relation(self, paley13):
        en = make_named("eN", paley13.graph, dst=empty_graph(13))
        assert violates(en, nonedge_relation()).preserved

    def test_en_violates_edge_relation(self):
        g = path_graph(3)
        en = make_named("eN", g, dst=empty_graph(3))
        res = violates(en, edge_relation())
        assert not res.preserved
        assert res.witness == (0, 1)

    def test_minus_preserves_parity4_small(self):
        for n in (4, 5):
            for g in all_raw_graphs(n):
                minus = make_named("minus", g)
                assert violates(minus, parity_relation(4)).preserved

    def test_minus_preserves_parity4_sampled_6(self):
        for seed in range(6):
            g = random_graph(6, seed)
            minus = make_named("minus", g)
            assert violates(minus, parity_relation(4)).preserved


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        g = cycle_graph(5)
        (tmp_path / "c5.g").write_text(format_graph(g))
        f = make_named("const", g, target=2)
        text = format_gadget(f, "c5.g", "c5.g")
        parsed = parse_gadget(text, lambda name: parse_graph((tmp_path / name).read_text()))
        assert parsed == f

    def test_bad_label_claim_rejected(self, tmp_path):
        g = complete_graph(3)
        (tmp_path / "k3.g").write_text(format_graph(g))
        text = "src k3.g\ndst k3.g\nlabel minus\n0 -> 0\n1 -> 1\n2 -> 2\n"
        with pytest.raises(GadgetConstructionError):
            parse_gadget(text, lambda name: parse_graph((tmp_path / name).read_text()))

    def test_missing_header(self):
        with pytest.raises(GadgetConstructionError):
            parse_gadget("0 -> 1\n", lambda name: path_graph(2))


class TestArgumentRejections:
    # each rejection names what is wrong with the arguments
    @pytest.mark.parametrize(
        "dst, mapping, label, message",
        [
            (path_graph(3), ((0, 0),), "bogus", "unknown label 'bogus'"),
            (path_graph(3), ((3, 0),), "custom", "domain vertex 3 out of range"),
            (path_graph(3), ((0, 3),), "custom", "image vertex 3 out of range"),
            (cycle_graph(3), ((0, 0),), "identity", "identity gadget must map a graph to itself"),
            (path_graph(3), ((0, 0), (1, 2)), "const", "const gadget has 2 distinct image vertices"),
            (path_graph(3), ((0, 1),), "switch", "switch gadget must be the identity vertex map"),
            (path_graph(4), ((0, 0),), "switch", "switch gadget endpoints differ in size"),
        ],
    )
    def test_constructor(self, dst, mapping, label, message):
        with pytest.raises(GadgetConstructionError) as info:
            FunctionGadget(path_graph(3), dst, mapping, label)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("bogus", {}, "unknown gadget kind 'bogus'"),
            ("const", {"target": 5}, "target vertex 5 out of range"),
            ("switch", {}, "switch gadget needs a cut s"),
            ("identity", {"target": 0}, "unexpected parameters: ['target']"),
            # a short witness ran out of entries, a long one was cut to size
            ("minus", {"witness": (0,)}, "a witness permutation has 1 entries, the source has 5 vertices"),
            ("minus", {"witness": (0, 2, 4, 1, 3, 0)}, "a witness permutation has 6 entries, the source has 5 vertices"),
        ],
    )
    def test_make_named(self, kind, params, message):
        with pytest.raises(GadgetConstructionError) as info:
            make_named(kind, cycle_graph(5), **params)
        assert str(info.value) == message

    def test_minus_witness_with_another_dst(self):
        result = build_paley(5)
        with pytest.raises(GadgetConstructionError) as info:
            make_named("minus", result.graph, witness=result.complement_witness, dst=complement_graph(result.graph))
        assert str(info.value) == "a witness permutation keeps the destination equal to the source"

    def test_pair_color_on_one_vertex(self):
        with pytest.raises(ValueError) as info:
            pair_color(make_named("identity", path_graph(3)), 1, 1)
        assert str(info.value) == "pair_color needs two distinct vertices"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 -> x", "line 3: malformed map line '0 -> x'"),
            ("0 to 1", "line 3: unrecognized line '0 to 1'"),
            ("src q.g", "line 3: duplicate src line"),
            ("dst q.g", "line 3: duplicate dst line"),
            # a later label line would skip the check of the first one
            ("label eE\nlabel custom", "line 4: duplicate label line"),
        ],
    )
    def test_gadget_file_lines(self, line, message):
        with pytest.raises(GadgetConstructionError) as info:
            parse_gadget(f"src p.g\ndst p.g\n{line}\n", lambda name: path_graph(2))
        assert str(info.value) == message
