import hashlib
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path

import pytest

from rado_lab import (
    EqualityDefinability,
    FunctionGadget,
    Graph,
    GeneratorSet,
    ReductClass,
    TypeSetRelation,
    all_graph_types,
    build_paley,
    canonical_form,
    classify_reduct,
    collapse_all,
    complete_graph,
    compose,
    complement_graph,
    cycle_graph,
    delete_all_edges,
    distinct_relation,
    edge_relation,
    empty_graph,
    find_embeddings,
    format_graph,
    interpolate,
    make_named,
    nonedge_relation,
    orbit_closure,
    parity_relation,
    parse_relation_spec,
    path_graph,
    qf_type,
    separating_invariant,
    switch_graph,
    verify_separation,
    verify_witness,
)
from rado_lab import generation, relations
from rado_lab.graphs import edge_code
from rado_lab.generation import PatternNotFoundError, Separation, join_classes
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
        gadget = delete_all_edges(k4, host, 3).steps[2]
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

    def test_depth_two_witness_through_the_recursion(self, paley13):
        # eE on a path is eN then minus: no certificate, no depth-1 witness,
        # a 2-step witness found by recursing past a rejected first step,
        # and a one-node budget stops the search before it finds it
        target = make_named("eE", path_graph(3))
        gens = GeneratorSet(frozenset({"eN", "minus"}))
        hosts = [paley13.graph]
        assert separating_invariant(target, gens) is None
        assert interpolate(target, gens, 1, hosts) is None
        w = interpolate(target, gens, 2, hosts)
        assert verify_witness(w) and w.generator_steps == 2
        assert witness_digest(w) == "d366589cfb87772fdfb2091842d0a55f5c90f5148b98b16c4b094dfbd6fb1a08"
        assert generation._search(target, gens, 2, hosts, 1)[0] is None

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


    def test_witness_verifier_rejects_a_point_outside_the_target(self, paley13):
        # a target-set point that the target does not map is a rejection,
        # not a KeyError from the target's lookup
        from rado_lab import InterpolationWitness

        g = paley13.graph
        target = make_named("identity", g, dom=[0, 1, 2])
        w = InterpolationWitness(target, (0, 1, 5), (make_named("identity", g),), ("generator",))
        assert not verify_witness(w)
        assert verify_witness(replace(w, target_set=(0, 1, 2)))

    @pytest.mark.parametrize("tamper", ["roles", "chain", "final", "domain"])
    def test_witness_verifier_rejects_tampered_chain(self, paley13, tamper):
        w = delete_all_edges(path_graph(3), paley13.graph, 2)
        assert verify_witness(w)
        first = w.steps[0]
        if tamper == "roles":  # one role fewer than steps
            bad = replace(w, roles=w.roles[:-1])
        elif tamper == "chain":  # the chain starts on the host, not on the pattern
            bad = replace(w, steps=w.steps[1:], roles=w.roles[1:])
        elif tamper == "final":  # the target lands in another graph
            other = complement_graph(paley13.graph)
            bad = replace(w, target=FunctionGadget(w.target.src, other, w.target.mapping))
        else:  # the first step drops a point of the target set
            short = FunctionGadget(first.src, first.dst, first.mapping[:-1])
            bad = replace(w, steps=(short,) + w.steps[1:])
        assert not verify_witness(bad)


KINDS = ("minus", "switch", "eE", "eN", "const")
# sha256 of the orbit closures of every start in all_graph_types(1..5) under
# every subset of KINDS, as TestOrbitClosure.test_closure_digest_pinned lists them
CLOSURE_DIGEST = "3568e1086f75630eecb5adb97a1d61636185bcacba88f5b128811d896f59ec9f"
ALL_KIND_SETS = [
    GeneratorSet(frozenset(k for i, k in enumerate(KINDS) if bits >> i & 1)) for bits in range(32)
]


def naive_least_separation(target, gens):
    # the least (size, subset) whose image type lies outside the closure of
    # its source type, tried on every subset: no whole-domain gate and no
    # skipped pairs
    for m in range(2, min(5, len(target.dom)) + 1):
        for subset in combinations(target.dom, m):
            image_type = qf_type([target.apply(x) for x in subset], target.dst)
            reach = generation._type_closure(qf_type(subset, target.src), gens.kinds)
            if image_type not in reach:
                return subset, image_type, reach
    return None


def separation_target(host, rng, size, composite):
    """A random map, or the composite of two random named gadgets, on a
    random ``size``-point domain of ``host``."""
    dom = sorted(rng.sample(range(host.n), size))
    if not composite:
        return FunctionGadget(host, host, tuple((x, rng.randrange(host.n)) for x in dom))
    f = make_named("identity", host)
    for kind in rng.sample(("identity",) + KINDS, 2):
        params = {"switch": {"s": {rng.randrange(host.n)}}, "const": {"target": rng.randrange(host.n)}}
        f = compose(make_named(kind, f.dst, **params.get(kind, {})), f)
    return FunctionGadget(host, f.dst, tuple((x, f.apply(x)) for x in dom))


# (size, composite) per host; the exhaustive depth-3 search on random
# 5-point maps of Paley(29) takes about 20 s, so that host gets a composite
SEPARATION_TARGETS = {
    "paley13": ((3, False), (4, False), (5, True)),
    "paley29": ((3, False), (5, True)),
}


class TestSeparatingInvariant:
    def thomas(self, paley29):
        target = make_named("minus", paley29.graph, witness=paley29.complement_witness)
        return target, GeneratorSet(frozenset({"switch"})), [paley29.graph]

    def test_thomas_certificate_is_parity_on_first_triple(self, paley29):
        # switching keeps the parity of every triple, the complement map
        # flips it: (0, 1, 2) spans two edges of Paley(29), so the invariant
        # is the even distinct triples, and the image lies in parity:3
        target, gens, hosts = self.thomas(paley29)
        sep = separating_invariant(target, gens)
        assert sep.subset == (0, 1, 2)
        parity = parity_relation(3).type_table
        assert sep.relation.type_table == {
            rgs: tuple(not member for member in row) if rgs == (0, 1, 2) else row for rgs, row in parity.items()
        }
        assert sep.image_type[0] == (0, 1, 2) and parity[(0, 1, 2)][sep.image_type[1]]
        assert verify_separation(target, gens, hosts, sep)

    def test_collapse_without_const_separates_on_a_pair(self, paley13):
        target = make_named("const", paley13.graph, dom=(0, 1), target=0)
        sep = separating_invariant(target, GeneratorSet())
        assert (sep.subset, sep.image_type) == ((0, 1), ((0, 0), 0))
        assert sep.relation.types == {qf_type((0, 1), paley13.graph)}
        assert verify_separation(target, GeneratorSet(), [paley13.graph], sep)

    def test_positive_targets_get_no_certificate(self, paley13, paley29):
        cases = (
            (make_named("identity", paley13.graph, dom=(2, 7, 11)), GeneratorSet()),
            (make_named("eN", path_graph(3), dst=empty_graph(3)), GeneratorSet(frozenset({"eN"}))),
            (make_named("minus", paley29.graph, witness=paley29.complement_witness, dom=(3, 8, 19, 26)),
             GeneratorSet(frozenset({"minus"}))),
            (make_named("switch", paley29.graph, s={4, 9}), GeneratorSet(frozenset({"switch"}))),
            (make_named("const", paley29.graph, dom=(1, 5, 6), target=3), GeneratorSet(frozenset({"const"}))),
        )
        for target, gens in cases:
            assert separating_invariant(target, gens) is None, target.label

    def test_certified_miss_runs_no_search(self, paley29, monkeypatch):
        target, gens, hosts = self.thomas(paley29)

        def refuse(*args):
            raise AssertionError("searched after a certificate")

        monkeypatch.setattr(generation, "_search", refuse)
        monkeypatch.setattr(generation, "_named_pool", refuse)
        assert interpolate(target, gens, 2, hosts) is None

    def test_extra_gadgets_make_no_attempt(self, paley29, monkeypatch):
        host = paley29.graph
        k4 = complete_graph(4)
        gadget = delete_all_edges(k4, host, 3).steps[2]
        emb = find_embeddings(k4, host, 1)[0]
        target = FunctionGadget(k4, host, tuple((i, gadget.apply(emb.mapping[i])) for i in range(4)))

        def refuse(*args):
            raise AssertionError("certificate attempted with extra gadgets")

        for name in ("_acts_within", "_type_closure", "qf_type"):
            monkeypatch.setattr(generation, name, refuse)
        gens = GeneratorSet(extra=(gadget,))
        assert separating_invariant(target, gens) is None
        # the search itself compares QF types; the closures stay refused
        monkeypatch.setattr(generation, "qf_type", qf_type)
        assert verify_witness(interpolate(target, gens, 1, [host]))

    def test_depth_checked_before_the_certificate(self, paley29, monkeypatch):
        target, gens, hosts = self.thomas(paley29)

        def refuse(*args):
            raise AssertionError("certificate attempted before the depth check")

        monkeypatch.setattr(generation, "separating_invariant", refuse)
        with pytest.raises(ValueError):
            interpolate(target, gens, 0, hosts)

    def test_no_host_is_refused(self, paley13):
        # the minus map on {0, 1, 2} acts as minus, so no certificate ends
        # the call early; with no host the search would have no generator
        # and the checker none to check
        target = make_named("minus", paley13.graph, witness=paley13.complement_witness, dom=(0, 1, 2))
        gens = GeneratorSet(frozenset({"minus"}))
        assert interpolate(target, gens, 1, [paley13.graph]) is not None
        with pytest.raises(ValueError, match="^interpolation needs at least one host$"):
            interpolate(target, gens, 1, [])
        switch = GeneratorSet(frozenset({"switch"}))
        sep = separating_invariant(target, switch)
        assert verify_separation(target, switch, [paley13.graph], sep)
        with pytest.raises(ValueError, match="^interpolation needs at least one host$"):
            verify_separation(target, switch, [], sep)

    def test_certified_misses_are_complete(self, paley13, paley29):
        # a seeded battery of random targets: the certificate is missing
        # exactly when the target acts on types as a composite of the kinds,
        # so no target with two or more domain points reaches the final
        # ``return None`` of separating_invariant, and every certificate
        # passes the independent check on the target's source host
        rng = random.Random(28)
        sources = (paley13.graph, paley29.graph)
        dsts = sources + (complete_graph(8), empty_graph(8))
        acting = separated = 0
        for _ in range(2000):
            src = rng.choice(sources)
            style = rng.choice(("injective", "few-valued", "near-identity"))
            dst = src if style == "near-identity" else rng.choice(dsts)
            size = rng.randint(2, min(10, dst.n) if style == "injective" else 10)
            dom = sorted(rng.sample(range(src.n), size))
            if style == "injective":
                images = rng.sample(range(dst.n), size)
            elif style == "few-valued":
                values = rng.sample(range(dst.n), rng.randint(1, 3))
                images = [rng.choice(values) for _ in dom]
            else:  # the identity with up to two changes
                images = list(dom)
                for i in rng.sample(range(size), rng.randint(0, 2)):
                    images[i] = rng.randrange(dst.n)
            target = FunctionGadget(src, dst, tuple(zip(dom, images)))
            gens = GeneratorSet(frozenset(k for k in KINDS if rng.random() < 0.5))
            sep = separating_invariant(target, gens)
            acts = relations._acts_within(relations._pullback(target.as_mapping(), src, dst), gens.kinds)
            assert (sep is None) == acts, (target.mapping, dst.n, gens.kinds)
            if sep is None:
                acting += 1
            else:
                separated += 1
                assert verify_separation(target, gens, [src], sep), (target.mapping, dst.n, gens.kinds)
        assert acting and separated

    def test_verifier_consults_no_closure(self, paley29, monkeypatch):
        target, gens, hosts = self.thomas(paley29)
        sep = separating_invariant(target, gens)

        def refuse(*args):
            raise AssertionError("the checker ran closure code")

        monkeypatch.setattr(generation, "_type_closure", refuse)
        monkeypatch.setattr(generation, "_kind_actions", refuse)
        assert verify_separation(target, gens, hosts, sep)

    def test_verifier_rejects_tampering(self, paley29):
        target, gens, hosts = self.thomas(paley29)
        sep = separating_invariant(target, gens)
        g = paley29.graph
        # a triple whose own type is outside the relation
        odd = next(t for t in combinations(range(29), 3) if not sep.relation.holds(t, g))
        tampered = [replace(sep, subset=odd)]
        # the relation without one of its types, each in turn
        tampered += [
            replace(sep, relation=TypeSetRelation(3, sep.relation.types - {t})) for t in sep.relation.types
        ]
        # an image type inside the relation
        tampered += [replace(sep, image_type=t) for t in sep.relation.types]
        # a relation the target preserves, so the image lies inside it: it
        # holds on constant triples alone
        constant = TypeSetRelation(3, {qf_type((0, 0, 0), g)})
        image = tuple(target.apply(x) for x in (0, 0, 0))
        tampered.append(Separation(constant, (0, 0, 0), qf_type(image, g)))
        for bad in tampered:
            assert not verify_separation(target, gens, hosts, bad), bad
        # a subset leaving a partial target's domain
        partial = make_named("minus", g, witness=paley29.complement_witness, dom=(0, 1, 2, 5))
        sep = separating_invariant(partial, gens)
        assert verify_separation(partial, gens, hosts, sep)
        assert not verify_separation(partial, gens, hosts, replace(sep, subset=(0, 1, 3)))

    @pytest.mark.parametrize("kind", ["minus", "switch"])
    def test_injective_pair_tries_no_subset(self, paley13, kind, monkeypatch):
        # with minus or switch every distinct pair reaches both distinct pair
        # types, so a 2-point injective target has no certificate to look for
        g = paley13.graph
        target = FunctionGadget(g, g, ((0, 0), (1, 2)))  # the edge (0, 1) onto the non-edge (0, 2)
        gens = GeneratorSet(frozenset({kind}))

        def refuse(*args):
            raise AssertionError("tried a subset")

        with monkeypatch.context() as patch:
            patch.setattr(generation, "_type_closure", refuse)
            assert separating_invariant(target, gens) is None
        w = interpolate(target, gens, 1, [g])
        assert verify_witness(w)
        assert w.transcript == (f"reposition into {kind}", f"apply {kind}", "align with target")

    @pytest.mark.parametrize("fixture", ["paley13", "paley29"])
    def test_certified_misses_agree_with_the_search(self, request, fixture):
        # every certified miss is also a miss of the search at depth 3 run
        # to exhaustion, and every certificate passes the independent check;
        # the gate and the pair pass change no least certificate
        host = request.getfixturevalue(fixture).graph
        rng = random.Random(host.n)
        budget = 10**7
        certified = positives = 0
        for size, composite in SEPARATION_TARGETS[fixture]:
            target = separation_target(host, rng, size, composite)
            for gens in ALL_KIND_SETS:
                sep = separating_invariant(target, gens)
                naive = naive_least_separation(target, gens)
                if sep is None:
                    assert naive is None, (target, gens)
                    w, _ = generation._search(target, gens, 1, [host], budget)
                    positives += w is not None
                    continue
                certified += 1
                assert (sep.subset, sep.image_type, sep.relation.types) == naive
                assert verify_separation(target, gens, [host], sep)
                w, nodes = generation._search(target, gens, 3, [host], budget)
                assert w is None and nodes <= budget, (target, gens)
        assert certified and positives


class TestKindActions:
    """The table's ``closed_under`` and the closures' ``_kind_actions`` are
    two definitions of the kinds' actions on types; they must agree."""

    @staticmethod
    def images(kind, n, code):
        # (vertex count, edge code) of each image of an n-vertex code under
        # one kind, read from the action table
        masks, constants = generation._kind_actions(frozenset({kind}))[n]
        return [(n, code ^ flip) for flip in masks] + list(constants)

    @staticmethod
    def closed_by_images(r):
        # the kinds under whose images every member type stays a member; a
        # collapse goes to the all-equal pattern, as in ``_type_closure``
        members = {
            (rgs, code) for rgs, row in r.type_table.items() for code, member in enumerate(row) if member
        }
        closed = set()
        for kind in ("minus", "switch", "eE", "eN", "const"):
            if all(
                (rgs if n == max(rgs) + 1 else (0,) * r.arity, image) in members
                for rgs, code in members
                for n, image in TestKindActions.images(kind, max(rgs) + 1, code)
            ):
                closed.add(kind)
        return closed

    @staticmethod
    def all_types(arity):
        return [
            (rgs, code)
            for rgs in relations._qf_types(arity)
            for code in range(1 << (max(rgs) + 1) * max(rgs) // 2)
        ]

    def test_closed_under_matches_kind_images(self):
        pairs, triples = self.all_types(2), self.all_types(3)
        assert (len(pairs), len(triples)) == (3, 15)
        rels = [
            TypeSetRelation(2, [t for b, t in enumerate(pairs) if bits >> b & 1]) for bits in range(1 << 3)
        ]
        for bits in random.Random(16).sample(range(1 << 15), 2048):
            rels.append(TypeSetRelation(3, [t for b, t in enumerate(triples) if bits >> b & 1]))
        rels += [parity_relation(a) for a in (2, 3, 4, 5)] + [edge_relation(), nonedge_relation()]
        rels += [distinct_relation(a) for a in (2, 3, 4)]
        seen = set()
        for r in rels:
            want = self.closed_by_images(r)
            assert r.type_facts.closed_under == want, r.name
            seen.update(want)
        assert seen == {"minus", "switch", "eE", "eN", "const"}


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

    def test_chain_walks_the_least_copies(self, paley13, paley29):
        # independent oracle: the least copy is the first injective map, in
        # lexicographic order, that keeps the kind of every pair
        def least_copy(pattern, host):
            pairs = list(combinations(range(pattern.n), 2))
            return next(
                phi for phi in permutations(range(host.n), pattern.n)
                if all(pattern.has_edge(u, v) == host.has_edge(phi[u], phi[v]) for u, v in pairs)
            )

        rng = random.Random(14)
        deleted = 0
        # Paley(13) has no independent 4-set, so 4-vertex patterns run on
        # Paley(29)
        for n, host in [(3, paley13.graph)] * 30 + [(4, paley29.graph)] * 20:
            pattern = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            edges = list(pattern.edges())
            w = delete_all_edges(pattern, host, n - 1)
            steps = list(zip(w.roles, w.steps))
            generators = [step for role, step in steps if role == "generator"]
            repositions = [step for role, step in steps if role == "reposition"]
            assert len(generators) == len(edges)
            assert repositions[0].mapping == tuple(enumerate(least_copy(pattern, host)))
            for s, gadget in enumerate(generators):
                before = least_copy(Graph.from_edges(n, edges[s:]), host)
                after = least_copy(Graph.from_edges(n, edges[s + 1:]), host)
                assert tuple(gadget.apply(x) for x in before) == after, (pattern, s)
            assert all(x == y for step in repositions[1:] for x, y in step.mapping)
            independent = least_copy(empty_graph(n), host)
            assert w.target.mapping == tuple(enumerate(independent))
            assert w.target.image() == independent
            deleted += len(edges)
        assert deleted >= 50


    def test_each_copy_searched_and_checked_once(self, paley29, monkeypatch):
        # |E| + 1 least copies, each found by one search and checked by one
        # qf_type
        searches, checks = [], []

        def counted(log, call):
            def wrapped(*args, **kwargs):
                log.append(args)
                return call(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(generation, "iter_embedding_maps", counted(searches, generation.iter_embedding_maps))
        monkeypatch.setattr(generation, "qf_type", counted(checks, generation.qf_type))
        for pattern in (complete_graph(4), path_graph(4)):
            searches.clear()
            checks.clear()
            w = delete_all_edges(pattern, paley29.graph, 3)
            edges = len(list(pattern.edges()))
            assert w.generator_steps == edges
            assert (len(searches), len(checks)) == (edges + 1, edges + 1), pattern

    def test_unchecked_witness_is_refused(self, paley29, monkeypatch):
        # the independent check is a raise, so it holds under python -O too
        monkeypatch.setattr(generation, "verify_witness", lambda witness: False)
        with pytest.raises(RuntimeError, match="^the witness chain fails its independent check$"):
            delete_all_edges(complete_graph(3), paley29.graph, 2)


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

    def test_gadgets_defined_on_their_pair_only(self, paley13):
        # four vertices do not embed into a two-vertex domain, so no
        # repositioning map pins the least pair onto the collapsing pair
        host = paley13.graph
        (a, b), (c, d) = next(host.edges()), next(host.nonedges())
        g = FunctionGadget(host, host, ((a, b), (b, b)))
        h = FunctionGadget(host, host, ((c, d), (d, d)))
        with pytest.raises(PatternNotFoundError):
            collapse_all((0, 1, 2, 3), host, g, h)

    def test_rejects_non_collapsing_gadget(self, paley29):
        host = paley29.graph
        ident = make_named("identity", host)
        g = collapsing_gadget(host, next(host.edges()))
        with pytest.raises(ValueError):
            collapse_all((0, 1), host, g, ident)

    def test_rejects_empty_set(self, paley29):
        host = paley29.graph
        g = collapsing_gadget(host, next(host.edges()))
        h = collapsing_gadget(host, next(host.nonedges()))
        with pytest.raises(ValueError, match="nonempty vertex set"):
            collapse_all((), host, g, h)
        # the same error with assertions stripped
        code = (
            "from rado_lab import build_paley, collapse_all, FunctionGadget\n"
            "host = build_paley(29).graph\n"
            "(a, b), (c, d) = next(host.edges()), next(host.nonedges())\n"
            "g = FunctionGadget(host, host, tuple((v, b if v == a else v) for v in range(host.n)))\n"
            "h = FunctionGadget(host, host, tuple((v, d if v == c else v) for v in range(host.n)))\n"
            "try:\n"
            "    collapse_all((), host, g, h)\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "collapse_all needs a nonempty vertex set\n"


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

    def test_const_adds_nothing_to_no_vertices(self):
        # the closure holds patterns of at most start.n vertices, so a
        # collapse of no vertices is no 1-vertex pattern
        for kinds in ({"const"}, set(KINDS)):
            closure = orbit_closure(empty_graph(0), GeneratorSet(frozenset(kinds)))
            assert closure == frozenset({empty_graph(0)})

    def test_closure_digest_pinned(self):
        # every start of at most 5 vertices under every subset of the kinds
        # (bit i of 0..31 selects KINDS[i]): 1 664 closures, as computed when
        # each step built, hashed and canonicalized graphs
        out = [
            sorted((g.n, sorted(g.edges())) for g in orbit_closure(start, gens))
            for n in range(1, 6)
            for start in all_graph_types(n)
            for gens in ALL_KIND_SETS
        ]
        assert len(out) == 1664
        assert hashlib.sha256(repr(out).encode()).hexdigest() == CLOSURE_DIGEST

    @staticmethod
    def brute_force_type(g: Graph) -> tuple[int, int]:
        # (n, least edge code over every relabeling), each relabeling built
        return g.n, min(edge_code(g.induced(perm)) for perm in permutations(range(g.n)))

    @classmethod
    def naive_closure(cls, start: Graph, kinds, extra) -> set[tuple[int, int]]:
        # the closure over graphs: the named kinds as graph operations, each
        # extra gadget through every induced embedding into its domain
        first = cls.brute_force_type(start)
        closed, work = {first}, [start]
        while work:
            g = work.pop()
            images = []
            if "minus" in kinds:
                images.append(complement_graph(g))
            if "switch" in kinds:
                images += [switch_graph(g, {v}) for v in range(g.n)]
            if "eE" in kinds:
                images.append(complete_graph(g.n))
            if "eN" in kinds:
                images.append(empty_graph(g.n))
            if "const" in kinds and g.n:
                images.append(empty_graph(1))
            for gadget in extra:
                for tup in permutations(gadget.dom, g.n):
                    if all(g.has_edge(a, b) == gadget.src.has_edge(tup[a], tup[b]) for a, b in combinations(range(g.n), 2)):
                        images.append(gadget.dst.induced(sorted({gadget.apply(x) for x in tup})))
            for image in images:
                t = cls.brute_force_type(image)
                if t not in closed:
                    closed.add(t)
                    work.append(image)
        return closed

    def test_extra_gadgets_match_naive_closure(self, paley13):
        # seeded custom gadgets from Paley(13) into itself or its complement,
        # some collapsing pairs, beside seeded named kinds; edgeless types,
        # whose canonical code 0 is falsy, must appear in some closures
        g = paley13.graph
        rng = random.Random(13)
        edgeless = 0
        for _ in range(12):
            extra = []
            for _ in range(rng.randint(1, 2)):
                dom = sorted(rng.sample(range(13), 6))
                dst = rng.choice((g, complement_graph(g)))
                extra.append(FunctionGadget(g, dst, tuple((x, rng.randrange(13)) for x in dom), "custom"))
            kinds = frozenset(k for k in KINDS if rng.random() < 0.3)
            for start in (rng.choice(all_graph_types(n)) for n in (2, 3, 4)):
                closure = orbit_closure(start, GeneratorSet(kinds, tuple(extra)))
                want = self.naive_closure(start, kinds, extra)
                assert {self.brute_force_type(t) for t in closure} == want, (start, sorted(kinds))
                assert all(t == canonical_form(t) for t in closure)
                edgeless += sum(1 for n, code in want if n > 1 and code == 0)
        assert edgeless


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
            assert join_classes(ReductClass.UNDEFINABLE, cls) is ReductClass.UNDEFINABLE
            assert join_classes(cls, ReductClass.UNDEFINABLE) is ReductClass.UNDEFINABLE
        for cls in ReductClass:
            assert join_classes(cls, cls) is cls


K4 = "E(0,1) & E(0,2) & E(0,3) & E(1,2) & E(1,3) & E(2,3)"
INDEPENDENT4 = (
    "x0!=x1 & x0!=x2 & x0!=x3 & x1!=x2 & x1!=x3 & x2!=x3"
    " & !E(0,1) & !E(0,2) & !E(0,3) & !E(1,2) & !E(1,3) & !E(2,3)"
)


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

    def test_any_iterable_of_relations(self, paley13):
        host = paley13.graph
        joint = classify_reduct([parity_relation(3), parity_relation(4)], host, 2)
        assert classify_reduct((parity_relation(k) for k in (3, 4)), host, 2) == joint
        assert classify_reduct(iter([parity_relation(3)]), host, 2) == classify_reduct(parity_relation(3), host, 2)
        both = classify_reduct({parity_relation(3), parity_relation(4)}, host, 2)
        assert both.reduct_class is ReductClass.MINUS_SWITCH

    def test_host_verification(self):
        with pytest.raises(ValueError):
            classify_reduct(edge_relation(), complete_graph(3), 1)

    def test_host_too_small_for_arity(self):
        with pytest.raises(ValueError):
            classify_reduct(parity_relation(4), complete_graph(3), 1)

    def test_tuple_set_off_its_types_is_undefinable(self, paley13):
        # {(0, 1), (1, 0)} misses the edge (0, 3) of Paley(13), so no union of
        # QF types gives it
        from rado_lab import TupleSetRelation

        host = paley13.graph
        r = TupleSetRelation(2, [(0, 1), (1, 0)])
        result = classify_reduct(r, host, 2)
        assert result.reduct_class is ReductClass.UNDEFINABLE
        cert = result.certificates[0]
        assert (cert.relation, cert.equality) == (r.name, EqualityDefinability(False, ((0, 1), (0, 3)), 1))
        assert (cert.complement, cert.switch_violations, cert.switches_checked, cert.switch_subsets_checked) == (
            None, (), 0, 0,
        )

    def test_undefinable_tuple_set_makes_the_join_undefinable(self, paley13):
        from rado_lab import TupleSetRelation

        joint = classify_reduct([edge_relation(), TupleSetRelation(2, [(0, 1)])], paley13.graph, 2)
        assert joint.reduct_class is ReductClass.UNDEFINABLE
        assert [c.reduct_class for c in joint.certificates] == [ReductClass.GRAPH, ReductClass.UNDEFINABLE]

    def test_type_invariant_tuple_sets_take_their_types_class(self, paley13):
        # a tuple set that is a union of QF types is classified as that type set
        from rado_lab import TupleSetRelation

        host = paley13.graph
        pairs = [(u, v) for u in range(13) for v in range(13) if u != v]
        edges = TupleSetRelation(2, [(u, v) for u, v in pairs if host.has_edge(u, v)])
        assert len(edges.tuples) == 78
        got, want = classify_reduct(edges, host, 2), classify_reduct(edge_relation(), host, 2)
        assert got.reduct_class is ReductClass.GRAPH
        assert got.certificates[0] == replace(want.certificates[0], relation=edges.name)
        assert classify_reduct(TupleSetRelation(2, pairs), host, 2).reduct_class is ReductClass.EQUALITY

    @pytest.mark.parametrize(
        "tuples, least", [([(0, 1), (0, 99)], "(0, 99)"), ([(-3, 5), (0, 1), (13, 2)], "(-3, 5)")],
        ids=["above", "negative"],
    )
    def test_tuple_outside_host_is_refused(self, paley13, tuples, least):
        # the scans would skip such a tuple and report equality
        from rado_lab import TupleSetRelation

        r = TupleSetRelation(2, tuples)
        message = f"tuple {least} in {r.name} is not over the host's vertices 0..12"
        with pytest.raises(ValueError, match=re.escape(message)):
            classify_reduct([edge_relation(), r], paley13.graph, 2)

    def test_host_checks_come_before_the_tuple_ids(self, paley13):
        # the ids are refused by type_set, which runs after the host's
        # extension check
        from rado_lab import TupleSetRelation

        message = "host fails the 3-extension check at ((), (0, 1, 7))"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_reduct(TupleSetRelation(2, [(0, 99)]), paley13.graph, 3)

    @pytest.mark.parametrize(
        "formula, cls",
        [(K4, ReductClass.GRAPH), (f"{K4} | {INDEPENDENT4}", ReductClass.MINUS)],
        ids=["K4", "K4-or-independent"],
    )
    def test_host_that_cannot_show_a_failing_fact_is_refused(self, paley13, paley29, formula, cls):
        # Paley(13) is 2-e.c. but has no K4 and no independent 4-set, so its
        # scan finds membership constant on every equality pattern, which
        # the table denies; the 3-e.c. Paley(29) shows the table's class
        r = parse_relation_spec("formula:" + formula)
        message = (
            f"the host cannot witness that {r.name} is not equality-definable; "
            "a host that passes the 3-extension check realizes every type of arity 4"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_reduct(r, paley13.graph, 2)
        # the per-relation reading of the host is kept
        assert generation._classify_single(r, paley13.graph).reduct_class is ReductClass.EQUALITY
        assert classify_reduct(r, paley29.graph, 3).reduct_class is cls

    def test_refusal_names_the_first_fact_the_host_cannot_show(self, paley13):
        k4 = qf_type((0, 1, 2, 3), complete_graph(4))
        # P4 and its complement are in, K4 is in and the empty type is out:
        # Paley(13) has P4s, so it shows the equality fact, but it has no
        # K4 for complementing to move out
        p4 = qf_type((0, 1, 2, 3), path_graph(4))
        r = TypeSetRelation(4, generation._type_closure(p4, frozenset({"minus"})) | {k4})
        with pytest.raises(ValueError, match=re.escape(f"{r.name} is not invariant under complement;")):
            classify_reduct(r, paley13.graph, 2)
        # the 1-e.c. C5 has triples with one edge and with two, which the
        # even switching class (0 or 2 edges) splits and complementing
        # swaps, but no 4-vertex graph that switches to K4
        even = generation._type_closure(((0, 0, 1, 2), 0), frozenset({"switch"}))
        r = TypeSetRelation(4, even | {k4})
        with pytest.raises(ValueError, match=re.escape(f"{r.name} is not invariant under switch;")):
            classify_reduct(r, cycle_graph(5), 1)


class TestStability:
    def test_verdicts_stable_across_hosts(self, paley13, paley29, ec3_host):
        hosts = [(paley13.graph, 2), (paley29.graph, 3), (ec3_host, 3)]
        for host, k in hosts:
            assert classify_reduct(parity_relation(3), host, k).reduct_class is ReductClass.SWITCH


def _collapse_on_paley13(vertices):
    # Paley(13) joins 0 to 1 and not to 2
    host = build_paley(13).graph
    return collapse_all(vertices, host, collapsing_gadget(host, (0, 1)), collapsing_gadget(host, (0, 2)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            # K4 has a triangle but no induced path on three vertices, so the
            # chain stops at its second copy
            lambda: delete_all_edges(complete_graph(3), complete_graph(4), 2),
            PatternNotFoundError,
            "host has no copy of the edge-deleted 3-vertex graph",
        ),
        (
            # Paley(29) has clique number 4
            lambda: delete_all_edges(complete_graph(5), build_paley(29).graph, 3),
            PatternNotFoundError,
            "host has no copy of the start pattern",
        ),
        (
            lambda: collapse_all(
                [0, 1], complete_graph(3), make_named("identity", path_graph(3)), make_named("identity", complete_graph(3))
            ),
            ValueError,
            "gadget g must map the host to itself",
        ),
        (
            lambda: _collapse_on_paley13([0, 13]),
            ValueError,
            "vertex 13 is not among the host's vertices 0..12",
        ),
        (
            lambda: _collapse_on_paley13([-1, 0]),
            ValueError,
            "vertex -1 is not among the host's vertices 0..12",
        ),
        (lambda: canonical_form(empty_graph(9)), ValueError, "canonical_form is restricted to at most 8 vertices"),
        (lambda: all_graph_types(6), ValueError, "type tables are precomputed only up to 5 vertices"),
        (lambda: classify_reduct([], build_paley(13).graph, 2), ValueError, "need at least one relation"),
    ],
    ids=[
        "no-deleted-copy-in-chain", "no-start-copy", "gadget-off-host",
        "collapse-beyond", "collapse-negative", "canonical-9", "types-6", "no-relations",
    ],
)
def test_argument_rejections(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
