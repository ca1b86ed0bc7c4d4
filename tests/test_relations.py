import hashlib
import json
import random
import re
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rado_lab import (
    Graph,
    ReductClass,
    ReductClassification,
    all_graph_types,
    build_paley,
    classify_reduct,
    complement_graph,
    complete_graph,
    cycle_graph,
    definable_from_equality,
    distinct_relation,
    edge_relation,
    empty_graph,
    invariant_under_complement,
    invariant_under_switch,
    make_named,
    nonedge_relation,
    parity_relation,
    parse_relation_spec,
    path_graph,
    preserved_by_map,
    qf_type,
    switch_graph,
    violates,
)
from rado_lab import relations
from rado_lab.relations import (
    MAX_TABLE_ARITY,
    PreservationResult,
    RelationSpecError,
    TupleSetRelation,
    _equality_scan,
    _rewrite_scans,
)
from rado_lab.generation import _classify_single
from conftest import all_raw_graphs, random_graph


def identity_map(g):
    return {v: v for v in range(g.n)}


class TestEval:
    def test_parity3_on_triangle(self):
        assert parity_relation(3).holds((0, 1, 2), complete_graph(3))

    def test_parity3_on_independent_triple(self):
        assert not parity_relation(3).holds((0, 1, 2), empty_graph(3))

    def test_parity4_on_path(self):
        # a path on four vertices has three edges, an odd count
        assert parity_relation(4).holds((0, 1, 2, 3), path_graph(4))

    def test_repeats_never_member(self):
        assert not parity_relation(3).holds((0, 1, 1), complete_graph(3))

    def test_parity_symmetric_under_permutation(self):
        g = random_graph(6, 2)
        for arity in (3, 4, 5):
            r = parity_relation(arity)
            t = tuple(range(arity))
            value = r.holds(t, g)
            for p in permutations(t):
                assert r.holds(p, g) == value


class TestHoldsChecksItsTuple:
    # every subclass refuses a tuple of another length or with an entry
    # that is not a vertex of the graph, the least negative one or else the
    # largest named
    def assert_refused(self, r, g, short, beyond):
        with pytest.raises(ValueError, match=re.escape(f"tuple {short} does not have arity {r.arity}")):
            r.holds(short, g)
        for t, entry in beyond:
            with pytest.raises(ValueError, match=f"^tuple entry {entry} is not a vertex of the graph$"):
                r.holds(t, g)

    def test_parity(self):
        self.assert_refused(parity_relation(3), complete_graph(3), (0, 1), [((0, 1, 3), 3), ((-1, 1, 2), -1)])

    def test_formula(self):
        r, g = edge_relation(), path_graph(3)
        self.assert_refused(r, g, (0, 1, 2), [((0, 5), 5), ((0, -2), -2), ((-2, 5), -2)])
        assert r.holds((0, 1), g) and not r.holds((0, 2), g)

    def test_type_set(self):
        r = relations.TypeSetRelation(2, [qf_type((0, 1), path_graph(3))])
        self.assert_refused(r, path_graph(3), (0,), [((3, 0), 3)])

    def test_tuple_set(self):
        # membership ignores the graph, but the tuple must still lie on it
        r = TupleSetRelation(2, [(0, 1), (0, 7)])
        self.assert_refused(r, path_graph(3), (0, 1, 2), [((0, 7), 7)])
        assert r.holds((0, 1), path_graph(3)) and r.holds((0, 7), path_graph(8))


class TestPreservedByMap:
    def test_identity_always_preserved(self):
        g = random_graph(6, 7)
        for r in (edge_relation(), nonedge_relation(), parity_relation(3), distinct_relation(2)):
            assert preserved_by_map(r, identity_map(g), g, g).preserved

    def test_edge_violated_by_switch_rewrite(self):
        g = complete_graph(3)
        res = preserved_by_map(edge_relation(), identity_map(g), g, switch_graph(g, {0}))
        assert not res.preserved
        assert res.witness == (0, 1)

    def test_parity3_preserved_by_switch_small(self):
        for n in range(2, 6):
            for g in all_raw_graphs(n):
                for v in range(n):
                    assert invariant_under_switch(parity_relation(3), g, v).preserved

    def test_parity3_preserved_by_switch_sampled(self):
        for seed in range(10):
            for n in (6, 7):
                g = random_graph(n, seed)
                for v in range(n):
                    assert invariant_under_switch(parity_relation(3), g, v).preserved

    def test_partial_domain_skips_outside(self):
        g = complete_graph(4)
        # domain {0, 1}: no triple fits inside, so parity:3 is vacuously safe
        res = preserved_by_map(parity_relation(3), {0: 0, 1: 1}, g, empty_graph(4))
        assert res.preserved

    def test_tuple_set_violation(self):
        # sorted members inside the domain: (0, 1) and (1, 2) map into the
        # set, (2, 3) maps to (3, 0), which is not; (0, 4) is skipped
        r = TupleSetRelation(2, [(0, 1), (0, 4), (1, 2), (2, 3)])
        g = empty_graph(5)
        got = preserved_by_map(r, {0: 1, 1: 2, 2: 3, 3: 0}, g, g)
        assert got == PreservationResult(False, (2, 3), 3)

    def test_collapsing_map_witness(self):
        g = complete_graph(3)
        res = preserved_by_map(parity_relation(3), {0: 0, 1: 0, 2: 2}, g, g)
        assert not res.preserved
        assert res.witness == (0, 1, 2)


class TestComplementInvariance:
    def test_parity4_all_small_graphs(self):
        for n in range(2, 6):
            for g in all_raw_graphs(n):
                assert invariant_under_complement(parity_relation(4), g).preserved

    def test_parity5_sampled(self):
        for seed in range(8):
            g = random_graph(6, seed)
            assert invariant_under_complement(parity_relation(5), g).preserved

    def test_parity3_violated_on_triangle(self):
        res = invariant_under_complement(parity_relation(3), complete_graph(3))
        assert not res.preserved
        assert res.witness == (0, 1, 2)

    def test_least_witness_is_sorted_least(self):
        g = cycle_graph(5)
        res = invariant_under_complement(parity_relation(3), g)
        assert not res.preserved
        # recompute first odd triple by brute force
        expected = next(
            t
            for t in combinations(range(5), 3)
            if sum(g.has_edge(x, y) for x, y in combinations(t, 2)) % 2 == 1
        )
        assert res.witness == expected


class TestSwitchInvariance:
    def test_parity5_switch_invariant_sampled(self):
        for seed in range(5):
            g = random_graph(7, seed)
            for v in range(7):
                assert invariant_under_switch(parity_relation(5), g, v).preserved

    def test_parity4_switch_violated(self, paley13):
        g = paley13.graph
        violated = [v for v in range(13) if not invariant_under_switch(parity_relation(4), g, v).preserved]
        assert violated == list(range(13))

    def test_generic_formula_switch(self):
        g = path_graph(4)
        res = invariant_under_switch(edge_relation(), g, 0)
        assert not res.preserved
        assert 0 in res.witness

    def test_restricted_scan_matches_full(self):
        # the localized host scan must agree with the naive oracle, which
        # walks every ordered tuple of g and of its switch
        for seed in range(5):
            g = random_graph(6, seed)
            for r in (parity_relation(3), parity_relation(4)):
                tuples = list(product(range(g.n), repeat=r.arity))
                in_g = [r.holds(t, g) for t in tuples]
                want = naive_rewrite(r, tuples, in_g, naive_switch(g, 2))
                fast = _rewrite_scans(r, g, (2,))[0]
                assert (fast.preserved, fast.witness) == want

    @pytest.mark.parametrize("fixture", ["paley13", "paley29", "ec3_host"])
    def test_classification_fields_match_single_switches(self, request, fixture):
        # classify_reduct scans every switch on one set of host rows; its
        # switch fields must equal those of one call per vertex
        host = request.getfixturevalue(fixture)
        g = getattr(host, "graph", host)
        rels = [edge_relation(), nonedge_relation(), distinct_relation(2)]
        rels += [parity_relation(a) for a in range(2, 6)] + oracle_relations(4)
        scanned = 0
        for r in rels:
            cert = classify_reduct(r, g, 1).certificates[0]
            if cert.equality.definable:
                continue
            results = [invariant_under_switch(r, g, v) for v in range(g.n)]
            violations = tuple((v, res.witness) for v, res in enumerate(results) if not res.preserved)
            assert cert.switch_violations == violations, r.name
            assert cert.switches_checked == g.n, r.name
            assert cert.switch_subsets_checked == sum(res.checked for res in results), r.name
            scanned += cert.switch_subsets_checked > 0
        assert scanned >= 5


class TestEqualityDefinability:
    def test_all_distinct_is_definable(self):
        res = definable_from_equality(distinct_relation(2), cycle_graph(5))
        assert res.definable

    def test_edge_not_definable(self):
        res = definable_from_equality(edge_relation(), path_graph(3))
        assert not res.definable
        member, nonmember = res.witness
        g = path_graph(3)
        assert g.has_edge(*member) and not g.has_edge(*nonmember)
        assert len(set(member)) == len(set(nonmember))

    def test_parity5_not_definable_on_paley13(self, paley13):
        res = definable_from_equality(parity_relation(5), paley13.graph)
        assert not res.definable
        member, nonmember = res.witness
        r = parity_relation(5)
        assert r.holds(member, paley13.graph)
        assert not r.holds(nonmember, paley13.graph)
        assert len(set(member)) == 5 and len(set(nonmember)) == 5

    def test_empty_relation_is_definable(self):
        # no odd 4-subsets on an empty graph, constant-false is a pattern function
        res = definable_from_equality(parity_relation(4), empty_graph(6))
        assert res.definable


class TestSpecLanguage:
    def test_parity_spec(self):
        r = parse_relation_spec("parity:3")
        assert r.arity == 3
        assert r.holds((0, 1, 2), complete_graph(3))

    def test_formula_spec(self):
        r = parse_relation_spec('formula:"E(0,1) & !E(1,2)"')
        g = path_graph(3)
        assert r.holds((0, 1, 1), g)  # E(0,1) holds, E at equal vertices is false
        assert not r.holds((2, 1, 0), g)  # both atoms hold, negation fails
        assert not r.holds((0, 2, 1), g)  # first atom fails

    def test_formula_equality_atoms(self):
        r = parse_relation_spec('formula:"x0=x0"')
        assert r.arity == 1
        assert r.holds((2,), path_graph(3))
        r2 = parse_relation_spec('formula:"x0!=x1"')
        assert r2.holds((0, 1), path_graph(3))
        assert not r2.holds((1, 1), path_graph(3))

    def test_formula_precedence_and_parens(self):
        r = parse_relation_spec('formula:"E(0,1) | E(1,2) & !E(0,2)"')
        # and binds tighter than or
        g = path_graph(3)
        assert r.holds((0, 1, 2), g)

    def test_tuples_spec(self, tmp_path):
        path = tmp_path / "rel.tuples"
        path.write_text("arity 2\n0 1\n2 1\n")
        r = parse_relation_spec(f"tuples:@{path}")
        assert r.arity == 2
        assert r.holds((0, 1), path_graph(3))
        assert not r.holds((1, 0), path_graph(3))

    def test_tuple_file_needs_positive_arity(self):
        with pytest.raises(ValueError):
            parse_relation_spec("tuples:@r", read_file=lambda path: "arity 0\n")

    @pytest.mark.parametrize(
        "spec",
        [
            "parity:x",
            "parity:1",
            "nonsense:3",
            'formula:"Q(0,1)"',
            'formula:"E(0,1) &"',
            'formula:""',
        ],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(RelationSpecError):
            parse_relation_spec(spec)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "tuple file must start with 'arity <m>'"),
            ("0 1\n", "tuple file must start with 'arity <m>'"),
            ("arity x\n", "malformed arity header"),
            ("arity 2 3\n0 1\n", "malformed arity header"),
            ("arity 2\n0 1\n0 1 2\n", "line 3: expected 2 entries"),
            ("arity 2\n0 a\n", "line 2: entries must be integers"),
        ],
        ids=["empty", "no-header", "arity", "arity-extra", "entry-count", "entry-type"],
    )
    def test_tuple_file_errors(self, text, message):
        with pytest.raises(RelationSpecError, match=f"^{re.escape(message)}$"):
            parse_relation_spec("tuples:@r", read_file=lambda path: text)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("(E(0,1) & E(1,2)", "missing closing parenthesis"),
            ("& E(0,1)", "unknown token '&'"),
            ("E(0,1) E(1,2)", "trailing tokens from 'E(1,2)'"),
        ],
        ids=["parenthesis", "token", "trailing"],
    )
    def test_formula_errors(self, body, message):
        with pytest.raises(RelationSpecError, match=f"^{re.escape(message)}$"):
            parse_relation_spec(f"formula:{body}")


@given(st.integers(min_value=0, max_value=2**10 - 1), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_switch_invariance_of_parity3_hypothesis(code, v):
    pairs = list(combinations(range(5), 2))
    from rado_lab import Graph

    g = Graph.from_edges(5, [pairs[b] for b in range(10) if code >> b & 1])
    assert invariant_under_switch(parity_relation(3), g, v).preserved


# ---------------------------------------------------------------------------
# type tables against naive oracles that never read the table: ordered tuples
# in lexicographic order, ``holds`` on rewritten graphs built edge by edge


ORACLE_FORMULAS = (
    "E(0,1)",
    "!E(0,1) & x0!=x1",
    "x0!=x1",
    "x0=x1 | x1=x2",
    "E(0,1) | x0=x1",
    "x0=x1 & E(0,2)",
    "E(0,1) & E(1,2) & E(0,2)",
    "(E(0,1) & E(1,2) & E(0,2)) | (x0!=x1 & x1!=x2 & x0!=x2 & !E(0,1) & !E(1,2) & !E(0,2))",
    "x0!=x1 & x1!=x2 & x0!=x2 & (E(0,1) & E(1,2) & E(0,2) | E(0,1) & !E(1,2) & !E(0,2)"
    " | !E(0,1) & E(1,2) & !E(0,2) | !E(0,1) & !E(1,2) & E(0,2))",
    "x0!=x1 & x2!=x3 & (E(0,1) & E(2,3) | !E(0,1) & !E(2,3))",
    "E(0,1) & !E(1,2) | x2=x3",
)


def oracle_relations(max_arity):
    rels = [parity_relation(a) for a in range(2, max_arity + 1)]
    rels += [parse_relation_spec("formula:" + f) for f in ORACLE_FORMULAS]
    return [r for r in rels if r.arity <= max_arity]


def naive_complement(g):
    return Graph.from_edges(g.n, [p for p in combinations(range(g.n), 2) if not g.has_edge(*p)])


def naive_switch(g, v):
    return Graph.from_edges(
        g.n, [p for p in combinations(range(g.n), 2) if g.has_edge(*p) != (v in p)]
    )


def naive_rewrite(r, tuples, in_g, h):
    """(preserved, least witness) of the identity map g -> h, then h -> g;
    ``in_g`` is the membership of each of ``tuples`` in g."""
    in_h = [r.holds(t, h) for t in tuples]
    for src, dst in ((in_g, in_h), (in_h, in_g)):
        for t, a, b in zip(tuples, src, dst):
            if a and not b:
                return False, t
    return True, None


def naive_equality(tuples, in_g):
    """(definable, (member, nonmember)): the first tuple whose equality
    pattern already has a tuple of the other membership, paired with the
    least such tuple."""
    seen = {}
    for t, member in zip(tuples, in_g):
        pattern = tuple(frozenset(j for j, y in enumerate(t) if y == x) for x in t)
        other = seen.get((pattern, not member))
        if other is not None:
            return False, (t, other) if member else (other, t)
        seen.setdefault((pattern, member), t)
    return True, None


def assert_matches_oracle(r, g):
    # each check through the public entry point and through the host scan
    # alone, which the type table would otherwise skip
    tuples = list(product(range(g.n), repeat=r.arity))
    in_g = [r.holds(t, g) for t in tuples]
    want = naive_equality(tuples, in_g)
    for got in (definable_from_equality(r, g), _equality_scan(r, g)):
        assert (got.definable, got.witness) == want, (r.name, g)
    want = naive_rewrite(r, tuples, in_g, naive_complement(g))
    for got in (invariant_under_complement(r, g), _rewrite_scans(r, g, None)[0]):
        assert (got.preserved, got.witness) == want, (r.name, g)
    for v in range(g.n):
        want = naive_rewrite(r, tuples, in_g, naive_switch(g, v))
        for got in (invariant_under_switch(r, g, v), _rewrite_scans(r, g, (v,))[0]):
            assert (got.preserved, got.witness) == want, (r.name, g, v)


# ---------------------------------------------------------------------------
# a pinned battery of relation checks on fixed hosts: complement and switch
# scans, classify_reduct and preserved_by_map


def battery_relations():
    rng = random.Random(19)
    rels = [parity_relation(a) for a in (2, 3, 4)]
    rels += [edge_relation(), nonedge_relation(), distinct_relation(2), distinct_relation(3)]
    rels += [parse_relation_spec("formula:" + f) for f in ORACLE_FORMULAS[3:8]]
    for arity in (2, 2, 3, 3, 3, 3):
        rels.append(relations.TypeSetRelation(arity, [t for t in all_types(arity) if rng.random() < 0.5]))
    return rels


def all_types(arity):
    # every labelled QF type of the arity, pattern by pattern
    return [(rgs, code) for rgs in relations._qf_types(arity) for code in range(1 << max(rgs) * (max(rgs) + 1) // 2)]


BATTERY_TUPLE_SETS = (
    TupleSetRelation(2, [(0, 1)]),
    TupleSetRelation(2, [(0, 1), (1, 0), (2, 3), (4, 4)]),
    TupleSetRelation(3, [(0, 1, 2), (2, 1, 0), (1, 1, 3), (0, 4, 2)]),
)


def battery_lines(g, max_arity, seed):
    # one line per result; tuple sets only through preserved_by_map, the one
    # check whose answer depends on the map's images
    rng = random.Random(seed)
    n = g.n
    maps = []
    for _ in range(3):
        dom = rng.sample(range(n), rng.randint(2, n))
        maps.append(({x: rng.randrange(n) for x in dom}, g))
        maps.append((dict(zip(dom, rng.sample(range(n), len(dom)))), g))
    for _ in range(2):
        maps.append((dict(enumerate(rng.sample(range(n), n))), complement_graph(g)))
    rels = [r for r in battery_relations() if r.arity <= max_arity]
    lines = []
    for r in rels:
        c = _classify_single(r, g)
        cert = ReductClassification(c.reduct_class, (c,), g.n, 1)
        lines.append(f"{r.name} classify {json.dumps(cert.to_json_dict(), sort_keys=True)}")
        lines.append(f"{r.name} complement {_rewrite_scans(r, g, None)[0]!r}")
        lines.append(f"{r.name} switch {_rewrite_scans(r, g, range(n))!r}")
    for r in rels + list(BATTERY_TUPLE_SETS):
        for mapping, dst in maps:
            lines.append(f"{r.name} map {preserved_by_map(r, mapping, g, dst)!r}")
    return lines


# sha256 over the battery's lines on the hosts of test_pinned_battery, in
# order, as computed when the complement and the switch scans each had their
# own code path
BATTERY_DIGEST = "89a3453d0641c186bc18038a7b995b6b7e881383a3625df3920db782098652a1"


class TestIdentityRewriteScans:
    def test_pinned_battery(self, paley13, paley29, ec3_host):
        # the 75-vertex host keeps to arity 2: at arity 3 its lines take
        # about 7 s instead of 0.1 s
        hosts = [(paley13.graph, 4), (paley29.graph, 4), (ec3_host, 2)]
        hosts += [(random_graph(n, 19 * n), 4) for n in (5, 6, 7, 8)]
        lines = []
        for seed, (g, max_arity) in enumerate(hosts):
            lines += battery_lines(g, max_arity, seed)
        assert len(lines) == 1433
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BATTERY_DIGEST


class TestTypeTableOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_small_graph(self, n):
        rels = oracle_relations(4)
        for g in all_raw_graphs(n):
            for r in rels:
                assert_matches_oracle(r, g)

    def test_every_five_vertex_graph(self):
        # every graph up to isomorphism at arity up to 4, and every labelled
        # one for the parity relations of the bit-parallel scan
        rels = oracle_relations(4)
        for g in all_graph_types(5):
            for r in rels:
                assert_matches_oracle(r, g)
        for g in all_raw_graphs(5):
            for arity in (2, 3):
                assert_matches_oracle(parity_relation(arity), g)

    def test_parity5(self):
        for g in (empty_graph(5), complete_graph(5), path_graph(5), cycle_graph(5), random_graph(6, 5)):
            assert_matches_oracle(parity_relation(5), g)

    def test_random_graphs(self):
        for seed in range(3):
            for n in (6, 7, 8):
                g = random_graph(n, 100 * n + seed)
                for r in oracle_relations(4 if n == 6 else 3):
                    assert_matches_oracle(r, g)

    @pytest.mark.parametrize(
        "fixture, max_arity", [("paley13", 3), ("paley29", 4), ("ec3_host", 3)]
    )
    def test_facts_agree_with_full_host_scan(self, request, fixture, max_arity):
        # a k-e.c. host realizes every QF type of arity at most k + 1, so the
        # host verdicts of the scans must equal the facts of the table.  In a
        # 3-e.c. host every vertex lies in a tuple of each arity-3 type, at
        # each position, so switching any one vertex already breaks a
        # relation that is not switch-invariant; on the 75-vertex host only
        # four vertices are switched (all 75 take about 15 s)
        host = request.getfixturevalue(fixture)
        g = getattr(host, "graph", host)
        switched = range(4) if fixture == "ec3_host" else range(g.n)
        for r in oracle_relations(max_arity):
            facts = r.type_facts
            assert facts.equality_definable == _equality_scan(r, g).definable, r.name
            assert ("minus" in facts.closed_under) == _rewrite_scans(r, g, None)[0].preserved, r.name
            switch = all(res.preserved for res in _rewrite_scans(r, g, switched))
            assert ("switch" in facts.closed_under) == switch, r.name

    def test_thomas_facts(self):
        cases = {
            2: (False, False, False),
            3: (False, False, True),
            4: (False, True, False),
            5: (False, True, True),
        }
        for arity, want in cases.items():
            f = parity_relation(arity).type_facts
            assert (f.equality_definable, "minus" in f.closed_under, "switch" in f.closed_under) == want
        assert distinct_relation(3).type_facts.equality_definable

    def test_minimal_function_facts(self):
        # (eE, eN, const) per relation
        cases = {
            edge_relation(): (True, False, False),
            nonedge_relation(): (False, True, False),
            parity_relation(2): (True, False, False),
            parity_relation(3): (True, False, False),
            parity_relation(4): (False, False, False),
            parity_relation(5): (False, False, False),
            distinct_relation(2): (True, True, False),
        }
        for r, want in cases.items():
            f = r.type_facts
            assert tuple(kind in f.closed_under for kind in ("eE", "eN", "const")) == want, r.name

    def test_minimal_function_facts_agree_with_gadget_scans(self, paley29):
        # Paley(29) realizes every QF type of arity at most 4, so the scan of
        # each whole-host gadget preserves a relation exactly when its fact
        # holds; violates then skips the scan, or reports the scan's witness
        g = paley29.graph
        gadgets = {"eE": make_named("eE", g), "eN": make_named("eN", g), "const": make_named("const", g, target=0)}
        extra = ("x0=x1", "x0=x1 | E(0,1)", "E(0,1) & !E(0,1)", "x0=x1 & x1=x2 | E(0,2) & !E(1,2)")
        rels = oracle_relations(4) + [edge_relation(), nonedge_relation()]
        rels += [distinct_relation(a) for a in (2, 3, 4)] + [parse_relation_spec("formula:" + f) for f in extra]
        seen = set()
        for r in rels:
            facts = r.type_facts
            for kind, gadget in gadgets.items():
                scan = relations._scan(r, relations._pullback(gadget.as_mapping(), g, gadget.dst))
                assert scan.preserved == (kind in facts.closed_under), (r.name, kind)
                got = violates(gadget, r)
                assert got == (PreservationResult(True) if scan.preserved else scan), (r.name, kind)
                seen.add((kind, scan.preserved))
        assert len(seen) == 6

    def test_table_sizes(self):
        assert [len(relations._qf_types(a)) for a in range(1, 6)] == [1, 2, 5, 15, 52]
        sizes = [sum(len(row) for row in parity_relation(a).type_table.values()) for a in (2, 3, 4, 5)]
        assert sizes == [3, 15, 127, 1895]

    def test_table_verdicts_report_no_scan(self, paley13):
        g = paley13.graph
        assert invariant_under_complement(parity_relation(4), g) == relations.PreservationResult(True)
        assert invariant_under_switch(parity_relation(3), g, 5) == relations.PreservationResult(True)
        assert definable_from_equality(distinct_relation(2), g) == relations.EqualityDefinability(True)
        assert _rewrite_scans(parity_relation(4), g, None)[0].checked == 2 * 286

    def test_equal_definitions_share_one_table(self, paley13):
        assert parity_relation(5).type_table is parity_relation(5).type_table
        spec = "formula:E(0,1) & x1!=x2"
        assert parse_relation_spec(spec).type_facts is parse_relation_spec(spec).type_facts
        # the name is not part of the definition, the arity is
        assert edge_relation().type_table is relations.FormulaRelation(("E", 0, 1)).type_table
        assert relations.FormulaRelation(("E", 0, 1), arity=3).type_table is not edge_relation().type_table
        assert parity_relation(3).type_table is not parity_relation(4).type_table
        fresh = classify_reduct(parity_relation(5), paley13.graph, 2)
        again = classify_reduct(parity_relation(5), paley13.graph, 2)
        assert fresh == again and fresh.reduct_class is ReductClass.MINUS_SWITCH

    def test_tuple_sets_have_no_table(self):
        r = TupleSetRelation(2, [(0, 1)])
        assert r.type_facts is None
        assert not hasattr(r, "type_table")

    def test_parity6_compiles_no_table(self, paley13, monkeypatch):
        def refuse(arity):
            raise AssertionError(f"compiled a table at arity {arity}")

        monkeypatch.setattr(relations, "_qf_types", refuse)
        r = parity_relation(6)
        assert r.type_table is None and r.type_facts is None
        result = classify_reduct(r, paley13.graph, 2)
        assert result.reduct_class is ReductClass.GRAPH


# ---------------------------------------------------------------------------
# preserved_by_map against a naive oracle that walks every ordered tuple of
# the domain and evaluates ``holds`` on both graphs


def naive_preserved(r, mapping, src, dst):
    for t in product(sorted(mapping), repeat=r.arity):
        if r.holds(t, src) and not r.holds(tuple(mapping[x] for x in t), dst):
            return False, t
    return True, None


MINUS_FORMULA = "formula:x0!=x1 & x2!=x3 & (E(0,1) & E(2,3) | !E(0,1) & !E(2,3))"
SELF_ATOMS = "formula:E(0,1) & x2=x2 | E(2,2)"  # atoms on one position twice
# parity:6 and the arity-6 formula have no type table
MAP_SPECS = tuple(f"parity:{a}" for a in range(2, 7)) + tuple(
    "formula:" + f for f in ORACLE_FORMULAS
) + (SELF_ATOMS, "formula:x0=x4 | E(1,3) & x2!=x3", "formula:E(0,5) & !E(1,2) | x3=x4")


def graph_from_bits(n, bits):
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, [p for b, p in enumerate(pairs) if bits >> b & 1])


@st.composite
def map_instances(draw):
    """(relation, mapping, src, dst, rewrite): partial, collapsing, injective
    or canonical maps, where a canonical map flips the kind of pair {x, y}
    exactly when c ^ (x in cut) ^ (y in cut); rewrite is (c, cut) for those."""
    spec = draw(st.sampled_from(MAP_SPECS + ("tuples",)))
    arity = draw(st.integers(1, 3)) if spec == "tuples" else parse_relation_spec(spec).arity
    n = draw(st.integers(1, 7 if arity <= 4 else 6))
    src = graph_from_bits(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    if spec == "tuples":
        member = st.tuples(*[st.integers(0, n)] * arity)
        r = TupleSetRelation(arity, draw(st.lists(member, max_size=12)))
    else:
        r = parse_relation_spec(spec)
    kind = draw(st.sampled_from(["partial", "collapsing", "injective", "canonical"]))
    dom = sorted(draw(st.sets(st.integers(0, n - 1))))
    m = draw(st.integers(max(1, len(dom)), 7))
    if kind in ("injective", "canonical"):
        images = draw(st.permutations(range(m)))[: len(dom)]
    else:
        top = min(1, m - 1) if kind == "collapsing" else m - 1
        images = draw(st.lists(st.integers(0, top), min_size=len(dom), max_size=len(dom)))
    mapping = dict(zip(dom, images))
    dst = graph_from_bits(m, draw(st.integers(0, (1 << m * (m - 1) // 2) - 1)))
    rewrite = None
    if kind == "canonical":
        c = draw(st.booleans())
        cut = draw(st.sets(st.sampled_from(dom))) if dom else set()
        rewrite = (c, cut)
        rows = [dst.row(y) for y in range(m)]
        for x, y in combinations(dom, 2):
            fx, fy = mapping[x], mapping[y]
            if src.has_edge(x, y) ^ c ^ (x in cut) ^ (y in cut) != dst.has_edge(fx, fy):
                rows[fx] ^= 1 << fy
                rows[fy] ^= 1 << fx
        dst = Graph(m, tuple(rows))
    return r, mapping, src, dst, rewrite


@given(map_instances())
@example((parity_relation(6), identity_map(complete_graph(6)), complete_graph(6), empty_graph(6), None))
@example((parity_relation(3), {0: 0, 1: 0, 2: 2}, complete_graph(3), complete_graph(3), None))
@example((parity_relation(4), {0: 0, 1: 1, 2: 2, 3: 0}, path_graph(4), graph_from_bits(3, 0b100), None))
@example((parse_relation_spec(SELF_ATOMS), identity_map(complete_graph(3)), complete_graph(3),
          empty_graph(3), (True, set())))
@example((TupleSetRelation(2, [(0, 1), (1, 0), (2, 9)]), {0: 1, 1: 0}, path_graph(3), empty_graph(2), None))
@example((parse_relation_spec(MINUS_FORMULA), identity_map(cycle_graph(5)), cycle_graph(5),
          naive_complement(cycle_graph(5)), (True, set())))
@settings(max_examples=250, deadline=None)
def test_preserved_by_map_matches_naive_oracle(instance):
    r, mapping, src, dst, rewrite = instance
    got = preserved_by_map(r, mapping, src, dst)
    assert (got.preserved, got.witness) == naive_preserved(r, mapping, src, dst)
    if rewrite is not None and len(mapping) >= 3 and r.type_facts is not None:
        # with three or more vertices c and the cut are determined up to
        # complementing the cut, so the table decides whenever its facts allow
        c, cut = rewrite
        facts = r.type_facts
        switched = 0 < len(cut) < len(mapping)
        if (not c or "minus" in facts.closed_under) and (not switched or "switch" in facts.closed_under):
            assert got == PreservationResult(True)


class TestFlipForm:
    def test_matches_brute_force_on_four_vertices(self):
        # identity maps between all graphs on 4 vertices; with the cut
        # leaving out vertex 0, at most one (c, cut) fits
        pairs = list(combinations(range(4), 2))
        for src in all_raw_graphs(4):
            for dst in all_raw_graphs(4):
                forms = [
                    (c, cut)
                    for c in (0, 1)
                    for cut in range(0, 16, 2)
                    if all(
                        src.has_edge(x, y) ^ dst.has_edge(x, y) == c ^ (cut >> x & 1) ^ (cut >> y & 1)
                        for x, y in pairs
                    )
                ]
                got = relations.flip_form(identity_map(src), src, dst)
                assert forms == ([] if got is None else [got]), (src, dst)

    def test_collapses_and_small_domains(self):
        g = path_graph(3)
        assert relations.flip_form({0: 0, 1: 0}, g, g) is None
        assert relations.flip_form({}, g, g) == (0, 0)
        # one flipped pair reads as a switch at its other end
        assert relations.flip_form({0: 0, 1: 2}, g, g) == (0, 0b10)

    def test_read_only_for_relations_with_facts(self, paley13, monkeypatch):
        # preserved_by_map runs the recognizer on the pullback it scans with
        calls = []
        flip_form = relations._flip_form
        monkeypatch.setattr(relations, "_flip_form", lambda rw: calls.append(rw) or flip_form(rw))
        g, w = paley13.graph, paley13.complement_witness
        anti = {x: w[x] for x in range(13)}
        for r in (TupleSetRelation(2, [(0, 1)]), parity_relation(6)):
            preserved_by_map(r, anti, g, g)
        assert calls == []
        assert preserved_by_map(parity_relation(4), anti, g, g) == PreservationResult(True)
        assert len(calls) == 1


class TestCanonicalMaps:
    def test_automorphism_needs_no_scan(self, paley29):
        g = paley29.graph
        for auto in ({x: (x + 7) % 29 for x in range(29)}, {x: 4 * x % 29 for x in range(29)}):
            for r in oracle_relations(4) + [parity_relation(5)]:
                assert preserved_by_map(r, auto, g, g) == PreservationResult(True), r.name

    def test_anti_automorphism_needs_no_scan(self, paley29):
        g, w = paley29.graph, paley29.complement_witness
        anti = {x: w[x] for x in range(29)}
        for r in (parity_relation(4), parity_relation(5), parse_relation_spec(MINUS_FORMULA)):
            assert preserved_by_map(r, anti, g, g) == PreservationResult(True), r.name

    def test_switch_gadget_needs_no_scan(self, paley29):
        f = make_named("switch", paley29.graph, s={0, 3, 11, 20})
        assert violates(f, parity_relation(3)) == PreservationResult(True)

    def test_minus_gadget_keeps_least_witness(self, paley29):
        # parity:3 is not complement-invariant, so the kernel scans
        g = paley29.graph
        f = make_named("minus", g, witness=paley29.complement_witness)
        got = violates(f, parity_relation(3))
        want = naive_preserved(parity_relation(3), f.as_mapping(), g, g)
        assert not want[0]
        assert (got.preserved, got.witness) == want
        assert got.checked > 0


KINDS = ("minus", "switch", "eE", "eN", "const")


def naive_acts_within(mapping, src, dst, kinds):
    """Whether the map rewrites every type by a composite of ``kinds``, by
    brute force: onto one vertex with const, or injective and equal, pair by
    pair, to a base (the source, a clique with eE, an independent set with
    eN) with every pair flipped by c (1 only with minus) and by a cut (any
    vertex set only with switch)."""
    dom = sorted(mapping)
    image = set(mapping.values())
    if len(image) < len(dom):
        return "const" in kinds and len(image) == 1
    bases = [src.has_edge]
    if "eE" in kinds:
        bases.append(lambda x, y: True)
    if "eN" in kinds:
        bases.append(lambda x, y: False)
    cuts = [set(c) for k in range(len(dom) + 1) for c in combinations(dom, k)] if "switch" in kinds else [set()]
    return any(
        all(
            dst.has_edge(mapping[x], mapping[y]) == base(x, y) ^ c ^ (x in cut) ^ (y in cut)
            for x, y in combinations(dom, 2)
        )
        for base in bases
        for c in ((0, 1) if "minus" in kinds else (0,))
        for cut in cuts
    )


def acts_within_instances(rng):
    """(mapping, src, dst) on at most 5 vertices: identity, injective,
    partial and collapsing maps, and injective maps onto a base with a
    random c and cut, so that every kind set meets both verdicts."""
    for i in range(240):
        n = rng.randint(1, 5)
        src = random_graph(n, rng.randrange(10 ** 6))
        shape = ("identity", "injective", "partial", "collapsing", "composite")[i % 5]
        dom = list(range(n)) if shape != "partial" else sorted(rng.sample(range(n), rng.randint(0, n)))
        m = rng.randint(len(dom), 5) if shape != "identity" else n
        if shape == "collapsing":
            images = [rng.randrange(rng.choice((1, m))) for _ in dom]
        else:
            images = rng.sample(range(m), len(dom)) if shape != "identity" else dom
        mapping = dict(zip(dom, images))
        dst = random_graph(m, rng.randrange(10 ** 6)) if shape != "identity" else src
        if shape == "composite":
            base = rng.choice((src.has_edge, lambda x, y: True, lambda x, y: False))
            c, cut = rng.randrange(2), {x for x in dom if rng.randrange(2)}
            rows = [0] * m
            for x, y in combinations(dom, 2):
                if base(x, y) ^ c ^ (x in cut) ^ (y in cut):
                    rows[mapping[x]] |= 1 << mapping[y]
                    rows[mapping[y]] |= 1 << mapping[x]
            dst = Graph(m, tuple(rows))
        yield mapping, src, dst


def test_acts_within_matches_naive_oracle():
    seen = set()
    for mapping, src, dst in acts_within_instances(random.Random(16)):
        rw = relations._pullback(mapping, src, dst)
        for bits in range(1 << len(KINDS)):
            kinds = frozenset(k for b, k in enumerate(KINDS) if bits >> b & 1)
            got = relations._acts_within(rw, kinds)
            assert got == naive_acts_within(mapping, src, dst, kinds), (mapping, src, dst, kinds)
            seen.add((kinds, got))
    assert len(seen) == 2 << len(KINDS)


# ---------------------------------------------------------------------------
# QF types of tuples and relations given by a set of them


def naive_qf_type(t, g):
    """(pattern, code) by hand: entry i of the pattern numbers the distinct
    values in order of first occurrence; bit b of the code is the b-th pair
    of those values, in lexicographic order, read with ``has_edge``."""
    firsts, pattern = [], []
    for x in t:
        for c, y in enumerate(firsts):
            if x == y:
                pattern.append(c)
                break
        else:
            pattern.append(len(firsts))
            firsts.append(x)
    code = bit = 0
    for i in range(len(firsts)):
        for j in range(i + 1, len(firsts)):
            if g.has_edge(firsts[i], firsts[j]):
                code |= 1 << bit
            bit += 1
    return tuple(pattern), code


@st.composite
def typed_tuples(draw):
    """(graph, arity, member tuples, probe tuples) on a random graph."""
    n = draw(st.integers(1, 7))
    g = graph_from_bits(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    arity = draw(st.integers(1, 5))
    tuples = st.tuples(*[st.integers(0, n - 1)] * arity)
    return g, arity, draw(st.lists(tuples, max_size=8)), draw(st.lists(tuples, min_size=1, max_size=8))


@given(typed_tuples())
@settings(max_examples=200, deadline=None)
def test_qf_type_and_type_set_match_naive_oracle(instance):
    g, arity, members, probes = instance
    r = relations.TypeSetRelation(arity, {naive_qf_type(t, g) for t in members})
    for t in members + probes:
        assert relations.qf_type(t, g) == naive_qf_type(t, g)
        assert r.holds(t, g) == (naive_qf_type(t, g) in r.types)
        assert r.holds(t, g) == any(naive_qf_type(m, g) == naive_qf_type(t, g) for m in members)


PALEY13 = build_paley(13).graph


def naive_type_set(arity, members, g):
    """``TupleSetRelation.type_set`` by hand: walk every host tuple in
    lexicographic order, typed by ``naive_qf_type``; the first non-member of
    a member's type gives the pair (least member of that type, it), else the
    set of member types."""
    least = {}
    for t in sorted(members):
        least.setdefault(naive_qf_type(t, g), t)
    for t in product(range(g.n), repeat=arity):
        if t not in members and naive_qf_type(t, g) in least:
            return least[naive_qf_type(t, g)], t
    return set(least)


@st.composite
def typed_host_sets(draw):
    """(host, arity, some realized types, host tuples to toggle): the host is
    a random graph on 1 to 6 vertices or Paley(13)."""
    if draw(st.booleans()):
        g = PALEY13
    else:
        n = draw(st.integers(1, 6))
        g = graph_from_bits(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    arity = draw(st.integers(1, 3))
    realized = sorted({naive_qf_type(t, g) for t in product(range(g.n), repeat=arity)})
    types = set(draw(st.lists(st.sampled_from(realized), max_size=4)))
    toggled = set(draw(st.lists(st.tuples(*[st.integers(0, g.n - 1)] * arity), max_size=3)))
    return g, arity, types, toggled


@given(typed_host_sets())
# every edge of Paley(13) but (0, 1): the least non-member comes before the
# least member of its type
@example((PALEY13, 2, {((0, 1), 1)}, {(0, 1)}))
@settings(max_examples=100, deadline=None)
def test_type_set_matches_naive_oracle(instance):
    g, arity, types, toggled = instance
    # the host tuples of a set of realized types come back as that set
    whole = {t for t in product(range(g.n), repeat=arity) if naive_qf_type(t, g) in types}
    back = TupleSetRelation(arity, whole).type_set(g)
    assert isinstance(back, relations.TypeSetRelation) and back.types == types
    # toggling a few tuples may leave the types; the pair is the oracle's
    members = whole ^ toggled
    got = TupleSetRelation(arity, members).type_set(g)
    want = naive_type_set(arity, members, g)
    if isinstance(want, set):
        assert isinstance(got, relations.TypeSetRelation) and got.types == want
    else:
        pair, checked = got
        assert pair == want and checked >= 1


def type_set_of(r):
    """The type-set relation with the same table as r."""
    return relations.TypeSetRelation(
        r.arity, {(rgs, e) for rgs, row in r.type_table.items() for e, member in enumerate(row) if member}
    )


def random_formula(rng, arity, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return (rng.choice(("E", "eq")), rng.randrange(arity), rng.randrange(arity))
    op = rng.choice(("not", "and", "or"))
    if op == "not":
        return ("not", random_formula(rng, arity, depth - 1))
    return (op, random_formula(rng, arity, depth - 1), random_formula(rng, arity, depth - 1))


def table_relations():
    rels = [parity_relation(a) for a in range(2, 6)] + [edge_relation(), nonedge_relation()]
    rels += [distinct_relation(a) for a in range(2, 5)]
    rng = random.Random(20)
    rels += [relations.FormulaRelation(random_formula(rng, a), arity=a) for a in (2, 3, 4) for _ in range(20)]
    return rels


def table_class(r):
    # the class that r's type table gives, read off its facts
    facts = r.type_facts
    if facts.equality_definable:
        return ReductClass.EQUALITY
    return {
        frozenset(): ReductClass.GRAPH,
        frozenset({"minus"}): ReductClass.MINUS,
        frozenset({"switch"}): ReductClass.SWITCH,
        frozenset({"minus", "switch"}): ReductClass.MINUS_SWITCH,
    }[facts.closed_under & {"minus", "switch"}]


@given(arity=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), formula=st.booleans())
@settings(max_examples=100, deadline=None)
def test_class_is_the_table_class_on_a_host_with_every_type(paley13, arity, seed, formula):
    # a 2-e.c. host realizes every type of arity at most 3
    rng = random.Random(seed)
    if formula:
        r = relations.FormulaRelation(random_formula(rng, arity), arity=arity)
    else:
        r = relations.TypeSetRelation(arity, [t for t in all_types(arity) if rng.random() < 0.5])
    assert classify_reduct(r, paley13.graph, 2).reduct_class is table_class(r), r.name


class TestClassMatchesTable:
    def test_arity_four_on_a_three_ec_host(self, paley29):
        rels = [r for r in table_relations() if r.arity <= 4]
        assert len(rels) == 68
        for r in rels:
            assert classify_reduct(r, paley29.graph, 3).reduct_class is table_class(r), r.name

    def test_arity_four_on_a_two_ec_host_is_the_table_class_or_refused(self, paley13):
        # Paley(13) has no K4 and no independent 4-set: a relation holding
        # on one of those types alone shows nothing on it, and is refused
        singletons = [relations.TypeSetRelation(4, [t]) for t in all_types(4)]
        refused = []
        for r in singletons + [r for r in table_relations() if r.arity == 4]:
            try:
                cls = classify_reduct(r, paley13.graph, 2).reduct_class
            except ValueError as e:
                assert f"the host cannot witness that {r.name} is not" in str(e)
                refused.append(r)
                continue
            assert cls is table_class(r), r.name
        assert [r.types for r in refused] == [{((0, 1, 2, 3), 0)}, {((0, 1, 2, 3), 63)}]


# ---------------------------------------------------------------------------
# the switch sweep against a naive walk, vertex by vertex


def naive_switch_order(r, g, v):
    # the prefixes the scan of the switch at v walks, in its order: for
    # parity the sorted ones that contain v or end below it, else all
    k = r.arity - 1
    if isinstance(r, relations.ParityRelation):
        return [p for p in combinations(range(g.n), k) if v in p or p[-1] < v]
    return list(product(range(g.n), repeat=k))


def naive_switch_scan(r, g, v):
    """(preserved, least witness, checked) of the switch at v: the tuples
    through v, prefix by prefix in ``naive_switch_order``, with ``holds`` on
    g and on ``switch_graph(g, {v})``, one way and then back.  A sorted
    parity prefix is extended above its last entry only.  ``checked`` is the
    rank of the hit prefix in that order, after the first way's count on the
    way back."""
    h = switch_graph(g, {v})
    order = naive_switch_order(r, g, v)
    parity = isinstance(r, relations.ParityRelation)
    for way, (a, b) in enumerate(((g, h), (h, g))):
        for rank, p in enumerate(order, 1):
            for c in range(p[-1] + 1 if parity else 0, g.n):
                t = p + (c,)
                if v in t and r.holds(t, a) and not r.holds(t, b):
                    return False, t, way * len(order) + rank
    return True, None, 2 * len(order)


@st.composite
def switch_instances(draw):
    n = draw(st.integers(4, 9))
    g = graph_from_bits(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    kind = draw(st.sampled_from(["parity", "formula", "types"]))
    if kind == "parity":
        return parity_relation(draw(st.integers(2, 4))), g
    arity = draw(st.integers(1, 3))
    if kind == "formula":
        root = random_formula(random.Random(draw(st.integers(0, 2**32 - 1))), arity)
        return relations.FormulaRelation(root, arity=arity), g
    return relations.TypeSetRelation(arity, draw(st.sets(st.sampled_from(all_types(arity))))), g


TRIANGLE = parse_relation_spec("formula:E(0,1) & E(1,2) & E(0,2)")
# hosts where some vertices keep the relation and others break it only on
# the way back; and an arity-1 formula, whose one prefix is ()
SWITCH_EXAMPLES = (
    (TRIANGLE, random_graph(5, 0)),
    (TRIANGLE, random_graph(7, 33)),
    (parity_relation(4), empty_graph(6)),
    (relations.FormulaRelation(("eq", 0, 0)), random_graph(4, 1)),
)


@given(switch_instances(), st.lists(st.integers(0, 8), max_size=18))
@example(SWITCH_EXAMPLES[0], [4, 1, 4])
@example(SWITCH_EXAMPLES[1], [6, 2, 5, 2, 0])
@example(SWITCH_EXAMPLES[2], [5, 3])
@example(SWITCH_EXAMPLES[3], [3, 0, 2])
@settings(max_examples=300, deadline=None)
def test_switch_sweep_matches_naive_oracle(instance, picks):
    # the sweep behind every switch check, on all vertices and on a vertex
    # list drawn from ``picks`` (any subset, in any order, repeats allowed),
    # then the two entry points: the per-vertex call and the certificate of
    # a classification, both of which the type table answers with checked 0
    # when it proves the fact
    r, g = instance
    want = [naive_switch_scan(r, g, v) for v in range(g.n)]
    got = _rewrite_scans(r, g, range(g.n))
    assert [(res.preserved, res.witness, res.checked) for res in got] == want
    at = [x % g.n for x in picks]
    assert [(res.preserved, res.witness, res.checked) for res in _rewrite_scans(r, g, at)] == [want[v] for v in at]
    gated = "switch" in r.type_facts.closed_under
    if gated:
        assert all(preserved for preserved, _, _ in want)
        got = [PreservationResult(True)] * g.n
    assert [invariant_under_switch(r, g, v) for v in range(g.n)] == got
    cert = _classify_single(r, g)
    if not cert.equality.definable:
        assert cert.switch_violations == tuple((v, res.witness) for v, res in enumerate(got) if not res.preserved)
        assert cert.switch_subsets_checked == sum(res.checked for res in got)


# ---------------------------------------------------------------------------
# the generated member mask of a formula against ``holds``, candidate by
# candidate


@st.composite
def formula_instances(draw):
    # (formula, host, switch vertex) for arity 1-4 and depth at most 4
    arity = draw(st.integers(1, 4))
    root = random_formula(random.Random(draw(st.integers(0, 2**32 - 1))), arity, draw(st.integers(0, 4)))
    n = draw(st.integers(1, 7 if arity < 4 else 5))
    g = graph_from_bits(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    return relations.FormulaRelation(root, arity=arity), g, draw(st.integers(0, n - 1))


# E(i, i) and x_i = x_i on the last position and before it, atoms with the
# last position on either side, and formulas of arity 1
FORMULA_EXAMPLES = (
    (("or", ("E", 2, 2), ("and", ("eq", 0, 0), ("not", ("eq", 2, 2)))), 3),
    (("and", ("E", 1, 1), ("not", ("E", 0, 0))), 2),
    (("or", ("and", ("E", 0, 2), ("eq", 2, 1)), ("not", ("E", 3, 1))), 4),
    (("not", ("or", ("E", 0, 0), ("eq", 0, 0))), 1),
    (("and", ("eq", 0, 1), ("not", ("E", 1, 0))), 2),
)


@given(formula_instances())
@example((relations.FormulaRelation(FORMULA_EXAMPLES[0][0], arity=3), random_graph(6, 3), 2))
@example((relations.FormulaRelation(FORMULA_EXAMPLES[1][0], arity=2), complete_graph(4), 0))
@example((relations.FormulaRelation(FORMULA_EXAMPLES[2][0], arity=4), random_graph(5, 8), 4))
@example((relations.FormulaRelation(FORMULA_EXAMPLES[3][0], arity=1), empty_graph(3), 1))
@example((relations.FormulaRelation(FORMULA_EXAMPLES[4][0], arity=2), random_graph(7, 2), 5))
@settings(max_examples=200, deadline=None)
def test_formula_member_matches_naive_oracle(instance):
    # every prefix, with the rows as a tuple and as a dict of the prefix
    # entries' rows (as the switch sweep passes them, here those of g
    # switched at v)
    r, g, v = instance
    n = g.n
    member = relations._member_of(r, n)
    same = [1 << x for x in range(n)]
    h = switch_graph(g, {v})
    for prefix in product(range(n), repeat=r.arity - 1):
        for host, rows in ((g, g.rows), (h, {x: h.rows[x] for x in prefix})):
            want = sum(1 << c for c in range(n) if r.holds(prefix + (c,), host))
            assert member(prefix, rows, same) == want, (prefix, host)


def test_switch_rank_counts_the_prefixes_it_follows():
    # the closed-form rank that the sweep reports as ``checked``, on every
    # prefix of both orders up to 8 vertices and arity 5
    for n in range(1, 9):
        g = empty_graph(n)
        for arity in range(2, 6):
            for r in (parity_relation(arity), distinct_relation(arity)):
                ascending = isinstance(r, relations.ParityRelation)
                for v in range(n):
                    order = naive_switch_order(r, g, v)
                    ranks = [relations._switch_rank(p, v, n, ascending) for p in order]
                    assert ranks == list(range(1, len(order) + 1)), (n, r.name, v)


# sha256 over (preserved, witness, checked) of the single-vertex switch scan
# at each vertex of Paley(29), one line per vertex, relation by relation in
# SINGLE_SWITCH_RELATIONS, as computed when one vertex had its own loop
# over full switched rows
SINGLE_SWITCH_RELATIONS = ("formula:E(0,1)", "parity:3", "parity:4", "formula:E(0,1) & E(1,2) & E(0,2)")
SINGLE_SWITCH_DIGEST = "f9d8efb12a347ac545b65256279df982ffa87770ab50bdf0a204c053ad3bbcb9"


def test_single_vertex_switches_on_paley29(paley29):
    g = paley29.graph
    lines = []
    for spec in SINGLE_SWITCH_RELATIONS:
        r = parse_relation_spec(spec)
        for v in range(g.n):
            res = _rewrite_scans(r, g, (v,))[0]
            lines.append(repr((res.preserved, res.witness, res.checked)))
    assert sum(line.startswith("(False") for line in lines) == 3 * g.n
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SINGLE_SWITCH_DIGEST


def test_switch_examples_keep_vertices_and_break_on_the_way_back():
    # the explicit examples above cover what random hosts may miss
    kept = back = 0
    for r, g in SWITCH_EXAMPLES:
        for v in range(g.n):
            preserved, _, checked = naive_switch_scan(r, g, v)
            kept += preserved
            back += not preserved and checked > len(naive_switch_order(r, g, v))
    assert kept and back


class TestTypeSetRelation:
    def test_rejects_non_types(self):
        for bad in (((0, 0), 1), ((1, 0), 0), ((0, 1), 2), ((0,), 0)):
            with pytest.raises(ValueError):
                relations.TypeSetRelation(2, [bad])

    def test_table_read_from_the_set(self, monkeypatch):
        def refuse(self, t, g):
            raise AssertionError("holds called while compiling")

        monkeypatch.setattr(relations.TypeSetRelation, "holds", refuse)
        r = relations.TypeSetRelation(3, {((0, 1, 2), 7), ((0, 0, 1), 1)})
        assert r.type_table[(0, 1, 2)] == (False,) * 7 + (True,)
        assert r.type_table[(0, 0, 1)] == (False, True)
        assert not any(r.type_table[(0, 1, 1)])

    def test_matches_small_graph_oracles(self):
        # the equality, complement and switch scans on the table-driven mask
        for g in (path_graph(4), cycle_graph(5), random_graph(6, 3)):
            for r in oracle_relations(4):
                assert_matches_oracle(type_set_of(r), g)

    @pytest.mark.parametrize("fixture", ["paley13", "paley29"])
    def test_matches_the_relation_it_tabulates(self, request, fixture):
        paley = request.getfixturevalue(fixture)
        g, n = paley.graph, paley.graph.n
        rng = random.Random(n)
        dom = rng.sample(range(n), 7)
        maps = [
            ({x: (x + 1) % n for x in dom}, g),  # an automorphism
            ({x: paley.complement_witness[x] for x in dom}, g),  # an anti-automorphism
            ({x: x for x in dom}, switch_graph(g, {dom[0], dom[3]})),
            ({x: x for x in dom}, naive_complement(g)),
        ]
        maps += [({x: rng.randrange(n) for x in dom}, g) for _ in range(3)]  # collapses too
        rels = table_relations()
        assert len(rels) >= 69
        for r in rels:
            t = type_set_of(r)
            assert t.type_table == r.type_table, r.name
            assert t.type_facts == r.type_facts, r.name
            for mapping, dst in maps:
                want = preserved_by_map(r, mapping, g, dst)
                got = preserved_by_map(t, mapping, g, dst)
                assert (got.preserved, got.witness) == (want.preserved, want.witness), (r.name, mapping)
            gadget = make_named("minus", g, dom=dom)
            want, got = violates(gadget, r), violates(gadget, t)
            assert (got.preserved, got.witness) == (want.preserved, want.witness), r.name


class _Opaque(relations.Relation):
    # membership given by code alone: no type table and no scan
    arity, name = 2, "opaque"

    def holds(self, t, g):
        return True


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: relations.ParityRelation(1), ValueError, "parity relations need arity at least 2"),
        (lambda: relations.TypeSetRelation(0, ()), ValueError, "type sets need arity at least 1"),
        (lambda: relations.TupleSetRelation(2, [(0, 1, 2)]), ValueError, "tuple (0, 1, 2) does not have arity 2"),
        (lambda: relations.FormulaRelation(("E", 0, 2), arity=2), ValueError, "formula mentions a position beyond the arity"),
        (lambda: distinct_relation(0), ValueError, "distinct relations need arity at least 2"),
        (lambda: distinct_relation(1), ValueError, "distinct relations need arity at least 2"),
        # refused when built, not at the first use
        (
            lambda: relations.FormulaRelation(("xor", ("E", 0, 1), ("E", 1, 2))),
            ValueError,
            "unknown formula node 'xor'",
        ),
        # a negative position would read the tuple from its end; the least one is named
        (lambda: relations.FormulaRelation(("E", -1, 0)), ValueError, "formula mentions the negative position -1"),
        (lambda: relations.FormulaRelation(("E", 0, -1), arity=2), ValueError, "formula mentions the negative position -1"),
        (
            lambda: relations.FormulaRelation(("and", ("eq", -1, 0), ("not", ("E", 1, -3)))),
            ValueError,
            "formula mentions the negative position -3",
        ),
        (lambda: preserved_by_map(edge_relation(), {5: 0}, path_graph(3), path_graph(3)), ValueError, "domain vertex 5 out of range"),
        (lambda: preserved_by_map(edge_relation(), {0: 5}, path_graph(3), path_graph(3)), ValueError, "image vertex 5 out of range"),
        (lambda: invariant_under_switch(edge_relation(), path_graph(3), 3), ValueError, "switch vertex 3 out of range"),
        # a negative id would read a row from the end
        (lambda: qf_type((-1, 0), build_paley(13).graph), ValueError, "tuple entry -1 is not a vertex of the graph"),
        (lambda: qf_type((13, 0), build_paley(13).graph), ValueError, "tuple entry 13 is not a vertex of the graph"),
        # type_set refuses ids outside the host, which its member index would skip
        (
            lambda: TupleSetRelation(2, [(0, 1), (0, 99)]).type_set(build_paley(13).graph),
            ValueError,
            "tuple (0, 99) in tuples:<anon>[2] is not over the host's vertices 0..12",
        ),
        (
            lambda: TupleSetRelation(2, [(-3, 5), (0, 1)]).type_set(build_paley(13).graph),
            ValueError,
            "tuple (-3, 5) in tuples:<anon>[2] is not over the host's vertices 0..12",
        ),
        # a tuple set is scanned only as its type_set
        (
            lambda: definable_from_equality(TupleSetRelation(2, [(0, 1)]), build_paley(13).graph),
            TypeError,
            "no scan for relation <Relation tuples:<anon>[1]>",
        ),
        (
            lambda: invariant_under_switch(TupleSetRelation(2, [(0, 1)]), build_paley(13).graph, 0),
            TypeError,
            "no scan for relation <Relation tuples:<anon>[1]>",
        ),
        (
            lambda: preserved_by_map(_Opaque(), {0: 0, 1: 1}, path_graph(3), path_graph(3)),
            TypeError,
            "no scan for relation <Relation opaque>",
        ),
    ],
    ids=[
        "parity-1", "type-set-0", "tuple-arity", "formula-position", "distinct-0", "distinct-1", "formula-node",
        "formula-negative", "formula-negative-arity", "formula-negative-least",
        "map-domain", "map-image", "switch-vertex", "type-negative", "type-beyond",
        "tuple-beyond-host", "tuple-negative", "tuple-set-equality-scan", "tuple-set-switch-scan", "no-scan",
    ],
)
def test_argument_rejections(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
