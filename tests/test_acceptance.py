"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance and time budget.

Oracles here are deliberately independent reimplementations: the extension
oracle is a naive double loop over adjacency queries, and the orbit oracle is
a breadth-first search over explicit edge-set graphs with its own
canonicalization.
"""

import json
import random
import time
from functools import lru_cache
from itertools import combinations, permutations

from rado_lab import (
    FunctionGadget,
    Graph,
    GeneratorSet,
    ReductClass,
    all_graph_types,
    build_ec,
    check_extension,
    classify_on_set,
    classify_reduct,
    collapse_all,
    complete_graph,
    definable_from_equality,
    delete_all_edges,
    distinct_relation,
    edge_relation,
    find_mono_copy,
    format_graph,
    invariant_under_complement,
    invariant_under_switch,
    make_named,
    orbit_closure,
    parity_relation,
    verify_arrow,
    verify_witness,
)
from rado_lab.canonicity import BehaviorClass
from rado_lab.cli import main as cli_main
from rado_lab.gadgets import format_gadget
from rado_lab.ramsey import ArrowQuery
from conftest import random_graph


def test_criterion_1_five_class_table(paley13, paley29, ec3_host):
    """Exact five-class reproduction on three hosts."""
    hosts = [(paley13.graph, 2), (paley29.graph, 3), (ec3_host, 3)]
    expected = [
        ([edge_relation()], ReductClass.GRAPH),
        ([parity_relation(4)], ReductClass.MINUS),
        ([parity_relation(3)], ReductClass.SWITCH),
        ([parity_relation(3), parity_relation(4)], ReductClass.MINUS_SWITCH),
        ([distinct_relation(2)], ReductClass.EQUALITY),
    ]
    start = time.monotonic()
    table = []
    for relations, want in expected:
        row = []
        for host, k in hosts:
            got = classify_reduct(relations, host, k).reduct_class
            row.append(got)
            assert got is want, f"{[r.name for r in relations]} on n={host.n}: {got}"
        table.append(row)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"table took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1: PASS five-class 5x3 table exact in {elapsed:.1f}s")


def test_criterion_2_invariance_facts(paley13):
    """Parity invariance facts on every small type plus random graphs."""
    start = time.monotonic()
    universe = [g for n in range(1, 6) for g in all_graph_types(n)]
    assert len(all_graph_types(5)) == 34
    rng = random.Random(0)
    for i in range(100):
        universe.append(random_graph(6 + i % 3, rng.randrange(10**6)))
    r3, r4, r5 = parity_relation(3), parity_relation(4), parity_relation(5)
    for g in universe:
        for v in range(g.n):
            assert invariant_under_switch(r3, g, v).preserved
            assert invariant_under_switch(r5, g, v).preserved
        assert invariant_under_complement(r4, g).preserved
        assert invariant_under_complement(r5, g).preserved
    # complement breaks the triple parity on a triangle, with a witness
    broken = invariant_under_complement(r3, complete_graph(3))
    assert not broken.preserved and broken.witness == (0, 1, 2)
    # the five-ary parity is not an equality pattern on Paley(13)
    eq = definable_from_equality(r5, paley13.graph)
    assert not eq.definable
    member, nonmember = eq.witness
    assert r5.holds(member, paley13.graph)
    assert not r5.holds(nonmember, paley13.graph)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"invariance facts took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2: PASS invariance facts on {len(universe)} graphs in {elapsed:.1f}s")


def test_criterion_3_ramsey_instances():
    """The classical arrow instances, exhaustively: K6 and K7 hold, K5 fails."""
    k2, k3 = complete_graph(2), complete_graph(3)
    start = time.monotonic()
    holds = verify_arrow(ArrowQuery(complete_graph(6), k3, k2, 2))
    t_holds = time.monotonic() - start
    assert holds.verdict == "holds"
    assert t_holds < 10.0

    start = time.monotonic()
    holds7 = verify_arrow(ArrowQuery(complete_graph(7), k3, k2, 2))
    t_holds7 = time.monotonic() - start
    assert holds7.verdict == "holds"
    assert t_holds7 < 10.0

    start = time.monotonic()
    fails = verify_arrow(ArrowQuery(complete_graph(5), k3, k2, 2))
    t_fails = time.monotonic() - start
    assert fails.verdict == "fails"
    assert t_fails < 10.0
    assert find_mono_copy(complete_graph(5), k3, k2, fails.witness) is None
    print(
        f"ACCEPTANCE 3: PASS K6 arrow holds ({t_holds:.1f}s), "
        f"K7 arrow holds ({t_holds7:.1f}s), "
        f"K5 arrow fails with verified witness ({t_fails:.1f}s)"
    )


def _naive_extension_oracle(g: Graph, k: int) -> bool:
    """Independent double-loop oracle: no bitsets, no shared kernel."""
    vertices = list(range(g.n))
    for t in range(k + 1):
        for support in combinations(vertices, t):
            for split in range(1 << t):
                inside = [support[i] for i in range(t) if not split >> i & 1]
                outside = [support[i] for i in range(t) if split >> i & 1]
                found = False
                for v in vertices:
                    if v in support:
                        continue
                    if all(g.has_edge(v, u) for u in inside) and all(
                        not g.has_edge(v, u) for u in outside
                    ):
                        found = True
                        break
                if not found:
                    return False
    return True


def test_criterion_4_extension_property(paley13, paley29):
    start = time.monotonic()
    assert check_extension(paley13.graph, 2).passed
    assert _naive_extension_oracle(paley13.graph, 2)

    p13_k3 = check_extension(paley13.graph, 3).passed
    assert p13_k3 == _naive_extension_oracle(paley13.graph, 3)

    assert check_extension(paley29.graph, 3).passed
    assert _naive_extension_oracle(paley29.graph, 3)

    for seed in range(10):
        assert check_extension(build_ec(2, seed), 2).passed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"extension checks took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 4: PASS extension checks oracle-confirmed "
        f"(paley13 k=3 {'passes' if p13_k3 else 'fails'}) in {elapsed:.1f}s"
    )


def test_criterion_5_canonicity_classifier(paley29):
    g = paley29.graph
    gadgets = {
        BehaviorClass.IDENTITY: make_named("identity", g),
        BehaviorClass.MINUS: make_named("minus", g, witness=paley29.complement_witness),
        BehaviorClass.EE: make_named("eE", g, dst=complete_graph(29)),
        BehaviorClass.EN: make_named("eN", g, dst=Graph(29, (0,) * 29)),
        BehaviorClass.CONSTANT: make_named("const", g, target=0),
    }
    start = time.monotonic()
    mixed = 0
    misclassified = 0
    for subset in combinations(range(29), 4):
        kinds = {g.has_edge(x, y) for x, y in combinations(subset, 2)}
        if len(kinds) != 2:
            continue
        mixed += 1
        for want, gadget in gadgets.items():
            if classify_on_set(gadget, subset) != frozenset({want}):
                misclassified += 1
    elapsed = time.monotonic() - start
    assert mixed > 0
    assert misclassified == 0
    print(
        f"ACCEPTANCE 5: PASS zero misclassifications over {mixed} mixed "
        f"4-subsets x 5 gadgets in {elapsed:.1f}s"
    )


def test_criterion_6_generation_procedures(paley29):
    host = paley29.graph
    start = time.monotonic()
    deletion = delete_all_edges(complete_graph(4), host, 3)
    assert deletion.generator_steps == 6
    assert verify_witness(deletion)

    first_edge = next(host.edges())
    first_nonedge = next(host.nonedges())
    g_collapse = FunctionGadget(
        host, host,
        tuple((v, first_edge[1] if v == first_edge[0] else v) for v in range(29)),
        "custom",
    )
    h_collapse = FunctionGadget(
        host, host,
        tuple((v, first_nonedge[1] if v == first_nonedge[0] else v) for v in range(29)),
        "custom",
    )
    rng = random.Random(1)
    subsets = [tuple(sorted(rng.sample(range(29), 4))) for _ in range(10)]
    for subset in subsets:
        witness = collapse_all(subset, host, g_collapse, h_collapse)
        assert witness.generator_steps <= 4
        assert verify_witness(witness)
        values = set()
        for x in subset:
            value = x
            for step in witness.steps:
                value = step.apply(value)
            values.add(value)
        assert len(values) == 1
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 6: PASS K4 emptied in exactly 6 verified steps; "
        f"{len(subsets)} collapses within the |F| bound in {elapsed:.1f}s"
    )


# --- independent orbit oracle -------------------------------------------------


def _oracle_canon(n: int, edges: frozenset) -> tuple:
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)
        )
        key = (n, relabeled)
        if best is None or key < best:
            best = key
    return best


def _oracle_images(n: int, edges: frozenset, kinds: frozenset):
    all_pairs = set(combinations(range(n), 2))
    if "minus" in kinds:
        yield n, frozenset(all_pairs - edges)
    if "switch" in kinds:
        for size in range(n + 1):
            for cut in combinations(range(n), size):
                side = set(cut)
                yield n, frozenset(
                    p
                    for p in all_pairs
                    if (p in edges) != ((p[0] in side) != (p[1] in side))
                )
    if "eE" in kinds:
        yield n, frozenset(all_pairs)
    if "eN" in kinds:
        yield n, frozenset()
    if "const" in kinds:
        yield 1, frozenset()


def _oracle_closure(start: Graph, kinds: frozenset) -> set:
    first = _oracle_canon(start.n, frozenset(start.edges()))
    seen = {first}
    work = [first]
    while work:
        n, edges = work.pop()
        for m, image in _oracle_images(n, set(edges), kinds):
            key = _oracle_canon(m, frozenset(image))
            if key not in seen:
                seen.add(key)
                work.append(key)
    return seen


def test_criterion_7_orbit_closure_oracle():
    assert len(all_graph_types(4)) == 11
    starts = [g for n in range(1, 5) for g in all_graph_types(n)]
    optional = ["minus", "switch", "eE", "eN", "const"]
    start_time = time.monotonic()
    cases = 0
    for start in starts:
        for bits in range(1 << len(optional)):
            kinds = frozenset(
                optional[i] for i in range(len(optional)) if bits >> i & 1
            )
            ours = orbit_closure(start, GeneratorSet(kinds))
            ours_keys = {_oracle_canon(g.n, frozenset(g.edges())) for g in ours}
            oracle_keys = _oracle_closure(start, kinds)
            assert ours_keys == oracle_keys, (start, sorted(kinds))
            cases += 1
    elapsed = time.monotonic() - start_time
    print(
        f"ACCEPTANCE 7: PASS orbit closure equals the BFS oracle on "
        f"{cases} (start, generator-set) cases in {elapsed:.1f}s"
    )


def test_criterion_7_orbit_closure_oracle_five_vertex_starts(monkeypatch):
    # the same oracle on the 5-vertex starts under the group kinds, whose
    # closures are the largest; its canonical keys are memoized per edge
    # set, which changes no key
    monkeypatch.setitem(globals(), "_oracle_canon", lru_cache(maxsize=None)(_oracle_canon))
    start_time = time.monotonic()
    cases = 0
    for start in all_graph_types(5):
        for kinds in ({"minus"}, {"switch"}, {"minus", "switch"}):
            ours = orbit_closure(start, GeneratorSet(frozenset(kinds)))
            ours_keys = {_oracle_canon(g.n, frozenset(g.edges())) for g in ours}
            assert ours_keys == _oracle_closure(start, frozenset(kinds)), (start, sorted(kinds))
            cases += 1
    elapsed = time.monotonic() - start_time
    print(
        f"ACCEPTANCE 7: PASS orbit closure equals the BFS oracle on "
        f"{cases} 5-vertex (start, generator-set) cases in {elapsed:.1f}s"
    )


def test_criterion_8_cli_determinism(tmp_path, monkeypatch, capsys, paley13):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p13.g").write_text(format_graph(paley13.graph))
    for name, n in (("k5", 5), ("k3", 3), ("k2", 2)):
        (tmp_path / f"{name}.g").write_text(format_graph(complete_graph(n)))
    gadget = make_named("identity", paley13.graph)
    (tmp_path / "ident.fg").write_text(format_gadget(gadget, "p13.g", "p13.g"))

    commands = [
        ["generate", "paley", "13", "--seed", "0", "--json"],
        ["generate", "ec", "-k", "2", "--seed", "3", "--json"],
        ["classify-relation", "--spec", "parity:3", "--host", "p13.g", "-k", "2", "--json"],
        ["classify-function", "--gadget", "ident.fg", "--json"],
        ["ramsey", "verify", "--S", "k5.g", "--H", "k3.g", "--P", "k2.g", "-k", "2", "--json"],
        ["interpolate", "--target", "ident.fg", "--gens", "identity",
         "--hosts", "p13.g", "--depth", "1", "--json"],
    ]
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        json.loads(first)  # every report is valid JSON
    print(f"ACCEPTANCE 8: PASS byte-identical JSON reports for {len(commands)} commands")
