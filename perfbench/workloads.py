"""The four benchmark workloads: hosts, classify, arrows and generation.

Each workload has ``setup(lib, rng, workdir)``, which builds the inputs that
every round shares, and ``round(lib, inputs, rng, rec, workdir)``, which draws
one round of requests from ``rng``.  A request is one verdict: ``run()`` makes
the library calls, through ``rec.call`` so that they are counted and traced,
and ``check(result)`` returns None or a description of what is wrong.  Checks
run outside the timed region and use ``oracles`` or a known answer; work
counts are recorded there too.

The rounds of one workload always have the same make-up, and the seed only
relabels known-answer instances, picks build seeds, subsets and formula
variants.  That keeps the cost of a round nearly independent of the seed.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

import oracles


class Request(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Workload(NamedTuple):
    setup: Callable
    round: Callable


# ---------------------------------------------------------------------------
# shared helpers


def relabel(lib, g, rng):
    """A copy of ``g`` under a random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return lib.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(lib, n: int, rng):
    return lib.Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
    )


def random_parts(n: int, count: int, rng) -> tuple[frozenset, ...]:
    """A random split of range(n) into ``count`` parts of near-equal size."""
    order = list(range(n))
    rng.shuffle(order)
    return tuple(frozenset(order[i::count]) for i in range(count))


def write(workdir, name: str, text: str) -> None:
    with open(os.path.join(workdir, name), "w", encoding="ascii") as fh:
        fh.write(text)


def _cli(lib, rec, workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = rec.call("cli.main", lib.cli.main, list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def cli_request(lib, rec, workdir, argv, expect) -> Request:
    """One in-process CLI call with ``--json``; the check reruns it, demands
    identical bytes, then hands the parsed report to ``expect``."""

    def check(first):
        code, out = first
        rec.count("cli.main.stdout_bytes", len(out.encode()))
        if code != 0:
            return f"exit code {code}"
        if _cli(lib, rec, workdir, argv) != first:
            return "rerun printed different bytes"
        return expect(json.loads(out))

    return Request(f"cli.{argv[0]}", lambda: _cli(lib, rec, workdir, argv), check)


def expect_equal(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# hosts: build and certify hosts; every graph is new


PALEY_QS = (13, 17, 29, 37, 41, 53, 61)


def _extension_request(lib, rec, kind, g, k, expect, rng) -> Request:
    def check(res):
        if res.passed != expect:
            return f"passed={res.passed}, known answer {expect}"
        if res.passed:
            rec.count("graphs.check_extension.pairs", oracles.extension_pairs(g.n, k))
        return oracles.extension_problem(g, k, res, rng)

    return Request(kind, lambda: rec.call("graphs.check_extension", lib.check_extension, g, k), check)


def _build_request(lib, rec, k, seed, rng) -> Request:
    def run():
        g = rec.call("graphs.build_ec", lib.build_ec, k, seed)
        return g, rec.call("graphs.check_extension", lib.check_extension, g, k)

    def check(result):
        g, res = result
        if not res.passed:
            return f"build_ec({k}, {seed}) does not pass its own check"
        rec.count("graphs.build_ec.vertices", g.n)
        rec.count("graphs.check_extension.pairs", oracles.extension_pairs(g.n, k))
        return oracles.extension_problem(g, k, res, rng)

    return Request(f"build_ec k={k}", run, check)


def hosts_setup(lib, rng, workdir):
    return {q: lib.build_paley(q).graph for q in PALEY_QS}


def hosts_round(lib, paley, rng, rec, workdir):
    reqs = []
    # Paley(q) is 2-e.c. for every q here and 3-e.c. from q = 29 on
    for q in PALEY_QS:
        for k in (2, 3):
            g = relabel(lib, paley[q], rng)
            reqs.append(_extension_request(lib, rec, f"paley k={k}", g, k, k == 2 or q >= 29, rng))
    # no graph on fewer than 20 vertices is 3-e.c.
    for _ in range(15):
        g = random_graph(lib, rng.randint(10, 16), rng)
        reqs.append(_extension_request(lib, rec, "gnp k=3", g, 3, False, rng))
    for _ in range(10):
        reqs.append(_build_request(lib, rec, 2, rng.randrange(2**31), rng))

    reqs.append(cli_request(
        lib, rec, workdir, ["generate", "paley", "13", "--json"],
        lambda report: expect_equal(
            "vertices, passed", (report["vertices"], report["extension_check"]["passed"]), (13, True)
        ),
    ))
    reqs.append(cli_request(
        lib, rec, workdir, ["generate", "ec", "-k", "2", "--seed", str(rng.randrange(1000)), "--json"],
        lambda report: expect_equal("passed", report["extension_check"]["passed"], True),
    ))
    return reqs


# ---------------------------------------------------------------------------
# classify: repeated reads on fixed hosts


def _xor(a: str, b: str) -> str:
    return f"({a} & !{b} | !{a} & {b})"


_D3 = "x0!=x1 & x1!=x2 & x0!=x2"
# Formula specs with their classes.  Each round permutes the tuple positions
# of every formula, which changes the spec but not its class.
FORMULAS = (
    ("E(0,1)", "graph"),
    ("!E(0,1) & x0!=x1", "graph"),
    ("E(0,1) & E(1,2) & E(0,2)", "graph"),
    ("x0!=x1", "equality"),
    ("x0=x1 | x1=x2", "equality"),
    (f"(E(0,1) & E(1,2) & E(0,2)) | ({_D3} & !E(0,1) & !E(1,2) & !E(0,2))", "minus"),
    ("x0!=x1 & x2!=x3 & (E(0,1) & E(2,3) | !E(0,1) & !E(2,3))", "minus"),
    (f"{_D3} & {_xor('E(0,1)', _xor('E(1,2)', 'E(0,2)'))}", "switch"),
)


def _permute_positions(formula: str, rng) -> str:
    arity = 1 + max(int(i) for i in re.findall(r"\d+", formula))
    perm = list(range(arity))
    rng.shuffle(perm)
    return re.sub(r"\d+", lambda m: str(perm[int(m.group())]), formula)


def _certificate_checked(classification) -> int:
    total = 0
    for cert in classification.certificates:
        total += cert.equality.checked + cert.switch_subsets_checked
        if cert.complement is not None:
            total += cert.complement.checked
    return total


def _classify_request(lib, rec, kind, relations, host, k, expect) -> Request:
    """``expect`` None means timed but not scored."""

    def check(res):
        rec.count("generation.classify_reduct.checked", _certificate_checked(res))
        if expect is None:
            return None
        return expect_equal("class", res.reduct_class.value, expect)

    return Request(
        kind, lambda: rec.call("generation.classify_reduct", lib.classify_reduct, relations, host, k), check
    )


def _preservation_request(lib, rec, kind, entry, args, expect, witness_ok) -> Request:
    """A relation scan or gadget check with a known verdict; a violation's
    witness must pass ``witness_ok``."""

    def check(res):
        rec.count(f"{entry}.checked", res.checked)
        held = res.definable if isinstance(res, lib.EqualityDefinability) else res.preserved
        if held != expect:
            return f"verdict {held}, known answer {expect}"
        if not held and not witness_ok(res.witness):
            return f"witness {res.witness} does not violate"
        return None

    fn = getattr(lib, entry.split(".")[1])
    return Request(kind, lambda: rec.call(entry, fn, *args()), check)


def _named(lib, rec, kind, host, paley):
    params = {
        "identity": {},
        "minus": {"witness": paley.complement_witness},
        "eE": {"dst": lib.complete_graph(host.n)},
        "eN": {"dst": lib.empty_graph(host.n)},
        "const": {"target": 0},
    }[kind]
    return rec.call("gadgets.make_named", lib.make_named, kind, host, **params)


GADGET_CLASS = {"identity": "identity", "minus": "minus", "eE": "eE", "eN": "eN", "const": "constant"}


def _mixed_subset(g, size, rng):
    """A random vertex set carrying both an edge and a non-edge."""
    while True:
        s = sorted(rng.sample(range(g.n), size))
        if len({g.has_edge(x, y) for x, y in combinations(s, 2)}) == 2:
            return s


def _mixed_cell(g, parts, i: int, j: int) -> bool:
    """Whether the pairs inside part i (i == j) or between parts i and j
    include both an edge and a non-edge."""
    a, b = sorted(parts[i]), sorted(parts[j])
    pairs = combinations(a, 2) if i == j else ((x, y) for x in a for y in b)
    return len({g.has_edge(x, y) for x, y in pairs}) == 2


def _profile_problem(g, cells, parts, want: str) -> str | None:
    """``cells`` are (i, j, entry) of a behavior profile over ``parts``: an
    entry whose pairs show both kinds must name the gadget's class."""
    for i, j, entry in cells:
        if _mixed_cell(g, parts, i, j) and entry != want:
            return f"cell ({i}, {j}) reads {entry}, want {want}"
    return None


# Seeds below 40 for which build_ec(3, s) has 75 vertices.  Classifying on a
# host of one size keeps the cost of a round independent of the workload seed.
EC3_SEEDS = (0, 3, 8, 26, 29, 35, 36)


def classify_setup(lib, rng, workdir):
    p13, p29 = lib.build_paley(13), lib.build_paley(29)
    ec3 = lib.build_ec(3, rng.choice(EC3_SEEDS))
    write(workdir, "p13.g", lib.format_graph(p13.graph))
    minus = lib.make_named("minus", p13.graph, witness=p13.complement_witness)
    write(workdir, "minus.fg", lib.gadgets.format_gadget(minus, "p13.g", "p13.g"))
    return {"p13": p13, "p29": p29, "ec3": ec3}


def classify_round(lib, inp, rng, rec, workdir):
    p13, p29, ec3 = inp["p13"].graph, inp["p29"].graph, inp["ec3"]
    singles = {
        "E": ([lib.edge_relation()], "graph"),
        "parity:4": ([lib.parity_relation(4)], "minus"),
        "parity:3": ([lib.parity_relation(3)], "switch"),
        "distinct:2": ([lib.distinct_relation(2)], "equality"),
    }
    table = dict(singles)
    table["parity:3+parity:4"] = (singles["parity:3"][0] + singles["parity:4"][0], "minus-switch")
    reqs = []
    for host, k in ((p13, 2), (p29, 3)):
        for name, (rels, cls) in table.items():
            reqs.append(_classify_request(lib, rec, f"classify {name}", rels, host, k, cls))
    reqs.append(_classify_request(lib, rec, "classify parity:5", [lib.parity_relation(5)], p13, 2, "minus-switch"))
    reqs.append(_classify_request(lib, rec, "classify n~75 parity:3", singles["parity:3"][0], ec3, 3, "switch"))
    formulas = [
        ([lib.parse_relation_spec("formula:" + _permute_positions(f, rng))], cls) for f, cls in FORMULAS
    ]
    for rels, cls in formulas:
        reqs.append(_classify_request(lib, rec, "classify formula", rels, p13, 2, cls))
    for (ra, ca), (rb, cb) in ((singles["E"], singles["distinct:2"]), (formulas[5], formulas[7])):
        reqs.append(_classify_request(lib, rec, "classify joint", ra + rb, p13, 2, oracles.join(ca, cb)))
    # tuple sets are timed but not scored: their class is not yet meaningful
    tuples = lib.TupleSetRelation(2, [tuple(rng.sample(range(13), 2)) for _ in range(10)])
    reqs.append(_classify_request(lib, rec, "classify tuples", [tuples], p13, 2, None))

    r3, r4 = lib.parity_relation(3), lib.parity_relation(4)
    d2 = lib.distinct_relation(2)
    w = inp["p29"].complement_witness
    square = pow(rng.randrange(1, 29), 2, 29)
    shift = rng.randrange(1, 29)
    anti = {x: w[x] * square % 29 for x in range(29)}
    auto = {x: (x + shift) % 29 for x in range(29)}
    v29, v75 = rng.randrange(29), rng.randrange(ec3.n)

    def odd_in(g):
        return lambda t: oracles.odd_edges(g, t)

    def eq_witness(pair):
        member, nonmember = pair
        same = [member.index(x) for x in member] == [nonmember.index(x) for x in nonmember]
        return same and oracles.odd_edges(p29, member) and not oracles.odd_edges(p29, nonmember)

    def not_kept(mapping):
        return lambda t: oracles.odd_edges(p29, t) and not oracles.odd_edges(
            p29, tuple(mapping[x] for x in t)
        )

    preserve = "relations.preserved_by_map"
    for kind, entry, args, expect, ok in (
        ("equality distinct:2", "relations.definable_from_equality", lambda: (d2, p29), True, None),
        ("equality parity:3", "relations.definable_from_equality", lambda: (r3, p29), False, eq_witness),
        ("complement parity:4 n~75", "relations.invariant_under_complement", lambda: (r4, ec3), True, None),
        ("complement parity:3", "relations.invariant_under_complement", lambda: (r3, p29), False, odd_in(p29)),
        ("switch parity:3", "relations.invariant_under_switch", lambda: (r3, p29, v29), True, None),
        ("switch parity:4", "relations.invariant_under_switch", lambda: (r4, p29, v29), False,
         lambda t: v29 in t and oracles.odd_edges(p29, t)),
        ("switch parity:3 n~75", "relations.invariant_under_switch", lambda: (r3, ec3, v75), True, None),
        ("map anti parity:4", preserve, lambda: (r4, anti, p29, p29), True, None),
        ("map anti parity:3", preserve, lambda: (r3, anti, p29, p29), False, not_kept(anti)),
        ("map auto parity:3", preserve, lambda: (r3, auto, p29, p29), True, None),
    ):
        reqs.append(_preservation_request(lib, rec, kind, entry, args, expect, ok))

    cut = set(rng.sample(range(29), rng.randint(1, 28)))
    target = rng.randrange(29)
    dom = rng.sample(range(29), 8)
    gadgets = (
        ("minus", {"witness": w}, r4, True),
        ("minus", {"witness": w}, r3, False),
        ("switch", {"s": cut}, r3, True),
        ("switch", {"s": cut}, r4, False),
        ("const", {"target": target}, r3, False),
        ("identity", {"dom": dom}, r3, True),
    )
    for kind, params, rel, expect in gadgets:
        def run(kind=kind, params=params, rel=rel):
            f = rec.call("gadgets.make_named", lib.make_named, kind, p29, **params)
            return f, rec.call("gadgets.violates", lib.violates, f, rel)

        def check(result, expect=expect):
            f, res = result
            rec.count("gadgets.violates.checked", res.checked)
            if res.preserved != expect:
                return f"preserved={res.preserved}, known answer {expect}"
            if not res.preserved:
                image = tuple(f.apply(x) for x in res.witness)
                if not (oracles.odd_edges(f.src, res.witness) and not oracles.odd_edges(f.dst, image)):
                    return f"witness {res.witness} does not violate"
            return None

        reqs.append(Request(f"violates {kind}", run, check))

    for kind in GADGET_CLASS:
        s = _mixed_subset(p29, 5, rng)

        def run(kind=kind, s=s):
            f = _named(lib, rec, kind, p29, inp["p29"])
            return rec.call("canonicity.classify_on_set", lib.classify_on_set, f, s)

        def check(res, kind=kind, s=s):
            rec.count("canonicity.classify_on_set.pairs", comb(len(s), 2))
            return expect_equal("classes", sorted(c.value for c in res), [GADGET_CLASS[kind]])

        reqs.append(Request(f"classify_on_set {kind}", run, check))
    for kind in GADGET_CLASS:
        parts = random_parts(29, 3, rng)

        def run(kind=kind, parts=parts):
            f = _named(lib, rec, kind, p29, inp["p29"])
            pg = lib.PartitionedGraph(p29, parts)
            return rec.call("canonicity.profile_partitioned", lib.profile_partitioned, f, pg)

        def check(profile, kind=kind):
            n = len(profile.parts)
            cells = [(i, j, profile.entry(i, j)) for i in range(n) for j in range(i, n)]
            return _profile_problem(p29, cells, profile.parts, GADGET_CLASS[kind])

        reqs.append(Request(f"profile {kind}", run, check))
    pattern = lib.cycle_graph(4)
    for kind in GADGET_CLASS:
        def run(kind=kind):
            f = _named(lib, rec, kind, p29, inp["p29"])
            return rec.call("canonicity.find_canonical_copy", lib.find_canonical_copy, f, pattern, p29, 16)

        def check(emb):
            # named gadgets are canonical everywhere, so a copy must be found
            if emb is None:
                return "no canonical copy found"
            rec.count("canonicity.find_canonical_copy.found")
            if not oracles.is_induced_embedding(pattern, p29, emb.mapping):
                return f"{emb.mapping} is not an induced embedding"
            return None

        reqs.append(Request(f"canonical copy {kind}", run, check))

    parts = random_parts(13, 2, rng)
    reqs.append(cli_request(
        lib, rec, workdir,
        ["classify-relation", "--spec", "parity:4", "--host", "p13.g", "-k", "2", "--json"],
        lambda report: expect_equal("class", report["verdict"]["class"], "minus"),
    ))
    reqs.append(cli_request(
        lib, rec, workdir, ["classify-function", "--gadget", "minus.fg", "--json"],
        lambda report: expect_equal("classes", report["verdict"]["classes"], ["minus"]),
    ))
    reqs.append(cli_request(
        lib, rec, workdir,
        ["classify-function", "--gadget", "minus.fg", "--json",
         "--parts", "|".join(",".join(map(str, sorted(p))) for p in parts)],
        lambda report: _profile_problem(p13, _json_cells(report["verdict"]["profile"]), parts, "minus"),
    ))
    return reqs


def _json_cells(profile) -> list[tuple[int, int, str]]:
    return [(i, i, e) for i, e in enumerate(profile["diag"])] + [tuple(c) for c in profile["off"]]


# ---------------------------------------------------------------------------
# arrows: exhaustive arrow verification on known answers


# (pattern clique size m, colors c): K_n -> (K_m)^{K_1}_c holds iff n > c(m-1)
PIGEONHOLE = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))


def _arrow_request(lib, rec, kind, S, H, P, k, expect, ordered=False) -> Request:
    def check(res):
        if res.verdict != expect:
            return f"verdict {res.verdict}, known answer {expect}"
        if res.verdict == "budget_exceeded":
            return None
        m = res.stats["p_copies"]
        rec.count("ramsey.verify_arrow.colorings_checked", res.stats["colorings_checked"])
        rec.count("ramsey.verify_arrow.colorings_total", k ** (m - 1) if m else 0)
        if res.verdict == "fails":
            mono = rec.call("ramsey.find_mono_copy", lib.find_mono_copy, S, H, P, res.witness)
            if mono is not None:
                return f"witness coloring has a monochromatic copy at {mono.mapping}"
        return None

    query = lib.ArrowQuery(S, H, P, k, ordered=ordered)
    return Request(kind, lambda: rec.call("ramsey.verify_arrow", lib.verify_arrow, query), check)


def arrows_setup(lib, rng, workdir):
    K = {n: lib.complete_graph(n) for n in range(1, 18)}
    for n in (2, 3, 5):
        write(workdir, f"k{n}.g", lib.format_graph(K[n]))
    cycles = {n: lib.cycle_graph(n) for n in (4, 5, 6, 7)}
    paley = {q: lib.build_paley(q).graph for q in (13, 17)}
    return {"K": K, "cycles": cycles, "paley": paley}


def arrows_round(lib, inp, rng, rec, workdir):
    K, cycles, paley = inp["K"], inp["cycles"], inp["paley"]
    reqs = [
        _arrow_request(lib, rec, "K7 K3 K2", K[7], K[3], K[2], 2, "holds"),
        _arrow_request(lib, rec, "K6 K3 K2", K[6], K[3], K[2], 2, "holds"),
        _arrow_request(lib, rec, "K5 K3 K2", K[5], K[3], K[2], 2, "fails"),
        _arrow_request(lib, rec, "ordered K6", K[6], K[3], K[2], 2, "holds", ordered=True),
        _arrow_request(lib, rec, "ordered K5", K[5], K[3], K[2], 2, "fails", ordered=True),
    ]
    for m, c in PIGEONHOLE:
        n = c * (m - 1) + 1
        reqs.append(_arrow_request(lib, rec, f"pigeonhole K{n}", K[n], K[m], K[1], c, "holds"))
        reqs.append(_arrow_request(lib, rec, f"pigeonhole K{n - 1}", K[n - 1], K[m], K[1], c, "fails"))
    # an odd cycle has no proper 2-coloring, an even one has
    for n in (5, 7) * 2:
        odd = relabel(lib, cycles[n], rng)
        even = relabel(lib, cycles[n - 1], rng)
        reqs.append(_arrow_request(lib, rec, "cycle", odd, K[2], K[1], 2, "holds"))
        reqs.append(_arrow_request(lib, rec, "cycle", even, K[2], K[1], 2, "fails"))
    # cross edges of K_(a+b) split a|b, triangles with two vertices on the
    # a side: two of a >= 3 edges into one vertex share a color
    H = lib.PartitionedGraph(K[3], (frozenset({0, 1}), frozenset({2})))
    P = lib.PartitionedGraph(K[2], (frozenset({0}), frozenset({1})))
    for a, expect in ((3, "holds"), (2, "fails")):
        n = a + 3
        side = frozenset(rng.sample(range(n), a))
        S = lib.PartitionedGraph(K[n], (side, frozenset(range(n)) - side))
        reqs.append(_arrow_request(lib, rec, "partitioned", S, H, P, 2, expect))
    p13 = relabel(lib, paley[13], rng)
    reqs.append(_arrow_request(lib, rec, "budget paley13", p13, K[3], K[2], 2, "budget_exceeded"))
    reqs.append(_arrow_request(lib, rec, "budget K17", K[17], K[3], K[2], 2, "budget_exceeded"))
    for _ in range(20):
        g = relabel(lib, paley[17], rng)

        def check(copies):
            rec.count("ramsey.enumerate_copies.copies", len(copies))
            return expect_equal("copies", len(copies), oracles.paley_triangles(17))

        reqs.append(Request(
            "triangles paley17",
            lambda g=g: rec.call("ramsey.enumerate_copies", lib.enumerate_copies, g, K[3]),
            check,
        ))
    reqs.append(cli_request(
        lib, rec, workdir,
        ["ramsey", "verify", "--S", "k5.g", "--H", "k3.g", "--P", "k2.g", "-k", "2", "--json"],
        lambda report: expect_equal("verdict", report["verdict"], "fails"),
    ))
    return reqs


# ---------------------------------------------------------------------------
# generation: orbit closure, deletion, collapse, interpolation, copy search


def generation_setup(lib, rng, workdir):
    p13, p29, p61 = lib.build_paley(13), lib.build_paley(29), lib.build_paley(61)
    types = {n: lib.all_graph_types(n) for n in (4, 5)}
    write(workdir, "p13.g", lib.format_graph(p13.graph))
    write(workdir, "path3.g", lib.format_graph(lib.path_graph(3)))
    write(workdir, "empty3.g", lib.format_graph(lib.empty_graph(3)))
    en = lib.make_named("eN", lib.path_graph(3), dst=lib.empty_graph(3))
    write(workdir, "en.fg", lib.gadgets.format_gadget(en, "path3.g", "empty3.g"))
    return {"p13": p13, "p29": p29, "p61": p61, "types": types}


# Generators that keep a closure small, for seeded subsets on 4 vertices.
CHEAP_KINDS = ("minus", "eE", "eN", "const")


def _largest_class(oracle, types, kinds):
    """Members of the largest closure among ``types``.  The generators are
    invertible, so every member has the same closure, and a seeded start
    from it costs the same for every seed."""
    classes: dict = {}
    for t in types:
        classes.setdefault(frozenset(oracle.closure(t, kinds)), []).append(t)
    return max(classes.values(), key=len)


def _orbit_request(lib, rec, oracle, kind, start, kinds) -> Request:
    def check(closure):
        rec.count("generation.orbit_closure.types", len(closure))
        got = {oracle.key(t) for t in closure}
        return expect_equal("closure", sorted(got), sorted(oracle.closure(start, kinds)))

    gens = lib.GeneratorSet(frozenset(kinds))
    return Request(kind, lambda: rec.call("generation.orbit_closure", lib.orbit_closure, start, gens), check)


def _witness_request(lib, rec, kind, entry, run_args, expect_found, extra=None) -> Request:
    """An interpolation-style witness search with a known found / not-found
    answer; every witness must pass ``verify_witness``."""
    fn = getattr(lib, entry.split(".")[1])

    def check(w):
        if entry == "generation.interpolate":
            if (w is not None) != expect_found:
                return f"found={w is not None}, known answer {expect_found}"
            rec.count("generation.interpolate.found", int(w is not None))
            if w is None:
                return None
        else:
            rec.count(f"{entry}.generator_steps", w.generator_steps)
        if not rec.call("generation.verify_witness", lib.verify_witness, w):
            return "witness fails verify_witness"
        return extra(w) if extra else None

    return Request(kind, lambda: rec.call(entry, fn, *run_args), check)


def generation_round(lib, inp, rng, rec, workdir):
    if "oracle" not in inp:
        oracle = inp["oracle"] = oracles.OrbitOracle()
        inp["classes"] = {
            kinds: _largest_class(oracle, inp["types"][5], kinds)
            for kinds in (("minus",), ("switch",), ("minus", "switch"))
        }
    oracle, types = inp["oracle"], inp["types"]
    p13 = inp["p13"].graph
    p29s, p29 = inp["p29"], inp["p29"].graph
    reqs = []
    # the {minus} closures, all of one cost, are the block the median falls in
    for kinds, copies in ((("minus",), 14), (("switch",), 3), (("minus", "switch"), 3)):
        for _ in range(copies):
            start = rng.choice(inp["classes"][kinds])
            reqs.append(_orbit_request(lib, rec, oracle, f"orbit {'+'.join(kinds)}", start, kinds))
    for _ in range(6):
        kinds = tuple(x for x in CHEAP_KINDS if rng.random() < 0.5)
        reqs.append(_orbit_request(lib, rec, oracle, "orbit n=4", rng.choice(types[4]), kinds))

    for pattern, host in ((4, "p29"), (4, "p61"), (5, "p61")) * 2:
        g = relabel(lib, inp[host].graph, rng)
        clique = lib.complete_graph(pattern)

        def emptied(w, g=g, edges=clique.edge_count()):
            if w.generator_steps != edges:
                return f"{w.generator_steps} generator steps for {edges} edges"
            image = [y for _, y in w.target.mapping]
            if len(set(image)) != len(image) or any(g.has_edge(x, y) for x, y in combinations(image, 2)):
                return f"final image {image} is not an independent set"
            return None

        reqs.append(_witness_request(
            lib, rec, f"delete K{pattern}", "generation.delete_all_edges", (clique, g, 3), True, emptied
        ))

    g = relabel(lib, p29, rng)
    e, ne = next(g.edges()), next(g.nonedges())
    g_collapse = lib.FunctionGadget(g, g, tuple((v, e[1] if v == e[0] else v) for v in range(29)), "custom")
    h_collapse = lib.FunctionGadget(g, g, tuple((v, ne[1] if v == ne[0] else v) for v in range(29)), "custom")
    for _ in range(6):
        subset = tuple(sorted(rng.sample(range(29), 5)))

        def collapsed(w, subset=subset):
            if w.generator_steps > len(subset):
                return f"{w.generator_steps} generator steps for {len(subset)} vertices"
            ends = set()
            for x in subset:
                for step in w.steps:
                    x = step.apply(x)
                ends.add(x)
            return None if len(ends) == 1 else f"collapse ends on {sorted(ends)}"

        reqs.append(_witness_request(
            lib, rec, "collapse", "generation.collapse_all", (subset, g, g_collapse, h_collapse), True, collapsed
        ))

    gens = lib.GeneratorSet
    w29 = p29s.complement_witness
    interpolations = (
        ("identity via identity d1", lib.make_named("identity", p13, dom=rng.sample(range(13), 3)),
         gens(), 1, [p13], True),
        ("eN via eN d1", lib.make_named("eN", lib.path_graph(3), dst=lib.empty_graph(3)),
         gens(frozenset({"eN"})), 1, [p13], True),
        ("minus via minus d1", lib.make_named("minus", p29, witness=w29, dom=rng.sample(range(29), 4)),
         gens(frozenset({"minus"})), 1, [p29], True),
        # the identity alone cannot collapse, and switching never generates
        # the complement map (Thomas 1991)
        ("const via identity d2", lib.make_named("const", p13, dom=rng.sample(range(13), 2), target=rng.randrange(13)),
         gens(), 2, [p13], False),
        ("minus via switch d2 full", lib.make_named("minus", p29, witness=w29),
         gens(frozenset({"switch"})), 2, [p29], False),
        ("minus via switch d3", lib.make_named("minus", p29, witness=w29, dom=rng.sample(range(29), 5)),
         gens(frozenset({"switch"})), 3, [p29], False),
    )
    for kind, target, gen_set, depth, hosts, found in interpolations:
        reqs.append(_witness_request(
            lib, rec, kind, "generation.interpolate", (target, gen_set, depth, hosts), found
        ))

    for pattern, host in (
        (lib.path_graph(3), p13), (lib.cycle_graph(4), p13), (lib.complete_graph(3), p29), (lib.path_graph(4), p29),
    ):
        g = relabel(lib, host, rng)

        def check(embs, pattern=pattern, g=g):
            rec.count("graphs.find_embeddings.embeddings", len(embs))
            return oracles.embeddings_problem(pattern, g, [e.mapping for e in embs], 64)

        reqs.append(Request(
            "find_embeddings",
            lambda pattern=pattern, g=g: rec.call("graphs.find_embeddings", lib.find_embeddings, pattern, g, 64),
            check,
        ))
    path3 = lib.path_graph(3)
    for _ in range(2):
        g = relabel(lib, p13, rng)
        host = lib.PartitionedGraph(g, random_parts(13, 2, rng))
        pattern = lib.PartitionedGraph(path3, (frozenset({0, 2}), frozenset({1})))

        def check(embs, host=host, pattern=pattern):
            rec.count("structures.find_part_embeddings.embeddings", len(embs))
            maps = [e.mapping for e in embs]
            for m in maps:
                if any(m[v] not in host.parts[i] for i, part in enumerate(pattern.parts) for v in part):
                    return f"{m} leaves its parts"
            return oracles.embeddings_problem(pattern.graph, host.graph, maps, 32)

        reqs.append(Request(
            "find_part_embeddings",
            lambda host=host, pattern=pattern: rec.call(
                "structures.find_part_embeddings", lib.find_part_embeddings, pattern, host, 32
            ),
            check,
        ))
    for _ in range(2):
        g = relabel(lib, p13, rng)
        c = rng.randrange(13)
        host = lib.ConstantGraph(g, (c,))
        pattern = lib.ConstantGraph(path3, (1,))

        def check(embs, g=g, c=c):
            rec.count("structures.find_const_embeddings.embeddings", len(embs))
            maps = [e.mapping for e in embs]
            if any(m[1] != c for m in maps):
                return "a constant moved"
            return oracles.embeddings_problem(path3, g, maps, 32)

        reqs.append(Request(
            "find_const_embeddings",
            lambda host=host, pattern=pattern: rec.call(
                "structures.find_const_embeddings", lib.find_const_embeddings, pattern, host, 32
            ),
            check,
        ))
    reqs.append(cli_request(
        lib, rec, workdir,
        ["interpolate", "--target", "en.fg", "--gens", "eN", "--hosts", "p13.g", "--depth", "1", "--json"],
        lambda report: expect_equal("found", report["verdict"]["found"], True),
    ))
    return reqs


WORKLOADS = {
    "hosts": Workload(hosts_setup, hosts_round),
    "classify": Workload(classify_setup, classify_round),
    "arrows": Workload(arrows_setup, arrows_round),
    "generation": Workload(generation_setup, generation_round),
}
