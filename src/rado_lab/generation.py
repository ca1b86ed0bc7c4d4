"""Generation procedures at finite scale: interpolation witness search, the
edge-deletion and collapse loops, orbit closure on small graph types, and the
five-class relation classifier.

"Generates" is operationalized as bounded-depth interpolation witness search;
a missing witness is inconclusive, never a proof of non-generation.  Every
witness re-verifies through an evaluator that is independent of the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, islice, permutations
from typing import Iterator

from .gadgets import FunctionGadget, NAMED_KINDS, make_named
from .graphs import (
    Graph,
    PairKind,
    check_extension,
    iter_embedding_maps,
    pair_kind,
)
from .relations import (
    EqualityDefinability,
    PreservationResult,
    Relation,
    definable_from_equality,
    invariant_under_complement,
    invariant_under_switch,
)
from .structures import ConstantGraph


# ---------------------------------------------------------------------------
# generator sets


@dataclass(frozen=True)
class GeneratorSet:
    """Named gadget constructors available to a search, plus explicit extra
    gadgets; the identity is always included.

    Repositioning between applications is always free: any embedding of the
    current image into a gadget's domain may precede it (the finite stand-in
    for conjugating with automorphisms).
    """

    kinds: frozenset[str] = frozenset()
    extra: tuple[FunctionGadget, ...] = ()

    def __post_init__(self):
        unknown = set(self.kinds) - set(NAMED_KINDS)
        if unknown:
            raise ValueError(f"unknown generator kinds: {sorted(unknown)}")
        object.__setattr__(self, "kinds", frozenset(self.kinds) | {"identity"})


# ---------------------------------------------------------------------------
# interpolation witnesses


@dataclass(frozen=True)
class InterpolationWitness:
    """Alternating chain of repositioning embeddings and generator gadgets
    whose composite agrees with ``target`` on ``target_set``.

    ``roles`` tags each step as ``reposition`` or ``generator``; step
    endpoints match (dst of each step equals src of the next).
    """

    target: FunctionGadget
    target_set: tuple[int, ...]
    steps: tuple[FunctionGadget, ...]
    roles: tuple[str, ...]
    transcript: tuple[str, ...] = ()

    @property
    def generator_steps(self) -> int:
        return sum(1 for r in self.roles if r == "generator")


def verify_witness(w: InterpolationWitness) -> bool:
    """Independent check; no search state is consulted.

    The steps must chain from the target's source graph to its destination
    graph, every ``reposition`` step must be an embedding (injective, and
    each pair of its domain keeps its kind), and each point of the target
    set, walked through the chain pointwise, must land on its target value.
    """
    if len(w.steps) != len(w.roles):
        return False
    graph = w.target.src
    for step, role in zip(w.steps, w.roles):
        if step.src != graph:
            return False
        if role == "reposition" and not _is_embedding(step):
            return False
        graph = step.dst
    if graph != w.target.dst:
        return False
    maps = [step.as_mapping() for step in w.steps]
    for x in w.target_set:
        value = x
        for mapping in maps:
            if value not in mapping:
                return False
            value = mapping[value]
        if value != w.target.apply(x):
            return False
    return True


def _is_embedding(step: FunctionGadget) -> bool:
    src_edge, dst_edge = step.src.has_edge, step.dst.has_edge
    for (x1, y1), (x2, y2) in combinations(step.mapping, 2):
        if y1 == y2 or src_edge(x1, x2) != dst_edge(y1, y2):
            return False
    return True


# one link of a witness chain: (role, step, transcript line)
_Link = tuple[str, FunctionGadget, str]


def _witness(target: FunctionGadget, target_set, chain: list[_Link]) -> InterpolationWitness:
    witness = InterpolationWitness(
        target,
        target_set,
        tuple(step for _, step, _ in chain),
        tuple(role for role, _, _ in chain),
        tuple(line for _, _, line in chain),
    )
    assert verify_witness(witness)
    return witness


def _pinned_map(pattern: Graph, host: Graph, allowed: int, ends, pair) -> tuple[int, ...] | None:
    # the least embedding inside ``allowed`` sending the pattern vertices
    # ``ends`` onto ``pair``, in that orientation first, then reversed
    (u, v), (a, b) = ends, pair
    for fixed in ({u: a, v: b}, {u: b, v: a}):
        mapping = next(iter_embedding_maps(pattern, host, allowed=allowed, fixed=fixed), None)
        if mapping is not None:
            return mapping
    return None


def _least_pair(gadget: FunctionGadget, before: PairKind, after: PairKind) -> tuple[int, int] | None:
    # the least domain pair of kind ``before`` whose image pair is of kind ``after``
    for x, y in combinations(gadget.dom, 2):
        if pair_kind(gadget.src, x, y) is before and pair_kind(
            gadget.dst, gadget.apply(x), gadget.apply(y)
        ) is after:
            return (x, y)
    return None


# switch and const need a vertex to cut at or map to; every other kind takes
# make_named's defaults
_POOL_PARAMS = {"switch": {"s": {0}}, "const": {"target": 0}}


def _named_pool(kinds: frozenset[str], hosts: tuple[Graph, ...]) -> list[FunctionGadget]:
    return [
        make_named(kind, host, **_POOL_PARAMS.get(kind, {}))
        for host in hosts
        for kind in sorted(kinds)
        if host.n >= 1 or kind not in _POOL_PARAMS
    ]


def interpolate(
    target: FunctionGadget,
    gens: GeneratorSet,
    depth: int,
    hosts: list[Graph],
    *,
    embed_limit: int = 4,
    max_nodes: int = 100_000,
) -> InterpolationWitness | None:
    """Bounded-depth search for a chain of generator gadgets, interleaved with
    repositioning embeddings, agreeing with ``target`` on its domain.

    Before each application the current image moves by an embedding into the
    gadget's domain; every such embedding is allowed, tried in lexicographic
    order.  ``depth`` bounds the number of generator applications,
    ``embed_limit`` the repositioning embeddings tried per application,
    ``max_nodes`` the total search nodes.  None means nothing was found
    within those bounds.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pool = _named_pool(gens.kinds, tuple(hosts)) + list(gens.extra)
    f_dom = target.dom
    nodes = 0

    def goal(graph: Graph, values: tuple[int, ...]) -> bool:
        for i, x in enumerate(f_dom):
            for j in range(i + 1, len(f_dom)):
                y = f_dom[j]
                if pair_kind(graph, values[i], values[j]) is not pair_kind(
                    target.dst, target.apply(x), target.apply(y)
                ):
                    return False
        return True

    def dfs(graph: Graph, values: tuple[int, ...], remaining: int, chain: list[_Link], seen):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            return None
        if remaining == 0:
            return None
        state = (graph, values)
        if seen.get(state, -1) >= remaining:
            return None
        seen[state] = remaining
        image = tuple(sorted(set(values)))
        pattern = graph.induced(image)
        for gadget in pool:
            maps = iter_embedding_maps(pattern, gadget.src, allowed=gadget.dom_mask())
            for mapping in islice(maps, embed_limit):
                assignment = dict(zip(image, mapping))
                applied = tuple(gadget.apply(assignment[v]) for v in values)
                moved = FunctionGadget(graph, gadget.src, tuple(assignment.items()))
                longer = chain + [
                    ("reposition", moved, f"reposition into {gadget.label}"),
                    ("generator", gadget, f"apply {gadget.label}"),
                ]
                if goal(gadget.dst, applied):
                    align = dict(zip(applied, map(target.apply, f_dom)))
                    closing = FunctionGadget(gadget.dst, target.dst, tuple(align.items()))
                    return _witness(target, f_dom, longer + [("reposition", closing, "align with target")])
                found = dfs(gadget.dst, applied, remaining - 1, longer, seen)
                if found is not None:
                    return found
        return None

    for d in range(1, depth + 1):
        found = dfs(target.src, f_dom, d, [], {})
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# edge deletion and collapse procedures


class PatternNotFoundError(RuntimeError):
    """A required copy of a pattern does not exist in the host."""


def delete_edge_step(f_marked: ConstantGraph, host: Graph) -> FunctionGadget:
    """Gadget defined on a copy of the marked graph in ``host`` that keeps
    every pair pattern except the constant pair, which becomes a non-edge.

    Built by locating a copy of the graph and a copy of the graph with the
    marked edge removed, and mapping the first onto the second; both copies
    exist when the host is k-e.c. for k at least the graph's order minus one.
    """
    if len(f_marked.constants) != 2:
        raise ValueError("the marked graph needs exactly two constants")
    c0, c1 = f_marked.constants
    if not f_marked.graph.has_edge(c0, c1):
        raise ValueError("the two constants must be joined by an edge")
    source = f_marked.graph
    deleted = Graph.from_edges(
        source.n,
        [e for e in source.edges() if set(e) != {c0, c1}],
    )
    phi1 = next(iter_embedding_maps(source, host), None)
    if phi1 is None:
        raise PatternNotFoundError(f"host has no copy of the marked {source.n}-vertex graph")
    phi2 = next(iter_embedding_maps(deleted, host), None)
    if phi2 is None:
        raise PatternNotFoundError(f"host has no copy of the edge-deleted {source.n}-vertex graph")
    gadget = FunctionGadget(
        host, host, tuple((phi1[i], phi2[i]) for i in range(source.n)), "custom"
    )
    marked_pair = {phi1[c0], phi1[c1]}
    for (x1, _), (x2, _) in combinations(gadget.mapping, 2):
        want = (
            PairKind.NONEDGE
            if {x1, x2} == marked_pair
            else pair_kind(host, x1, x2)
        )
        got = pair_kind(host, gadget.apply(x1), gadget.apply(x2))
        assert got is want
    return gadget


def delete_all_edges(pattern: Graph, host: Graph, k: int) -> InterpolationWitness:
    """Iterate delete_edge_step over the least remaining edge until the image
    of ``pattern`` in ``host`` is edgeless; one generator step per edge.

    The witness target is an eN-labeled gadget built from the final map, so
    its construction-time check independently confirms the empty image.
    ``k`` is ignored; it is removed with the next change to the benchmark,
    which passes it positionally.
    """
    values = next(iter_embedding_maps(pattern, host), None)
    if values is None:
        raise PatternNotFoundError("host has no copy of the start pattern")
    chain: list[_Link] = [
        ("reposition", FunctionGadget(pattern, host, tuple(enumerate(values))),
         "place the pattern in the host")
    ]
    current = pattern
    while True:
        edges = list(current.edges())
        if not edges:
            break
        i, j = edges[0]
        gadget = delete_edge_step(ConstantGraph(current, (i, j)), host)
        # align the current copy with the gadget's domain so the deleted
        # pair lands on the pair the gadget actually flips
        flip_pair = _least_pair(gadget, PairKind.EDGE, PairKind.NONEDGE)
        alignment = _pinned_map(current, host, gadget.dom_mask(), (i, j), flip_pair)
        if alignment is None:
            raise PatternNotFoundError("could not align the copy with the deletion gadget")
        moved = FunctionGadget(host, host, tuple(zip(values, alignment)))
        chain += [
            ("reposition", moved, f"move copy onto the deletion gadget for edge ({i}, {j})"),
            ("generator", gadget, "delete the edge"),
        ]
        values = tuple(gadget.apply(v) for v in alignment)
        current = Graph.from_edges(
            current.n, [e for e in current.edges() if e != (i, j)]
        )
    target = FunctionGadget(pattern, host, tuple(enumerate(values)), "eN")
    return _witness(target, tuple(range(pattern.n)), chain)


def collapse_all(
    f_set, host: Graph, g: FunctionGadget, h: FunctionGadget
) -> InterpolationWitness:
    """Drive the vertex set ``f_set`` to a single image by repeatedly
    repositioning and applying the edge-collapsing gadget ``g`` or the
    non-edge-collapsing gadget ``h``; at most |F| generator steps.
    """
    f_sorted = tuple(sorted(set(f_set)))
    collapsers = {}
    for gadget, kind, name in ((g, PairKind.EDGE, "g"), (h, PairKind.NONEDGE, "h")):
        if gadget.src != host or gadget.dst != host:
            raise ValueError(f"gadget {name} must map the host to itself")
        pair = _least_pair(gadget, kind, PairKind.EQUAL)
        if pair is None:
            noun = "edge" if kind is PairKind.EDGE else "non-edge"
            raise ValueError(f"gadget {name} does not collapse any {noun}")
        collapsers[kind] = (gadget, pair)
    chain: list[_Link] = []
    values = {x: x for x in f_sorted}
    for _ in range(len(f_sorted)):
        image = sorted(set(values.values()))
        if len(image) <= 1:
            break
        s0, s1 = image[0], image[1]
        gadget, (a, b) = collapsers[pair_kind(host, s0, s1)]
        mapping = _pinned_map(host.induced(image), host, gadget.dom_mask(), (0, 1), (a, b))
        if mapping is None:
            raise PatternNotFoundError(
                f"no repositioning embedding pinning ({s0}, {s1}) onto ({a}, {b})"
            )
        assignment = dict(zip(image, mapping))
        chain += [
            ("reposition", FunctionGadget(host, host, tuple(assignment.items())),
             f"pin ({s0}, {s1}) onto the collapsing pair ({a}, {b})"),
            ("generator", gadget, "collapse"),
        ]
        values = {x: gadget.apply(assignment[v]) for x, v in values.items()}
    image = sorted(set(values.values()))
    assert len(image) == 1, "collapse loop exceeded its step bound"
    target = make_named("const", host, dom=f_sorted, target=image[0])
    return _witness(target, f_sorted, chain)


# ---------------------------------------------------------------------------
# orbit closure on small types


# canonical forms by (n, edge code), recorded one whole orbit per miss; only
# graphs of at most 5 vertices are kept: 1 100 codes in all (2^C(n, 2)
# summed over n = 0..5), where 8 vertices alone would allow 2^28
_CANONICAL: dict[tuple[int, int], Graph] = {}
_CANONICAL_MAX_N = 5


def canonical_form(g: Graph) -> Graph:
    """Least relabeling of ``g``: the edge code (bit b set when the b-th
    vertex pair in lexicographic order is an edge) minimized over all vertex
    permutations.  Intended for tiny graphs only (at most 8 vertices).

    Memoized per orbit: a miss computes the code of every relabeling, all
    n! of them, and for n <= 5 records the least one for every code of the
    orbit, so any relabeling of a type seen before costs one code and one
    lookup.  ``all_graph_types(5)`` pays 34 such sweeps, one per type.
    """
    n = g.n
    if n > 8:
        raise ValueError("canonical_form is restricted to at most 8 vertices")
    return _canonical_of_code(n, _edge_code(g))


def _edge_code(g: Graph) -> int:
    code = 0
    for bit, (i, j) in enumerate(combinations(range(g.n), 2)):
        if g.row(i) >> j & 1:
            code |= 1 << bit
    return code


def _canonical_of_code(n: int, code: int) -> Graph:
    # canonical_form of the n-vertex graph with edge ``code``, read from the
    # memo or by one sweep over the relabelings
    form = _CANONICAL.get((n, code))
    if form is None:
        pairs = list(combinations(range(n), 2))
        rows = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if code >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        orbit = set()
        for perm in permutations(range(n)):
            relabeled = 0
            for bit, (i, j) in enumerate(pairs):
                if rows[perm[i]] >> perm[j] & 1:
                    relabeled |= 1 << bit
            orbit.add(relabeled)
        best = min(orbit)
        form = Graph.from_edges(n, [pairs[bit] for bit in range(len(pairs)) if best >> bit & 1])
        if n <= _CANONICAL_MAX_N:
            _CANONICAL.update(((n, c), form) for c in orbit)
    return form


@lru_cache(maxsize=None)  # keyed by vertex count, at most 5 (orbit_closure's cap)
def _switch_flips(n: int) -> tuple[int, ...]:
    # per vertex subset s, in order of size then lexicographically, the edge
    # code bits of the pairs that switching s flips
    pairs = list(combinations(range(n), 2))
    return tuple(
        sum(1 << bit for bit, (i, j) in enumerate(pairs) if (i in s) != (j in s))
        for size in range(n + 1)
        for s in combinations(range(n), size)
    )


@lru_cache(maxsize=None)
def all_graph_types(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of all isomorphism types on n vertices, by
    exhaustive enumeration (1, 2, 4, 11, 34 types for n = 1..5)."""
    if n > 5:
        raise ValueError("type tables are precomputed only up to 5 vertices")
    seen = {_canonical_of_code(n, code) for code in range(1 << n * (n - 1) // 2)}
    return tuple(sorted(seen, key=lambda t: sorted(t.edges())))


def _type_images(t: Graph, gens: GeneratorSet) -> Iterator[Graph]:
    # canonical forms of the images of type t; the rewrites act on its edge
    # code directly, so no image graph is built for them
    n = t.n
    every = (1 << n * (n - 1) // 2) - 1
    code = _edge_code(t)
    for kind in sorted(gens.kinds):
        if kind == "minus":
            yield _canonical_of_code(n, code ^ every)
        elif kind == "switch":
            for flip in _switch_flips(n):
                yield _canonical_of_code(n, code ^ flip)
        elif kind == "eE":
            yield _canonical_of_code(n, every)
        elif kind == "eN":
            yield _canonical_of_code(n, 0)
        elif kind == "const":
            yield _canonical_of_code(1, 0)
    for gadget in gens.extra:
        dom_mask = gadget.dom_mask()
        for mapping in iter_embedding_maps(t, gadget.src, allowed=dom_mask):
            image = sorted({gadget.apply(v) for v in mapping})
            yield canonical_form(gadget.dst.induced(image))


def orbit_closure(start: Graph, gens: GeneratorSet) -> frozenset[Graph]:
    """Least fixed point of the generator actions on induced patterns of at
    most ``start.n`` vertices, as canonical representatives.

    Collapsing generators reduce to smaller types, so the closure may mix
    sizes.  Monotone in the generator set and idempotent.
    """
    if start.n > 5:
        raise ValueError("orbit closure is capped at 5-vertex start graphs")
    first = canonical_form(start)
    closed = {first}
    work = [first]
    while work:
        t = work.pop()
        for c in _type_images(t, gens):
            if c not in closed:
                closed.add(c)
                work.append(c)
    return frozenset(closed)


# ---------------------------------------------------------------------------
# five-class relation classification


class ReductClass(Enum):
    GRAPH = "graph"
    MINUS = "minus"
    SWITCH = "switch"
    MINUS_SWITCH = "minus-switch"
    EQUALITY = "equality"


_CLASS_GENS = {
    ReductClass.GRAPH: frozenset(),
    ReductClass.MINUS: frozenset({"minus"}),
    ReductClass.SWITCH: frozenset({"switch"}),
    ReductClass.MINUS_SWITCH: frozenset({"minus", "switch"}),
}


def join_classes(a: ReductClass, b: ReductClass) -> ReductClass:
    """Join in the five-class lattice: the class of the group generated by the
    two groups together (equality on top, graph at the bottom)."""
    if ReductClass.EQUALITY in (a, b):
        return ReductClass.EQUALITY
    merged = _CLASS_GENS[a] | _CLASS_GENS[b]
    for cls, gens in _CLASS_GENS.items():
        if gens == merged:
            return cls
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class RelationCertificate:
    """Per-relation evidence backing the classification verdict."""

    relation: str
    reduct_class: ReductClass
    equality: EqualityDefinability
    complement: PreservationResult | None
    switch_violations: tuple[tuple[int, tuple[int, ...]], ...]
    switches_checked: int
    switch_subsets_checked: int

    def to_json_dict(self) -> dict:
        out: dict = {
            "relation": self.relation,
            "class": self.reduct_class.value,
            "equality_definable": self.equality.definable,
        }
        if self.equality.witness is not None:
            member, nonmember = self.equality.witness
            out["equality_witness"] = {"in": list(member), "out": list(nonmember)}
        if self.complement is not None:
            out["complement_invariant"] = self.complement.preserved
            if self.complement.witness is not None:
                out["complement_witness"] = list(self.complement.witness)
            out["complement_checked"] = self.complement.checked
            out["switch_invariant"] = not self.switch_violations
            out["switch_violations"] = [
                {"vertex": v, "witness": list(t)} for v, t in self.switch_violations
            ]
            out["switches_checked"] = self.switches_checked
            out["switch_subsets_checked"] = self.switch_subsets_checked
        return out


@dataclass(frozen=True)
class ReductClassification:
    reduct_class: ReductClass
    certificates: tuple[RelationCertificate, ...]
    host_vertices: int
    k: int

    def to_json_dict(self) -> dict:
        return {
            "class": self.reduct_class.value,
            "host_vertices": self.host_vertices,
            "k": self.k,
            "relations": [c.to_json_dict() for c in self.certificates],
        }


def _classify_single(r: Relation, host: Graph) -> RelationCertificate:
    eq = definable_from_equality(r, host)
    if eq.definable:
        return RelationCertificate(r.name, ReductClass.EQUALITY, eq, None, (), 0, 0)
    comp = invariant_under_complement(r, host)
    violations = []
    subsets = 0
    for v in range(host.n):
        res = invariant_under_switch(r, host, v)
        subsets += res.checked
        if not res.preserved:
            violations.append((v, res.witness))
    switch_ok = not violations
    if comp.preserved and switch_ok:
        cls = ReductClass.MINUS_SWITCH
    elif comp.preserved:
        cls = ReductClass.MINUS
    elif switch_ok:
        cls = ReductClass.SWITCH
    else:
        cls = ReductClass.GRAPH
    return RelationCertificate(
        r.name, cls, eq, comp, tuple(violations), host.n, subsets
    )


def classify_reduct(
    relations, host: Graph, k: int, *, check_host: bool = True
) -> ReductClassification:
    """Decision tree on invariances: equality-definable relations land in the
    equality class; otherwise invariance under complement and under every
    single-vertex switch picks one of the remaining four classes.

    Several relations classify jointly as the lattice join of their individual
    classes (the class of the group generated by everything each relation
    allows).  ``k`` is the host's claimed extension level and is verified
    up front unless ``check_host`` is disabled.
    """
    rel_list = list(relations) if isinstance(relations, (list, tuple)) else [relations]
    if not rel_list:
        raise ValueError("need at least one relation")
    max_arity = max(r.arity for r in rel_list)
    if host.n < max_arity:
        raise ValueError(
            f"host has {host.n} vertices, too small for arity {max_arity}"
        )
    if check_host:
        result = check_extension(host, k)
        if not result.passed:
            raise ValueError(
                f"host fails the {k}-extension check at {result.failing}"
            )
    certificates = tuple(_classify_single(r, host) for r in rel_list)
    overall = certificates[0].reduct_class
    for cert in certificates[1:]:
        overall = join_classes(overall, cert.reduct_class)
    return ReductClassification(overall, certificates, host.n, k)
