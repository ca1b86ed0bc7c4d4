"""Generation procedures at finite scale: interpolation witness search, the
edge-deletion and collapse loops, orbit closure on small graph types, and the
five-class relation classifier.

"Generates" is operationalized as bounded-depth interpolation witness search.
A missing witness is one of two things.  Either it is a certified
separation: a set of labelled QF types, closed under the actions of the
named generators, that contains the type of a few domain points but not the
type of their images, so no chain of any depth reaches the target; or it is
"not found within the budgets", which proves nothing.  Every witness and
every separation re-verifies through a checker that is independent of the
search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import combinations, compress, islice, permutations

from .gadgets import FunctionGadget, NAMED_KINDS, make_named
from .graphs import (
    Graph,
    PairKind,
    check_extension,
    edge_code,
    graph_of_code,
    induced_code,
    iter_embedding_maps,
    pair_kind,
    switch_masks,
)
from .relations import (
    EqualityDefinability,
    PreservationResult,
    Relation,
    TupleSetRelation,
    TypeSetRelation,
    _acts_within,
    _identity_rewrites,
    definable_from_equality,
    invariant_under_complement,
    preserved_by_map,
    qf_type,
)


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
    set must lie in the target's domain and, walked through the chain
    pointwise, land on its target value.
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
    want = w.target.as_mapping()
    for x in w.target_set:
        if x not in want:
            return False
        value = x
        for mapping in maps:
            if value not in mapping:
                return False
            value = mapping[value]
        if value != want[x]:
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


def _witness(target: FunctionGadget, chain: list[_Link]) -> InterpolationWitness:
    # the chain as a witness over the target's whole domain, checked
    witness = InterpolationWitness(
        target,
        target.dom,
        tuple(step for _, step, _ in chain),
        tuple(role for role, _, _ in chain),
        tuple(line for _, _, line in chain),
    )
    if not verify_witness(witness):
        raise RuntimeError("the witness chain fails its independent check")
    return witness


def _pinned_map(pattern: Graph, host: Graph, allowed: int, pair) -> tuple[int, ...] | None:
    # the least embedding inside ``allowed`` sending pattern vertices 0 and 1
    # onto ``pair``, in that orientation first, then reversed
    a, b = pair
    for pins in ({0: 1 << a, 1: 1 << b}, {0: 1 << b, 1: 1 << a}):
        mapping = next(iter_embedding_maps(pattern, host, allowed=allowed, per_vertex=pins), None)
        if mapping is not None:
            return mapping
    return None


def _least_pair(gadget: FunctionGadget, kind: PairKind) -> tuple[int, int] | None:
    # the least domain pair of kind ``kind`` that the gadget collapses
    for x, y in combinations(gadget.dom, 2):
        if pair_kind(gadget.src, x, y) is kind and gadget.apply(x) == gadget.apply(y):
            return (x, y)
    return None


# switch and const need a vertex to cut at or map to; every other kind takes
# make_named's defaults
_POOL_PARAMS = {"switch": {"s": {0}}, "const": {"target": 0}}

# the repositioning embeddings the search tries per generator application
_EMBED_LIMIT = 4
# the search nodes ``interpolate`` visits before it gives up
_MAX_NODES = 100_000


def _named_pool(gens: GeneratorSet, hosts) -> list[FunctionGadget]:
    # what the search applies and verify_separation re-checks, extras last
    return [
        make_named(kind, host, **_POOL_PARAMS.get(kind, {}))
        for host in hosts
        for kind in sorted(gens.kinds)
        if host.n >= 1 or kind not in _POOL_PARAMS
    ] + list(gens.extra)


def interpolate(
    target: FunctionGadget,
    gens: GeneratorSet,
    depth: int,
    hosts: list[Graph],
) -> InterpolationWitness | None:
    """Bounded-depth search for a chain of generator gadgets, interleaved with
    repositioning embeddings, agreeing with ``target`` on its domain.

    First ``separating_invariant`` looks for a certificate that no chain of
    any depth agrees with the target; when it finds one the answer is None
    at once, with no search.  Otherwise, before each application the
    current image moves by an embedding into the gadget's domain; every
    application tries the first 4 such embeddings, in lexicographic order.
    ``depth`` bounds the number of generator applications, and the search
    stops after 100 000 nodes.  None is therefore either a certified
    separation, which holds at every depth, or "not found within those
    bounds".  The named generators act on ``hosts``, which must not be
    empty.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not hosts:
        raise ValueError("interpolation needs at least one host")
    if separating_invariant(target, gens) is not None:
        return None
    return _search(target, gens, depth, hosts, _MAX_NODES)[0]


def _search(
    target: FunctionGadget, gens: GeneratorSet, depth: int, hosts, max_nodes: int
) -> tuple[InterpolationWitness | None, int]:
    # the depth-first search behind ``interpolate``, with the number of
    # nodes it visited (more than ``max_nodes`` when that budget stopped it)
    pool = _named_pool(gens, hosts)
    f_dom = target.dom
    # the random graph is homogeneous, so a chain agrees with the target on
    # its domain exactly when the current values have this QF type
    want = qf_type([target.apply(x) for x in f_dom], target.dst)
    nodes = 0

    def dfs(graph: Graph, values: tuple[int, ...], remaining: int, seen) -> list[_Link] | None:
        # the links from this state to the target, or None
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes or remaining == 0:
            return None
        state = (graph, values)
        if seen.get(state, -1) >= remaining:
            return None
        seen[state] = remaining
        image = tuple(sorted(set(values)))
        pattern = graph.induced(image)
        for gadget in pool:
            maps = iter_embedding_maps(pattern, gadget.src, allowed=gadget.dom_mask())
            for mapping in islice(maps, _EMBED_LIMIT):
                assignment = dict(zip(image, mapping))
                applied = tuple(gadget.apply(assignment[v]) for v in values)
                if qf_type(applied, gadget.dst) == want:
                    align = dict(zip(applied, map(target.apply, f_dom)))
                    closing = FunctionGadget(gadget.dst, target.dst, tuple(align.items()))
                    rest = [("reposition", closing, "align with target")]
                else:
                    rest = dfs(gadget.dst, applied, remaining - 1, seen)
                    if rest is None:
                        continue
                moved = FunctionGadget(graph, gadget.src, tuple(assignment.items()))
                return [
                    ("reposition", moved, f"reposition into {gadget.label}"),
                    ("generator", gadget, f"apply {gadget.label}"),
                ] + rest
        return None

    for d in range(1, depth + 1):
        links = dfs(target.src, f_dom, d, {})
        if links is not None:
            return _witness(target, links), nodes
    return None, nodes


# ---------------------------------------------------------------------------
# separating invariants: certified misses


# a labelled QF type: (equality pattern, edge code of its classes)
QFType = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class Separation:
    """A certificate that no chain of the named generators, at any depth,
    agrees with a target: ``relation`` holds on ``subset`` in the target's
    source graph but not on its image, whose type is ``image_type``, and
    every generator preserves it."""

    relation: TypeSetRelation
    subset: tuple[int, ...]
    image_type: QFType


# the largest vertex count the kinds' actions, the canonical memo and the
# orbit closure serve: 1 100 edge codes in all (2^C(n, 2) summed over
# n = 0..5), where 8 vertices alone would allow 2^28
_MAX_TYPE_N = 5


@lru_cache(maxsize=None)  # keyed by generator set; the kinds give at most 32
def _kind_actions(kinds: frozenset[str]) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    # per vertex count n = 0..5, how the kinds act on an n-vertex edge code:
    # the XOR masks (minus complements, switch switches one vertex at a
    # time, as single vertices generate every switching) and the constant
    # images as (vertex count, code) (eE and eN make every pair an edge or a
    # non-edge, const collapses a nonempty tuple to one vertex).  The
    # identity adds nothing.  Each constant image is the only code of its
    # orbit, so it is already canonical
    table = []
    for n in range(_MAX_TYPE_N + 1):
        every = (1 << n * (n - 1) // 2) - 1
        masks = ((every,) if "minus" in kinds else ()) + (switch_masks(n) if "switch" in kinds else ())
        constants = ((n, every),) if "eE" in kinds else ()
        constants += ((n, 0),) if "eN" in kinds else ()
        constants += ((1, 0),) if "const" in kinds and n else ()
        table.append((masks, constants))
    return tuple(table)


@lru_cache(maxsize=256)  # keyed by (type, kinds); a closure holds at most the 1 895 types of arity 5
def _type_closure(start: QFType, kinds: frozenset[str]) -> frozenset[QFType]:
    # the labelled types reachable from ``start`` under the kinds' actions
    # (``_kind_actions`` on the code of its classes); a collapse to one
    # vertex collapses the equality pattern to one class
    actions = _kind_actions(kinds)
    closed = {start}
    work = [start]
    while work:
        rgs, code = work.pop()
        classes = max(rgs) + 1
        masks, constants = actions[classes]
        images = [(rgs, code ^ flip) for flip in masks]
        images += [(rgs if n == classes else (0,) * len(rgs), image) for n, image in constants]
        for t in images:
            if t not in closed:
                closed.add(t)
                work.append(t)
    return frozenset(closed)


def separating_invariant(target: FunctionGadget, gens: GeneratorSet) -> Separation | None:
    """The least certificate that no chain of ``gens``, at any depth, agrees
    with ``target`` on its domain, or None.

    Each named generator, and each repositioning embedding, rewrites the QF
    type of a tuple of current values by a fixed action, so the types that
    an m-subset S of the domain can reach lie in R, the closure of its type
    in the source graph under the actions.  When the target's image of S
    has a type outside R, the type-set relation R separates.  Subsets are
    tried by size m = 2..5, then in lexicographic order.  When the target
    acts on types as a composite of the kinds (``relations._acts_within``),
    its type on the whole domain is reachable; every action commutes with
    restriction to a subset, so no subset can separate and none is tried.
    Extra gadgets are not closed over: with ``gens.extra`` the answer is
    None.
    """
    kinds = gens.kinds
    dom = target.dom
    if gens.extra or len(dom) < 2 or _acts_within(target._rewrite, kinds):
        return None
    # with minus or switch every distinct pair reaches both distinct pair
    # types, so a pair separates only by a collapse without const
    pairs_reach = ("const" in kinds or len(target.image()) == len(dom)) and kinds & {"minus", "switch"}
    src, dst = target.src, target.dst
    for m in range(3 if pairs_reach else 2, min(5, len(dom)) + 1):
        for subset in combinations(dom, m):
            image_type = qf_type([target.apply(x) for x in subset], dst)
            reach = _type_closure(qf_type(subset, src), kinds)
            if image_type not in reach:
                return Separation(TypeSetRelation(m, reach), subset, image_type)
    return None


def verify_separation(
    target: FunctionGadget, gens: GeneratorSet, hosts, sep: Separation
) -> bool:
    """Independent check of a separation; no type closure is consulted.

    The subset must lie in the target's domain and in the relation on the
    source graph, its image must have ``image_type`` and lie outside the
    relation, so the target violates it, and every gadget the search would
    apply on ``hosts``, which must not be empty, must preserve the relation.
    Repositioning embeddings preserve every QF relation, so then no chain
    agrees with the target on the subset.
    """
    if not hosts:
        raise ValueError("interpolation needs at least one host")
    r = sep.relation
    subset = tuple(sep.subset)
    if len(subset) != r.arity or not set(subset) <= set(target.dom):
        return False
    image = tuple(target.apply(x) for x in subset)
    if not r.holds(subset, target.src) or r.holds(image, target.dst):
        return False
    if qf_type(image, target.dst) != sep.image_type:
        return False
    pool = _named_pool(gens, hosts)
    return all(preserved_by_map(r, g.as_mapping(), g.src, g.dst).preserved for g in pool)


# ---------------------------------------------------------------------------
# edge deletion and collapse procedures


class PatternNotFoundError(RuntimeError):
    """A required copy of a pattern does not exist in the host."""


def _least_copy(g: Graph, host: Graph, name: str) -> tuple[int, ...]:
    # the least copy of g in host, checked to realize g
    copy = next(iter_embedding_maps(g, host), None)
    if copy is None:
        raise PatternNotFoundError(f"host has no copy of the {name}")
    if qf_type(copy, host) != (tuple(range(g.n)), edge_code(g)):
        raise RuntimeError(f"the least copy of the {name} does not realize it")
    return copy


def delete_all_edges(pattern: Graph, host: Graph, k: int) -> InterpolationWitness:
    """Delete the pattern's edges in lexicographic order until the image of
    ``pattern`` in ``host`` is edgeless; one generator step per edge.

    The chain walks the least copies of the pattern minus its first s
    edges, s = 0..|E|, each searched and checked once.  Generator s maps
    copy s onto copy s + 1 position by position, so only the pair of edge
    s changes kind; the reposition ahead of it is the identity on copy s,
    where the chain already stands.

    The witness target is an eN-labeled gadget built from the last copy, so
    its construction-time check independently confirms the empty image.
    ``k`` is ignored; it is removed with the next change to the benchmark,
    which passes it positionally.
    """
    edges = list(pattern.edges())
    copies = [
        _least_copy(Graph.from_edges(pattern.n, edges[s:]), host,
                    f"edge-deleted {pattern.n}-vertex graph" if s else "start pattern")
        for s in range(len(edges) + 1)
    ]
    chain: list[_Link] = [
        ("reposition", FunctionGadget(pattern, host, tuple(enumerate(copies[0]))),
         "place the pattern in the host")
    ]
    for (i, j), before, after in zip(edges, copies, copies[1:]):
        chain += [
            ("reposition", FunctionGadget(host, host, tuple(zip(before, before))),
             f"move copy onto the deletion gadget for edge ({i}, {j})"),
            ("generator", FunctionGadget(host, host, tuple(zip(before, after)), "custom"), "delete the edge"),
        ]
    target = FunctionGadget(pattern, host, tuple(enumerate(copies[-1])), "eN")
    return _witness(target, chain)


def collapse_all(
    f_set, host: Graph, g: FunctionGadget, h: FunctionGadget
) -> InterpolationWitness:
    """Drive the vertex set ``f_set`` to a single image by repeatedly
    repositioning and applying the edge-collapsing gadget ``g`` or the
    non-edge-collapsing gadget ``h``; at most |F| generator steps.
    """
    f_sorted = tuple(sorted(set(f_set)))
    if not f_sorted:
        raise ValueError("collapse_all needs a nonempty vertex set")
    outside = next((v for v in f_sorted if not 0 <= v < host.n), None)
    if outside is not None:
        raise ValueError(f"vertex {outside} is not among the host's vertices 0..{host.n - 1}")
    collapsers = {}
    for gadget, kind, name in ((g, PairKind.EDGE, "g"), (h, PairKind.NONEDGE, "h")):
        if gadget.src != host or gadget.dst != host:
            raise ValueError(f"gadget {name} must map the host to itself")
        pair = _least_pair(gadget, kind)
        if pair is None:
            noun = "edge" if kind is PairKind.EDGE else "non-edge"
            raise ValueError(f"gadget {name} does not collapse any {noun}")
        collapsers[kind] = (gadget, pair, gadget.dom_mask())
    chain: list[_Link] = []
    image = list(f_sorted)
    for _ in range(len(f_sorted)):
        if len(image) <= 1:
            break
        s0, s1 = image[0], image[1]
        gadget, (a, b), dom_mask = collapsers[pair_kind(host, s0, s1)]
        mapping = _pinned_map(host.induced(image), host, dom_mask, (a, b))
        if mapping is None:
            raise PatternNotFoundError(
                f"no repositioning embedding pinning ({s0}, {s1}) onto ({a}, {b})"
            )
        chain += [
            ("reposition", FunctionGadget(host, host, tuple(zip(image, mapping))),
             f"pin ({s0}, {s1}) onto the collapsing pair ({a}, {b})"),
            ("generator", gadget, "collapse"),
        ]
        image = sorted({gadget.apply(v) for v in mapping})
    if len(image) != 1:
        raise RuntimeError("collapse loop exceeded its step bound")
    target = make_named("const", host, dom=f_sorted, target=image[0])
    return _witness(target, chain)


# ---------------------------------------------------------------------------
# orbit closure on small types


# canonical codes by (n, edge code), recorded one whole orbit per miss; only
# graphs of at most 5 vertices are kept
_CANONICAL: dict[tuple[int, int], int] = {}


def canonical_form(g: Graph) -> Graph:
    """Least relabeling of ``g``: its ``edge_code`` minimized over all
    vertex permutations.  Intended for tiny graphs only (at most 8
    vertices).

    Memoized per orbit: a miss computes the code of every relabeling, all
    n! of them, and for n <= 5 records the least one for every code of the
    orbit, so any relabeling of a type seen before costs one code and one
    lookup.  ``all_graph_types(5)`` pays 34 such sweeps, one per type.
    """
    n = g.n
    if n > 8:
        raise ValueError("canonical_form is restricted to at most 8 vertices")
    return graph_of_code(n, _canonical_code(n, edge_code(g)))


def _canonical_code(n: int, code: int) -> int:
    # the least code of the n-vertex graph with edge ``code`` over its
    # relabelings, read from the memo or by one sweep over them; code 0 is
    # canonical, so a hit is told apart by ``is None``
    least = _CANONICAL.get((n, code))
    if least is None:
        rows = graph_of_code(n, code).rows
        orbit = {induced_code(rows, perm) for perm in permutations(range(n))}
        least = min(orbit)
        if n <= _MAX_TYPE_N:
            _CANONICAL.update(((n, c), least) for c in orbit)
    return least


@lru_cache(maxsize=None)
def all_graph_types(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of all isomorphism types on n vertices, by
    exhaustive enumeration (1, 2, 4, 11, 34 types for n = 1..5)."""
    if n > _MAX_TYPE_N:
        raise ValueError("type tables are precomputed only up to 5 vertices")
    seen = {_canonical_code(n, code) for code in range(1 << n * (n - 1) // 2)}
    return tuple(sorted((graph_of_code(n, c) for c in seen), key=lambda t: sorted(t.edges())))


def orbit_closure(start: Graph, gens: GeneratorSet) -> frozenset[Graph]:
    """Least fixed point of the generator actions on induced patterns of at
    most ``start.n`` vertices, as canonical representatives.

    Collapsing generators reduce to smaller types, so the closure may mix
    sizes.  Monotone in the generator set and idempotent.

    The walk is over (vertex count, canonical code) pairs: the named kinds
    act on a code by XOR masks and constant images (``_kind_actions``), an
    extra gadget's image is the code its destination rows induce on it, and
    graphs are built only for the answer.
    """
    if start.n > _MAX_TYPE_N:
        raise ValueError("orbit closure is capped at 5-vertex start graphs")
    actions = _kind_actions(gens.kinds)
    first = (start.n, _canonical_code(start.n, edge_code(start)))
    closed = {first}
    work = [first]
    while work:
        n, code = work.pop()
        masks, constants = actions[n]
        images = list(constants)
        for flip in masks:
            # a memo hit inline; code 0 is a hit, so it is told by ``is None``
            least = _CANONICAL.get((n, code ^ flip))
            images.append((n, _canonical_code(n, code ^ flip) if least is None else least))
        for gadget in gens.extra:
            rows = gadget.dst.rows
            for mapping in iter_embedding_maps(graph_of_code(n, code), gadget.src, allowed=gadget.dom_mask()):
                image = sorted({gadget.apply(v) for v in mapping})
                images.append((len(image), _canonical_code(len(image), induced_code(rows, image))))
        for t in images:
            if t not in closed:
                closed.add(t)
                work.append(t)
    return frozenset(graph_of_code(n, code) for n, code in closed)


# ---------------------------------------------------------------------------
# five-class relation classification


class ReductClass(Enum):
    GRAPH = "graph"
    MINUS = "minus"
    SWITCH = "switch"
    MINUS_SWITCH = "minus-switch"
    EQUALITY = "equality"
    UNDEFINABLE = "undefinable"


_CLASS_GENS = {
    ReductClass.GRAPH: frozenset(),
    ReductClass.MINUS: frozenset({"minus"}),
    ReductClass.SWITCH: frozenset({"switch"}),
    ReductClass.MINUS_SWITCH: frozenset({"minus", "switch"}),
}
_CLASS_OF_GENS = {gens: cls for cls, gens in _CLASS_GENS.items()}


def join_classes(a: ReductClass, b: ReductClass) -> ReductClass:
    """Join of two classes: among the five, the class of the group generated
    by the two groups together (equality on top, graph at the bottom);
    undefinable, a tuple set that is no union of QF types, absorbs them all."""
    for top in (ReductClass.UNDEFINABLE, ReductClass.EQUALITY):
        if top in (a, b):
            return top
    return _CLASS_OF_GENS[_CLASS_GENS[a] | _CLASS_GENS[b]]


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
    if isinstance(r, TupleSetRelation):
        found = r.type_set(host)
        if isinstance(found, TypeSetRelation):
            cert = replace(_classify_single(found, host), relation=r.name)
            _check_against_table(found, cert)
            return cert
        return RelationCertificate(r.name, ReductClass.UNDEFINABLE, EqualityDefinability(False, *found), None, (), 0, 0)
    eq = definable_from_equality(r, host)
    if eq.definable:
        return RelationCertificate(r.name, ReductClass.EQUALITY, eq, None, (), 0, 0)
    comp = invariant_under_complement(r, host)
    violations = []
    subsets = 0
    for v, res in enumerate(_identity_rewrites(r, host, range(host.n))):
        subsets += res.checked
        if not res.preserved:
            violations.append((v, res.witness))
    cls = _CLASS_OF_GENS[frozenset(compress(("minus", "switch"), (comp.preserved, not violations)))]
    return RelationCertificate(
        r.name, cls, eq, comp, tuple(violations), host.n, subsets
    )


def classify_reduct(relations, host: Graph, k: int) -> ReductClassification:
    """Decision tree on invariances: equality-definable relations land in the
    equality class; otherwise invariance under complement and under every
    single-vertex switch picks one of the remaining four classes.

    ``relations`` is one relation or any iterable of them.  Several
    relations classify jointly as the lattice join of their individual
    classes (the class of the group generated by everything each relation
    allows).  ``k`` is the host's claimed extension level and is verified
    up front, after the host's size.  A tuple set then becomes its
    ``type_set`` on the host, which refuses an id outside ``0..host.n - 1``,
    and is classified as that type set under its own name; a tuple set that
    is no type set is undefinable, with the pair as its equality witness.

    The class of a QF relation with a type table is the table's: its
    positive facts skip the host, and the host supplies the least
    witnesses of its negative ones.  A host that realizes none of the
    types violating a negative fact would report the fact as holding, so
    when a certificate's class differs from the table's the call raises
    ``ValueError`` naming the relation and the fact.
    """
    rel_list = [relations] if isinstance(relations, Relation) else list(relations)
    if not rel_list:
        raise ValueError("need at least one relation")
    max_arity = max(r.arity for r in rel_list)
    if host.n < max_arity:
        raise ValueError(
            f"host has {host.n} vertices, too small for arity {max_arity}"
        )
    result = check_extension(host, k)
    if not result.passed:
        raise ValueError(
            f"host fails the {k}-extension check at {result.failing}"
        )
    certificates = tuple(_classify_single(r, host) for r in rel_list)
    for r, cert in zip(rel_list, certificates):
        _check_against_table(r, cert)
    overall = certificates[0].reduct_class
    for cert in certificates[1:]:
        overall = join_classes(overall, cert.reduct_class)
    return ReductClassification(overall, certificates, host.n, k)


def _check_against_table(r: Relation, cert: RelationCertificate) -> None:
    # refuse a certificate whose class is not the one r's type table gives:
    # the host realized none of the types that break a fact the table denies
    facts = r.type_facts
    if facts is None or facts.equality_definable:
        return
    if cert.equality.definable:
        fact = "not equality-definable"
    elif "minus" not in facts.closed_under and cert.complement.preserved:
        fact = "not invariant under complement"
    elif "switch" not in facts.closed_under and not cert.switch_violations:
        fact = "not invariant under switch"
    else:
        return
    raise ValueError(
        f"the host cannot witness that {cert.relation} is {fact}; a host that passes "
        f"the {r.arity - 1}-extension check realizes every type of arity {r.arity}"
    )
