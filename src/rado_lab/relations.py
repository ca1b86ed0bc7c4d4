"""Finite-arity relations over a graph (parity relations, explicit tuple sets,
quantifier-free formulas) and preservation checking.

Preservation across a graph rewrite is read cross-structure: the identity
vertex map from g to the rewritten graph must preserve the relation computed
by the same defining spec on each side, in both directions.  Least witnesses
are reported in lexicographic order over ordered tuples.

Parity and formula relations are quantifier-free: membership of a tuple
depends only on its QF type, the equality pattern of its entries (a
restricted-growth string) plus the edge bits among its classes.  Each such
relation of arity at most ``MAX_TABLE_ARITY`` is compiled on first use into
a truth table over all QF types of its arity, by evaluating ``holds`` on one
small graph realizing each type; relations with the same definition (parity
arity, or formula and arity) share one table.  Three facts read off the
table hold on every graph: equality-definability, complement invariance and
switch invariance.  When a fact holds, the matching check returns its
positive verdict with ``checked == 0`` without scanning the host; otherwise
the host scan runs and finds the least witness, if any.  Tuple sets have no
table: their membership depends on the vertices themselves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from types import MappingProxyType
from typing import Iterator, Mapping

from .graphs import Graph, complement_graph, switch_graph


class RelationSpecError(ValueError):
    """Raised by the relation mini-language parser."""


class Relation:
    """Base class; subclasses provide ``holds`` and a stable ``name``."""

    arity: int
    name: str

    def holds(self, t: tuple[int, ...], g: Graph) -> bool:
        raise NotImplementedError

    @property
    def type_facts(self) -> TypeFacts | None:
        """Invariance facts proved on the QF type table; None when there is
        no table (membership not determined by QF type, or arity above
        ``MAX_TABLE_ARITY``)."""
        return None

    def __repr__(self) -> str:
        return f"<Relation {self.name}>"


# Above this arity no type table is compiled and every check scans the host.
# The all-distinct pattern alone has 2^C(arity, 2) types: 1 024 at arity 5,
# 32 768 at arity 6, where compiling costs more than the scans it saves.
MAX_TABLE_ARITY = 5


@dataclass(frozen=True)
class TypeFacts:
    """Facts of a QF relation that hold on every graph, read off its table."""

    equality_definable: bool  # membership constant on each equality pattern
    complement_invariant: bool  # each type agrees with its edge-complement
    switch_invariant: bool  # each type agrees with it after switching a class


def _restricted_growth_strings(arity: int) -> Iterator[tuple[int, ...]]:
    # equality patterns of arity-tuples: entry i names the class of position
    # i, classes numbered in order of first appearance
    def rec(prefix: tuple[int, ...], classes: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == arity:
            yield prefix
            return
        for c in range(classes + 1):
            yield from rec(prefix + (c,), max(classes, c + 1))

    yield from rec((), 0)


@lru_cache(maxsize=None)  # keyed by arity, at most MAX_TABLE_ARITY entries
def _qf_types(arity: int) -> tuple[tuple[tuple[int, ...], tuple[Graph, ...]], ...]:
    """Per equality pattern, one graph on its classes for each edge pattern;
    bit b of the index is the b-th pair of classes in lexicographic order."""
    out = []
    for rgs in _restricted_growth_strings(arity):
        classes = max(rgs) + 1
        pairs = list(combinations(range(classes), 2))
        graphs = tuple(
            Graph.from_edges(classes, [p for b, p in enumerate(pairs) if bits >> b & 1])
            for bits in range(1 << len(pairs))
        )
        out.append((rgs, graphs))
    return tuple(out)


def _switch_masks(classes: int) -> list[int]:
    # per class, the edge bits of the pairs a switch of that class flips
    pairs = list(combinations(range(classes), 2))
    return [sum(1 << b for b, p in enumerate(pairs) if c in p) for c in range(classes)]


class QuantifierFreeRelation(Relation):
    """A relation whose membership depends only on the QF type of a tuple:
    the equalities among its entries and the edges between distinct ones.

    Subclasses return from ``_definition`` the constructor arguments that
    rebuild an equal relation; relations with equal definitions share one
    compiled table and its facts."""

    @property
    def _definition(self) -> tuple:
        raise NotImplementedError

    @cached_property
    def _compiled(self) -> tuple[Mapping[tuple[int, ...], tuple[bool, ...]], TypeFacts] | None:
        return _compile(type(self), self._definition)

    @property
    def type_table(self) -> Mapping[tuple[int, ...], tuple[bool, ...]] | None:
        """Membership per equality pattern, indexed by edge bits (read-only,
        shared by equal relations); None above ``MAX_TABLE_ARITY``."""
        return None if self._compiled is None else self._compiled[0]

    @property
    def type_facts(self) -> TypeFacts | None:
        return None if self._compiled is None else self._compiled[1]


@lru_cache(maxsize=256)  # keyed by relation definition, shared by equal relations
def _compile(
    cls: type[QuantifierFreeRelation], definition: tuple
) -> tuple[Mapping[tuple[int, ...], tuple[bool, ...]], TypeFacts] | None:
    r = cls(*definition)
    if r.arity > MAX_TABLE_ARITY:
        return None
    table = MappingProxyType(
        {rgs: tuple(r.holds(rgs, g) for g in graphs) for rgs, graphs in _qf_types(r.arity)}
    )
    rows = [(row, _switch_masks(max(rgs) + 1)) for rgs, row in table.items()]
    facts = TypeFacts(
        equality_definable=all(len(set(row)) == 1 for row, _ in rows),
        complement_invariant=all(
            row[e] == row[e ^ (len(row) - 1)] for row, _ in rows for e in range(len(row))
        ),
        switch_invariant=all(
            row[e] == row[e ^ m] for row, masks in rows for m in masks for e in range(len(row))
        ),
    )
    return table, facts


class ParityRelation(QuantifierFreeRelation):
    """R(k): entries pairwise distinct and an odd number of edges among them."""

    def __init__(self, arity: int):
        if arity < 2:
            raise ValueError("parity relations need arity at least 2")
        self.arity = arity
        self.name = f"parity:{arity}"

    @property
    def _definition(self) -> tuple:
        return (self.arity,)

    def holds(self, t: tuple[int, ...], g: Graph) -> bool:
        if len(set(t)) != len(t):
            return False
        count = 0
        for x, y in combinations(t, 2):
            if g.has_edge(x, y):
                count += 1
        return count % 2 == 1


class TupleSetRelation(Relation):
    """Explicit tuple set; membership does not consult the graph."""

    def __init__(self, arity: int, tuples, graph_name: str | None = None):
        self.arity = arity
        self.tuples = frozenset(tuple(t) for t in tuples)
        for t in self.tuples:
            if len(t) != arity:
                raise ValueError(f"tuple {t} does not have arity {arity}")
        self.graph_name = graph_name
        self.name = f"tuples:{graph_name or '<anon>'}[{len(self.tuples)}]"

    def holds(self, t: tuple[int, ...], g: Graph) -> bool:
        return t in self.tuples


# formula AST nodes are plain tuples: ("E", i, j), ("eq", i, j),
# ("not", a), ("and", a, b), ("or", a, b)


class FormulaRelation(QuantifierFreeRelation):
    """Boolean combination of E(i,j) and xi=xj atoms over tuple positions."""

    def __init__(self, root, arity: int | None = None, name: str | None = None):
        self.root = root
        max_idx = _max_index(root)
        self.arity = arity if arity is not None else max_idx + 1
        if max_idx >= self.arity:
            raise ValueError("formula mentions a position beyond the arity")
        self.name = name or f"formula:{format_formula(root)}"

    @property
    def _definition(self) -> tuple:
        return (self.root, self.arity)

    def holds(self, t: tuple[int, ...], g: Graph) -> bool:
        return _eval_node(self.root, t, g)


def _max_index(node) -> int:
    op = node[0]
    if op in ("E", "eq"):
        return max(node[1], node[2])
    if op == "not":
        return _max_index(node[1])
    return max(_max_index(node[1]), _max_index(node[2]))


def _eval_node(node, t: tuple[int, ...], g: Graph) -> bool:
    op = node[0]
    if op == "E":
        x, y = t[node[1]], t[node[2]]
        return x != y and g.has_edge(x, y)
    if op == "eq":
        return t[node[1]] == t[node[2]]
    if op == "not":
        return not _eval_node(node[1], t, g)
    if op == "and":
        return _eval_node(node[1], t, g) and _eval_node(node[2], t, g)
    if op == "or":
        return _eval_node(node[1], t, g) or _eval_node(node[2], t, g)
    raise ValueError(f"unknown formula node {op!r}")


def format_formula(node) -> str:
    op = node[0]
    if op == "E":
        return f"E({node[1]},{node[2]})"
    if op == "eq":
        return f"x{node[1]}=x{node[2]}"
    if op == "not":
        return f"!{format_formula(node[1])}"
    sym = "&" if op == "and" else "|"
    return f"({format_formula(node[1])} {sym} {format_formula(node[2])})"


# ---------------------------------------------------------------------------
# convenience constructors


def parity_relation(k: int) -> ParityRelation:
    return ParityRelation(k)


def edge_relation() -> FormulaRelation:
    return FormulaRelation(("E", 0, 1), name="E")


def nonedge_relation() -> FormulaRelation:
    return FormulaRelation(
        ("and", ("not", ("E", 0, 1)), ("not", ("eq", 0, 1))), name="N"
    )


def distinct_relation(arity: int = 2) -> FormulaRelation:
    node = None
    for i, j in combinations(range(arity), 2):
        atom = ("not", ("eq", i, j))
        node = atom if node is None else ("and", node, atom)
    return FormulaRelation(node, arity=arity, name=f"distinct:{arity}")


# ---------------------------------------------------------------------------
# evaluation and preservation


def eval_relation(r: Relation, t: tuple[int, ...], g: Graph) -> bool:
    if len(t) != r.arity:
        raise ValueError(f"tuple has length {len(t)}, relation arity is {r.arity}")
    for x in t:
        if not 0 <= x < g.n:
            raise ValueError(f"tuple entry {x} is not a vertex of the graph")
    return r.holds(tuple(t), g)


@dataclass(frozen=True)
class PreservationResult:
    """``preserved`` or the least violating tuple; ``checked`` counts the
    tuples (or vertex subsets, on the parity fast path) examined."""

    preserved: bool
    witness: tuple[int, ...] | None = None
    checked: int = 0


def _identity_total(mapping: Mapping[int, int], src: Graph) -> bool:
    return len(mapping) == src.n and all(mapping.get(v) == v for v in range(src.n))


def _parity_bitparallel(arity: int, src: Graph, dst: Graph) -> PreservationResult:
    """Identity-map parity scan over one host.

    Enumerates sorted (arity-1)-subsets; the last coordinate is handled for
    all candidates at once: xor of adjacency rows over the base gives, per
    candidate bit, the parity of its edge count into the base.  First
    violating sorted tuple is the least ordered witness because parity
    relations are symmetric and empty on non-distinct tuples.
    """
    n = src.n
    full = src.full_mask
    checked = 0
    for base in combinations(range(n), arity - 1):
        checked += 1
        k_src = sum(1 for x, y in combinations(base, 2) if src.has_edge(x, y))
        k_dst = sum(1 for x, y in combinations(base, 2) if dst.has_edge(x, y))
        p_src = 0
        p_dst = 0
        for x in base:
            p_src ^= src.row(x)
            p_dst ^= dst.row(x)
        member_src = p_src if k_src % 2 == 0 else ~p_src & full
        member_dst = p_dst if k_dst % 2 == 0 else ~p_dst & full
        above = full ^ ((1 << (base[-1] + 1)) - 1)
        violations = member_src & ~member_dst & above
        if violations:
            d = (violations & -violations).bit_length() - 1
            return PreservationResult(False, base + (d,), checked)
    return PreservationResult(True, None, checked)


def _parity_mapped(
    arity: int, mapping: Mapping[int, int], src: Graph, dst: Graph
) -> PreservationResult:
    """Parity scan for an arbitrary (possibly partial, possibly collapsing)
    vertex map: sorted subsets of the domain, directly evaluated."""
    dom = sorted(mapping)
    checked = 0
    for subset in combinations(dom, arity):
        checked += 1
        edges = sum(1 for x, y in combinations(subset, 2) if src.has_edge(x, y))
        if edges % 2 == 0:
            continue
        images = tuple(mapping[x] for x in subset)
        if len(set(images)) != arity:
            return PreservationResult(False, subset, checked)
        img_edges = sum(1 for x, y in combinations(images, 2) if dst.has_edge(x, y))
        if img_edges % 2 == 0:
            return PreservationResult(False, subset, checked)
    return PreservationResult(True, None, checked)


def preserved_by_map(
    r: Relation, mapping: Mapping[int, int], src: Graph, dst: Graph
) -> PreservationResult:
    """Least tuple t with t in r(src) and mapping(t) not in r(dst), if any.

    Tuples with an entry outside the mapping's domain are skipped.
    """
    for x, y in mapping.items():
        if not 0 <= x < src.n:
            raise ValueError(f"domain vertex {x} out of range")
        if not 0 <= y < dst.n:
            raise ValueError(f"image vertex {y} out of range")
    if isinstance(r, ParityRelation):
        if src.n == dst.n and _identity_total(mapping, src):
            return _parity_bitparallel(r.arity, src, dst)
        return _parity_mapped(r.arity, mapping, src, dst)
    dom = sorted(mapping)
    checked = 0
    for t in product(dom, repeat=r.arity):
        checked += 1
        if not r.holds(t, src):
            continue
        image = tuple(mapping[x] for x in t)
        if not r.holds(image, dst):
            return PreservationResult(False, t, checked)
    return PreservationResult(True, None, checked)


def _identity_mapping(g: Graph) -> dict[int, int]:
    return {v: v for v in range(g.n)}


def invariant_under_complement(r: Relation, g: Graph) -> PreservationResult:
    """Identity-map preservation from g to its complement, both directions;
    the witness of the first failing direction is reported.  A relation
    whose type table is complement-invariant is preserved on every graph:
    that verdict reports ``checked == 0``."""
    facts = r.type_facts
    if facts is not None and facts.complement_invariant:
        return PreservationResult(True)
    return _complement_scan(r, g)


def _complement_scan(r: Relation, g: Graph) -> PreservationResult:
    comp = complement_graph(g)
    forward = preserved_by_map(r, _identity_mapping(g), g, comp)
    if not forward.preserved:
        return forward
    backward = preserved_by_map(r, _identity_mapping(g), comp, g)
    return PreservationResult(
        backward.preserved, backward.witness, forward.checked + backward.checked
    )


def _switch_scan_parity(
    arity: int, src: Graph, dst: Graph, v: int
) -> PreservationResult:
    # only subsets containing v can change membership, and the map
    # B -> sorted(B + {v}) is lexicographically monotone, so the first
    # violation found here is the global least witness
    n = src.n
    others = [x for x in range(n) if x != v]
    checked = 0
    for rest in combinations(others, arity - 1):
        checked += 1
        subset = tuple(sorted(rest + (v,)))
        src_edges = sum(1 for x, y in combinations(subset, 2) if src.has_edge(x, y))
        if src_edges % 2 == 0:
            continue
        dst_edges = sum(1 for x, y in combinations(subset, 2) if dst.has_edge(x, y))
        if dst_edges % 2 == 0:
            return PreservationResult(False, subset, checked)
    return PreservationResult(True, None, checked)


def _tuples_containing(n: int, arity: int, v: int) -> Iterator[tuple[int, ...]]:
    # ordered tuples over range(n) containing v, in lexicographic order,
    # generated without visiting the tuples that avoid v
    def rec(prefix: tuple[int, ...], has_v: bool) -> Iterator[tuple[int, ...]]:
        if len(prefix) == arity:
            yield prefix
            return
        if not has_v and len(prefix) == arity - 1:
            yield prefix + (v,)
            return
        for x in range(n):
            yield from rec(prefix + (x,), has_v or x == v)

    yield from rec((), False)


def _switch_scan_generic(
    r: Relation, src: Graph, dst: Graph, v: int
) -> PreservationResult:
    checked = 0
    for t in _tuples_containing(src.n, r.arity, v):
        checked += 1
        if r.holds(t, src) and not r.holds(t, dst):
            return PreservationResult(False, t, checked)
    return PreservationResult(True, None, checked)


def invariant_under_switch(r: Relation, g: Graph, v: int) -> PreservationResult:
    """Identity-map preservation between g and switch_graph(g, {v}), both
    directions.

    Tuple-set membership ignores the graph, so it is always preserved.  A QF
    relation whose type table is switch-invariant is preserved on every
    graph, reported with ``checked == 0``.  Otherwise only tuples containing
    v can change QF type, so the scan is restricted to them; the restricted
    least witness equals the global one.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"switch vertex {v} out of range")
    if isinstance(r, TupleSetRelation):
        return PreservationResult(True, None, 0)
    facts = r.type_facts
    if facts is not None and facts.switch_invariant:
        return PreservationResult(True)
    return _switch_scan(r, g, v)


def _switch_scan(r: Relation, g: Graph, v: int) -> PreservationResult:
    if not isinstance(r, QuantifierFreeRelation):
        raise TypeError(f"switch scans need a quantifier-free relation, got {r!r}")
    sw = switch_graph(g, {v})
    if isinstance(r, ParityRelation):
        forward = _switch_scan_parity(r.arity, g, sw, v)
        if not forward.preserved:
            return forward
        backward = _switch_scan_parity(r.arity, sw, g, v)
    else:
        forward = _switch_scan_generic(r, g, sw, v)
        if not forward.preserved:
            return forward
        backward = _switch_scan_generic(r, sw, g, v)
    return PreservationResult(
        backward.preserved, backward.witness, forward.checked + backward.checked
    )


@dataclass(frozen=True)
class EqualityDefinability:
    """Whether membership depends only on the equality pattern of the tuple.

    On a negative answer ``witness`` is (member tuple, non-member tuple) with
    the same pattern, found first in the lexicographic scan.
    """

    definable: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    checked: int = 0


def _equality_pattern(t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(t.index(x) for x in t)


def definable_from_equality(r: Relation, g: Graph) -> EqualityDefinability:
    """Whether membership on g is constant on each equality pattern.  A
    relation whose type table says so is equality-definable on every graph:
    that verdict reports ``checked == 0``."""
    facts = r.type_facts
    if facts is not None and facts.equality_definable:
        return EqualityDefinability(True)
    return _equality_scan(r, g)


def _equality_scan(r: Relation, g: Graph) -> EqualityDefinability:
    first_in: dict[tuple[int, ...], tuple[int, ...]] = {}
    first_out: dict[tuple[int, ...], tuple[int, ...]] = {}
    checked = 0
    for t in product(range(g.n), repeat=r.arity):
        checked += 1
        pattern = _equality_pattern(t)
        if r.holds(t, g):
            if pattern in first_out:
                return EqualityDefinability(False, (t, first_out[pattern]), checked)
            first_in.setdefault(pattern, t)
        else:
            if pattern in first_in:
                return EqualityDefinability(False, (first_in[pattern], t), checked)
            first_out.setdefault(pattern, t)
    return EqualityDefinability(True, None, checked)


# ---------------------------------------------------------------------------
# relation spec mini-language:  parity:K | tuples:@file | formula:"..."


_TOKEN = re.compile(r"\s*(E\(\d+,\d+\)|x\d+\s*!?=\s*x\d+|[!&|()])")


def _tokenize_formula(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise RelationSpecError(
                    f"unknown atom near position {pos}: {text[pos:pos + 12]!r}"
                )
            break
        tokens.append(m.group(1).replace(" ", ""))
        pos = m.end()
    return tokens


def _parse_formula(text: str):
    tokens = _tokenize_formula(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() == "|":
            take()
            node = ("or", node, parse_and())
        return node

    def parse_and():
        node = parse_unary()
        while peek() == "&":
            take()
            node = ("and", node, parse_unary())
        return node

    def parse_unary():
        tok = peek()
        if tok is None:
            raise RelationSpecError("unexpected end of formula")
        if tok == "!":
            take()
            return ("not", parse_unary())
        if tok == "(":
            take()
            node = parse_or()
            if peek() != ")":
                raise RelationSpecError("missing closing parenthesis")
            take()
            return node
        take()
        if tok.startswith("E("):
            i, j = tok[2:-1].split(",")
            return ("E", int(i), int(j))
        m = re.fullmatch(r"x(\d+)(!?=)x(\d+)", tok)
        if m:
            atom = ("eq", int(m.group(1)), int(m.group(3)))
            return ("not", atom) if m.group(2) == "!=" else atom
        raise RelationSpecError(f"unknown token {tok!r}")

    node = parse_or()
    if idx != len(tokens):
        raise RelationSpecError(f"trailing tokens from {tokens[idx]!r}")
    return node


def parse_tuple_file(text: str, graph_name: str | None = None) -> TupleSetRelation:
    """Tuple file: header line ``arity <m>``, then one tuple of m vertex ids
    per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("arity "):
        raise RelationSpecError("tuple file must start with 'arity <m>'")
    try:
        arity = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise RelationSpecError("malformed arity header") from None
    tuples = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != arity:
            raise RelationSpecError(f"line {lineno}: expected {arity} entries")
        try:
            tuples.append(tuple(int(x) for x in parts))
        except ValueError:
            raise RelationSpecError(f"line {lineno}: entries must be integers") from None
    return TupleSetRelation(arity, tuples, graph_name)


def parse_relation_spec(spec: str, *, read_file=None) -> Relation:
    """Parse ``parity:K``, ``tuples:@file`` or ``formula:...`` specs.

    ``read_file`` resolves the ``@file`` reference for tuple sets and defaults
    to reading from the filesystem.
    """
    if spec.startswith("parity:"):
        body = spec[len("parity:"):]
        try:
            k = int(body)
        except ValueError:
            raise RelationSpecError(f"parity arity must be an integer, got {body!r}") from None
        if k < 2:
            raise RelationSpecError("parity arity must be at least 2")
        return ParityRelation(k)
    if spec.startswith("tuples:@"):
        path = spec[len("tuples:@"):]
        if read_file is None:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        else:
            text = read_file(path)
        return parse_tuple_file(text, graph_name=path)
    if spec.startswith("formula:"):
        body = spec[len("formula:"):].strip()
        if len(body) >= 2 and body[0] == body[-1] == '"':
            body = body[1:-1]
        if not body:
            raise RelationSpecError("empty formula")
        return FormulaRelation(_parse_formula(body))
    raise RelationSpecError(
        f"unknown relation spec {spec!r}; expected parity:K, tuples:@file or formula:..."
    )
