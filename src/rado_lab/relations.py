"""Finite-arity relations over a graph (parity relations, explicit tuple sets,
quantifier-free formulas, sets of QF types) and preservation checking.

Preservation across a graph rewrite is read cross-structure: the identity
vertex map from g to the rewritten graph must preserve the relation computed
by the same defining spec on each side, in both directions.  Least witnesses
are reported in lexicographic order over ordered tuples.

Parity, formula and type-set relations are quantifier-free: membership of a
tuple depends only on its QF type (``qf_type``), the equality pattern of its
entries (a restricted-growth string) plus the edge code of its classes,
built by ``graphs.induced_code``; only ``graphs`` knows the code's bit
order.  Each such relation of arity at most ``MAX_TABLE_ARITY`` is compiled
on first use into a truth table over all QF types of its arity, by
evaluating ``holds`` on ``graph_of_code`` of each type, or for a type set by
reading its set; relations with the same definition (parity arity, formula
and arity, or type set) share one table.
Two facts read off the table hold on every graph: equality-definability,
and ``closed_under``, the kinds among minus, switch, eE, eN and const
whose action on types keeps every member type a member.  minus
complements a type's edges, switch switches one class, eE and eN make every
pair an edge or a non-edge, and const collapses the tuple to the all-equal
type.  When a fact holds, the matching check returns its positive verdict
with ``checked == 0`` without scanning the host.  One recognizer,
``_acts_within``, decides ``preserved_by_map`` from ``closed_under``: a map
that rewrites every tuple's type by a composite of those kinds keeps
membership.  A map onto one vertex acts as const.  An injective map acts as
a composite when ``flip_form`` finds it flipping the kind of a pair {x, y}
exactly when c ^ s(x) ^ s(y) = 1, for a constant c and a cut s, against the
source, or against a clique (after eE) or an independent set (after eN):
it then complements (c = 1) and switches the classes in s.

Every other check runs one scan kernel on adjacency rows: the target graph
pulled back along the map (a collapsed pair counts as equal), the
complement, or g switched at v restricted to tuples containing v.  It walks
(arity - 1)-prefixes in lexicographic order and tests the last coordinate
for all candidates at once, as bit masks; ``checked`` counts the prefixes.
A formula's mask comes from one function generated per formula, last
position and host size (``_formula_member``): straight-line code that reads
the prefix entries' rows and combines them with ``& | ^``.  A gadget keeps
its pullback, so later checks of it do not walk the map again.
The equality scan runs it against the membership of the least tuple of
each pattern.  Complement and switch checks are one gate,
``_identity_rewrites``, over ``_rewrite_scans``.  Every switch check, of
one vertex or many, is one sweep over the prefixes (``_switch_sweeps``):
per prefix, two member masks settle every vertex outside it at once, and
each vertex keeps the witness and the count of its own scan.  Tuple sets
ignore the graph and have no table or scan: ``preserved_by_map`` walks
their members, and ``type_set`` turns one into the type set it equals on a
host, if any.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .graphs import Graph, graph_of_code, induced_code, switch_masks


class RelationSpecError(ValueError):
    """Raised by the relation mini-language parser."""


class Relation:
    """Base class; subclasses provide ``_holds`` and a stable ``name``."""

    arity: int
    name: str

    def holds(self, t: tuple[int, ...], g: Graph) -> bool:
        """Whether t is in the relation on g; ``ValueError`` when t does not
        have the relation's arity or an entry is not a vertex of g."""
        if len(t) != self.arity:
            raise ValueError(f"tuple {t} does not have arity {self.arity}")
        _check_vertices(t, g)
        return self._holds(t, g)

    def _holds(self, t: tuple[int, ...], g: Graph) -> bool:
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
    # the kinds among minus, switch, eE, eN and const whose action keeps
    # every member type a member
    closed_under: frozenset[str]


@lru_cache(maxsize=None)  # keyed by arity, at most MAX_TABLE_ARITY entries
def _qf_types(arity: int) -> tuple[tuple[int, ...], ...]:
    """The equality patterns of arity-tuples, sorted: restricted growth
    strings, whose entry i names the class of position i.  The QF types of
    a pattern with c classes are its edge codes on c vertices."""
    return tuple(sorted({_least_of_pattern(t) for t in product(range(arity), repeat=arity)}))


class QuantifierFreeRelation(Relation):
    """A relation whose membership depends only on the QF type of a tuple:
    the equalities among its entries and the edges between distinct ones.

    Subclasses return from ``_definition`` the constructor arguments that
    rebuild an equal relation; relations with equal definitions share one
    compiled table and its facts."""

    @property
    def _definition(self) -> tuple:
        raise NotImplementedError

    def _type_holds(self, rgs: tuple[int, ...], code: int) -> bool:
        # membership of the QF type (rgs, code), read off its least tuple
        return self.holds(rgs, graph_of_code(max(rgs) + 1, code))

    @property
    def type_table(self) -> Mapping[tuple[int, ...], tuple[bool, ...]] | None:
        """Membership per equality pattern, indexed by edge bits (read-only,
        shared by equal relations); None above ``MAX_TABLE_ARITY``."""
        compiled = _compile(type(self), self._definition)
        return None if compiled is None else compiled[0]

    @property
    def type_facts(self) -> TypeFacts | None:
        compiled = _compile(type(self), self._definition)
        return None if compiled is None else compiled[1]


@lru_cache(maxsize=256)  # keyed by relation definition, shared by equal relations
def _compile(
    cls: type[QuantifierFreeRelation], definition: tuple
) -> tuple[Mapping[tuple[int, ...], tuple[bool, ...]], TypeFacts] | None:
    r = cls(*definition)
    if r.arity > MAX_TABLE_ARITY:
        return None
    table = {}
    for rgs in _qf_types(r.arity):
        c = max(rgs) + 1
        table[rgs] = tuple(r._type_holds(rgs, e) for e in range(1 << c * (c - 1) // 2))
    rows = [(row, switch_masks(max(rgs) + 1)) for rgs, row in table.items()]
    # each kind's action by its own formula on the table, sharing no code
    # with the closure that builds separations; the last edge code of a
    # pattern makes every pair an edge, code 0 none
    closed = {
        "minus": all(row[e] == row[e ^ (len(row) - 1)] for row, _ in rows for e in range(len(row))),
        "switch": all(row[e] == row[e ^ m] for row, masks in rows for m in masks for e in range(len(row))),
        "eE": all(row[-1] or not any(row) for row, _ in rows),
        "eN": all(row[0] or not any(row) for row, _ in rows),
        "const": table[(0,) * r.arity][0] or not any(any(row) for row, _ in rows),
    }
    facts = TypeFacts(
        equality_definable=all(len(set(row)) == 1 for row, _ in rows),
        closed_under=frozenset(kind for kind, holds in closed.items() if holds),
    )
    return MappingProxyType(table), facts


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

    def _holds(self, t: tuple[int, ...], g: Graph) -> bool:
        if len(set(t)) != len(t):
            return False
        count = 0
        for x, y in combinations(t, 2):
            if g.has_edge(x, y):
                count += 1
        return count % 2 == 1


def _check_vertices(t: Sequence[int], g: Graph) -> None:
    # refuse a tuple with an entry outside 0..g.n - 1, naming the least
    # negative entry or else the largest
    if t:
        low, high = min(t), max(t)
        if low < 0 or high >= g.n:
            raise ValueError(f"tuple entry {low if low < 0 else high} is not a vertex of the graph")


def qf_type(t: Sequence[int], g: Graph) -> tuple[tuple[int, ...], int]:
    """The QF type of t in g: its equality pattern (``_least_of_pattern``)
    and the ``edge_code`` of its classes, taken in order of first
    occurrence."""
    _check_vertices(t, g)
    classes = list(dict.fromkeys(t))
    return tuple(classes.index(x) for x in t), induced_code(g.rows, classes)


class TypeSetRelation(QuantifierFreeRelation):
    """The union of a set of QF types of one arity, each given as
    (equality pattern, edge code of its classes), as ``qf_type`` returns."""

    def __init__(self, arity: int, types):
        if arity < 1:
            raise ValueError("type sets need arity at least 1")
        self.arity = arity
        self.types = frozenset(types)
        for rgs, code in self.types:
            c = max(rgs, default=-1) + 1
            if len(rgs) != arity or _least_of_pattern(rgs) != rgs or not 0 <= code < 1 << c * (c - 1) // 2:
                raise ValueError(f"{(rgs, code)} is not a QF type of arity {arity}")
        self.name = f"types:{arity}[{len(self.types)}]"

    @property
    def _definition(self) -> tuple:
        return (self.arity, self.types)

    def _holds(self, t: tuple[int, ...], g: Graph) -> bool:
        return qf_type(t, g) in self.types

    def _type_holds(self, rgs: tuple[int, ...], code: int) -> bool:
        return (rgs, code) in self.types

    @cached_property
    def _mask_index(self) -> dict[tuple[tuple[int, ...], int], tuple[list[int], list[tuple[int, ...]]]]:
        # per prefix type (pattern, code) of the member types: the prefix
        # classes a member's last entry repeats, and for each member whose
        # last entry is a new class, its edge bits to the prefix classes
        index: dict = {}
        for rgs, code in self.types:
            prefix, last = rgs[:-1], rgs[-1]
            c = max(prefix, default=-1) + 1
            if last < c:
                index.setdefault((prefix, code), ([], []))[0].append(last)
                continue
            # the prefix classes' own code and the new class's adjacency
            rows = graph_of_code(c + 1, code).rows
            adjacent = tuple(rows[c] >> i & 1 for i in range(c))
            index.setdefault((prefix, induced_code(rows, range(c))), ([], []))[1].append(adjacent)
        return index


class TupleSetRelation(Relation):
    """Explicit tuple set; membership does not consult the graph."""

    def __init__(self, arity: int, tuples, graph_name: str | None = None):
        if arity < 1:
            raise ValueError("tuple sets need arity at least 1")
        self.arity = arity
        self.tuples = frozenset(tuple(t) for t in tuples)
        for t in self.tuples:
            if len(t) != arity:
                raise ValueError(f"tuple {t} does not have arity {arity}")
        self.graph_name = graph_name
        self.name = f"tuples:{graph_name or '<anon>'}[{len(self.tuples)}]"

    def _holds(self, t: tuple[int, ...], g: Graph) -> bool:
        return t in self.tuples

    def type_set(self, host: Graph) -> TypeSetRelation | tuple[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """The ``TypeSetRelation`` of the members' QF types on ``host`` if
        every host tuple of those types is a member; else the pair (least
        member of a type, least host tuple of that type that is not a member)
        for the least such tuple, and the count of prefixes scanned.  An id
        outside the host raises ``ValueError`` naming the least such tuple."""
        n = host.n
        least = min((t for t in self.tuples if not all(0 <= x < n for x in t)), default=None)
        if least is not None:
            raise ValueError(f"tuple {least} in {self.graph_name or self.name} is not over the host's vertices 0..{n - 1}")
        first: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        index: dict[tuple[int, ...], int] = {}
        for t in sorted(self.tuples):
            first.setdefault(qf_type(t, host), t)
            index[t[:-1]] = index.get(t[:-1], 0) | 1 << t[-1]
        types = TypeSetRelation(self.arity, first)
        rows, same = host.rows, [1 << x for x in range(n)]
        res = _scan_kernel(types, range(n), n)(lambda prefix, member: member(prefix, rows, same) & ~index.get(prefix, 0))
        if res.preserved:
            return types
        return (first[qf_type(res.witness, host)], res.witness), res.checked


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

    def _holds(self, t: tuple[int, ...], g: Graph) -> bool:
        return _eval_node(self.root, t, g)


def _max_index(root) -> int:
    # the largest position the formula mentions; an unknown node, or a
    # negative position, which would read the tuple from its end, is refused
    positions: list[int] = []

    def walk(node):
        op = node[0]
        if op in ("E", "eq"):
            positions.extend((node[1], node[2]))
        elif op == "not":
            walk(node[1])
        elif op in ("and", "or"):
            walk(node[1])
            walk(node[2])
        else:
            raise ValueError(f"unknown formula node {op!r}")

    walk(root)
    if min(positions) < 0:
        raise ValueError(f"formula mentions the negative position {min(positions)}")
    return max(positions)


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
    return _eval_node(node[1], t, g) or _eval_node(node[2], t, g)


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
    if arity < 2:
        raise ValueError("distinct relations need arity at least 2")
    node = None
    for i, j in combinations(range(arity), 2):
        atom = ("not", ("eq", i, j))
        node = atom if node is None else ("and", node, atom)
    return FormulaRelation(node, arity=arity, name=f"distinct:{arity}")


# ---------------------------------------------------------------------------
# preservation


@dataclass(frozen=True)
class PreservationResult:
    """``preserved`` or the least violating tuple.  ``checked`` counts the
    (arity - 1)-prefixes whose last coordinate the scan kernel tested, all
    candidates at once (sorted prefixes for parity relations, ordered ones
    for formulas), or the member tuples walked for a tuple set; it is 0 when
    the type table proved the verdict without a scan."""

    preserved: bool
    witness: tuple[int, ...] | None = None
    checked: int = 0


class _Rewrite(NamedTuple):
    """A vertex map read in source vertex ids, as the scan kernel needs it."""

    dom: tuple[int, ...]  # sorted domain
    src: Sequence[int]  # source adjacency rows
    # per domain vertex x, the domain vertices whose images are adjacent to
    # the image of x, and the other domain vertices with the same image
    dst: Sequence[int]
    collapsed: Sequence[int]


def _pullback(mapping: Mapping[int, int], src: Graph, dst: Graph) -> _Rewrite:
    dom = tuple(sorted(mapping))
    preimages: dict[int, int] = {}
    for x in dom:
        preimages[mapping[x]] = preimages.get(mapping[x], 0) | 1 << x
    image_mask = sum(1 << y for y in preimages)
    pulled = [0] * src.n
    collapsed = [0] * src.n
    for x in dom:
        y = mapping[x]
        row = 0
        bits = dst.row(y) & image_mask
        while bits:
            b = bits & -bits
            row |= preimages[b.bit_length() - 1]
            bits ^= b
        pulled[x] = row
        collapsed[x] = preimages[y] ^ 1 << x
    return _Rewrite(dom, src.rows, pulled, collapsed)


def flip_form(mapping: Mapping[int, int], src: Graph, dst: Graph) -> tuple[int, int] | None:
    """(c, cut) when the map is injective and flips the kind of each domain
    pair {x, y} exactly when c ^ s(x) ^ s(y) = 1, where s is the indicator
    of ``cut``, a mask of domain vertices without the least one; None when
    the map is not injective or its flips have no such form.  (0, 0) is an
    embedding of the domain, (1, 0) an anti-embedding, and a nonempty cut
    switches either at the vertices of s.  Such a map rewrites every tuple's
    QF type by complementing (c = 1) and switching the classes in s."""
    return _flip_form(_pullback(mapping, src, dst))


def identity_flip_form(src: Graph, dst: Graph) -> tuple[int, int] | None:
    """``flip_form`` of the identity map on all vertices of two graphs of one
    size, read straight off their rows."""
    return _flip_form(_Rewrite(tuple(range(src.n)), src.rows, dst.rows, [0] * src.n))


def _flip_form(rw: _Rewrite) -> tuple[int, int] | None:
    dom = rw.dom
    if any(rw.collapsed[x] for x in dom):
        return None
    if not dom:
        return 0, 0
    dmask = sum(1 << x for x in dom)
    flips = {x: (rw.src[x] ^ rw.dst[x]) & dmask for x in dom}
    d0 = dom[0]
    c = 0
    if len(dom) >= 3:
        # with s(d0) = 0, flip(x, y) ^ flip(d0, x) ^ flip(d0, y) = c for all x, y
        d1, d2 = dom[1], dom[2]
        c = (flips[d1] >> d2 ^ flips[d0] >> d1 ^ flips[d0] >> d2) & 1
    cut = flips[d0] ^ (dmask ^ 1 << d0 if c else 0)
    for x in dom:
        want = cut ^ dmask if c ^ (cut >> x & 1) else cut
        if flips[x] != want & ~(1 << x):
            return None
    return c, cut


def _parity_mask(prefix: tuple[int, ...], rows, same, full: int) -> int:
    # candidates c with prefix + (c,) pairwise distinct and spanning an odd
    # number of edges: bit c of the xor of the prefix rows is the parity of
    # the edges from c into the prefix
    seen = taken = parity = odd = 0
    for x in prefix:
        if seen >> x & 1:
            return 0
        odd ^= (rows[x] & taken).bit_count() & 1
        parity ^= rows[x]
        taken |= 1 << x
        seen |= same[x]
    return (parity ^ full if odd else parity) & ~seen


@lru_cache(maxsize=256)  # keyed by (root, last position, full mask)
def _formula_member(root, last: int, full: int):
    # ``member`` of the scan kernel for the formula ``root`` with last
    # position ``last``, on graphs whose vertex mask is ``full``, generated
    # once as straight-line code with one local per distinct subformula.  An
    # atom on the last position reads the row (or ``same`` mask) of its
    # other entry; one on two prefix positions reads a bit of a row, as 0 or
    # -1 (every bit); ``not`` is ``~``, and the result is cut to ``full``
    lines: list[str] = []
    names: dict[str, str] = {}

    def emit(node) -> str:
        op = node[0]
        if op == "not":
            expr = f"~{emit(node[1])}"
        elif op in ("and", "or"):
            expr = f"{emit(node[1])} {'&' if op == 'and' else '|'} {emit(node[2])}"
        else:
            table = "rows" if op == "E" else "same"
            i, j = node[1], node[2]
            if i == last and j == last:
                expr = "0" if op == "E" else "-1"
            elif j == last:
                expr = f"{table}[x{i:d}]"
            elif i == last:
                expr = f"{table}[x{j:d}]"
            else:
                expr = f"-({table}[x{i:d}] >> x{j:d} & 1)"
        if expr not in names:
            names[expr] = f"t{len(names)}"
            lines.append(f"    {names[expr]} = {expr}\n")
        return names[expr]

    result = emit(root)
    unpack = "".join(f"x{i}, " for i in range(last))
    source = (
        "def member(prefix, rows, same):\n"
        + (f"    {unpack}= prefix\n" if last else "")
        + "".join(lines)
        + f"    return {result} & {full}\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["member"]


def _type_set_mask(index, prefix: tuple[int, ...], rows, same, full: int) -> int:
    # candidates c with prefix + (c,) of a member type: the prefix's own type
    # (its classes under ``same``) picks the member types that extend it; a
    # repeated class adds that class, a new class ANDs the prefix rows or
    # non-rows one class at a time
    reps: list[int] = []
    rgs = []
    for x in prefix:
        for a, rep in enumerate(reps):
            if same[rep] >> x & 1:
                rgs.append(a)
                break
        else:
            rgs.append(len(reps))
            reps.append(x)
    entry = index.get((tuple(rgs), induced_code(rows, reps)))
    if entry is None:
        return 0
    repeats, news = entry
    mask = 0
    for a in repeats:
        mask |= same[reps[a]]
    if news:
        fresh = full
        for rep in reps:
            fresh &= ~same[rep]
        for adjacent in news:
            m = fresh
            for rep, bit in zip(reps, adjacent):
                m &= rows[rep] if bit else ~rows[rep]
            mask |= m
    return mask


def _member_of(r: Relation, n: int):
    # ``member(prefix, rows, same)`` of the scan kernel for r on n-vertex
    # graphs; it reads ``rows`` and ``same`` at the prefix entries only
    full = (1 << n) - 1
    if isinstance(r, ParityRelation):
        def member(prefix, rows, same):
            return _parity_mask(prefix, rows, same, full)
    elif isinstance(r, FormulaRelation):
        member = _formula_member(r.root, r.arity - 1, full)
    elif isinstance(r, TypeSetRelation):
        type_index = r._mask_index

        def member(prefix, rows, same):
            return _type_set_mask(type_index, prefix, rows, same, full)
    else:
        raise TypeError(f"no scan for relation {r!r}")
    return member


def _scan_kernel(r: Relation, dom: Sequence[int], n: int):
    """The scan kernel for ``r`` over ``dom`` on n-vertex graphs, set up once:
    ``least_bad(bad)`` is the least tuple over ``dom`` whose last coordinate
    is in ``bad(prefix, member)``.

    It enumerates (arity - 1)-prefixes in lexicographic order and tests the
    last coordinate for all candidates at once.  ``member(prefix, rows,
    same)`` is the mask of candidates c with prefix + (c,) in r, on the graph
    whose adjacency is ``rows`` and whose equal vertices are ``same``.
    Parity relations are symmetric and empty on repeated entries, so sorted
    prefixes suffice and the member mask is the xor of the prefix rows;
    formulas walk ordered prefixes and call the function generated for
    them, which reads the prefix entries' rows once each; type sets walk
    ordered prefixes and read their member types off the prefix's type.
    """
    member = _member_of(r, n)
    k = r.arity - 1
    ascending = isinstance(r, ParityRelation)
    dmask = sum(1 << x for x in dom)

    def least_bad(bad) -> PreservationResult:
        prefixes = combinations(dom, k) if ascending else product(dom, repeat=k)
        checked = 0
        for prefix in prefixes:
            checked += 1
            cand = dmask & ~((2 << prefix[-1]) - 1) if ascending else dmask
            hit = cand and cand & bad(prefix, member)
            if hit:
                return PreservationResult(False, prefix + ((hit & -hit).bit_length() - 1,), checked)
        return PreservationResult(True, None, checked)

    return least_bad


def _scan(r: Relation, rw: _Rewrite) -> PreservationResult:
    """Least tuple over ``rw.dom`` in r on the source whose image is not in
    r on the target.  The target side treats collapsed pairs as equal."""
    n = len(rw.src)
    src_same = [1 << x for x in range(n)]
    dst_same = [1 << x | c for x, c in enumerate(rw.collapsed)]

    def bad(prefix, member):
        return member(prefix, rw.src, src_same) & ~member(prefix, rw.dst, dst_same)

    return _scan_kernel(r, rw.dom, n)(bad)


def preserved_by_map(
    r: Relation, mapping: Mapping[int, int], src: Graph, dst: Graph
) -> PreservationResult:
    """Least tuple t with t in r(src) and mapping(t) not in r(dst), if any.

    Tuples with an entry outside the mapping's domain are skipped.  A tuple
    set walks its sorted member tuples, whose images it must look up.  A map
    that rewrites every tuple's QF type by a composite of the kinds the
    relation's type table is closed under (``_acts_within``) preserves the
    relation on every graph: that verdict reports ``checked == 0``.  Every
    other map goes to the scan kernel.
    """
    for x, y in mapping.items():
        if not 0 <= x < src.n:
            raise ValueError(f"domain vertex {x} out of range")
        if not 0 <= y < dst.n:
            raise ValueError(f"image vertex {y} out of range")
    if isinstance(r, TupleSetRelation):
        checked = 0
        for t in sorted(r.tuples):
            if all(x in mapping for x in t):
                checked += 1
                if tuple(mapping[x] for x in t) not in r.tuples:
                    return PreservationResult(False, t, checked)
        return PreservationResult(True, None, checked)
    return _preserved_under(r, _pullback(mapping, src, dst))


def _preserved_under(r: Relation, rw: _Rewrite) -> PreservationResult:
    # the gate (``_acts_within``), then the scan, for the map pulled back
    # as ``rw``
    facts = r.type_facts
    if facts is not None and _acts_within(rw, facts.closed_under):
        return PreservationResult(True)
    return _scan(r, rw)


def _acts_within(rw: _Rewrite, kinds: frozenset[str]) -> bool:
    # whether the map rewrites every tuple's QF type by a composite of the
    # actions of ``kinds`` (minus, switch, eE, eN, const; the identity always
    # counts).  A collapsing map must go onto one vertex, by const.  An
    # injective map needs a flip form (c, cut) against a base: the source, a
    # clique with eE or an independent set with eN; c = 1 needs minus and a
    # nonempty cut needs switch.  On two vertices the one pair's flip reads
    # as c = 1 as well as the cut that ``_flip_form`` reports
    dom = rw.dom
    if any(rw.collapsed[x] for x in dom):
        dmask = sum(1 << x for x in dom)
        return "const" in kinds and all(rw.collapsed[x] == dmask ^ 1 << x for x in dom)
    if len(dom) == 2 and "minus" in kinds:
        return True
    n = len(rw.src)
    bases = [rw.src]
    if "eE" in kinds:
        full = (1 << n) - 1
        bases.append([full ^ 1 << x for x in range(n)])
    if "eN" in kinds:
        bases.append([0] * n)
    for base in bases:
        form = _flip_form(rw._replace(src=base))
        if form and (not form[0] or "minus" in kinds) and (not form[1] or "switch" in kinds):
            return True
    return False


def invariant_under_complement(r: Relation, g: Graph) -> PreservationResult:
    """Identity-map preservation from g to its complement, both directions;
    the witness of the first failing direction is reported.  A relation
    whose type table is complement-invariant is preserved on every graph:
    that verdict reports ``checked == 0``."""
    return _identity_rewrites(r, g, None)[0]


def invariant_under_switch(r: Relation, g: Graph, v: int) -> PreservationResult:
    """Identity-map preservation between g and switch_graph(g, {v}), both
    directions.

    A QF relation whose type table is switch-invariant is preserved on
    every graph, reported with ``checked == 0``.  Otherwise
    only tuples containing v can change QF type, so the scan is restricted
    to them; the restricted least witness equals the global one.  The scan
    is the switch sweep (``_switch_sweeps``) run for v alone: it walks every
    ordered prefix, or for a parity relation the sorted prefixes that
    contain v or end below it; ``checked`` counts those walked, in both
    directions.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"switch vertex {v} out of range")
    return _identity_rewrites(r, g, (v,))[0]


def _identity_rewrites(r: Relation, g: Graph, at: Sequence[int] | None) -> list[PreservationResult]:
    # the gate: identity-map rewrites keep a QF relation whose table is
    # closed under the kind (minus when ``at`` is None, switch otherwise) on
    # every graph; else the scan
    facts = r.type_facts
    kind = "minus" if at is None else "switch"
    if facts is not None and kind in facts.closed_under:
        return [PreservationResult(True)] * (1 if at is None else len(at))
    return _rewrite_scans(r, g, at)


def _rewrite_scans(r: Relation, g: Graph, at: Sequence[int] | None) -> list[PreservationResult]:
    # the scan: identity-map preservation from g to its complement (``at``
    # None) or to g switched at each v of ``at`` (``_switch_sweeps``), and
    # back; ``checked`` sums both ways
    if at is not None:
        return _switch_sweeps(r, g, at)
    n = g.n
    rows = g.rows
    same = [1 << x for x in range(n)]
    least_bad = _scan_kernel(r, range(n), n)
    other = [g.full_mask ^ row ^ 1 << u for u, row in enumerate(rows)]
    checked = 0
    for a, b in ((rows, other), (other, rows)):
        res = least_bad(lambda prefix, member: member(prefix, a, same) & ~member(prefix, b, same))
        checked += res.checked
        if not res.preserved:
            break
    return [PreservationResult(res.preserved, res.witness, checked)]


def _switch_rank(p: tuple[int, ...], v: int, n: int, ascending: bool) -> int:
    # the rank of prefix p in the scan of the switch at v: among all ordered
    # prefixes over range(n), or for parity (``ascending``) among the sorted
    # ones that hold v or end below it, in lexicographic order
    if not ascending:
        index = 0
        for x in p:
            index = index * n + x
        return index + 1
    # per position, the sorted prefixes that agree with p before it and hold
    # a smaller c there, summed over c in closed form; ``tail`` entries
    # follow c.  Before v's position in p, or everywhere when p ends below v,
    # c < v, and a prefix counts when v is in its tail or its whole tail is
    # below v; after v's position every prefix holds v
    rank, lo, tail, through = 1, 0, len(p), False
    for x in p:
        tail -= 1
        if through:
            rank += comb(n - lo, tail + 1) - comb(n - x, tail + 1)
        else:
            rank += comb(v - lo, tail + 1) - comb(v - x, tail + 1) + comb(n - 1 - lo, tail) - comb(n - 1 - x, tail)
            through = x == v
        lo = x + 1
    return rank


def _switch_sweeps(r: Relation, g: Graph, at: Sequence[int]) -> list[PreservationResult]:
    # identity-map preservation between g and g switched at each v of
    # ``at``, over the tuples through v, in one sweep per direction over the
    # kernel's prefixes.  Per prefix p, one member mask on the host rows and
    # one on p's rows flipped outside p (``pmask``) settle every pending v
    # outside p at once: pairs inside p keep their kind, pairs to v
    # flip, so bit v of the second mask is p + (v,) in g switched at v.  Each
    # pending v inside p takes the prefix rows switched at v.  A direction
    # stops once no vertex is pending, and the vertices the first leaves
    # pending sweep again the other way.  A vertex keeps the least witness
    # of its own scan, and as ``checked`` its hit prefix's ``_switch_rank``,
    # after its first direction's total if the hit came on the way back
    n = g.n
    rows, full = g.rows, g.full_mask
    same = [1 << x for x in range(n)]
    member = _member_of(r, n)
    k = r.arity - 1
    ascending = isinstance(r, ParityRelation)
    found: dict[int, tuple[bool, tuple[int, ...]]] = {}
    pending = 0
    for v in at:
        pending |= 1 << v
    for back in (False, True):
        if not pending:
            break
        for p in combinations(range(n), k) if ascending else product(range(n), repeat=k):
            cand = full ^ ((2 << p[-1]) - 1) if ascending else full
            pmask = 0
            for x in p:
                pmask |= 1 << x
            outside = pending & cand & ~pmask
            inside = pending & pmask if cand else 0
            if not outside | inside:
                continue
            host = member(p, rows, same)
            if outside:
                out = full ^ pmask
                flipped = member(p, {x: rows[x] ^ out for x in p}, same)
                hits = outside & (flipped & ~host if back else host & ~flipped)
                pending ^= hits
                while hits:
                    v = (hits & -hits).bit_length() - 1
                    found[v] = back, p + (v,)
                    hits &= hits - 1
            while inside:
                bit = inside & -inside
                inside ^= bit
                v = bit.bit_length() - 1
                switched = {x: rows[x] ^ bit for x in p}
                switched[v] ^= full
                other = member(p, switched, same)
                hit = cand & (other & ~host if back else host & ~other)
                if hit:
                    found[v] = back, p + ((hit & -hit).bit_length() - 1,)
                    pending ^= bit
            if not pending:
                break
    results = []
    for v in at:
        total = comb(n - 1, k - 1) + comb(v, k) if ascending else n**k
        if v in found:
            back, t = found[v]
            results.append(PreservationResult(False, t, (total if back else 0) + _switch_rank(t[:-1], v, n, ascending)))
        else:
            results.append(PreservationResult(True, None, 2 * total))
    return results


@dataclass(frozen=True)
class EqualityDefinability:
    """Whether membership depends only on the equality pattern of the tuple.

    On a negative answer ``witness`` is (member tuple, non-member tuple) with
    the same pattern, found first in the lexicographic scan; one of the two
    is the least tuple of that pattern.  For an undefinable tuple set the two
    share a QF type, and the member is that type's least member.  ``checked``
    counts the prefixes the scan kernel tested, or 0 when the table decided.
    """

    definable: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    checked: int = 0


def _least_of_pattern(t: tuple[int, ...]) -> tuple[int, ...]:
    # the least tuple with the equality pattern of t: its restricted growth
    # string, read as vertices
    classes = list(dict.fromkeys(t))
    return tuple(classes.index(x) for x in t)


def definable_from_equality(r: Relation, g: Graph) -> EqualityDefinability:
    """Whether membership on g is constant on each equality pattern.  A
    relation whose type table says so is equality-definable on every graph:
    that verdict reports ``checked == 0``."""
    facts = r.type_facts
    if facts is not None and facts.equality_definable:
        return EqualityDefinability(True)
    return _equality_scan(r, g)


def _equality_scan(r: Relation, g: Graph) -> EqualityDefinability:
    # the first tuple whose membership differs from that of the least tuple
    # of its pattern is also the first with an earlier same-pattern tuple of
    # the other membership, and that least tuple is the earliest such one
    n = g.n
    full = g.full_mask
    rows = g.rows
    same = [1 << x for x in range(n)]
    least_member: dict[tuple[int, ...], bool] = {}

    def reference(prefix):
        # candidates c whose least same-pattern tuple is in r
        classes = list(dict.fromkeys(prefix))
        rgs = _least_of_pattern(prefix)
        mask = 0
        for c in range(len(classes) + (len(classes) < n)):
            pattern = rgs + (c,)
            if pattern not in least_member:
                least_member[pattern] = r.holds(pattern, g)
            if least_member[pattern]:
                mask |= 1 << classes[c] if c < len(classes) else full ^ sum(1 << x for x in classes)
        return mask

    def bad(prefix, member):
        return member(prefix, rows, same) ^ reference(prefix)

    res = _scan_kernel(r, range(n), n)(bad)
    if res.preserved:
        return EqualityDefinability(True, None, res.checked)
    t = res.witness
    least = _least_of_pattern(t)
    pair = (t, least) if r.holds(t, g) else (least, t)
    return EqualityDefinability(False, pair, res.checked)


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
        (arity,) = map(int, lines[0].split()[1:])
    except ValueError:
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
        text = Path(path).read_text(encoding="ascii") if read_file is None else read_file(path)
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
