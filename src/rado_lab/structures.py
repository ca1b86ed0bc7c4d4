"""Partitioned and constant graphs, their translation, and copy search
respecting the extra structure.

``iter_structure_maps`` is the one search for maps between structures:
parts become per-vertex candidate masks and constants become pinned
vertices of ``iter_embedding_maps``.  It is the only place that dispatches on
the structure kind."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .graphs import (
    Embedding,
    Graph,
    GraphFormatError,
    _parse_header,
    format_graph,
    iter_embedding_maps,
)


@dataclass(frozen=True)
class PartitionedGraph:
    """Graph plus an ordered partition of its vertex set.

    Parts are pairwise disjoint, cover every vertex, and may be empty.
    """

    graph: Graph
    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen = 0
        for i, part in enumerate(self.parts):
            for v in part:
                if not 0 <= v < self.graph.n:
                    raise ValueError(f"part {i} contains out-of-range vertex {v}")
                if seen >> v & 1:
                    raise ValueError(f"vertex {v} appears in two parts")
                seen |= 1 << v
        if seen != self.graph.full_mask:
            raise ValueError("parts do not cover the vertex set")

    def part_of(self, v: int) -> int:
        for i, part in enumerate(self.parts):
            if v in part:
                return i
        raise KeyError(v)


@dataclass(frozen=True)
class ConstantGraph:
    """Graph with an ordered tuple of distinct distinguished vertices."""

    graph: Graph
    constants: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.constants)) != len(self.constants):
            raise ValueError("constants must be pairwise distinct")
        for c in self.constants:
            if not 0 <= c < self.graph.n:
                raise ValueError(f"constant {c} out of range")


def associate_partitioned(cg: ConstantGraph) -> PartitionedGraph:
    """The n + 2^n part translation of an n-constant graph.

    First one singleton per constant, in constant order.  Then one part per
    adjacency pattern toward the constants; the pattern is read as a binary
    number with constant 0 as the most significant bit and edge = 1, and the
    pattern parts are listed from the all-adjacent pattern downward.  Empty
    pattern parts are retained so indexing by pattern is stable.
    """
    n = len(cg.constants)
    const_set = set(cg.constants)
    buckets: dict[int, set[int]] = {p: set() for p in range(2**n)}
    for v in range(cg.graph.n):
        if v in const_set:
            continue
        p = 0
        for i, c in enumerate(cg.constants):
            if cg.graph.has_edge(v, c):
                p |= 1 << (n - 1 - i)
        buckets[p].add(v)
    parts = [frozenset({c}) for c in cg.constants]
    parts.extend(frozenset(buckets[p]) for p in range(2**n - 1, -1, -1))
    return PartitionedGraph(cg.graph, tuple(parts))


Structure = Graph | PartitionedGraph | ConstantGraph

_KIND_NAMES = {
    Graph: "plain graph",
    PartitionedGraph: "partitioned graph",
    ConstantGraph: "constant graph",
}


def as_partitioned(s: Structure) -> PartitionedGraph:
    """``s`` as a partitioned graph: a plain graph as a single part, a
    partitioned graph as itself, a constant graph as its n + 2^n associated
    partition.  An embedding of structures of one kind maps each part into
    the same part of the host's translation."""
    if isinstance(s, Graph):
        return PartitionedGraph(s, (frozenset(range(s.n)),))
    if isinstance(s, ConstantGraph):
        return associate_partitioned(s)
    return s


def iter_structure_maps(
    small: Structure,
    big: Structure,
    *,
    allowed: int | None = None,
    order: Iterable[tuple[int, int]] = (),
) -> Iterator[tuple[int, ...]]:
    """The maps of ``iter_embedding_maps`` from ``small`` into ``big`` that
    respect their extra structure: part i of a partitioned pattern goes into
    part i of the host, constant i of a constant pattern to constant i of the
    host.  ``allowed`` and ``order`` pass through.

    Both structures must be of one kind, with as many parts or constants;
    otherwise ``ValueError`` is raised at the call.
    """
    kind, host_kind = _KIND_NAMES.get(type(small)), _KIND_NAMES.get(type(big))
    if kind is None or host_kind is None:
        unsupported = type(small if kind is None else big).__name__
        raise TypeError(f"unsupported structure type {unsupported}")
    if kind != host_kind:
        raise ValueError(f"structure kind mismatch: pattern is a {kind}, host is a {host_kind}")
    search = {"allowed": allowed, "order": order}
    if isinstance(small, Graph):
        return iter_embedding_maps(small, big, **search)
    if isinstance(small, PartitionedGraph):
        if len(small.parts) != len(big.parts):
            raise ValueError(
                f"part count mismatch: pattern has {len(small.parts)}, "
                f"host has {len(big.parts)}"
            )
        per_vertex = {}
        for part, host_part in zip(small.parts, big.parts):
            mask = 0
            for h in host_part:
                mask |= 1 << h
            for v in part:
                per_vertex[v] = mask
        return iter_embedding_maps(small.graph, big.graph, per_vertex=per_vertex, **search)
    if len(small.constants) != len(big.constants):
        raise ValueError(
            f"constant count mismatch: pattern has {len(small.constants)}, "
            f"host has {len(big.constants)}"
        )
    fixed = dict(zip(small.constants, big.constants))
    return iter_embedding_maps(small.graph, big.graph, fixed=fixed, **search)


def find_part_embeddings(
    pattern: PartitionedGraph, host: PartitionedGraph, limit: int
) -> list[Embedding]:
    """Embeddings sending part i of the pattern into part i of the host,
    lexicographic, up to ``limit``."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    out = []
    for mapping in islice(iter_structure_maps(pattern, host), limit):
        emb = Embedding(pattern.graph, host.graph, mapping)
        assert emb.verify()
        for v in range(pattern.graph.n):
            assert mapping[v] in host.parts[pattern.part_of(v)]
        out.append(emb)
    return out


def find_const_embeddings(
    pattern: ConstantGraph, host: ConstantGraph, limit: int
) -> list[Embedding]:
    """Embeddings sending constant i to constant i, lexicographic, up to
    ``limit``."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    out = []
    for mapping in islice(iter_structure_maps(pattern, host), limit):
        emb = Embedding(pattern.graph, host.graph, mapping)
        assert emb.verify()
        for pc, hc in zip(pattern.constants, host.constants):
            assert mapping[pc] == hc
        out.append(emb)
    return out


# ---------------------------------------------------------------------------
# text format: graph lines followed by "part <i>: ..." or "const: ..." lines


def format_partitioned(pg: PartitionedGraph) -> str:
    lines = [format_graph(pg.graph).rstrip("\n")]
    for i, part in enumerate(pg.parts):
        members = " ".join(str(v) for v in sorted(part))
        lines.append(f"part {i}: {members}".rstrip())
    return "\n".join(lines) + "\n"


def format_constant(cg: ConstantGraph) -> str:
    lines = [format_graph(cg.graph).rstrip("\n")]
    lines.append("const: " + " ".join(str(c) for c in cg.constants))
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> Structure:
    """Parse the extended text format.

    Plain graphs, graphs with ``part i: ...`` lines, and graphs with a single
    ``const: ...`` line are recognized; mixing part and const lines is
    rejected.
    """
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("empty input")
    n = _parse_header(lines[0], 1)
    graph_lines = [lines[0]]
    part_lines: list[tuple[int, str]] = []
    const_line: tuple[int, str] | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("part "):
            part_lines.append((lineno, line))
        elif line.startswith("const:"):
            if const_line is not None:
                raise GraphFormatError(f"line {lineno}: duplicate const line")
            const_line = (lineno, line)
        else:
            graph_lines.append(line)
    from .graphs import parse_graph

    g = parse_graph("\n".join(graph_lines) + "\n")
    assert g.n == n
    if part_lines and const_line:
        raise GraphFormatError("cannot mix part and const lines")
    if const_line is not None:
        lineno, line = const_line
        body = line[len("const:"):].split()
        try:
            constants = tuple(int(x) for x in body)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: constants must be integers") from None
        try:
            return ConstantGraph(g, constants)
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    if part_lines:
        indexed: dict[int, frozenset[int]] = {}
        for lineno, line in part_lines:
            head, _, body = line.partition(":")
            bits = head.split()
            if len(bits) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'part <i>: ...'")
            try:
                idx = int(bits[1])
                members = frozenset(int(x) for x in body.split())
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed part line") from None
            if idx in indexed:
                raise GraphFormatError(f"line {lineno}: duplicate part index {idx}")
            indexed[idx] = members
        if sorted(indexed) != list(range(len(indexed))):
            raise GraphFormatError("part indices must be 0..m-1")
        try:
            return PartitionedGraph(g, tuple(indexed[i] for i in range(len(indexed))))
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
    return g
