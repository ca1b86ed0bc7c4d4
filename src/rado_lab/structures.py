"""Partitioned and constant graphs, their translation, and copy search
respecting the extra structure.

``iter_structure_maps`` is the one search for maps between structures:
parts become per-vertex candidate masks of ``iter_embedding_maps``, and a
constant graph is searched through its associated partition, where each
constant is a one-vertex part.  It is the only place that dispatches on the
structure kind."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .graphs import (
    Embedding,
    Graph,
    GraphFormatError,
    _adjacency_cells,
    _parse_header,
    iter_embedding_maps,
    parse_graph,
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
    g = cg.graph
    cells = _adjacency_cells(g, cg.constants[::-1])  # constant 0 sets the top bit of a cell's index
    parts = [frozenset({c}) for c in cg.constants]
    parts.extend(frozenset(v for v in range(g.n) if cell >> v & 1) for cell in cells)
    return PartitionedGraph(g, tuple(parts))


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
    respect their extra structure: part i of ``as_partitioned(small)`` goes
    into part i of ``as_partitioned(big)``.  For constant graphs the first
    parts are the constants, one vertex each, so constant i goes to constant
    i; the pattern parts add nothing, since such a map keeps every vertex's
    adjacency to the constants.  ``allowed`` and ``order`` pass through.

    Both structures must be of one kind, with as many parts or constants;
    otherwise ``ValueError`` is raised at the call.
    """
    return _structure_search(small, big, allowed=allowed, order=order)[3]


def _structure_search(
    small: Structure,
    big: Structure,
    *,
    allowed: int | None,
    order: Iterable[tuple[int, int]] = (),
) -> tuple[tuple[Iterable[int], ...], Graph, Graph, Iterator[tuple[int, ...]]]:
    # the parts of as_partitioned(small), the two graphs searched and the
    # maps of iter_structure_maps, so a caller needs no second translation
    kind, host_kind = _KIND_NAMES.get(type(small)), _KIND_NAMES.get(type(big))
    if kind is None or host_kind is None:
        unsupported = type(small if kind is None else big).__name__
        raise TypeError(f"unsupported structure type {unsupported}")
    if kind != host_kind:
        raise ValueError(f"structure kind mismatch: pattern is a {kind}, host is a {host_kind}")
    if isinstance(small, Graph):
        maps = iter_embedding_maps(small, big, allowed=allowed, order=order)
        return (range(small.n),), small, big, maps
    if isinstance(small, ConstantGraph) and len(small.constants) != len(big.constants):
        raise ValueError(
            f"constant count mismatch: pattern has {len(small.constants)}, "
            f"host has {len(big.constants)}"
        )
    small, big = as_partitioned(small), as_partitioned(big)
    if len(small.parts) != len(big.parts):
        raise ValueError(
            f"part count mismatch: pattern has {len(small.parts)}, "
            f"host has {len(big.parts)}"
        )
    per_vertex = {}
    for part, host_part in zip(small.parts, big.parts):
        per_vertex.update(dict.fromkeys(part, sum(1 << h for h in host_part)))
    maps = iter_embedding_maps(small.graph, big.graph, per_vertex=per_vertex, allowed=allowed, order=order)
    return small.parts, small.graph, big.graph, maps


def find_part_embeddings(
    pattern: PartitionedGraph, host: PartitionedGraph, limit: int
) -> list[Embedding]:
    """Embeddings sending part i of the pattern into part i of the host,
    lexicographic, up to ``limit``."""
    return _structure_embeddings(pattern, host, limit)


def find_const_embeddings(
    pattern: ConstantGraph, host: ConstantGraph, limit: int
) -> list[Embedding]:
    """Embeddings sending constant i to constant i, lexicographic, up to
    ``limit``."""
    return _structure_embeddings(pattern, host, limit)


def _structure_embeddings(pattern: Structure, host: Structure, limit: int) -> list[Embedding]:
    if limit < 1:
        raise ValueError("limit must be at least 1")
    maps = islice(iter_structure_maps(pattern, host), limit)
    return [Embedding(pattern.graph, host.graph, mapping) for mapping in maps]


# ---------------------------------------------------------------------------
# text format: graph lines followed by "part <i>: ..." or "const: ..." lines


def parse_structure(text: str) -> Structure:
    """Parse the extended text format.

    Plain graphs, graphs with ``part i: ...`` lines, and graphs with a single
    ``const: ...`` line are recognized; mixing part and const lines is
    rejected.
    """
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("empty input")
    _parse_header(lines[0], 1)
    # part and const lines are blanked, not dropped, so the graph reader
    # numbers every line as the input does
    graph_lines = list(lines)
    part_lines: list[tuple[int, str]] = []
    const_line: tuple[int, str] | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("part "):
            part_lines.append((lineno, line))
        elif line.startswith("const:"):
            if const_line is not None:
                raise GraphFormatError(f"line {lineno}: duplicate const line")
            const_line = (lineno, line)
        else:
            continue
        graph_lines[lineno - 1] = ""
    g = parse_graph("\n".join(graph_lines) + "\n")
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
