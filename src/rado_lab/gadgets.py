"""Finite function gadgets: maps from a vertex subset of a source graph into a
target graph.

These are the finite stand-ins for operations on one infinite structure; the
central representational choice of the package is that source and target may
be different finite graphs, with the map tracking which graph each side lives
in.  Labeled gadgets verify their defining property at construction and can
never exist in a violating state.

That check also proves the map's pullback rows (``_rewrite``, built once per
gadget and read by ``violates``, canonicity and the interpolation gate):
identity and switch keep the destination rows inside the domain, eE makes
every domain pair an edge and eN none, const collapses every pair, and minus
keeps the rows its check walked.  A custom map walks them on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations

from .graphs import (
    Graph,
    PairKind,
    complete_graph,
    complement_graph,
    empty_graph,
    iter_embedding_maps,
    pair_kind,
    switch_graph,
)
from .relations import (
    PreservationResult,
    Relation,
    TupleSetRelation,
    _preserved_under,
    _pullback,
    _Rewrite,
    identity_flip_form,
    preserved_by_map,
)


class GadgetConstructionError(ValueError):
    """Raised when a labeled gadget's defining property fails, naming the
    deficit."""


class PairColor(Enum):
    COLLAPSED = "collapsed"
    EDGE = "edge"
    NONEDGE = "nonedge"


NAMED_KINDS = ("identity", "minus", "eE", "eN", "const", "switch")
_LABELS = NAMED_KINDS + ("custom",)


@dataclass(frozen=True)
class FunctionGadget:
    src: Graph
    dst: Graph
    mapping: tuple[tuple[int, int], ...]  # (domain vertex, image), sorted
    label: str = "custom"
    _lookup: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.label not in _LABELS:
            raise GadgetConstructionError(f"unknown label {self.label!r}")
        pairs = tuple(sorted(self.mapping))
        object.__setattr__(self, "mapping", pairs)
        lookup = {}
        for x, y in pairs:
            if not 0 <= x < self.src.n:
                raise GadgetConstructionError(f"domain vertex {x} out of range")
            if not 0 <= y < self.dst.n:
                raise GadgetConstructionError(f"image vertex {y} out of range")
            if x in lookup:
                raise GadgetConstructionError(f"duplicate domain vertex {x}")
            lookup[x] = y
        object.__setattr__(self, "_lookup", lookup)
        self._check_label()

    @property
    def dom(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.mapping)

    def dom_mask(self) -> int:
        m = 0
        for x in self.dom:
            m |= 1 << x
        return m

    def apply(self, v: int) -> int:
        try:
            return self._lookup[v]
        except KeyError:
            raise KeyError(f"vertex {v} not in gadget domain") from None

    def as_mapping(self) -> dict[int, int]:
        return dict(self.mapping)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted({y for _, y in self.mapping}))

    @cached_property
    def _rewrite(self) -> _Rewrite:
        # the map's pullback (``relations._pullback``), built once from the
        # rows its label proves; the minus check keeps the rows it walked
        label = self.label
        if label in ("custom", "minus"):
            return _pullback(self._lookup, self.src, self.dst)
        dom, dmask, n = self.dom, self.dom_mask(), self.src.n
        pulled, collapsed = [0] * n, [0] * n
        for x in dom:
            if label in ("identity", "switch"):
                pulled[x] = self.dst.row(x) & dmask
            elif label == "eE":
                pulled[x] = dmask ^ 1 << x
            elif label == "const":
                collapsed[x] = dmask ^ 1 << x
        return _Rewrite(dom, self.src.rows, pulled, collapsed)

    def _check_label(self) -> None:
        label = self.label
        if label == "custom":
            return
        if label == "identity":
            if self.dst != self.src:
                raise GadgetConstructionError("identity gadget must map a graph to itself")
            for x, y in self.mapping:
                if x != y:
                    raise GadgetConstructionError(f"identity gadget moves {x} to {y}")
            return
        if label == "const":
            values = {y for _, y in self.mapping}
            if len(values) > 1:
                raise GadgetConstructionError(
                    f"const gadget has {len(values)} distinct image vertices"
                )
            return
        # edge booleans, not pair kinds: the kinds only name a failing pair
        src_edge, dst_edge = self.src.has_edge, self.dst.has_edge
        if label in ("eE", "eN"):
            want = label == "eE"
            # the rows decide: the map is injective when its image has as many
            # bits as it has points, and then each image row must cover (eE)
            # or miss (eN) the other images.  Only a failure walks the pairs,
            # to name the least failing one
            image = 0
            for _, y in self.mapping:
                image |= 1 << y
            dst_row = self.dst.row
            if image.bit_count() == len(self.mapping) and all(
                (dst_row(y) | 1 << y) & image == image if want else not dst_row(y) & image
                for _, y in self.mapping
            ):
                return
            for (x1, y1), (x2, y2) in combinations(self.mapping, 2):
                if y1 == y2 or dst_edge(y1, y2) != want:
                    need = PairKind.EDGE if want else PairKind.NONEDGE
                    raise GadgetConstructionError(
                        f"{label} gadget images of ({x1}, {x2}) form a "
                        f"{pair_kind(self.dst, y1, y2).value} pair, need {need.value}"
                    )
            return
        if label == "minus":
            # the pulled rows decide: the map is injective when no domain
            # vertex has a collapsed partner, and then each pulled row must
            # be the source row's complement inside the domain.  Only a
            # failure walks the pairs, to name the least failing one
            rw = _pullback(self._lookup, self.src, self.dst)
            dmask = self.dom_mask()
            if not any(rw.collapsed) and all(
                (rw.src[x] ^ rw.dst[x]) & dmask == dmask ^ 1 << x for x in rw.dom
            ):
                self.__dict__["_rewrite"] = rw
                return
            for (x1, y1), (x2, y2) in combinations(self.mapping, 2):
                if y1 == y2 or src_edge(x1, x2) == dst_edge(y1, y2):
                    raise GadgetConstructionError(
                        f"minus gadget maps the {pair_kind(self.src, x1, x2).value} pair "
                        f"({x1}, {x2}) to a {pair_kind(self.dst, y1, y2).value} pair"
                    )
            return
        # switch: identity vertex map, dst equal to src switched at some cut,
        # which is a flip form of the whole vertex set with c = 0
        for x, y in self.mapping:
            if x != y:
                raise GadgetConstructionError("switch gadget must be the identity vertex map")
        if self.dst.n != self.src.n:
            raise GadgetConstructionError("switch gadget endpoints differ in size")
        form = identity_flip_form(self.src, self.dst)
        if form is None or form[0]:
            raise GadgetConstructionError("destination graph is not a switching of the source graph")


def make_named(kind: str, src: Graph, **params) -> FunctionGadget:
    """Construct a named gadget on ``src``; construction fails loudly when the
    requested behavior is unsatisfiable.

    Accepted parameters per kind:
      identity: dom
      minus:    dom, dst (complement of src), witness (self-complementing
                permutation; then dst is src)
      eE / eN:  dom, dst (defaults to a complete / empty graph of |dom|
                vertices); images are the least clique / independent set
      const:    dom, target, dst (defaults to src)
      switch:   dom, s (nonempty cut)
    """
    if kind not in NAMED_KINDS:
        raise GadgetConstructionError(f"unknown gadget kind {kind!r}")
    dom = tuple(sorted(params.pop("dom", range(src.n))))
    if kind == "identity":
        _no_extra(params)
        return FunctionGadget(src, src, tuple((x, x) for x in dom), "identity")
    if kind == "minus":
        witness = params.pop("witness", None)
        dst = params.pop("dst", None)
        _no_extra(params)
        if witness is not None:
            if dst is not None and dst != src:
                raise GadgetConstructionError(
                    "a witness permutation keeps the destination equal to the source"
                )
            if len(witness) != src.n:
                raise GadgetConstructionError(
                    f"a witness permutation has {len(witness)} entries, the source has {src.n} vertices"
                )
            return FunctionGadget(
                src, src, tuple((x, witness[x]) for x in dom), "minus"
            )
        if dst is None:
            dst = complement_graph(src)
        elif dst != complement_graph(src):
            raise GadgetConstructionError(
                "minus gadget needs dst equal to the complement of src"
            )
        return FunctionGadget(src, dst, tuple((x, x) for x in dom), "minus")
    if kind in ("eE", "eN"):
        dst = params.pop("dst", None)
        _no_extra(params)
        size = len(dom)
        shape = complete_graph(size) if kind == "eE" else empty_graph(size)
        if dst is None:
            dst = shape
        try:
            target_tuple = next(iter_embedding_maps(shape, dst))
        except StopIteration:
            noun = "clique" if kind == "eE" else "independent set"
            raise GadgetConstructionError(
                f"destination graph has no {noun} of size {size}"
            ) from None
        return FunctionGadget(src, dst, tuple(zip(dom, target_tuple)), kind)
    if kind == "const":
        dst = params.pop("dst", src)
        if "target" not in params:
            raise GadgetConstructionError("const gadget needs a target vertex")
        target = params.pop("target")
        _no_extra(params)
        if not 0 <= target < dst.n:
            raise GadgetConstructionError(f"target vertex {target} out of range")
        return FunctionGadget(src, dst, tuple((x, target) for x in dom), "const")
    # switch
    if "s" not in params:
        raise GadgetConstructionError("switch gadget needs a cut s")
    s = frozenset(params.pop("s"))
    _no_extra(params)
    if not s:
        raise GadgetConstructionError("switch gadget needs a nonempty cut")
    dst = switch_graph(src, s)
    return FunctionGadget(src, dst, tuple((x, x) for x in dom), "switch")


def _no_extra(params: dict) -> None:
    if params:
        raise GadgetConstructionError(f"unexpected parameters: {sorted(params)}")


def compose(g2: FunctionGadget, g1: FunctionGadget) -> FunctionGadget:
    """Pointwise composition g2 after g1, defined on dom(g1)."""
    if g1.dst != g2.src:
        raise GadgetConstructionError(
            "intermediate graphs do not match: dst of the first gadget must "
            "equal src of the second"
        )
    dom2 = set(g2.dom)
    missing = [y for _, y in g1.mapping if y not in dom2]
    if missing:
        raise GadgetConstructionError(
            f"image vertices {sorted(set(missing))} are outside the second "
            f"gadget's domain"
        )
    return FunctionGadget(
        g1.src,
        g2.dst,
        tuple((x, g2.apply(y)) for x, y in g1.mapping),
        "custom",
    )


def pair_color(f: FunctionGadget, x: int, y: int) -> PairColor:
    if x == y:
        raise ValueError("pair_color needs two distinct vertices")
    fx, fy = f.apply(x), f.apply(y)
    if fx == fy:
        return PairColor.COLLAPSED
    return PairColor.EDGE if f.dst.has_edge(fx, fy) else PairColor.NONEDGE


def violates(f: FunctionGadget, r: Relation) -> PreservationResult:
    """Preservation of ``r`` under the gadget map, restricted to its domain;
    least witness.  It reads the gadget's pullback rows, built once per
    gadget; a tuple set walks its members through the map."""
    if isinstance(r, TupleSetRelation):
        return preserved_by_map(r, f.as_mapping(), f.src, f.dst)
    return _preserved_under(r, f._rewrite)


# ---------------------------------------------------------------------------
# text format: header lines naming the src/dst graph files, then map lines


def format_gadget(f: FunctionGadget, src_name: str, dst_name: str) -> str:
    lines = [f"src {src_name}", f"dst {dst_name}", f"label {f.label}"]
    lines.extend(f"{x} -> {y}" for x, y in f.mapping)
    return "\n".join(lines) + "\n"


def parse_gadget(text: str, read_graph) -> FunctionGadget:
    """Parse the gadget format; ``read_graph(name)`` loads the named graphs.

    Validation of the label property happens in the constructor, so a gadget
    file claiming e.g. ``label minus`` for a non-flipping map is rejected.
    """
    named = {}  # src, dst and label, each named once
    mapping = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head in ("src", "dst", "label") and rest:
            if head in named:
                raise GadgetConstructionError(f"line {lineno}: duplicate {head} line")
            named[head] = rest.strip() if head == "label" else read_graph(rest.strip())
        elif "->" in line:
            left, _, right = line.partition("->")
            try:
                mapping.append((int(left.strip()), int(right.strip())))
            except ValueError:
                raise GadgetConstructionError(
                    f"line {lineno}: malformed map line {line!r}"
                ) from None
        else:
            raise GadgetConstructionError(f"line {lineno}: unrecognized line {line!r}")
    if "src" not in named or "dst" not in named:
        raise GadgetConstructionError("gadget file must name src and dst graphs")
    return FunctionGadget(named["src"], named["dst"], tuple(mapping), named.get("label", "custom"))
