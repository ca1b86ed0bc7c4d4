import random
from itertools import combinations

import pytest

from rado_lab import Graph, build_ec, build_paley


@pytest.fixture(scope="session")
def paley13():
    return build_paley(13)


@pytest.fixture(scope="session")
def paley29():
    return build_paley(29)


@pytest.fixture(scope="session")
def ec3_host():
    return build_ec(3, seed=0)


def random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
    )


def relabelled(g: Graph, seed: int) -> Graph:
    """``g`` with its vertices shuffled by a seeded permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def all_raw_graphs(n: int):
    """Every labelled graph on n vertices (not up to isomorphism)."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[b] for b in range(len(pairs)) if code >> b & 1]
        )
