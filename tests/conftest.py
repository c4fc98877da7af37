import random
from itertools import combinations

import pytest

from canonlab.errors import PosetFormatError
from canonlab.linext import DyckPath
from canonlab.poset import Poset, transitive_reduction


def vee_poset() -> Poset:
    """One minimum under two incomparable maxima."""
    return Poset(3, frozenset({(0, 1), (0, 2)}))


def wedge_poset() -> Poset:
    """Two incomparable minima under one maximum."""
    return Poset(3, frozenset({(0, 2), (1, 2)}))


def random_poset(rng: random.Random, max_elements: int = 5) -> Poset:
    """A random small poset: random DAG on a shuffled ground set, reduced
    to its covers."""
    n = rng.randint(1, max_elements)
    order = list(range(n))
    rng.shuffle(order)
    relations = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                relations.add((order[i], order[j]))
    return Poset(n, transitive_reduction(n, relations))


def all_posets(n: int) -> list[Poset]:
    """Every poset on n labeled elements, by filtering cover-set candidates."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for r in range(len(pairs) + 1):
        for subset in combinations(pairs, r):
            try:
                out.append(Poset(n, frozenset(subset)))
            except PosetFormatError:
                continue
    return out


def dyck_paths(n: int) -> list[DyckPath]:
    """Every Dyck path of semilength n, by brute force: each placement of
    n east steps among 2n steps that ``DyckPath`` accepts."""
    out = []
    for east in combinations(range(2 * n), n):
        steps = ["n"] * (2 * n)
        for i in east:
            steps[i] = "e"
        try:
            out.append(DyckPath("".join(steps)))
        except ValueError:
            continue
    return out


def random_labeling(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
