"""Seeded random matrices and finite towers for the tests, built on the
group and map generators of ``tauthom.randomgen``."""

from tauthom.limits import Tower
from tauthom.matrices import IntMatrix
from tauthom.randomgen import random_finite_group, random_group_map


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(rows, cols,
                     [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def diagonal_matrix(entries):
    """The square diagonal matrix with ``entries`` on its diagonal."""
    n = len(entries)
    return IntMatrix(n, n, [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)])


def random_finite_tower(rng, stages=3, max_gens=2, max_order=12, tail=False):
    groups = [random_finite_group(rng, max_gens, max_order) for _ in range(rng.randint(1, stages))]
    maps = [random_group_map(rng, groups[k + 1], groups[k]) for k in range(len(groups) - 1)]
    endo = random_group_map(rng, groups[-1], groups[-1]) if tail else None
    return Tower(tuple(groups), tuple(maps), endo)
