"""Seeded random generators for groups, maps, complexes and telescopes.

Random free cochain complexes are assembled from elementary pieces
(Z --d--> Z blocks plus free summands) and then disguised by elementary
unimodular basis changes, so each sample comes with its exact integral
cohomology for use as an independent oracle. Basis changes that would push
an entry past the requested bound are rolled back, keeping entries small.
"""

from __future__ import annotations

import random

from .complexes import FreeComplex
from .groups import GroupMap, PresentedGroup
from .limits import Telescope
from .matrices import IntMatrix


def random_group(rng, max_gens=3, max_order=16, allow_free=True):
    orders = []
    for _ in range(rng.randint(0, max_gens)):
        if allow_free and rng.random() < 0.3:
            orders.append(0)
        else:
            orders.append(rng.randint(2, max_order))
    return PresentedGroup.from_orders(orders)


def random_finite_group(rng, max_gens=3, max_order=16):
    return random_group(rng, max_gens, max_order, allow_free=False)


def random_group_map(rng, source, target, bound=3):
    """A uniformly scattered well-defined homomorphism source -> target."""
    from math import gcd
    data = []
    for ei in target.orders:
        row = []
        for dj in source.orders:
            if dj == 0 and ei == 0:
                row.append(rng.randint(-bound, bound))
            elif dj == 0:
                row.append(rng.randint(0, ei - 1))
            elif ei == 0:
                row.append(0)
            else:
                step = ei // gcd(dj, ei)
                row.append(step * rng.randint(0, gcd(dj, ei) - 1))
        data.append(row)
    return GroupMap(source, target, IntMatrix(target.n_gens, source.n_gens, data))


def random_free_cochain_complex(rng, max_rank=5, max_entry=5, max_degrees=4):
    """A random bounded free cochain complex with known cohomology.

    Returns (complex, {degree: PresentedGroup}) where the groups are the
    exact integral cohomology, known by construction.
    """
    n_deg = rng.randint(2, max_degrees)
    ranks = [rng.randint(0, max_rank) for _ in range(n_deg)]
    # roles[n][k] is None (free), ("src", d) or "tgt"
    roles = [[None] * r for r in ranks]
    diffs = {}
    for n in range(n_deg - 1):
        free_src = [k for k in range(ranks[n]) if roles[n][k] is None]
        free_tgt = [k for k in range(ranks[n + 1]) if roles[n + 1][k] is None]
        rng.shuffle(free_src)
        rng.shuffle(free_tgt)
        blocks = rng.randint(0, min(len(free_src), len(free_tgt)))
        mat = [[0] * ranks[n] for _ in range(ranks[n + 1])]
        for b in range(blocks):
            s, t = free_src[b], free_tgt[b]
            d = rng.randint(1, max_entry)
            roles[n][s] = ("src", d)
            roles[n + 1][t] = "tgt-%d" % d
            mat[t][s] = d
        diffs[n] = IntMatrix(ranks[n + 1], ranks[n], mat)

    cohomology = {}
    for n in range(n_deg):
        free = sum(1 for role in roles[n] if role is None)
        torsion = sorted(int(str(role).split("-")[1]) for role in roles[n]
                         if isinstance(role, str) and role.startswith("tgt"))
        cohomology[n] = PresentedGroup.from_orders([0] * free + [d for d in torsion if d >= 2])

    # disguise with elementary unimodular basis changes, rolling back blowups
    work = {n: [list(row) for row in diffs[n].data] for n in diffs}
    total = sum(ranks)
    for _ in range(3 * total):
        n = rng.randrange(n_deg)
        r = ranks[n]
        if r < 2:
            continue
        i, j = rng.sample(range(r), 2)
        if rng.random() < 0.3:
            # swap basis vectors i and j of degree n
            if n - 1 in work:
                m = work[n - 1]
                m[i], m[j] = m[j], m[i]
            if n in work:
                for row in work[n]:
                    row[i], row[j] = row[j], row[i]
            continue
        q = rng.choice((-2, -1, 1, 2))
        touched = []
        if n - 1 in work:
            m = work[n - 1]
            m[j] = [a - q * b for a, b in zip(m[j], m[i])]
            touched.append(("row", n - 1, j, i, q))
        if n in work:
            m = work[n]
            for row in m:
                row[i] += q * row[j]
            touched.append(("col", n, i, j, q))
        bound_ok = all(abs(x) <= max_entry for key in work for row in work[key] for x in row)
        if not bound_ok:
            for kind, key, a, b, qq in touched:
                m = work[key]
                if kind == "row":
                    m[a] = [u + qq * v for u, v in zip(m[a], m[b])]
                else:
                    for row in m:
                        row[a] -= qq * row[b]

    complex_ = FreeComplex("cochain", 0, n_deg - 1, ranks,
                           {n: IntMatrix(ranks[n + 1], ranks[n], work[n]) for n in work})
    return complex_, cohomology


def random_finite_telescope(rng, stages=3, max_gens=2, max_order=12):
    groups = [random_finite_group(rng, max_gens, max_order) for _ in range(rng.randint(1, stages))]
    maps = [random_group_map(rng, groups[k], groups[k + 1]) for k in range(len(groups) - 1)]
    return Telescope(tuple(groups), tuple(maps))


def seeded(seed):
    return random.Random(seed)
