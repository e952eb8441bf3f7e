"""Independent arithmetic for checking tauthom's answers.

Nothing here imports tauthom. Finitely generated abelian groups are held in
primary form: ``(free_rank, prime_powers)`` with the prime powers sorted,
so two groups are isomorphic exactly when their forms are equal. Hom, Ext,
tensor and Tor are applied summand by summand from their values on cyclic
groups.
"""

from math import gcd


def factor(n):
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def cyclic_sum(orders):
    """Primary form of the direct sum of Z/d over ``orders`` (d == 0 means Z,
    d == 1 the trivial group)."""
    free = 0
    powers = []
    for d in orders:
        d = abs(int(d))
        if d == 0:
            free += 1
        else:
            powers.extend(p ** e for p, e in factor(d).items())
    return free, tuple(sorted(powers))


def group(free=0, torsion=()):
    return cyclic_sum([0] * free + list(torsion))


TRIVIAL = group()
Z = group(1)


def direct_sum(*groups):
    return (sum(g[0] for g in groups),
            tuple(sorted(p for g in groups for p in g[1])))


def _prime(q):
    return next(iter(factor(q)))


def _cyclic_pair(a, b):
    """Z/gcd of two prime powers of the same prime, else the trivial group."""
    return cyclic_sum([gcd(a, b)]) if _prime(a) == _prime(b) else TRIVIAL


def tensor(g, h):
    (a, s), (b, t) = g, h
    parts = [group(a * b)] + [(0, s)] * b + [(0, t)] * a
    parts += [_cyclic_pair(x, y) for x in s for y in t]
    return direct_sum(*parts)


def tor(g, h):
    return direct_sum(TRIVIAL, *[_cyclic_pair(x, y) for x in g[1] for y in h[1]])


def hom(g, h):
    """Hom(g, h): Z^a contributes h^a; a finite summand maps only into the
    torsion of h with the same prime."""
    (a, s), (_, t) = g, h
    return direct_sum(TRIVIAL, *([h] * a), *[_cyclic_pair(x, y) for x in s for y in t])


def ext(g, h):
    """Ext(g, h): free summands contribute nothing; Ext(Z/q, Z) = Z/q and
    Ext(Z/q, Z/r) = Z/gcd(q, r)."""
    (_, s), (b, t) = g, h
    parts = [(0, s)] * b + [_cyclic_pair(x, y) for x in s for y in t]
    return direct_sum(TRIVIAL, *parts)


def parse(text):
    """Primary form of a description such as '0', 'Z^2 + Z/4 + Z/6'."""
    text = text.strip()
    if text == "0":
        return TRIVIAL
    orders = []
    for term in text.split("+"):
        term = term.strip()
        if term == "Z":
            orders.append(0)
        elif term.startswith("Z^"):
            orders.extend([0] * int(term[2:]))
        elif term.startswith("Z/"):
            orders.append(int(term[2:]))
        else:
            raise ValueError("unrecognised group term %r" % term)
    return cyclic_sum(orders)


def of_presented(g):
    """Primary form of an object with ``free_rank`` and ``torsion``."""
    return group(g.free_rank, g.torsion)


def coefficient_homology(integral, coeffs, top):
    """H_n(X; G) = H_n (x) G + Tor(H_{n-1}, G) for n in 0..top, from the
    integral homology ``integral`` (degree -> primary form)."""
    out = {}
    for n in range(top + 1):
        out[n] = direct_sum(tensor(integral.get(n, TRIVIAL), coeffs),
                            tor(integral.get(n - 1, TRIVIAL), coeffs))
    return out


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def determinant(rows):
    """Exact determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def is_divisor_chain(ds):
    return all(d > 0 for d in ds) and all(b % a == 0 for a, b in zip(ds, ds[1:]))


def coprime_part(m, a):
    """Largest divisor of m sharing no prime with a (gcd(0, m) = m)."""
    g = gcd(a, m)
    while g > 1:
        m //= g
        g = gcd(a, m)
    return m
