"""Finitely generated abelian groups in invariant-factor normal form,
together with homomorphisms, kernels/images/cokernels, and the Hom and Ext
functors with explicit (contravariant) functorial action.

A group is always reported as Z^r (+) Z/d1 (+) ... (+) Z/dk with
2 <= d1 | d2 | ... | dk. Generators are ordered free part first, then
torsion generators in ascending order of their annihilators, and a
homomorphism is an integer matrix in those generators whose column j gives
the image of the j-th source generator. Entries in torsion target rows are
kept reduced modulo the row's annihilator, so equal maps compare equal.

>>> normalize(IntMatrix.from_rows([[2, 0], [0, 0]])).describe()
'Z + Z/2'
>>> HomGroup(PresentedGroup(0, (4,)), PresentedGroup(0, (6,))).group.describe()
'Z/2'
>>> ExtGroup(PresentedGroup(0, (4,)), PresentedGroup(0, (6,))).group.describe()
'Z/2'
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, prod
from operator import add

from .matrices import (IntMatrix, _SparseMatrix, _xgcd, hermite_form, hstack, kernel_basis,
                       smith_normal_form, solve_columns)


class IllFormedMap(ValueError):
    """The matrix does not define a homomorphism between the given groups."""


class GroupParseError(ValueError):
    """Text does not match the group grammar; ``position`` points at the offender."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@dataclass(frozen=True)
class PresentedGroup:
    """A finitely generated abelian group in invariant-factor form. The free
    rank and the torsion coefficients must be ints; anything else, bools
    and floats included, raises ValueError rather than being coerced."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if type(self.free_rank) is not int:
            raise ValueError("free rank must be an integer, got %r" % (self.free_rank,))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        prev = None
        for d in self.torsion:
            if type(d) is not int:
                raise ValueError("torsion coefficients must be integers, got %r" % (d,))
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("torsion coefficients must form a divisor chain")
            prev = d

    # -- basic structure -------------------------------------------------

    @property
    def n_gens(self):
        return self.free_rank + len(self.torsion)

    @property
    def orders(self):
        """Annihilator of each generator; 0 marks an infinite-order generator."""
        return (0,) * self.free_rank + self.torsion

    @property
    def is_trivial(self):
        return self.n_gens == 0

    def cardinality(self):
        """Number of elements, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def relation_matrix(self):
        """n_gens x len(torsion); column i is d_i times the i-th torsion generator."""
        return _relations_for_orders(self.orders)

    def reduce(self, vec):
        """Canonical representative of an element given in generator
        coordinates, which must be ints like every other group datum."""
        vec = tuple(vec)
        for x in vec:
            if type(x) is not int:
                raise ValueError("element coordinates must be integers, got %r" % (x,))
        if len(vec) != self.n_gens:
            raise ValueError("element has %d coordinates, expected %d" % (len(vec), self.n_gens))
        return tuple(x % d if d else x for x, d in zip(vec, self.orders))

    def zero(self):
        return (0,) * self.n_gens

    def elements(self):
        """Iterate all elements (finite groups only)."""
        if self.free_rank:
            raise ValueError("infinite group")
        return itertools.product(*[range(d) for d in self.torsion])

    # -- construction ----------------------------------------------------

    @classmethod
    def from_orders(cls, orders):
        """Normal form of a direct sum of cyclic groups Z/d (d=0 meaning Z):
        each zero is a free summand, and the one gcd/lcm sweep ``_sweep``
        turns the sorted nonzero orders into the invariant factors."""
        orders = list(orders)
        for d in orders:
            if type(d) is not int:
                raise ValueError("cyclic orders must be integers, got %r" % (d,))
            if d < 0:
                raise ValueError("cyclic orders must be nonnegative")
        chain = sorted(d for d in orders if d)
        for _ in _sweep(chain):
            pass
        return cls(len(orders) - len(chain), tuple(d for d in chain if d != 1))

    def direct_sum(self, *others):
        return PresentedGroup.from_orders(sum((g.orders for g in others), self.orders))

    # -- reporting -------------------------------------------------------

    def describe(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()

    def to_json(self):
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            return parse_group(obj)
        free, torsion = obj["free"], list(obj["torsion"])
        if type(free) is not int or free < 0:
            raise ValueError("group field 'free' must be a nonnegative integer, got %r" % (free,))
        if any(type(d) is not int or d < 1 for d in torsion):
            raise ValueError("group field 'torsion' must list integers >= 1, got %r" % (torsion,))
        return PresentedGroup.from_orders([0] * free + torsion)


def _sweep(chain):
    """The gcd/lcm pass over ``chain``, sorted nonzero cyclic orders, in
    place: each entry is swept against every later one, (a, b) -> (gcd,
    lcm) whenever a does not divide b, and each such step is yielded as
    (i, j, a, b) before it is made. The 1s left in ``chain`` are trivial.

    Proof: after pass i, a_i divides every later entry, so the result is a divisor chain;
    each step sends the p-exponents (e, f) to (min, max), so the prime-power multiset stays.
    """
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            b = chain[j]
            if b % a:
                yield i, j, a, b
                g = gcd(a, b)
                chain[j] = a // g * b
                a = g
        chain[i] = a


def parse_group(text):
    """Parse 'Z', 'Z/6', 'Z^2 + Z/2 + Z/4', or '0' into normal form.

    Summands may appear in any order and need not satisfy the divisor-chain
    condition; the result is normalized, e.g. 'Z/6 + Z/4' -> Z/2 + Z/12.

    >>> parse_group('Z/6 + Z/4').describe()
    'Z/2 + Z/12'
    """
    orders = []
    pos = 0
    stripped = text.strip()
    if stripped == "0":
        return PresentedGroup(0, ())
    if stripped == "":
        raise GroupParseError("empty group expression", 0)
    chunks = []
    for chunk in text.split("+"):
        # a sign right after ^ or / belongs to that summand's number
        if chunks and chunks[-1].rstrip().endswith(("^", "/")):
            chunks[-1] += "+" + chunk
        else:
            chunks.append(chunk)
    for chunk in chunks:
        term = chunk.strip()
        offset = pos + (len(chunk) - len(chunk.lstrip()))
        body = term[2:]
        # only ASCII digits: str.isdigit also accepts superscripts such as '²'
        digits = body.isascii() and body.isdigit()
        if term == "Z":
            orders.append(0)
        elif term.startswith("Z^"):
            if not digits:
                raise GroupParseError("bad free rank %r" % term, offset)
            orders.extend([0] * int(body))
        elif term.startswith("Z/"):
            if not digits or int(body) < 1:
                raise GroupParseError("bad cyclic order %r" % term, offset)
            orders.append(int(body))
        else:
            raise GroupParseError("expected Z, Z^r or Z/d, got %r" % term, offset)
        pos += len(chunk) + 1
    return PresentedGroup.from_orders(orders)


def _cokernel(form):
    """(group, lifts, proj) of Z^p modulo the columns of the matrix whose
    verified Smith form U M V == D is ``form``: the coordinates with d_i = 0
    (free) come first, then those with d_i >= 2 (torsion), and those with
    d_i = 1 drop out. ``lifts`` are the matching columns of U^-1, the
    canonical generators, and ``proj`` the matching rows of U, the
    coordinate map (unreduced; ``GroupMap`` reduces its rows)."""
    p, diag = form.u.rows, form.diagonal
    orders = [diag[i] if i < len(diag) else 0 for i in range(p)]
    kept = [i for i in range(p) if orders[i] == 0] + [i for i in range(p) if orders[i] >= 2]
    group = PresentedGroup(orders.count(0), tuple(orders[i] for i in kept if orders[i]))
    lifts = IntMatrix._trusted(p, len(kept), tuple(tuple(row[i] for i in kept)
                                                   for row in form.uinv.data))
    return group, lifts, IntMatrix._trusted(len(kept), p, tuple(form.u.data[i] for i in kept))


class Subquotient:
    """(column span of numerator) / (column span of denominator) inside Z^n.

    This is the engine behind kernels, images and homology; a plain
    cokernel, whose numerator is all of Z^n, is read by ``_cokernel``
    straight off a Smith form. It keeps the Hermite form of the numerator
    and reads the Smith form of the denominator's coordinates in it, enough
    to convert both ways between ambient coordinates and canonical
    generator coordinates:

    - ``group``       the quotient in invariant-factor form,
    - ``lifts``       ambient representatives of the canonical generators,
    - ``coords_matrix(m)`` canonical coordinates of each column of ``m``
      (every column must lie in the numerator lattice).
    """

    __slots__ = ("ambient_dim", "group", "lifts", "_hf", "_proj")

    def __init__(self, numerator, denominator):
        if numerator.rows != denominator.rows:
            raise ValueError("numerator and denominator live in different ambient ranks")
        self.ambient_dim = numerator.rows
        self._hf = hermite_form(numerator)
        inside = self._hf.solve(denominator)
        if inside is None:
            raise ValueError("denominator lattice is not contained in the numerator lattice")
        self.group, lifts, self._proj = _cokernel(smith_normal_form(inside))
        self.lifts = self._hf.h * lifts

    def coords_matrix(self, mat):
        """Canonical coordinates of each column of ``mat``."""
        t = self._hf.solve(mat)
        if t is None:
            raise ValueError("vector lies outside the numerator lattice")
        raw = self._proj * t
        return IntMatrix._trusted(self.group.n_gens, mat.cols,
                                  _reduce_rows(raw.data, self.group.orders))


class CyclicSum:
    """Z/o_1 (+) ... (+) Z/o_k (o_i = 0: Z) in normal form, in closed form.

    The sweep ``_sweep`` with explicit coordinates: the zeros move to the
    front as free generators in their order, the orders above 1 are stably
    sorted and swept, and each step (a, b) -> (gcd, lcm) with s*a + t*b = g
    is the unimodular change of coordinates proj [[s, t], [-b/g, a/g]],
    whose inverse [[a/g, -t], [b/g, s]] gives the new generators. Orders of
    1 (and gcds of 1) are trivial summands and drop out. Like a Subquotient
    of Z^k by the relations o_i e_i it has

    - ``group``  the normal form,
    - ``lifts``  k x n_gens, the canonical generators in the summands,
    - ``proj``   n_gens x k, the coordinate map, its rows reduced modulo
      the orders of ``group``,
    - ``coords_matrix(m)`` canonical coordinates of each column of ``m``.

    Verified when built: proj * diag(o) == 0 and proj * lifts == I modulo
    the orders of ``group``, so proj is a well-defined surjection from the
    sum onto ``group``; and the free rank of ``group`` is the number of
    zero orders and its torsion orders multiply to the product of the
    nonzero o. Then proj is an isomorphism with inverse ``lifts``, with no
    second computation of the group: a surjection Z^r (+) T -> Z^r (+) T'
    has a kernel K of rank 0, so K lies in T and T/K = T', and |T| = |T'|
    gives K = 0. The library builds one instance per order tuple per
    process (``_cyclic_sum``), and a memo hit returns the instance verified
    when it was built; the constructor itself is not memoised.
    """

    __slots__ = ("orders", "group", "lifts", "proj")

    def __init__(self, orders):
        orders = self.orders = tuple(orders)
        free = [i for i, d in enumerate(orders) if d == 0]
        idx = sorted((i for i, d in enumerate(orders) if d > 1), key=orders.__getitem__)
        mods = tuple(orders[i] for i in idx)
        chain, t = list(mods), len(mods)
        # proj rows (reduced modulo their order) and lifts (modulo ``mods``)
        # on the sorted summands; the identity until the first step
        proj = lifts = None
        for i, j, a, b in _sweep(chain):
            if proj is None:
                proj = [[int(r == c) for c in range(t)] for r in range(t)]
                lifts = [row[:] for row in proj]
            g, s, u = _xgcd(a, b)
            ag, bg = a // g, b // g
            pi, pj, li, lj = proj[i], proj[j], lifts[i], lifts[j]
            proj[i] = [(s * x + u * y) % g for x, y in zip(pi, pj)]
            proj[j] = [(ag * y - bg * x) % (ag * b) for x, y in zip(pi, pj)]
            lifts[i] = [(ag * x + bg * y) % d for x, y, d in zip(li, lj, mods)]
            lifts[j] = [(s * y - u * x) % d for x, y, d in zip(li, lj, mods)]
        kept = [r for r, d in enumerate(chain) if d > 1]
        k, n = len(orders), len(free) + len(kept)
        P, L = [[0] * k for _ in range(n)], [[0] * n for _ in orders]
        for r, i in enumerate(free if proj else free + idx):
            P[r][i] = L[i][r] = 1
        if proj:
            for r, c in enumerate(kept, len(free)):
                for i, x, y in zip(idx, proj[c], lifts[c]):
                    P[r][i], L[i][r] = x, y
        self.group = PresentedGroup(len(free), tuple(chain[r] for r in kept))
        self.lifts = IntMatrix._trusted(k, n, tuple(map(tuple, L)))
        self.proj = IntMatrix._trusted(n, k, tuple(map(tuple, P)))
        if (self.group.free_rank != orders.count(0)
                or prod(self.group.torsion) != prod(d for d in orders if d)
                or not self._identities_hold()):
            raise AssertionError("cyclic normal form of %r failed its identities" % (orders,))

    def _identities_hold(self):
        """proj * lifts == I and proj * diag(o) == 0 modulo the orders of
        ``group``, row by row over the nonzeros of proj."""
        orders, lifts, gorders = self.orders, self.lifts.data, self.group.orders
        coords = range(len(orders))
        for r, (row, e) in enumerate(zip(self.proj.data, gorders)):
            acc = [0] * len(gorders)
            acc[r] = -1
            for i in itertools.compress(coords, row):
                x, d = row[i], orders[i]
                if x * d % e if e else d:
                    return False
                acc = list(map(add, acc, map(x.__mul__, lifts[i])))
            if any(map(e.__rmod__, acc)) if e else any(acc):
                return False
        return True

    def coords_matrix(self, mat):
        """Canonical coordinates of each column of ``mat``, a matrix in the
        summands' coordinates."""
        raw = self.proj * mat
        return IntMatrix._trusted(self.group.n_gens, mat.cols,
                                  _reduce_rows(raw.data, self.group.orders))


@functools.lru_cache(maxsize=4096)
def _cyclic_sum(orders):
    """CyclicSum(orders), verified when first built and then shared;
    ``orders`` is an int tuple built inside the library, never raw input
    (a key (True,) would hit the entry of (1,) and skip the type checks).
    No caller may mutate the instance it gets."""
    return CyclicSum(orders)


def normalize(presentation):
    """Normal form of the abelian group with one generator per column of
    ``presentation`` and one relation per row.

    >>> normalize(IntMatrix.from_rows([[6, 4], [0, 2]])).describe()
    'Z/2 + Z/6'
    >>> normalize(IntMatrix(0, 3, [])).describe()
    'Z^3'
    """
    return _cokernel(smith_normal_form(presentation.transpose()))[0]


class GroupMap:
    """Homomorphism between presented groups as an integer generator matrix.

    Column j is the image of the j-th source generator. Construction checks
    well-definedness (d_j times column j must die in the target) and
    reduces entries modulo the target's torsion annihilators.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.rows != target.n_gens or matrix.cols != source.n_gens:
            raise IllFormedMap("matrix is %dx%d but the groups need %dx%d"
                               % (matrix.rows, matrix.cols, target.n_gens, source.n_gens))
        tgt_orders = target.orders
        canon = IntMatrix._trusted(matrix.rows, matrix.cols,
                                   _reduce_rows(matrix.data, tgt_orders))
        for j, dj in enumerate(source.orders):
            if dj == 0:
                continue
            for i, ei in enumerate(tgt_orders):
                v = dj * canon.data[i][j]
                if (v if ei == 0 else v % ei) != 0:
                    raise IllFormedMap(
                        "column %d: order-%d generator maps to an element not killed by %d"
                        % (j, dj, dj))
        self.source = source
        self.target = target
        self.matrix = canon

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.n_gens))

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, IntMatrix.zeros(target.n_gens, source.n_gens))

    def __call__(self, vec):
        return self.target.reduce(self.matrix.apply(self.source.reduce(vec)))

    def __matmul__(self, other):
        """Composition self after other."""
        if other.target != self.source:
            raise IllFormedMap("composition mismatch: %s vs %s" % (other.target, self.source))
        return GroupMap(other.source, self.target, self.matrix * other.matrix)

    def __eq__(self, other):
        return (isinstance(other, GroupMap) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return "GroupMap(%s -> %s, %r)" % (self.source, self.target, self.matrix)

    @property
    def is_zero(self):
        return self.matrix.is_zero()

    @property
    def is_identity(self):
        return self.source == self.target and self.matrix.is_identity()


# -- kernels, images, cokernels ------------------------------------------


def _reduce_rows(data, orders):
    """Rows of ``data`` with row i reduced modulo orders[i] (0: left alone)."""
    return tuple(tuple(x % d for x in row) if d else row for row, d in zip(data, orders))


def _relations_for_orders(orders):
    """One column d * e_i per nonzero order d = orders[i]."""
    zero = (0,) * sum(1 for d in orders if d)
    data, k = [], 0
    for d in orders:
        if d:
            row = list(zero)
            row[k] = d
            data.append(tuple(row))
            k += 1
        else:
            data.append(zero)
    return IntMatrix._trusted(len(orders), len(zero), tuple(data))


def _preimage(matrix, lattice):
    """Generators of {x in Z^cols : matrix*x in the column span of ``lattice``}."""
    kb = kernel_basis(hstack(matrix, lattice))
    return IntMatrix._trusted(matrix.cols, kb.cols, kb.data[:matrix.cols])


def kernel_lattice(matrix, target_orders):
    """Generators of {x in Z^cols : matrix*x == 0 modulo the target relations}."""
    return _preimage(matrix, _relations_for_orders(tuple(target_orders)))


def kernel(f):
    """Kernel subgroup of a GroupMap: (group, inclusion into the source)."""
    lat = kernel_lattice(f.matrix, f.target.orders)
    sq = Subquotient(lat, f.source.relation_matrix())
    return sq.group, GroupMap(sq.group, f.source, sq.lifts)


def image(f):
    """Image subgroup: (group, inclusion into the target)."""
    rel = f.target.relation_matrix()
    sq = Subquotient(hstack(f.matrix, rel), rel)
    return sq.group, GroupMap(sq.group, f.target, sq.lifts)


def cokernel(f):
    """Cokernel quotient: (group, projection from the target)."""
    group, _, proj = _cokernel(smith_normal_form(hstack(f.matrix, f.target.relation_matrix())))
    return group, GroupMap(f.target, group, proj)


def inverse(f):
    """Inverse GroupMap of an isomorphism, or None when f is not one.

    When f is an isomorphism, every solution of f o g = 1 lifts its inverse
    and so is well defined; a solution that is not, as for a surjection
    with a nonzero kernel, shows that f is not invertible."""
    n, m = f.target.n_gens, f.source.n_gens
    sol = solve_columns(hstack(f.matrix, f.target.relation_matrix()), IntMatrix.identity(n))
    if sol is None:
        return None
    try:
        g = GroupMap(f.target, f.source, IntMatrix._trusted(m, n, sol.data[:m]))
    except IllFormedMap:
        return None
    if not (f @ g).is_identity or not (g @ f).is_identity:
        return None
    return g


# -- Hom and Ext -----------------------------------------------------------
#
# A map A -> G, G on m generators, is flattened block-major: entry (i, j) of
# its matrix is coordinate j*m + i, so block j is the image of A's j-th
# generator. Precomposition with f: B -> A is then one integral matrix.


def _precompose(mat, m):
    """mat^T (x) I_m as a dense matrix: phi |-> phi o mat on flattened maps
    into a group on m generators (``mat`` dense or sparse). Row j*m + g of
    the result holds column j of a dense ``mat`` at the offsets g, g+m, ..."""
    if isinstance(mat, _SparseMatrix):
        return mat.transpose().blockwise(m).dense()
    t = mat.transpose()
    if m == 1:
        return t
    width, data = mat.rows * m, []
    for col in t.data:
        for g in range(m):
            row = [0] * width
            row[g::m] = col
            data.append(tuple(row))
    return IntMatrix._trusted(mat.cols * m, width, tuple(data))


class HomGroup:
    """Hom(A, G) for presented groups, with explicit conversions between
    canonical coordinates and actual homomorphisms.

    The generator pairs are (source generator j, coefficient generator i);
    the component at such a pair is cyclic of order gcd(d_j, e_i) generated
    by the map sending the j-th generator to c = e_i/gcd times the i-th
    (Hatcher, *Algebraic Topology*, 3.1). ``_cyclic`` is the closed-form
    normal form of the sum of those cyclic groups (a CyclicSum, no lattice
    work) and ``group`` is its group; ``_maps``, built on first use, holds
    the flattened maps of its canonical generators, one per column.
    ``coords_of`` reads coordinates back off flattened maps.

    The library builds one instance per (A, G) pair per process
    (``_functor``); the constructor itself is not memoised.
    """

    __slots__ = ("source", "coefficients", "pairs", "group", "_cyclic", "_flat")

    def __init__(self, source, coefficients):
        self.source = source
        self.coefficients = coefficients
        pairs = []
        for j, dj in enumerate(source.orders):
            for i, ei in enumerate(coefficients.orders):
                if dj == 0:
                    pairs.append((j, i, 1, ei))
                elif ei == 0:
                    continue
                else:
                    g = gcd(dj, ei)
                    if g > 1:
                        pairs.append((j, i, ei // g, g))
        self.pairs = tuple(pairs)
        self._cyclic = _cyclic_sum(tuple(p[3] for p in pairs))
        self.group = self._cyclic.group
        self._flat = None

    @property
    def _maps(self):
        if self._flat is None:
            m, k = self.coefficients.n_gens, self.group.n_gens
            # a lift is reduced modulo its pair's order gcd(d_j, e_i), so c times
            # it is reduced modulo e_i
            rows = [(0,) * k] * (self.source.n_gens * m)
            for (j, i, c, _), lift in zip(self.pairs, self._cyclic.lifts.data):
                rows[j * m + i] = tuple(c * x for x in lift)
            self._flat = IntMatrix._trusted(len(rows), k, tuple(rows))
        return self._flat

    def coords_of(self, flat):
        """Canonical coordinates of each column of ``flat``, a flattened map
        source -> coefficients. Raises IllFormedMap unless every column is a
        homomorphism: reduced modulo G, its entries off the pairs vanish and
        the one at pair (j, i, c, _) is a multiple of c, i.e. d_j times each
        entry dies in G, the condition GroupMap checks."""
        m = self.coefficients.n_gens
        if flat.rows != self.source.n_gens * m:
            raise IllFormedMap("flattened map has %d rows, expected %d"
                               % (flat.rows, self.source.n_gens * m))
        scale = {j * m + i: c for j, i, c, _ in self.pairs}
        t = []
        for r, row in enumerate(_reduce_rows(flat.data, self.coefficients.orders
                                             * self.source.n_gens)):
            c = scale.get(r)
            if any(x % c for x in row) if c else any(row):
                raise IllFormedMap("entry (%d,%d) is not killed by the order %d of its "
                                   "source generator" % (r % m, r // m, self.source.orders[r // m]))
            if c:
                t.append(tuple(x // c for x in row))
        return self._cyclic.coords_matrix(IntMatrix._trusted(len(t), flat.cols, tuple(t)))

    def to_map(self, coords):
        """The homomorphism source -> coefficients at canonical coordinates."""
        flat, m = self._maps.apply(self.group.reduce(coords)), self.coefficients.n_gens
        return GroupMap(self.source, self.coefficients, IntMatrix._trusted(
            m, self.source.n_gens, tuple(flat[i::m] for i in range(m))))

    def from_map(self, f):
        """Canonical coordinates of a homomorphism source -> coefficients."""
        if f.source != self.source or f.target != self.coefficients:
            raise IllFormedMap("map does not belong to this Hom group")
        flat = tuple((x,) for col in f.matrix.transpose().data for x in col)
        return self.coords_of(IntMatrix._trusted(len(flat), 1, flat)).column(0)

    def pullback(self, f, dest):
        """Contravariant action: f: B -> A induces Hom(A,G) -> Hom(B,G).

        ``self`` must be Hom(A,G) and ``dest`` Hom(B,G) over the same G.
        """
        if f.target != self.source or dest.source != f.source \
                or dest.coefficients != self.coefficients:
            raise IllFormedMap("pullback groups do not line up")
        push = _precompose(f.matrix, self.coefficients.n_gens)
        return GroupMap(self.group, dest.group, dest.coords_of(push * self._maps))


class ExtGroup:
    """Ext(A, G) in closed form: the direct sum of Z/gcd(d, e) over the
    torsion coefficients d of A and the orders e of G's generators, where a
    free summand of G (e = 0) contributes Z/d (Weibel, *An Introduction to
    Homological Algebra*, 3.3).

    Its elements are G-tuples indexed by the torsion relations of A: the
    cokernel of Hom(Z^n, G) --(R transposed)--> Hom(Z^t, G) for the free
    resolution 0 -> Z^t --R--> Z^n -> A -> 0. With A in normal form, R
    sends the k-th basis vector to d_k times the k-th torsion generator, so
    the cokernel is Z^(t*m) modulo d_k and e_g at coordinate k*m + g: the
    CyclicSum of the gcds above, ``_cyclic``, whose group is ``group``.
    ``pullback`` gives the contravariant action by lifting a map of groups
    to a map of resolutions.

    The library builds one instance per (A, G) pair per process
    (``_functor``); the constructor itself is not memoised.
    """

    __slots__ = ("source", "coefficients", "group", "_cyclic")

    def __init__(self, source, coefficients):
        self.source = source
        self.coefficients = coefficients
        self._cyclic = _cyclic_sum(tuple(gcd(d, e) for d in source.torsion
                                         for e in coefficients.orders))
        self.group = self._cyclic.group

    def pullback(self, f, dest):
        """Contravariant action: f: B -> A induces Ext(A,G) -> Ext(B,G).

        f lifts to the resolutions as the L with R_A L = f R_B. R_A sends e_k
        to d_k times A's k-th torsion generator and has full column rank, so
        L is unique: f R_B must vanish on A's free rows, and L's row k is its
        k-th torsion row divided by d_k, exactly."""
        if f.target != self.source or dest.source != f.source \
                or dest.coefficients != self.coefficients:
            raise IllFormedMap("pullback groups do not line up")
        image = f.matrix * f.source.relation_matrix()         # n_A x t_B
        free, torsion = self.source.free_rank, self.source.torsion
        if any(map(any, image.data[:free])) or any(
                x % d for d, row in zip(torsion, image.data[free:]) for x in row):
            raise AssertionError("resolution lift must exist for a well-defined map")
        lifted = IntMatrix._trusted(len(torsion), image.cols, tuple(   # t_A x t_B
            tuple(x // d for x in row) for d, row in zip(torsion, image.data[free:])))
        push = _precompose(lifted, self.coefficients.n_gens)  # (t_B*m) x (t_A*m)
        return GroupMap(self.group, dest.group,
                        dest._cyclic.coords_matrix(push * self._cyclic.lifts))


@functools.lru_cache(maxsize=4096)
def _functor(kind, source, coefficients):
    """kind(source, coefficients) for kind HomGroup or ExtGroup, built once
    per pair and then shared; the key is two validated PresentedGroups.
    Its lazily built generators are the only state a caller may fill in."""
    return kind(source, coefficients)
