"""Bounded free (co)chain complexes over Z, their homology, coefficient
complexes Hom(C, G), and machine-checked universal-coefficient
certificates. Differentials stay sparse columns up to ``homology_groups``;
dense IntMatrix views are built on demand (``FreeComplex.diff``).

Every group-only homology computation (``homology``, ``homology_all`` and
``homology_groups``) first unit-reduces the complex: isomorphism components
between coordinates of equal order are split off by Gaussian elimination,
so the Hermite and Smith work runs on what is left, or on nothing where
the reduced differentials vanish (always over a field; ``homology_groups``).

A certificate for degree n packages the short exact sequence

    0 -> Ext(H^{n+1}(C), G) -> H_n(Hom(C, G)) -> Hom(H^n(C), G) -> 0

as three explicit GroupMaps: injection i, surjection e and splitting s.
The middle group comes from the integral splitting C^n = Z^n + S^n of the
proof of the theorem (Hatcher, *Algebraic Topology*, Thm 3.2): the
cocycles z_n and a section s_n of d^n onto the coboundaries B^{n+1}, with
[p; dB] [z_n | s_n] = I verified for the left inverse p of z_n and d^n in
the basis of B^{n+1}. In that basis the coboundaries of C are blocks of
the inclusions B^n -> Z^n, so H_n(Hom(C, G)) is Hom(H^n, G) plus the Ext
term, and no lattice of Hom(C^n, G) is built. Before the certificate is
returned the maps are verified by the biproduct identities (Mac Lane,
*Categories for the Working Mathematician*, VIII.2): e∘i = 0 and e∘s = 1, a
retraction r solved from i∘r = 1 - s∘e modulo the middle group's
relations, and r∘i = 1. These make the sequence split exact. The Ext term
is built from the cocycle/coboundary resolution and compared with its
closed form, a sum of cyclic groups (``ExtGroup.group``); a disagreement
raises instead of returning.

The integral lattice work of a certificate (cocycle and coboundary bases,
cohomology, d^n in the coboundary basis, the resolution inclusion, the left
inverse of the cocycle basis, the projection onto the cocycles and the
verified section) does not depend on G. It is memoised on the FreeComplex,
so certificates over several coefficient groups share it; every check that
involves G still runs for each certificate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .groups import (ExtGroup, GroupMap, HomGroup, IllFormedMap, PresentedGroup,
                     Subquotient, _precompose, _relations_for_orders, kernel_lattice)
from .matrices import (IntMatrix, _json_degrees, _json_object, _SparseMatrix,
                       column_basis, hermite_form, hstack, kernel_basis, solve_columns)


class DegreeOutOfRange(ValueError):
    """Requested degree lies outside the complex's declared range."""


class NotFree(ValueError):
    """A differential does not match the declared ranks."""


class CertificateFailure(AssertionError):
    """An exactness or splitting identity failed while building a
    certificate; valid inputs can never trigger this."""


def homology_groups(mats, orders):
    """Homology of a bounded chain complex of finitely generated groups.

    ``orders[n]`` lists the order of each degree-n coordinate (0: a free
    coordinate), so degree n is the sum of the cyclic groups Z/orders[n][i];
    ``mats[n]`` is the differential from degree n to degree n-1 (sparse or
    dense), an absent one being zero. Returns {n: H_n} for every n in ``orders``.

    Before any lattice work the complex is unit-reduced: an entry e of a
    differential D_n between coordinates b -> a of the same order d that is a
    unit modulo d (+-1 when d == 0) is an isomorphism <b> -> <a>, and by
    Gaussian elimination (Bar-Natan, Lemma 4.2) the complex is homotopy
    equivalent to the one without b and a, where D_n becomes its Schur
    complement beta - gamma e^-1 delta (torsion rows reduced modulo their
    order), D_{n+1} loses row b and D_{n-1} loses column a. Pivots are taken
    degree by degree, the column with the fewest nonzeros first, then among
    its candidate rows the one with the fewest nonzeros (ties by index).
    Eliminating in D_n only deletes entries of D_{n-1} and D_{n+1}, so one
    pass in ascending degree leaves no unit pivot. Each group is then
    Subquotient(kernel_lattice(D_n), [D_{n+1} | relations]) on what is left,
    except where the reduced D_n and D_{n+1} are both zero: then ker D_n is
    all of degree n and im D_{n+1} = 0, so H_n is the sum of the Z/d of the
    coordinates left. Over a field Z/p every nonzero entry is a unit modulo
    p, none survives the reduction, and every degree takes this closed form.
    """
    ords = {n: tuple(o) for n, o in orders.items()}
    cols, rows = {}, {}
    for n, mat in mats.items():
        mat = _SparseMatrix.of(mat)
        src, tgt = ords.get(n, ()), ords.get(n - 1, ())
        if (mat.rows, mat.cols) != (len(tgt), len(src)):
            raise ValueError("differential at degree %d is %dx%d, expected %dx%d"
                             % (n, mat.rows, mat.cols, len(tgt), len(src)))
        C = cols[n] = {b: {} for b in range(mat.cols)}
        R = rows[n] = {a: {} for a in range(mat.rows)}
        for b, col in mat.columns.items():
            for a, x in col.items():
                x = x % tgt[a] if tgt[a] else x
                if x:
                    C[b][a] = R[a][b] = x

    def drop(lines, crossing, n, k):
        if n in lines:
            for other in lines[n].pop(k):
                del crossing[n][other][k]

    for n in sorted(cols):
        C, R = cols[n], rows[n]
        src, tgt = ords.get(n, ()), ords.get(n - 1, ())
        heap = [(len(col), b) for b, col in C.items() if col]
        heapq.heapify(heap)
        while heap:
            k, b = heapq.heappop(heap)
            col = C.get(b)
            if col is None or len(col) != k:
                continue
            d = src[b]
            found = [(len(R[a]), a) for a, x in col.items()  # x generates Z/d (Z if d == 0)
                     if tgt[a] == d and (gcd(x, d) == 1 if d else x in (1, -1))]
            if not found:
                continue
            a = min(found)[1]
            gamma, delta = C.pop(b), R.pop(a)
            e = gamma.pop(a)
            del delta[b]
            inv = e if d == 0 else pow(e, -1, d)
            for i in gamma:
                del R[i][b]
            for j, x in delta.items():
                Cj = C[j]
                del Cj[a]
                f = inv * x
                for i, y in gamma.items():
                    o = tgt[i]
                    z = Cj.get(i, 0) - y * f
                    if o:
                        z %= o
                    if z:
                        Cj[i] = R[i][j] = z
                    elif i in Cj:
                        del Cj[i], R[i][j]
                heapq.heappush(heap, (len(Cj), j))
            drop(rows, cols, n + 1, b)
            drop(cols, rows, n - 1, a)

    # the coordinates left in degree n index the columns of D_n and the rows of D_{n+1}
    kept = {n: sorted(cols[n] if n in cols else rows.get(n + 1, range(len(o))))
            for n, o in ords.items()}

    def reduced(n):
        src, tgt, C = kept.get(n, []), kept.get(n - 1, []), cols.get(n)
        return IntMatrix._trusted(len(tgt), len(src), tuple(
            tuple(C[b].get(a, 0) if C else 0 for b in src) for a in tgt))

    def left(n):
        o = ords.get(n, ())
        return tuple(o[i] for i in kept.get(n, ()))

    live = {n for n, C in cols.items() if any(C.values())}  # reduced D_n is nonzero
    return {n: PresentedGroup.from_orders(left(n)) if not live & {n, n + 1} else
            Subquotient(kernel_lattice(reduced(n), left(n - 1)),
                        hstack(reduced(n + 1), _relations_for_orders(left(n)))).group
            for n in sorted(ords)}


class FreeComplex:
    """A bounded complex of finitely generated free abelian groups.

    ``direction`` is "chain" (differential lowers degree; ``diffs[n]`` maps
    degree n to n-1) or "cochain" (raises degree; ``diffs[n]`` maps degree
    n to n+1). ``diffs`` holds the nonzero ones, sparse, checked to compose to
    zero; ``diff(n)`` builds a dense view once. Degrees and ranks must be ints.
    ``_integral`` keeps the integral lattice data of UCT certificates, which
    does not depend on the coefficient group (``UctSuite``)."""

    __slots__ = ("direction", "lo", "hi", "ranks", "diffs", "_dense", "_integral")

    def __init__(self, direction, lo, hi, ranks, diffs):
        if direction not in ("chain", "cochain"):
            raise ValueError("direction must be 'chain' or 'cochain'")
        ranks = tuple(ranks)
        for what, x in (("lo", lo), ("hi", hi)) + tuple(("ranks", r) for r in ranks):
            if type(x) is not int:
                raise ValueError("complex field '%s' must hold integers, got %r" % (what, x))
        if hi < lo:
            raise ValueError("empty degree range")
        if len(ranks) != hi - lo + 1 or any(r < 0 for r in ranks):
            raise ValueError("ranks must list one nonnegative rank per degree")
        self.direction, self.lo, self.hi, self.ranks = direction, lo, hi, ranks
        self.diffs, self._dense, self._integral = {}, {}, {}
        for n, mat in diffs.items():
            if type(n) is not int:
                raise ValueError("differential degrees must be integers, got %r" % (n,))
            if not isinstance(mat, (IntMatrix, _SparseMatrix)):
                mat = IntMatrix.from_json(mat)
            src, tgt = self.rank(n), self.rank(n - 1 if direction == "chain" else n + 1)
            if mat.rows != tgt or mat.cols != src:
                raise NotFree("differential at degree %d is %dx%d, expected %dx%d"
                              % (n, mat.rows, mat.cols, tgt, src))
            if isinstance(mat, IntMatrix):
                self._dense[n], mat = mat, _SparseMatrix.of(mat)
            if mat.columns:
                self.diffs[n] = mat
        step = -1 if direction == "chain" else 1
        for n, d in self.diffs.items():
            nxt = n + step
            if nxt in self.diffs and (self.diffs[nxt] * d).columns:
                raise ValueError("differentials at degrees %d and %d do not compose to zero"
                                 % (n, nxt))

    def rank(self, n):
        if self.lo <= n <= self.hi:
            return self.ranks[n - self.lo]
        return 0

    def _sparse(self, n):
        tgt = self.rank(n - 1 if self.direction == "chain" else n + 1)
        return self.diffs.get(n) or _SparseMatrix(tgt, self.rank(n), {})

    def diff(self, n):
        """The differential out of degree n as a dense matrix, built once."""
        if n not in self._dense:
            self._dense[n] = self._sparse(n).dense()
        return self._dense[n]

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def homology(self, n):
        """Integral (co)homology at degree n in invariant-factor form."""
        if not self.lo <= n <= self.hi:
            raise DegreeOutOfRange("degree %d outside [%d, %d]" % (n, self.lo, self.hi))
        return self.homology_all()[n]

    def homology_all(self):
        """Every (co)homology group, from the unit-reduced complex; a
        cochain complex is read as a chain complex in degree -n."""
        sign = 1 if self.direction == "chain" else -1
        groups = homology_groups({sign * n: m for n, m in self.diffs.items()},
                                 {sign * n: (0,) * self.rank(n) for n in self.degrees()})
        return {n: groups[sign * n] for n in self.degrees()}

    def to_json(self):
        return {"direction": self.direction, "lo": self.lo, "hi": self.hi,
                "ranks": list(self.ranks),
                "diffs": {str(n): self.diff(n).to_json() for n in sorted(self.diffs)}}

    @classmethod
    def from_json(cls, obj):
        obj = _json_object(obj, "complex")
        diffs = {n: IntMatrix.from_json(m)
                 for n, m in _json_degrees(obj.get("diffs", {}), "differential")}
        return cls(obj["direction"], obj["lo"], obj["hi"], obj["ranks"], diffs)


class CoefficientComplex:
    """The chain complex Hom(C, G) of a free cochain complex C.

    Degree n carries one copy of G per rank of C^n; elements are stored
    block-major (all of G's coordinates for basis element 0, then 1, ...).
    Differentials are the transposed differentials of C acting blockwise.
    """

    __slots__ = ("base", "coefficients", "lo", "hi")

    def __init__(self, base, coefficients):
        if base.direction != "cochain":
            raise ValueError("coefficient complexes are built from cochain complexes")
        self.base = base
        self.coefficients = coefficients
        self.lo, self.hi = base.lo, base.hi

    def orders(self, n):
        return self.coefficients.orders * self.base.rank(n)

    def homology(self, n):
        if not self.lo <= n <= self.hi:
            raise DegreeOutOfRange("degree %d outside [%d, %d]" % (n, self.lo, self.hi))
        return self.homology_all()[n]

    def homology_all(self):
        """Every homology group, from the unit-reduced sparse complex."""
        m, degrees = self.coefficients.n_gens, range(self.lo, self.hi + 1)
        return homology_groups({n + 1: d.transpose().blockwise(m)
                                for n, d in self.base.diffs.items()},
                               {n: self.orders(n) for n in degrees})


@dataclass(frozen=True)
class UctCertificate:
    """Verified split short exact sequence for one degree.

    injection:  Ext(H^{n+1}(C), G) -> H_n(Hom(C,G)), induced by lifting an
                extension-class cochain through the coboundary.
    surjection: H_n(Hom(C,G)) -> Hom(H^n(C), G), evaluation on cocycles.
    splitting:  right inverse of the surjection obtained from an integer
                left inverse of the cocycle basis (the cocycle lattice is a
                direct summand because C^n/Z^n embeds in a free group).
    """

    degree: int
    ext_term: PresentedGroup
    hom_term: PresentedGroup
    middle: PresentedGroup
    injection: GroupMap
    surjection: GroupMap
    splitting: GroupMap

    def to_json(self):
        return {"degree": self.degree,
                "ext_term": self.ext_term.describe(),
                "hom_term": self.hom_term.describe(),
                "middle": self.middle.describe(),
                "injection": self.injection.matrix.to_json(),
                "surjection": self.surjection.matrix.to_json(),
                "splitting": self.splitting.matrix.to_json(),
                "verified": True}


def _check_split(n, include, evaluate, split):
    """Raise CertificateFailure unless include, evaluate and split extend to
    a biproduct: e∘i = 0, e∘s = 1, and some r with i∘r = 1 - s∘e and r∘i = 1.
    These identities make 0 -> Ext -include-> . -evaluate-> . -> 0 split
    exact (Mac Lane, VIII.2)."""
    if not (evaluate @ include).is_zero:
        raise CertificateFailure("degree %d: composite through the middle is nonzero" % n)
    if not (evaluate @ split).is_identity:
        raise CertificateFailure("degree %d: splitting is not a right inverse" % n)
    middle = include.target
    rest = IntMatrix.identity(middle.n_gens) - split.matrix * evaluate.matrix
    sol = solve_columns(hstack(include.matrix, middle.relation_matrix()), rest)
    if sol is None:
        raise CertificateFailure("degree %d: kernel of evaluation escapes the image of "
                                 "the Ext term" % n)
    try:
        retract = GroupMap(middle, include.source, IntMatrix._trusted(
            include.source.n_gens, middle.n_gens, sol.data[:include.source.n_gens]))
    except IllFormedMap:
        raise CertificateFailure("degree %d: retraction onto the Ext term is not well "
                                 "defined" % n) from None
    if not (retract @ include).is_identity:
        raise CertificateFailure("degree %d: the Ext term fails to inject" % n)


def _check_integral_split(n, p, in_b_basis, z, s):
    """Raise CertificateFailure unless [p; dB] * [z | s] = I, where z is the
    cocycle basis of C^n, s the section of the coboundaries, p a left
    inverse of z and dB the differential d^n in the basis of B^{n+1}. Then
    Q = [z | s] is unimodular with inverse [p; dB], and d^n s = b_{n+1}."""
    left = IntMatrix._trusted(p.rows + in_b_basis.rows, p.cols, p.data + in_b_basis.data)
    if not (left * hstack(z, s)).is_identity():
        raise CertificateFailure("degree %d: the cocycles and the section of the coboundaries "
                                 "do not split the cochains" % n)


class UctSuite:
    """Builds universal-coefficient certificates for one (complex, G) pair.
    The integral lattice work (cocycle and coboundary bases, cohomology,
    d^n in the coboundary basis, the resolution inclusion, the left inverse
    of the cocycle basis, the projection onto the cocycles and the verified
    splitting C^n = Z^n + S^n) does not depend on G; it is memoised on the
    complex, so neighbouring degrees and every coefficient group share it.
    Nothing that depends on G is kept there."""

    def __init__(self, base, coefficients):
        self.base = base
        self.coefficients = coefficients

    def _memo(self, key, build):
        memo = self.base._integral
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def cocycles(self, n):
        return self._memo(("Z", n), lambda: kernel_basis(self.base.diff(n)))

    def coboundaries(self, n):
        return self._memo(("B", n), lambda: column_basis(self.base.diff(n - 1)))

    def cohomology_sq(self, n):
        return self._memo(("H", n), lambda: Subquotient(self.cocycles(n), self.base.diff(n - 1)))

    def _solved(self, key, lattice, rhs, failure):
        """solve_columns(lattice, rhs), memoised under ``key``; raise
        CertificateFailure(failure) when it has no solution."""
        def build():
            sol = solve_columns(lattice, rhs)
            if sol is None:
                raise CertificateFailure(failure)
            return sol
        return self._memo(key, build)

    def _in_b_basis(self, n):
        """d^n written in the basis of B^{n+1}."""
        return self._solved(("dB", n), self.coboundaries(n + 1), self.base.diff(n),
                            "d^n does not factor through its own image basis")

    def _inside(self, n):
        """The inclusion of B^n into Z^n, in their bases."""
        return self._solved(("BZ", n), self.cocycles(n), self.coboundaries(n),
                            "coboundaries escape the cocycle lattice at degree %d" % n)

    def _left_inverse(self, n):
        """An integer left inverse p of the cocycle basis, p * z_n = I; it
        exists because C^n/Z^n embeds in the free group C^{n+1}."""
        def build():
            z = self.cocycles(n)
            p = solve_columns(z.transpose(), IntMatrix.identity(z.cols))
            if p is None:
                raise CertificateFailure(
                    "cocycle lattice of degree %d is not a direct summand" % n)
            return p.transpose()
        return self._memo(("p", n), build)

    def _projected_basis(self, n):
        """The basis of C^n projected onto Z^n along the complement cut out by
        the left inverse p, in H^n coordinates."""
        return self._memo(("P", n), lambda: self.cohomology_sq(n).coords_matrix(
            self.cocycles(n) * self._left_inverse(n)))

    def _section(self, n):
        """The section s_n = x_0 - z_n (p x_0) of d^n onto B^{n+1}, where x_0
        is the first columns of the Hermite transform of d^n (d^n x_0 =
        b_{n+1}), verified once by the split identity [p; dB] [z | s] = I."""
        def build():
            z, p = self.cocycles(n), self._left_inverse(n)
            hf = hermite_form(self.base.diff(n))
            r = hf.h.cols
            x0 = IntMatrix._trusted(hf.v.rows, r, tuple(row[:r] for row in hf.v.data))
            s = x0 - z * (p * x0)
            _check_integral_split(n, p, self._in_b_basis(n), z, s)
            return s
        return self._memo(("S", n), build)

    def _middle(self, n):
        """(ext_sq, homg, mid_sq, lifts) for degree n. In the basis
        Q = [z_n | s_n] of C^n the coboundary d^{n-1} is [[0, inside(n)],
        [0, 0]], so H_n(Hom(C, G)) is the kernel of inside(n)^T (x) G on
        Hom(Z^n, G), which is Hom(H^n, G), plus the cokernel of
        inside(n+1)^T (x) G on Hom(S^n, G), which is the Ext term ext_sq.
        mid_sq names the normal form of their direct sum, and ``lifts`` are
        its generators in Hom(C^n, G): an Ext class psi is psi o dB and a
        homomorphism on H^n is extended by zero along S^n through p."""
        G, m = self.coefficients, self.coefficients.n_gens
        # Ext term from the free resolution 0 -> B^{n+1} -> Z^{n+1} -> H^{n+1} -> 0,
        # compared with the closed form of Ext(H^{n+1}, G)
        inside = self._inside(n + 1)
        ext_sq = Subquotient(IntMatrix.identity(inside.cols * m),
                             hstack(_precompose(inside, m),
                                    _relations_for_orders(G.orders * inside.cols)))
        if ext_sq.group != ExtGroup(self.cohomology_sq(n + 1).group, G).group:
            raise CertificateFailure(
                "Ext term disagrees between resolution and closed form at degree %d" % n)
        self._section(n)  # the split identity behind the summands below
        homg = HomGroup(self.cohomology_sq(n).group, G)
        orders = ext_sq.group.orders + homg.group.orders
        mid_sq = Subquotient(IntMatrix.identity(len(orders)), _relations_for_orders(orders))
        summands = hstack(_precompose(self._in_b_basis(n), m) * ext_sq.lifts,
                          _precompose(self._projected_basis(n), m) * homg._maps)
        return ext_sq, homg, mid_sq, summands * mid_sq.lifts

    def certificate(self, n):
        """The verified certificate of degree n. The middle is the direct sum
        of the Ext and Hom terms (``_middle``), so the injection and the
        splitting are the summand inclusions; the surjection evaluates the
        middle's lifts on the cocycles that represent H^n."""
        ext_sq, homg, mid_sq, lifts = self._middle(n)
        ext, hom, mid = ext_sq.group, homg.group, mid_sq.group
        k = ext.n_gens
        inclusions = mid_sq.coords_matrix(IntMatrix.identity(k + hom.n_gens))
        injection = GroupMap(ext, mid, IntMatrix._trusted(
            mid.n_gens, k, tuple(row[:k] for row in inclusions.data)))
        splitting = GroupMap(hom, mid, IntMatrix._trusted(
            mid.n_gens, hom.n_gens, tuple(row[k:] for row in inclusions.data)))
        h_lifts = _precompose(self.cohomology_sq(n).lifts, self.coefficients.n_gens)
        surjection = GroupMap(mid, hom, homg.coords_of(h_lifts * lifts))
        cert = UctCertificate(n, ext, hom, mid, injection, surjection, splitting)
        self._verify(cert)
        return cert

    def _verify(self, cert):
        n = cert.degree
        _check_split(n, cert.injection, cert.surjection, cert.splitting)
        if cert.middle != cert.ext_term.direct_sum(cert.hom_term):
            raise CertificateFailure("degree %d: middle group is not the direct sum of the ends" % n)


def uct_certificate(base, coefficients, n):
    """Build and verify the universal-coefficient certificate at degree n.

    Raises CertificateFailure if any exactness check fails (which would
    signal an implementation bug, not a property of the input).
    """
    if not base.lo <= n <= base.hi:
        raise DegreeOutOfRange("degree %d outside [%d, %d]" % (n, base.lo, base.hi))
    return UctSuite(base, coefficients).certificate(n)


def uct_certificates(base, coefficients):
    """Certificates for every degree of the complex, sharing integral work."""
    suite = UctSuite(base, coefficients)
    return {n: suite.certificate(n) for n in base.degrees()}

