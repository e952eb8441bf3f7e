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
proof of the theorem (Hatcher, *Algebraic Topology*, Thm 3.2), which is the
Hermite transform of d^n (Cohen, GTM 138, §2.4): with d^n V = [H | 0], V =
[s_n | z_n] holds a section s_n of d^n onto the basis H of the coboundaries
B^{n+1} and the cocycle basis z_n, and its inverse W = [dB; p], verified by
W V = I, holds d^n in the basis H and a left inverse p of z_n. In these
bases the coboundaries of C are blocks of the inclusions B^n -> Z^n, so
H_n(Hom(C, G)) is Hom(H^n, G) plus the Ext term, and no lattice of
Hom(C^n, G) is built. Before the certificate is returned the maps are
verified by the biproduct identities (Mac Lane, *Categories for the Working
Mathematician*, VIII.2) against the retraction r onto the Ext term that
the middle's normal form already holds: e∘i = 0, e∘s = 1, r∘i = 1 and
i∘r + s∘e = 1. These make the sequence split exact.

Every term over G is a sum of cyclic groups, put in normal form by the
closed-form ``CyclicSum``, so a certificate takes no Hermite or Smith form
over G. H^n is the cokernel of the inclusion B^n -> Z^n, read off its one
Smith form U inside V = D (``_cokernel``), so no Subquotient is built at
all. The Ext term is ``ExtGroup``'s closed form of H^{n+1}, generated by
rows of V^-1 tensored with G's generators, for the Smith form that gives
H^{n+1}. The Hom term's basis is ``HomGroup``'s, and the middle's normal
form, summand inclusions and their retractions are those of the sum of the
two.

The integral lattice work of a certificate (per degree the Hermite
transform of d^n and its inverse, and the Smith form behind H^n and the
Ext generators) does not depend on G. It is memoised on the FreeComplex,
so certificates over several coefficient groups share it; every check
that involves G still runs for each certificate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .groups import (ExtGroup, GroupMap, HomGroup, IllFormedMap, PresentedGroup, Subquotient,
                     _cokernel, _cyclic_sum, _functor, _precompose, _relations_for_orders,
                     kernel_lattice)
from .matrices import (IntMatrix, _json_degrees, _json_object, _product_equals, _SparseMatrix,
                       hermite_form, hstack, smith_normal_form, solve_columns)


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


def _in_range(cx, n):
    """n, after checking it against the degree range [cx.lo, cx.hi]."""
    if not cx.lo <= n <= cx.hi:
        raise DegreeOutOfRange("degree %d outside [%d, %d]" % (n, cx.lo, cx.hi))
    return n


class FreeComplex:
    """A bounded complex of finitely generated free abelian groups.

    ``direction`` is "chain" (differential lowers degree; ``diffs[n]`` maps
    degree n to n-1) or "cochain" (raises degree; ``diffs[n]`` maps degree
    n to n+1). ``diffs`` holds the nonzero ones, sparse, checked to compose to
    zero; ``diff(n)`` builds a dense view once. Degrees and ranks must be ints.
    ``_integral`` keeps the integral lattice data of UCT certificates, which
    does not depend on the coefficient group: per degree the verified
    Hermite transform of d^n and its inverse, and H^n with the Ext
    generators of degree n - 1 (``CoefficientComplex``)."""

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
        return self.homology_all()[_in_range(self, n)]

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


def _check_split(n, include, evaluate, split, retraction):
    """Raise CertificateFailure unless include, evaluate, split and the
    retraction matrix r onto the Ext term form a biproduct: e∘i = 0,
    e∘s = 1, r∘i = 1 and i∘r + s∘e = 1, with r well defined. These
    identities make 0 -> Ext -include-> . -evaluate-> . -> 0 split exact
    (Mac Lane, VIII.2)."""
    if not (evaluate @ include).is_zero:
        raise CertificateFailure("degree %d: composite through the middle is nonzero" % n)
    if not (evaluate @ split).is_identity:
        raise CertificateFailure("degree %d: splitting is not a right inverse" % n)
    middle = include.target
    try:
        retract = GroupMap(middle, include.source, retraction)
    except IllFormedMap:
        raise CertificateFailure("degree %d: retraction onto the Ext term is not well "
                                 "defined" % n) from None
    if not (retract @ include).is_identity:
        raise CertificateFailure("degree %d: the Ext term fails to inject" % n)
    if not GroupMap(middle, middle, include.matrix * retract.matrix
                    + split.matrix * evaluate.matrix).is_identity:
        raise CertificateFailure("degree %d: kernel of evaluation escapes the image of "
                                 "the Ext term" % n)


class CoefficientComplex:
    """The chain complex Hom(C, G) of a free cochain complex C, and its
    universal-coefficient certificates.

    Degree n carries one copy of G per rank of C^n; elements are stored
    block-major (all of G's coordinates for basis element 0, then 1, ...).
    Differentials are the transposed differentials of C acting blockwise.

    The integral lattice work of a certificate does not depend on G: per
    degree one verified Hermite transform of d^n (``_split``) and one Smith
    form of the inclusion B^n -> Z^n, whose cokernel is H^n in cocycle
    coordinates and whose torsion rows of U give the Ext generators of
    degree n - 1 (``_cohomology``). It is memoised on C under two key
    kinds, so neighbouring degrees and every coefficient group share it.
    Nothing that depends on G is kept there.
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
        return self.homology_all()[_in_range(self, n)]

    def homology_all(self):
        """Every homology group, from the unit-reduced sparse complex."""
        m, degrees = self.coefficients.n_gens, range(self.lo, self.hi + 1)
        return homology_groups({n + 1: d.transpose().blockwise(m)
                                for n, d in self.base.diffs.items()},
                               {n: self.orders(n) for n in degrees})

    def _memo(self, key, build):
        memo = self.base._integral
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def _split(self, n):
        """(h, z, dB, p) for degree n, read off the Hermite transform of d^n
        (Cohen, GTM 138, §2.4). With d^n V = [H | 0] and W = V^-1, solved
        once, V = [s | z] holds a section s of d^n onto the basis H of
        B^{n+1} and the cocycle basis z, and W = [dB; p] holds d^n in the
        basis H (d^n = H dB) and a left inverse p of z with p s = 0. W V = I
        is checked by ``_product_equals``; it proves V unimodular, so
        C^n = Z^n + S^n with S^n the span of s (Hatcher, Thm 3.2)."""
        def build():
            hf = hermite_form(self.base.diff(n))
            v, r, eye = hf.v, hf.h.cols, IntMatrix.identity(hf.v.rows)
            w = solve_columns(v, eye)
            if w is None or not _product_equals(w, v, eye):
                raise CertificateFailure("degree %d: the cocycles and the section of the "
                                         "coboundaries do not split the cochains" % n)
            z = IntMatrix._trusted(v.rows, v.cols - r, tuple(row[r:] for row in v.data))
            return (hf.h, z, IntMatrix._trusted(r, w.cols, w.data[:r]),
                    IntMatrix._trusted(w.rows - r, w.cols, w.data[r:]))
        return self._memo(("V", n), build)

    def _cohomology(self, n):
        """(H^n, lifts, P, extdB) from the Smith form U inside V = D of
        inside = p_n H_{n-1}, the inclusion B^n -> Z^n in their bases. H^n is
        its cokernel, read off that one form (``_cokernel``) in the
        coordinates of the cocycle basis z_n; lifts are z_n times its
        generators, and P the basis of C^n projected onto Z^n along S^n (the
        columns of p_n). inside has full column rank (p_n z_n = I), so
        V^-1 = D^-1 U inside. Its rows with d_i >= 2, the cokernel's torsion
        rows of U, by exact division, generate coker inside^T, the Ext term
        of degree n - 1 over Z, since V^T maps im inside^T onto im D^T;
        extdB holds them times dB_{n-1}, as cochains on C^{n-1}."""
        def build():
            _, z, _, p = self._split(n)
            h, _, db, _ = self._split(n - 1)
            inside = p * h
            group, lifts, proj = _cokernel(smith_normal_form(inside))
            tors = group.torsion
            scaled = IntMatrix._trusted(len(tors), inside.rows,
                                        proj.data[group.free_rank:]) * inside
            if any(x % d for d, row in zip(tors, scaled.data) for x in row):
                raise CertificateFailure("degree %d: the Smith form of B^%d -> Z^%d does not "
                                         "divide into the inverse of its V" % (n, n, n))
            ext = IntMatrix._trusted(len(tors), inside.cols, tuple(
                tuple(x // d for x in row) for d, row in zip(tors, scaled.data)))
            return group, z * lifts, proj * p, ext * db
        return self._memo(("H", n), build)

    def _middle(self, n):
        """(ext, homg, mid, lifts) for degree n. In the bases V_{n-1} and
        V_n = [s_n | z_n] the coboundary d^{n-1} is [[0, 0], [inside(n), 0]],
        so H_n(Hom(C, G)) is the kernel of inside(n)^T (x) G on Hom(Z^n, G),
        which is Hom(H^n, G), plus the cokernel of inside(n+1)^T (x) G on
        Hom(S^n, G), the Ext term. Every term is a sum of cyclic groups in
        closed form (CyclicSum): ``ext`` is Ext(H^{n+1}, G)'s, generated by
        degree n + 1's rows of V^-1 (x) e_g; ``homg`` the Hom term; ``mid``
        the normal form of their direct sum. ``lifts`` are the middle's
        generators in Hom(C^n, G): an Ext class psi is psi o dB and a
        homomorphism on H^n is extended by zero along S^n through P."""
        G, m = self.coefficients, self.coefficients.n_gens
        h, _, projected, _ = self._cohomology(n)
        above, _, _, extdb = self._cohomology(n + 1)
        ext = _functor(ExtGroup, above, G)._cyclic
        homg = _functor(HomGroup, h, G)
        mid = _cyclic_sum(ext.group.orders + homg.group.orders)
        summands = hstack(_precompose(extdb, m) * ext.lifts,
                          _precompose(projected, m) * homg._maps)
        return ext, homg, mid, summands * mid.lifts

    def certificate(self, n):
        """The verified certificate of degree n. The middle is the direct sum
        of the Ext and Hom terms (``_middle``), so the injection and the
        splitting are the summand inclusions, and the Ext rows of the
        middle's lifts the retraction r that ``_check_split`` checks them
        with; the surjection evaluates the middle's lifts on the cocycles
        that represent H^n."""
        ext_sum, homg, mid_sum, lifts = self._middle(_in_range(self, n))
        ext, hom, mid = ext_sum.group, homg.group, mid_sum.group
        k, inclusions = ext.n_gens, mid_sum.proj.data
        injection = GroupMap(ext, mid, IntMatrix._trusted(
            mid.n_gens, k, tuple(row[:k] for row in inclusions)))
        splitting = GroupMap(hom, mid, IntMatrix._trusted(
            mid.n_gens, hom.n_gens, tuple(row[k:] for row in inclusions)))
        h_lifts = _precompose(self._cohomology(n)[1], self.coefficients.n_gens)
        surjection = GroupMap(mid, hom, homg.coords_of(h_lifts * lifts))
        _check_split(n, injection, surjection, splitting, IntMatrix._trusted(
            k, mid.n_gens, mid_sum.lifts.data[:k]))
        return UctCertificate(n, ext, hom, mid, injection, surjection, splitting)


def uct_certificate(base, coefficients, n):
    """Build and verify the universal-coefficient certificate at degree n.

    Raises CertificateFailure if any exactness check fails (which would
    signal an implementation bug, not a property of the input).
    """
    _in_range(base, n)  # a degree out of range is named before the direction
    return CoefficientComplex(base, coefficients).certificate(n)


def uct_certificates(base, coefficients):
    """Certificates for every degree of the complex, sharing integral work."""
    cc = CoefficientComplex(base, coefficients)
    return {n: cc.certificate(n) for n in base.degrees()}
