import contextlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form, invariant_factors

import tauthom.matrices
from tauthom.kolmogoroff import FiniteModel, NerveComplex, Partition
from tauthom.matrices import (IntMatrix, _hermite_core, _product_equals, _smith_core,
                              column_basis, determinant, hermite_form, hstack,
                              kernel_basis, smith_normal_form, solve_columns)

from oracles import (_det, hermite_core_reference, hermite_oracle,
                     hermite_solve_reference, matmul_oracle,
                     minors_gcd_divisors, rank_oracle,
                     smith_core_reference, snf_divisors_oracle,
                     starred_sphere_faces, torus_faces)


def rand_matrix(rng, rows, cols, bound=6):
    return IntMatrix(rows, cols,
                     [[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


small = st.integers(min_value=-8, max_value=8)


def matrices(max_dim=5, bound=8):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(st.lists(st.integers(-bound, bound),
                                        min_size=c, max_size=c),
                               min_size=r, max_size=r))).map(IntMatrix.from_rows)


class TestArithmetic:
    def test_mul_shapes(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        b = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        c = a * b
        assert (c.rows, c.cols) == (3, 3)
        assert c.data[2] == (5, 6, 11)

    def test_degenerate_shapes(self):
        a = IntMatrix.zeros(0, 3)
        b = IntMatrix.zeros(3, 2)
        assert (a * b).rows == 0 and (a * b).cols == 2
        c = IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 4)
        assert c == IntMatrix.zeros(2, 4)
        assert IntMatrix.zeros(0, 0).is_identity

    def test_apply_and_column(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (3, 7)
        assert a.column(1) == (2, 4)

    def test_transpose_product(self):
        rng = random.Random(900)
        for _ in range(50):
            r, k, c = (rng.randrange(0, 5) for _ in range(3))
            a, b = rand_matrix(rng, r, k), rand_matrix(rng, k, c)
            assert (a * b).transpose() == b.transpose() * a.transpose()

    def test_subtraction(self):
        rng = random.Random(912)
        for _ in range(50):
            r, c = rng.randrange(0, 5), rng.randrange(0, 5)
            a, b = rand_matrix(rng, r, c), rand_matrix(rng, r, c)
            assert a - b == a + b * -1 == IntMatrix(
                r, c, [[x - y for x, y in zip(p, q)] for p, q in zip(a.data, b.data)])
        with pytest.raises(ValueError, match="shape mismatch"):
            IntMatrix.zeros(2, 3) - IntMatrix.zeros(3, 2)

    def test_json_round_trip(self):
        a = IntMatrix.from_rows([[1, -2, 3]])
        assert IntMatrix.from_json(a.to_json()) == a
        assert IntMatrix.from_json([[1, -2, 3]]) == a
        assert IntMatrix.from_json([]) == IntMatrix.zeros(0, 0)

    @pytest.mark.parametrize("entry", [2.7, True, "3"], ids=["float", "bool", "str"])
    def test_constructor_rejects_non_int_entries(self, entry):
        # coercion would turn 2.7 into 2 and True into 1
        with pytest.raises(ValueError, match=r"matrix entry \[1\]\[0\] must be an integer"):
            IntMatrix(2, 1, [[1], [entry]])

    @pytest.mark.parametrize("field, value", [("rows", 1.9), ("cols", True), ("rows", "1")])
    def test_from_json_rejects_non_int_shape(self, field, value):
        # int() would read {"rows": 1.9, ...} as a 1 x 1 matrix
        obj = {"rows": 1, "cols": 1, "entries": [[4]], field: value}
        with pytest.raises(ValueError, match="matrix field '%s' must be an integer" % field):
            IntMatrix.from_json(obj)


def sparse_matrix(rng, rows, cols, density, bound):
    return IntMatrix(rows, cols, [[rng.randint(-bound, bound) if rng.random() < density else 0
                                   for _ in range(cols)] for _ in range(rows)])


class TestProductOracle:
    def test_against_triple_loop(self):
        rng = random.Random(910)
        shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1)]
        big = 0
        for t in range(300):
            r, k, c = shapes[t] if t < len(shapes) else \
                (rng.randrange(0, 9), rng.randrange(0, 9), rng.randrange(0, 9))
            density = (0.1, 0.4, 1.0)[t % 3]
            bound = 2 ** 220 if t % 4 == 3 else 9
            a = sparse_matrix(rng, r, k, density, bound)
            b = sparse_matrix(rng, k, c, density, bound)
            got = a * b
            assert got == IntMatrix(r, c, matmul_oracle(a.data, b.data, c))
            assert all(type(x) is int for row in got.data for x in row)
            s = rng.randint(-bound, bound)
            scalar = [[s * int(i == j) for j in range(k)] for i in range(k)]
            assert s * a == a * s == IntMatrix(r, k, matmul_oracle(a.data, scalar, k))
            big = max([big] + [x.bit_length() for row in got.data for x in row])
        assert big >= 200

    def test_dense_transforms(self):
        # dense bignum products of the Smith transforms, u * m * v == d
        rng = random.Random(911)
        for n in (16, 24):
            m = sparse_matrix(rng, n, n, 1.0, 99)
            s = smith_normal_form(m)
            um = IntMatrix(n, n, matmul_oracle(s.u.data, m.data, n))
            assert s.u * m == um
            assert um * s.v == IntMatrix(n, n, matmul_oracle(um.data, s.v.data, n)) == s.d


# entries of both signs, small ones and ones of up to 300 bits
wide = st.one_of(st.integers(-3, 3), st.integers(-2 ** 300, 2 ** 300))


def int_matrix(rows, cols, entries=wide):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda d: IntMatrix(rows, cols, d))


@st.composite
def factor_pairs(draw, least=(0, 0, 0)):
    """(a, b) with a r x k and b k x m, each dimension at least ``least``."""
    r, k, m = (draw(st.integers(low, 4)) for low in least)
    return draw(int_matrix(r, k)), draw(int_matrix(k, m))


def slot_collision(prod, w):
    """prod + s*(2^w e_j - e_(j+1)) in one row, with s against the sign of
    prod[i][j], so every entry stays below 2^w: in slots of w bits it packs
    to the same integer as prod. None when no (i, j) allows it."""
    for i, row in enumerate(prod.data):
        for j in range(prod.cols - 1):
            if row[j] and abs(row[j + 1]) < 2 ** w - 1:
                s = -1 if row[j] > 0 else 1
                data = [list(r) for r in prod.data]
                data[i][j] += s * 2 ** w
                data[i][j + 1] -= s
                return IntMatrix(prod.rows, prod.cols, data)
    return None


def packed(mat, w):
    return [sum(x << (w * j) for j, x in enumerate(row)) for row in mat.data]


# the two paths of _product_equals: packed rows for every shape, and the
# product formed and compared for every shape
PACKED, DIRECT = 0, 2 ** 62


@contextlib.contextmanager
def packed_from(size):
    """Pack the rows of products of at least ``size`` multiply-adds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tauthom.matrices, "_PACKED_FROM", size)
        yield


@pytest.fixture(params=[PACKED, DIRECT], ids=["packed", "direct"])
def each_path(request):
    """Run the test once on each path of ``_product_equals``."""
    with packed_from(request.param):
        yield


@pytest.fixture(params=["packed", "lists"])
def each_replay(request):
    """Run the test once on each replay of V in ``_hermite_core``: packed
    columns for every input of full column rank, or lists for every input."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "packed":
            mp.setattr(tauthom.matrices, "_PACKED_REPLAY_FILL", 0)
            mp.setattr(tauthom.matrices, "_PACKED_REPLAY_UPTO", 2 ** 62)
        else:
            mp.setattr(tauthom.matrices, "_PACKED_REPLAY_UPTO", 0)
        yield request.param


def packed_replays(monkeypatch):
    """The list of arguments of every packed replay of V from now on."""
    calls, replay = [], tauthom.matrices._replay_packed
    monkeypatch.setattr(tauthom.matrices, "_replay_packed",
                        lambda *args: calls.append(args) or replay(*args))
    return calls


class TestPackedProduct:
    """``_product_equals(a, b, c)`` decides a * b == [c | 0] exactly, on
    either path."""

    @given(factor_pairs(), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_agrees_with_the_product(self, ab, data):
        a, b = ab
        prod = a * b
        other = data.draw(int_matrix(a.rows, b.cols))
        # a narrower c stands for [c | 0]
        k = data.draw(st.integers(0, b.cols))
        narrow = [IntMatrix._trusted(a.rows, k, tuple(row[:k] for row in x.data))
                  for x in (prod, other)]
        for size in (PACKED, DIRECT):
            with packed_from(size):
                for c in (prod, other, -prod, prod + other):
                    assert _product_equals(a, b, c) == (prod == c)
                for c in narrow:
                    assert _product_equals(a, b, c) == (
                        prod == hstack(c, IntMatrix.zeros(a.rows, b.cols - k)))

    @pytest.mark.parametrize("r, k, m", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 0, 0)])
    def test_empty_shapes(self, each_path, r, k, m):
        a, b = IntMatrix.zeros(r, k), IntMatrix.zeros(k, m)
        assert _product_equals(a, b, IntMatrix.zeros(r, m))
        assert _product_equals(a, b, IntMatrix.zeros(r, 0))
        assert not _product_equals(a, b, IntMatrix.zeros(r + 1, m))
        if r and m:
            corner = [[int(i == j == 0) for j in range(m)] for i in range(r)]
            assert not _product_equals(a, b, IntMatrix(r, m, corner))
        with pytest.raises(ValueError, match="shape mismatch"):
            _product_equals(a, IntMatrix.zeros(k + 1, m), IntMatrix.zeros(r, m))

    @given(factor_pairs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_rejects_every_unit_change(self, ab):
        a, b = ab
        prod = a * b
        for i in range(prod.rows):
            for j in range(prod.cols):
                for e in (1, -1):
                    data = [list(row) for row in prod.data]
                    data[i][j] += e
                    c = IntMatrix(prod.rows, prod.cols, data)
                    for size in (PACKED, DIRECT):
                        with packed_from(size):
                            assert not _product_equals(a, b, c)

    @given(factor_pairs(least=(1, 1, 2)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rejects_a_carry_into_the_next_slot(self, ab):
        # c collides with a * b in slots of w bits. At the first w, the
        # width that the bound on a * b gives without the sign bit, c is
        # caught only because the slots are one bit wider; at the second,
        # the width of that bound alone, only because the width also
        # bounds the entries of c
        a, b = ab
        prod = a * b
        norm = max(sum(map(abs, row)) for row in a.data)
        bits = (norm * max(abs(x) for row in b.data for x in row)).bit_length()
        assume(slot_collision(prod, bits) is not None)
        for w in (bits, bits + 1):
            c = slot_collision(prod, w)
            assert max(abs(x) for row in c.data for x in row) < 2 ** w
            assert packed(c, w) == packed(prod, w) and c != prod
            with packed_from(PACKED):
                assert not _product_equals(a, b, c)

    def test_dense_ladder_is_packed(self, monkeypatch):
        # the dense Smith checks of n >= 16 take the packed path: forming
        # a product there fails the test
        m = rand_matrix(random.Random(912), 16, 16, 9)
        s, hf = smith_normal_form.__wrapped__(m), hermite_form.__wrapped__(m)

        def formed(self, other):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(IntMatrix, "__mul__", formed)
        tauthom.matrices._verify_smith(m, s)
        tauthom.matrices._verify_hermite(m, hf)


def slipped(mat, i, j):
    """``mat`` with entry (i, j) raised by one."""
    data = [list(row) for row in mat.data]
    data[i][j] += 1
    return IntMatrix(mat.rows, mat.cols, data)


EDGE_SHAPES = [IntMatrix.from_rows([]), IntMatrix.from_rows([[]]), IntMatrix(0, 3, []),
               IntMatrix(2, 0, [[], []])]


@pytest.mark.parametrize("m", EDGE_SHAPES, ids=["0x0", "1x0", "0x3", "2x0"])
def test_edge_shapes_through_both_forms(each_path, m):
    hf = hermite_form.__wrapped__(m)
    assert (hf.h, hf.v, hf.pivots) == (IntMatrix.zeros(m.rows, 0), IntMatrix.identity(m.cols), ())
    s = smith_normal_form.__wrapped__(m)
    assert s.u == s.uinv == IntMatrix.identity(m.rows)
    assert (s.d, s.v) == (IntMatrix.zeros(m.rows, m.cols), IntMatrix.identity(m.cols))


class TestSmith:
    def test_known_form(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        s = smith_normal_form(m)
        assert [x for x in s.diagonal if x] == [2, 2, 156]
        assert s.u * m * s.v == s.d
        assert s.u * s.uinv == IntMatrix.identity(3)
        assert abs(determinant(s.v)) == 1

    def test_inverse_transform_is_verified(self, monkeypatch):
        # a slip in the bookkeeping of U^-1 alone still gives U*M*V == D
        core = tauthom.matrices._smith_core

        def broken(h):
            u, uinv, d, v = core(h)
            data = [list(row) for row in uinv.data]
            data[0][0] += 1
            return u, IntMatrix(uinv.rows, uinv.cols, data), d, v

        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        smith_normal_form.__wrapped__(m)
        monkeypatch.setattr(tauthom.matrices, "_smith_core", broken)
        with pytest.raises(AssertionError, match="Smith reduction bookkeeping failed"):
            smith_normal_form.__wrapped__(m)

    @pytest.mark.parametrize("m", [
        IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]),
        IntMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [0, 3, 1, 5]]),
    ])
    def test_every_slip_in_u_or_d_is_verified(self, monkeypatch, each_path, m):
        # one entry of U, or one diagonal entry of D, off by one
        core = tauthom.matrices._smith_core
        u, _, dh, _ = core(_hermite_core(m)[0])
        slips = [(0, i, j) for i in range(u.rows) for j in range(u.cols)]
        slips += [(2, i, i) for i in range(dh.cols)]
        for k, i, j in slips:
            def broken(h):
                out = list(core(h))
                out[k] = slipped(out[k], i, j)
                return tuple(out)
            monkeypatch.setattr(tauthom.matrices, "_smith_core", broken)
            with pytest.raises(AssertionError, match="Smith reduction bookkeeping failed"):
                smith_normal_form.__wrapped__(m)

    def test_off_diagonal_slip_in_d_is_dropped(self, monkeypatch):
        # D is built from the diagonal of the core's D_H, so a stray entry
        # off it never reaches the result, which is verified as before
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        want = smith_normal_form.__wrapped__(m)
        core = tauthom.matrices._smith_core

        def broken(h):
            u, uinv, dh, v = core(h)
            return u, uinv, slipped(dh, 0, 1), v

        monkeypatch.setattr(tauthom.matrices, "_smith_core", broken)
        assert smith_normal_form.__wrapped__(m) == want

    def test_oracle_cross_check(self):
        rng = random.Random(901)
        for _ in range(300):
            r, c = rng.randrange(0, 6), rng.randrange(0, 6)
            m = rand_matrix(rng, r, c)
            got = tuple(x for x in smith_normal_form(m).diagonal if x)
            assert got == snf_divisors_oracle(m.data)

    def test_minors_gcd_cross_check(self):
        rng = random.Random(902)
        for _ in range(120):
            m = rand_matrix(rng, rng.randrange(0, 5), rng.randrange(0, 5), 5)
            got = tuple(x for x in smith_normal_form(m).diagonal if x)
            assert got == minors_gcd_divisors(m.data)

    @given(matrices())
    @settings(max_examples=120, deadline=None)
    def test_divisor_chain_and_unimodularity(self, m):
        s = smith_normal_form(m)
        diag = [x for x in s.diagonal if x]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert abs(determinant(s.u)) == 1
        assert abs(determinant(s.v)) == 1
        assert s.d.is_diagonal()

    def test_rank_matches_rational_rank(self):
        rng = random.Random(903)
        for _ in range(60):
            m = rand_matrix(rng, rng.randrange(0, 6), rng.randrange(0, 6))
            assert smith_normal_form(m).rank == rank_oracle(m.data)


def sympy_invariant_factors(m):
    """Invariant factors of a nonsingular square matrix by sympy alone: its
    modular Hermite form (Cohen, GTM 138, Alg. 2.4.8, modulo the
    determinant), rows and columns reversed so that the unit pivots come
    first, then ``invariant_factors``. Neither step changes the invariant
    factors, and reduced this way sympy does not blow up on 48 x 48."""
    dm = DomainMatrix([[ZZ(x) for x in row] for row in m.data], (m.rows, m.cols), ZZ)
    det = dm.det()
    assert det, "the dense ladder matrices are nonsingular"
    h = hermite_normal_form(dm, D=abs(det)).to_list()
    rev = DomainMatrix([row[::-1] for row in h[::-1]], (m.rows, m.cols), ZZ)
    return tuple(int(x) for x in invariant_factors(rev))


def sympy_unique_solution(m, h):
    """The V with M*V == H for M of full column rank, by sympy over QQ from
    the normal equations (M^T M) V == M^T H; it must be integral."""
    def dm(mat):
        return DomainMatrix([[ZZ(x) for x in row] for row in mat.data], (mat.rows, mat.cols), ZZ)

    mt = dm(m).transpose()
    sol = (mt * dm(m)).to_field().lu_solve((mt * dm(h)).to_field()).to_list()
    assert all(x.denominator == 1 for row in sol for x in row)
    return IntMatrix(m.cols, h.cols, [[int(x.numerator) for x in row] for row in sol])


def check_smith(m):
    """U*M*V == D with U, V unimodular, D diagonal with its nonzero entries
    first and each dividing the next, and every column of D past the rank
    zero; returns the form."""
    s = smith_normal_form(m)
    assert s.u * m * s.v == s.d and s.d.is_diagonal()
    assert abs(determinant(s.u)) == abs(determinant(s.v)) == 1
    assert s.u * s.uinv == IntMatrix.identity(m.rows)
    diag = s.diagonal
    assert all(x > 0 for x in diag[:s.rank]) and not any(diag[s.rank:])
    assert all(b % a == 0 for a, b in zip(diag[:s.rank], diag[1:s.rank]))
    assert all(not any(col) for col in s.d.transpose().data[s.rank:])
    return s


class TestDenseLadder:
    """The Smith transforms of dense square matrices stay within a small
    multiple of the Hadamard bound, because only the Hermite form, whose
    entries stay near the determinant, is Smith reduced."""

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_bounded_transforms(self, n):
        rng = random.Random(1700 + n)
        m = rand_matrix(rng, n, n, 9)
        s = check_smith(m)
        assert s.diagonal == sympy_invariant_factors(m)
        # ceil(log2 prod ||col||) = ceil(log2(prod ||col||^2) / 2), exactly
        norms = 1
        for col in m.transpose().data:
            norms *= sum(x * x for x in col)
        hadamard_bits = ((norms - 1).bit_length() + 1) // 2
        bits = max(abs(x).bit_length() for t in (s.u, s.v) for row in t.data for x in row)
        assert bits <= 4 * hadamard_bits, (bits, hadamard_bits)

    def test_degenerate_shapes(self):
        rng = random.Random(1701)

        def low_rank(rows, cols, rank):
            return rand_matrix(rng, rows, rank, 4) * rand_matrix(rng, rank, cols, 4)

        shapes = [IntMatrix.zeros(0, 5), IntMatrix.zeros(5, 0), IntMatrix.zeros(4, 6),
                  low_rank(9, 4, 2), low_rank(4, 9, 2), low_rank(12, 7, 3), low_rank(7, 12, 5)]
        for m in shapes:
            s = check_smith(m)
            assert s.rank == rank_oracle(m.data), m
            assert (s.d.rows, s.d.cols) == (m.rows, m.cols)


def _relabelled_boundaries(rng, atoms, faces):
    perm = list(range(atoms))
    rng.shuffle(perm)
    model = FiniteModel(atoms, [[perm[a] for a in f] for f in faces])
    nerve = NerveComplex(model, Partition.singletons(atoms))
    return [nerve.boundary_matrix(n) for n in range(1, nerve.dimension + 1)]


def reference_corpus():
    """Matrices the cores meet: nerve boundaries, their transposes and
    relation-stacked forms [d | 2I], sparse and dense random matrices with
    non-unit pivots and bignum growth, and degenerate shapes."""
    rng = random.Random(1215)
    models = [(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 12, 30)]
    models += [(n * n, torus_faces(n)) for n in (3, 4)]
    models += [starred_sphere_faces(rng, k, stars) for k, stars in ((3, 3), (4, 2), (5, 1))]
    mats = []
    for atoms, faces in models:
        for d in _relabelled_boundaries(rng, atoms, faces):
            mats += [d, d.transpose(), hstack(d, IntMatrix.identity(d.rows) * 2)]
    for _ in range(60):
        r, c = rng.randrange(1, 12), rng.randrange(1, 12)
        mats.append(sparse_matrix(rng, r, c, rng.choice((0.15, 0.4, 1.0)), rng.choice((1, 3, 12))))
    for n in (16, 24, 32):
        mats.append(sparse_matrix(rng, n, n, 1.0, 99))
    mats += [IntMatrix.zeros(r, c) for r, c in ((0, 0), (0, 4), (4, 0), (3, 5))]
    return mats


class TestReferenceCores:
    """The cores touch only nonzeros but keep the pivot rule and the order
    of elementary operations of the dense references, so every transform
    they return is the same, entry for entry."""

    def test_smith_matches_reference(self):
        big = 0
        for m in reference_corpus():
            got = tuple((x.rows, x.cols, x.data) for x in _smith_core(m))
            assert got == smith_core_reference(m), m
            big = max([big] + [x.bit_length() for row in got[3][2] for x in row])
        assert big >= 64

    def test_hermite_matches_reference(self):
        for m in reference_corpus():
            h, v, pivots = _hermite_core(m)
            assert ((h.rows, h.cols, h.data), (v.rows, v.cols, v.data), pivots) == \
                hermite_core_reference(m), m

    def test_each_replay_matches_reference(self, monkeypatch, each_replay):
        # the packed replay runs on every matrix of full column rank, the
        # list replay on all of them; both give the reference's transform
        ladder = [rand_matrix(random.Random(1700 + n), n, n, 9) for n in (16, 32, 48)]
        calls, full = packed_replays(monkeypatch), 0
        for m in reference_corpus() + ladder:
            h, v, pivots = _hermite_core(m)
            assert ((h.rows, h.cols, h.data), (v.rows, v.cols, v.data), pivots) == \
                hermite_core_reference(m), m
            full += 0 < m.cols == len(pivots)
        assert full >= 20 and len(calls) == (full if each_replay == "packed" else 0)


def bidiagonal(n, k):
    """The unit upper-bidiagonal n x n matrix with superdiagonal -k."""
    return IntMatrix(n, n, [[1 if j == i else -k if j == i + 1 else 0 for j in range(n)]
                            for i in range(n)])


def random_unimodular(rng, n, steps=8):
    """A product of random elementary column operations on the identity."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
    if n:
        cols[0] = [-a for a in cols[0]]
    return IntMatrix.from_columns(cols, n)


class TestHermite:
    def test_known_form(self):
        hf = hermite_form(IntMatrix.from_rows([[2, 4, 6], [1, 3, 5]]))
        assert hf.h == IntMatrix.from_rows([[2, 0], [0, 1]])
        assert hf.pivots == (0, 1)

    @pytest.mark.parametrize("m", [
        IntMatrix.from_rows([[2, 4, 6], [1, 3, 5], [0, 1, -7]]),
        IntMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 9]]),
    ])
    def test_every_slip_in_v_is_verified(self, monkeypatch, each_path, m):
        # no column of m is zero, so one entry of V off by one changes M*V
        core = tauthom.matrices._hermite_core
        v = core(m)[1]
        for i in range(v.rows):
            for j in range(v.cols):
                def broken(mat):
                    h, v, pivots = core(mat)
                    return h, slipped(v, i, j), pivots
                monkeypatch.setattr(tauthom.matrices, "_hermite_core", broken)
                with pytest.raises(AssertionError, match="Hermite reduction bookkeeping failed"):
                    hermite_form.__wrapped__(m)

    def test_oracle_cross_check(self):
        rng = random.Random(906)
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
        for t in range(320):
            r, c = shapes[t] if t < len(shapes) else (rng.randrange(0, 6), rng.randrange(0, 7))
            m = rand_matrix(rng, r, c)
            if t % 4 == 1 and r and c > 1:
                # rank-deficient: the last column is a combination of the others
                cols = list(m.transpose().data)
                combo = [2 * a - b for a, b in zip(cols[0], cols[1])]
                m = IntMatrix.from_columns(cols[:-1] + [combo], r)
            if t % 4 == 2 and c > 1:
                cols = list(m.transpose().data)
                m = IntMatrix.from_columns(cols[:-1] + [cols[0]], r)
            hf = hermite_form(m)
            assert [list(row) for row in hf.h.data] == hermite_oracle(
                [list(row) for row in m.data], c), m
            assert m * hf.v == hstack(hf.h, IntMatrix.zeros(r, c - hf.h.cols))
            assert abs(_det([list(row) for row in hf.v.data])) == 1

    def test_canonical_under_column_operations(self):
        rng = random.Random(907)
        for _ in range(150):
            r, c = rng.randrange(0, 5), rng.randrange(0, 6)
            m = rand_matrix(rng, r, c)
            h = column_basis(m)
            assert column_basis(m * random_unimodular(rng, c)) == h
            x = rand_matrix(rng, c, rng.randrange(0, 4), 3)
            assert column_basis(hstack(m, m * x)) == h

    def test_solve_outside_lattice(self):
        hf = hermite_form(IntMatrix.from_rows([[2, 0], [1, 3], [0, 0]]))
        assert hf.solve(IntMatrix.from_rows([[2], [4], [0]])) is not None
        assert hf.solve(IntMatrix.from_rows([[1], [0], [0]])) is None
        assert hf.solve(IntMatrix.from_rows([[2], [1], [1]])) is None

    def test_full_column_rank_transform_is_unique(self):
        # M*V == H has one solution when M has full column rank, so V is
        # independent of the order of operations: compare it with sympy's
        # exact rational solution on every such reference matrix and on the
        # dense ladder
        ladder = [rand_matrix(random.Random(1700 + n), n, n, 9) for n in (16, 32, 48)]
        full = [m for m in reference_corpus() if m.cols and rank_oracle(m.data) == m.cols]
        assert len(full) >= 20, len(full)
        for m in full + ladder:
            hf = hermite_form(m)
            assert hf.v == sympy_unique_solution(m, hf.h), m

    def test_replay_choice(self, monkeypatch):
        # packed columns for dense input of full column rank whose columns
        # stay small; lists for sparse input, rank deficiency and wide slots.
        # The ladder's slots, 72 / 160 / 256 bits, hold V's 54 / 133 / 214
        calls = packed_replays(monkeypatch)
        rng = random.Random(1703)
        for n in (16, 32, 48):
            hermite_form.__wrapped__(rand_matrix(random.Random(1700 + n), n, n, 9))
        assert [args[2:] for args in calls] == [(16, 9), (32, 20), (48, 32)]
        hermite_form.__wrapped__(bidiagonal(40, 3))
        hermite_form.__wrapped__(rand_matrix(rng, 12, 5, 9) * rand_matrix(rng, 5, 8, 9))
        hermite_form.__wrapped__(rand_matrix(rng, 8, 8, 2 ** 4000))
        assert len(calls) == 3

    def test_slot_width_holds_the_transform(self, monkeypatch):
        # V = M^-1 has (2^16 - 1)^8 in its corner, just below the bound
        # 2^128 that sets 17-byte slots, and 16 bytes cannot hold it signed;
        # M is sparse, so only a zero fill threshold packs its replay
        k, n = 2 ** 16 - 1, 9
        m = bidiagonal(n, k)
        inverse = IntMatrix(n, n, [[k ** (j - i) if j >= i else 0 for j in range(n)]
                                   for i in range(n)])
        monkeypatch.setattr(tauthom.matrices, "_PACKED_REPLAY_FILL", 0)
        calls = packed_replays(monkeypatch)
        assert hermite_form.__wrapped__(m).v == inverse
        assert [args[3] for args in calls] == [17]
        width = tauthom.matrices._packed_slot_bytes
        monkeypatch.setattr(tauthom.matrices, "_packed_slot_bytes", lambda *args: width(*args) - 1)
        with pytest.raises(AssertionError, match="Hermite reduction bookkeeping failed"):
            hermite_form.__wrapped__(m)
        assert [args[3] for args in calls] == [17, 16]

    @given(st.integers(1, 6), st.integers(2, 6), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rank_deficient_products(self, r, c, data):
        # A*B with an inner dimension below c: V is not unique, but it must
        # be unimodular with M*V == [H | 0], and H the canonical form
        k = data.draw(st.integers(0, c - 1))
        a = IntMatrix(r, k, data.draw(st.lists(st.lists(small, min_size=k, max_size=k),
                                               min_size=r, max_size=r)))
        b = IntMatrix(k, c, data.draw(st.lists(st.lists(small, min_size=c, max_size=c),
                                               min_size=k, max_size=k)))
        m = a * b
        hf = hermite_form(m)
        assert hf.h.cols <= k < c
        assert m * hf.v == hstack(hf.h, IntMatrix.zeros(r, c - hf.h.cols))
        assert abs(_det([list(row) for row in hf.v.data])) == 1
        assert [list(row) for row in hf.h.data] == hermite_oracle([list(row) for row in m.data], c)

    def test_solve_matches_reference(self):
        # the batched substitution against the column-at-a-time one, on
        # right-hand sides inside the lattice, outside it, mixed, and empty
        rng = random.Random(1702)
        solved = outside = 0
        for m in reference_corpus():
            hf = hermite_form(m)
            inside = m * rand_matrix(rng, m.cols, 3, 4)
            stray = rand_matrix(rng, m.rows, 2, 9)
            for rhs in (inside, stray, hstack(inside, stray), IntMatrix.zeros(m.rows, 0)):
                got = hf.solve(rhs)
                want = hermite_solve_reference(hf, rhs)
                assert want == (None if got is None else (got.rows, got.cols, got.data)), (m, rhs)
                if got is None:
                    outside += 1
                else:
                    solved += 1
                    assert hf.h * got == rhs
        assert solved >= 200 and outside >= 50, (solved, outside)


class TestDeterminant:
    @given(matrices(4, 5))
    @settings(max_examples=80, deadline=None)
    def test_square_against_laplace(self, m):
        if m.rows != m.cols:
            return
        from oracles import _det
        assert determinant(m) == _det([list(r) for r in m.data])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix.zeros(2, 3))


class TestLattices:
    def test_kernel_basis_annihilates(self):
        rng = random.Random(904)
        for _ in range(60):
            m = rand_matrix(rng, rng.randrange(0, 5), rng.randrange(0, 5))
            k = kernel_basis(m)
            assert (m * k).is_zero()
            assert rank_oracle(k.data) == k.cols
            assert m.cols - smith_normal_form(m).rank == k.cols

    def test_column_basis_spans_same_lattice(self):
        rng = random.Random(905)
        for _ in range(60):
            m = rand_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6))
            b = column_basis(m)
            assert column_basis(b) == column_basis(m) or m.is_zero()
            if m.is_zero():
                assert b.cols == 0

    def test_lattice_contains_scaling(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert hermite_form(m).solve(IntMatrix.from_rows([[4, 0], [0, 0]])) is not None
        assert hermite_form(m).solve(IntMatrix.from_rows([[1], [0]])) is None

    def test_solve_columns(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        b = IntMatrix.from_rows([[4], [9]])
        x = solve_columns(a, b)
        assert a * x == b
        assert solve_columns(a, IntMatrix.from_rows([[1], [1]])) is None

    def test_stacking(self):
        a = IntMatrix.from_rows([[1], [2]])
        b = IntMatrix.from_rows([[3], [4]])
        assert hstack(a, b).data == ((1, 3), (2, 4))
