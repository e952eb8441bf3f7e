"""Exact integer matrix arithmetic: the Hermite normal form behind every
lattice operation, the Smith normal form for invariant factors, and
determinants.

Everything works over Python's arbitrary-precision integers; no floating
point is used anywhere. Spans, kernels, integer solving and lattice
comparison all go through one canonical column Hermite form, so equal
lattices have equal bases. The Smith form is taken of that Hermite form,
not of the matrix itself, which keeps its transforms within a few times
the bit length of the determinant. Smith reduction follows a
deterministic pivot rule (smallest magnitude nonzero entry, ties broken in
row-major order) so that every factorization is reproducible across runs
and platforms.

The Hermite core adds the columns one at a time, in the order of Kannan
and Bachem (SIAM J. Comput. 8, 1979; Cohen, GTM 138, section 2.4): each
column is reduced top-down against the Hermite basis of the columns
before it, by an exact quotient where the pivot divides the entry and by
a 2x2 extended-gcd step otherwise. Only the basis columns that changed
are then reduced against the pivots below them, which keeps every entry
near the size of the final form, and one back-reduction pass at the end
makes H canonical. V is not read while H is reduced, so the core logs its
column steps and replays them on V once H is done: on lists, or, for
dense input of full column rank, with each column of V packed into one
integer whose slots a Hadamard bound on V keeps apart (Kronecker
substitution). There V is the one solution of M*V == H, so how it is
computed does not change it. The Smith core eliminates with the pivot
rule above; its pivot scan stops at the first unit entry, and a unit
pivot skips the divisibility sweep.

Both cores cost time in proportion to the nonzeros they touch, not the
matrix dimension: each row or column operation runs over the nonzeros of
its pivot line only, and the Hermite core keeps the nonzeros of each
basis column until that column changes. Each core performs the elementary
operations of its plain dense form in the same order, so its transforms
are the same, entry for entry; the Smith transforms of
``smith_normal_form`` are those of the two cores composed. Every product
identity of a normal form is re-verified by ``_product_equals``, which,
past a small size, packs each row into one integer and forms no product
matrix.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import chain, compress, islice
from math import isqrt, prod
from operator import lshift, mul


class IntMatrix:
    """Immutable integer matrix stored row-major as a tuple of tuples.

    Explicit row/column counts are kept so that empty shapes (0 x n and
    n x 0) round-trip correctly; those degenerate shapes show up constantly
    as relation matrices of free groups and boundaries of empty complexes.
    The constructor checks the shape and rejects any entry that is not an
    int (bools, floats and strings included) rather than coercing it.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(map(tuple, entries))
        for i, row in enumerate(data):
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise ValueError("matrix entry [%d][%d] must be an integer, got %r"
                                     % (i, j, x))
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("entries do not match the declared %dx%d shape" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _trusted(cls, rows, cols, data):
        """Wrap int tuples of the declared shape built here, unchecked."""
        mat = object.__new__(cls)
        mat.rows, mat.cols, mat.data = rows, cols, data
        return mat

    @classmethod
    def from_rows(cls, entries):
        entries = [list(row) for row in entries]
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [list(col) for col in columns]
        if rows is None:
            if not columns:
                raise ValueError("row count required for an empty column list")
            rows = len(columns[0])
        if any(len(col) != rows for col in columns):
            raise ValueError("columns have inconsistent heights")
        data = [[col[i] for col in columns] for i in range(rows)]
        return cls(rows, len(columns), data)

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted(rows, cols, ((0,) * cols,) * rows)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])

    def __neg__(self):
        return IntMatrix._trusted(self.rows, self.cols,
                                  tuple(tuple(-x for x in row) for row in self.data))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        return IntMatrix._trusted(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in subtraction")
        return IntMatrix._trusted(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._trusted(self.rows, self.cols, tuple(
                tuple(x * other for x in row) for row in self.data))
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        # row i sums a * (row k of other) over the nonzero a = self[i][k]
        m = other.cols
        sparse_rows = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        data = []
        for row in self.data:
            acc = [0] * m
            for a, bk in zip(row, sparse_rows):
                if a:
                    for j, b in bk:
                        acc[j] += a * b
            data.append(tuple(acc))
        return IntMatrix._trusted(self.rows, m, tuple(data))

    __rmul__ = __mul__

    def transpose(self):
        return IntMatrix._trusted(self.cols, self.rows, tuple(zip(*self.data)) if self.rows
                                  else ((),) * self.cols)

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length %d does not match %d columns" % (len(vec), self.cols))
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self):
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols))

    def is_diagonal(self):
        return all(self.data[i][j] == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def diagonal_entries(self):
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols, "entries": [list(r) for r in self.data]}

    @classmethod
    def from_json(cls, obj):
        """Accept either the explicit {"rows","cols","entries"} form or a
        bare list of rows (shape inferred; [] means 0 x 0). Entries and the
        row and column counts must be integers: booleans, floats and strings
        are rejected, not coerced."""
        if not isinstance(obj, (dict, list)):
            raise ValueError("matrix JSON must be an object or a list of rows")
        if isinstance(obj, dict):
            rows, cols = obj["rows"], obj["cols"]
            for name, n in (("rows", rows), ("cols", cols)):
                if type(n) is not int:
                    raise ValueError("matrix field '%s' must be an integer, got %r" % (name, n))
            return cls(rows, cols, obj["entries"])
        return cls.from_rows(obj)


def _json_object(obj, what):
    """``obj`` when it is a JSON object; otherwise ValueError naming ``what``."""
    if not isinstance(obj, dict):
        raise ValueError("%s data must be a JSON object, got %s" % (what, type(obj).__name__))
    return obj


def _json_list(obj, what):
    """``obj`` when it is a JSON array; otherwise ValueError naming ``what``."""
    if not isinstance(obj, list):
        raise ValueError("%s data must be a JSON array, got %s" % (what, type(obj).__name__))
    return obj


def _json_degrees(obj, what):
    """The entries of the JSON object ``obj`` keyed by degree, as (int, value)
    pairs. A degree key is '0', or ASCII digits without a leading zero after
    an optional '-', so no two keys name the same degree."""
    items = _json_object(obj, what).items()
    for key, _ in items:
        if not re.fullmatch("0|-?[1-9][0-9]*", key):
            raise ValueError("%s degrees must be integers, got %r" % (what, key))
    return [(int(key), value) for key, value in items]


class _SparseMatrix:
    """Integer matrix by columns: ``columns[j]`` maps row index to the
    nonzero entries of column j, and zero columns are absent. Chain
    complexes keep their differentials in this form; ``dense()`` builds
    the IntMatrix view for callers that need one."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, columns):
        self.rows, self.cols, self.columns = rows, cols, columns

    @classmethod
    def of(cls, mat):
        """``mat`` itself when sparse, else the sparse form of an IntMatrix."""
        if isinstance(mat, cls):
            return mat
        columns = {}
        for i, row in enumerate(mat.data):
            for j in compress(range(mat.cols), row):
                columns.setdefault(j, {})[i] = row[j]
        return cls(mat.rows, mat.cols, columns)

    def dense(self):
        data = [[0] * self.cols for _ in range(self.rows)]
        for j, col in self.columns.items():
            for i, x in col.items():
                data[i][j] = x
        return IntMatrix._trusted(self.rows, self.cols, tuple(map(tuple, data)))

    def transpose(self):
        columns = {}
        for j, col in self.columns.items():
            for i, x in col.items():
                columns.setdefault(i, {})[j] = x
        return _SparseMatrix(self.cols, self.rows, columns)

    def __mul__(self, other):
        columns = {}
        for j, col in other.columns.items():
            acc = {}
            for k, y in col.items():
                for i, x in self.columns.get(k, {}).items():
                    acc[i] = acc.get(i, 0) + x * y
            if any(acc.values()):
                columns[j] = {i: x for i, x in acc.items() if x}
        return _SparseMatrix(self.rows, other.cols, columns)

    def blockwise(self, block):
        """self (x) I_block: x at (i, j) goes to each (i*block + g, j*block + g)."""
        return self if block == 1 else _SparseMatrix(self.rows * block, self.cols * block, {
            j * block + g: {i * block + g: x for i, x in col.items()}
            for j, col in self.columns.items() for g in range(block)})


def hstack(*mats):
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    data = tuple(sum((m.data[i] for m in mats), ()) for i in range(rows))
    return IntMatrix._trusted(rows, sum(m.cols for m in mats), data)


_PACKED_FROM = 16 ** 3


def _product_equals(a, b, c):
    """Whether a * b == [c | 0], decided exactly: c has the rows of a and at
    most the columns of b, and the columns it lacks are read as zero.

    Each row y of b and of c is read as one integer P(y) = sum_j y_j 2^(w j)
    in signed slots of w bits, without offset (Kronecker substitution;
    Schoenhage, EUROCAM 1982). P is linear, so row i of a * b packs to
    sum_k a[i][k] P(b_k) over the nonzero a[i][k], which is compared with
    P(c_i): one big multiply-add per nonzero of a, and nothing is formed or
    decoded. The width w puts the entries of a * b (at most the 1-norm of
    a_i times max|b| in row i) and of c below 2^(w-1) in absolute value. P
    is injective there: a difference y != 0 of two such vectors has
    |y_j| < 2^w, and at its lowest nonzero slot j, P(y) = 2^(w j) (y_j +
    2^w m) for an integer m, which is not 0. Zero entries are skipped at C
    speed, so sparse operands cost little more than their nonzeros.

    Below ``_PACKED_FROM`` = 16^3 dense multiply-adds (a.rows * a.cols *
    b.cols) the fixed cost of packing outweighs the product, which is then
    formed and compared. Every check of the seeded universal-coefficient
    certificates falls below 2 048 and runs about a fifth faster so; the
    dense Smith forms of the CLI reports start at 4 096 and check two to
    three times faster packed.
    """
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product: %dx%d times %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    if c.rows != a.rows or c.cols > b.cols:
        return False
    if a.rows * a.cols * b.cols < _PACKED_FROM:
        return (a * b).data == tuple(row + (0,) * (b.cols - c.cols) for row in c.data)
    norm = max((sum(map(abs, filter(None, row))) for row in a.data), default=0)
    w = max(norm * _max_abs(b), _max_abs(c)).bit_length() + 1
    slots = tuple(range(0, w * b.cols, w))
    packed = [_packed(row, slots) for row in b.data]
    return ([sum(map(mul, compress(row, row), compress(packed, row))) for row in a.data]
            == [_packed(row, slots) for row in c.data])


def _max_abs(mat):
    return max(map(abs, filter(None, chain.from_iterable(mat.data))), default=0)


def _packed(row, slots):
    """sum_j row[j] << slots[j] over the nonzero entries of ``row``."""
    return sum(map(lshift, compress(row, row), compress(slots, row)))


@dataclass(frozen=True)
class SmithForm:
    """U * M * V == D with U, V unimodular and D diagonal, nonnegative,
    each diagonal entry dividing the next. ``uinv`` is the exact integer
    inverse of U, verified on every computation."""

    u: IntMatrix
    uinv: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self):
        return self.d.diagonal_entries()

    @property
    def rank(self):
        return sum(1 for x in self.diagonal if x != 0)


def _nonzeros(line, start=0):
    """The (index, entry) pairs of the nonzero entries of ``line`` from ``start`` on."""
    return [(k, line[k]) for k in compress(range(start, len(line)), islice(line, start, None))]


def _identity_lines(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _smith_core(mat):
    r, c = mat.rows, mat.cols
    A = [list(row) for row in mat.data]
    U = _identity_lines(r)
    # U^-1 and V only ever change by column operations, so they are kept as
    # lists of columns and transposed once at the end
    Uic, Vc = _identity_lines(r), _identity_lines(c)
    # Rows above t are zero from column t on: every operation at step t
    # combines rows t.. and columns t.., whose entries above row t are 0.
    t = 0
    mn = min(r, c)
    while t < mn:
        # deterministic pivot: smallest |entry|, first such in row-major
        # order; no nonzero is smaller than a unit, so the scan stops there
        best = None
        pi = pj = -1
        for i in range(t, r):
            Ai = A[i]
            for j in compress(range(t, c), islice(Ai, t, None)):
                x = Ai[j]
                ax = -x if x < 0 else x
                if best is None or ax < best:
                    best, pi, pj = ax, i, j
                    if ax == 1:
                        break
            if best == 1:
                break
        if best is None:
            break
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
            Uic[t], Uic[pi] = Uic[pi], Uic[t]
        if pj != t:
            for i in range(t, r):
                Ai = A[i]
                Ai[t], Ai[pj] = Ai[pj], Ai[t]
            Vc[t], Vc[pj] = Vc[pj], Vc[t]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
            Uic[t] = [-x for x in Uic[t]]
        At, Uit = A[t], Uic[t]
        p = At[t]
        dirty = False
        # row_i -= q * row_t for the rows below; row t stays fixed meanwhile,
        # and the inverse transform is col_t += q * col_i on U^-1
        rows = [i for i in range(t + 1, r) if A[i][t]]
        if rows:
            a_nz, u_nz = _nonzeros(At, t), _nonzeros(U[t])
        for i in rows:
            Ai = A[i]
            q = Ai[t] // p
            if q:
                for j, b in a_nz:
                    Ai[j] -= q * b
                Ui = U[i]
                for j, b in u_nz:
                    Ui[j] -= q * b
                src = Uic[i]
                for k in compress(range(r), src):
                    Uit[k] += q * src[k]
            if Ai[t]:
                dirty = True
        # col_j -= q * col_t for the columns to the right; column t stays
        # fixed meanwhile, and At[j] changes only when column j is reduced
        cols = _nonzeros(At, t + 1)
        if cols:
            col_nz = [(i, A[i][t]) for i in range(t, r) if A[i][t]]
            v_nz = _nonzeros(Vc[t])
        for j, x in cols:
            q = x // p
            if q:
                for i, b in col_nz:
                    A[i][j] -= q * b
                Vj = Vc[j]
                for k, b in v_nz:
                    Vj[k] -= q * b
            if At[j]:
                dirty = True
        if dirty:
            continue
        # a unit pivot divides everything; otherwise find the first row
        # holding an entry it does not divide
        i = None if p == 1 else next(
            (i for i in range(t + 1, r) if any(x % p for x in islice(A[i], t + 1, None))), None)
        if i is not None:
            # pull the offending row up so the next pass shrinks the pivot to a gcd
            A[t] = [a + b for a, b in zip(At, A[i])]
            U[t] = [a + b for a, b in zip(U[t], U[i])]
            Uic[i] = [a - b for a, b in zip(Uic[i], Uit)]
            continue
        t += 1

    return (IntMatrix._trusted(r, r, tuple(map(tuple, U))),
            IntMatrix._trusted(r, r, tuple(zip(*Uic))),
            IntMatrix._trusted(r, c, tuple(map(tuple, A))),
            IntMatrix._trusted(c, c, tuple(zip(*Vc))))


def _verify_smith(mat, form):
    """Raise unless U*U^-1 == I and M*V == U^-1*D (``_product_equals``)."""
    uinv, diag = form.uinv, form.diagonal
    scaled = IntMatrix._trusted(uinv.rows, len(diag),
                                tuple(tuple(map(mul, row, diag)) for row in uinv.data))
    if not (_product_equals(form.u, uinv, IntMatrix.identity(uinv.rows))
            and _product_equals(mat, form.v, scaled)):
        raise AssertionError("Smith reduction bookkeeping failed")


@functools.lru_cache(maxsize=4096)
def smith_normal_form(mat):
    """Smith normal form with unimodular transforms and the inverse of U.

    The Hermite form comes first, M*V_h == [H | 0], and only H is Smith
    reduced, U*H*V_s == D_H; then V = V_h * diag(V_s, I), and D holds the
    diagonal of D_H, padded with zeros to the shape of M. H's entries stay
    near the size of the determinant, and U and V within a few times it,
    where reducing M itself lets them grow far past it (Kannan and Bachem,
    SIAM J. Comput. 8, 1979). The Smith step on H mixes its last rows: on
    about half of the seeded dense matrices, U or V reaches two to three
    times the determinant's bit length.

    U*M*V == D and U*U^-1 == I are re-verified on every computation, as
    U*U^-1 == I and then M*V == U^-1*D, each by ``_product_equals``, which
    forms no product matrix past a small size. D is diagonal, so U^-1*D
    is U^-1 with column j scaled by d_j and zero past the diagonal. The
    two pairs of identities are equivalent: U is square, so U*U^-1 == I
    makes U^-1 the two-sided inverse of U (det U * det U^-1 == 1), and
    U*M*V == D turns into M*V == U^-1*D on multiplying by U^-1 on the
    left, and back on multiplying by U. Since D is built from the diagonal
    of D_H alone, the check also proves that U*M*V is diagonal. A memo hit
    returns the result verified when it was computed. A failure would mean
    corrupted bookkeeping and raises immediately.
    """
    h, vh, _ = _hermite_core(mat)
    u, uinv, dh, vs = _smith_core(h)
    r, c, k = mat.rows, mat.cols, h.cols
    v = vh
    if vs != IntMatrix.identity(k):
        # only the first k columns of V_h meet V_s
        left = IntMatrix._trusted(c, k, tuple(row[:k] for row in vh.data)) * vs
        v = IntMatrix._trusted(c, c, tuple(a + row[k:] for a, row in zip(left.data, vh.data)))
    d = IntMatrix._trusted(r, c, tuple((0,) * i + (x,) + (0,) * (c - 1 - i)
                                       for i, x in enumerate(dh.diagonal_entries()))
                           + ((0,) * c,) * (r - k))
    form = SmithForm(u, uinv, d, v)
    _verify_smith(mat, form)
    return form


@dataclass(frozen=True)
class HermiteForm:
    """M * V == [H | 0] with H the column Hermite normal form of M: column
    k of H has a positive pivot in row ``pivots[k]``, zeros above it, and
    every earlier column reduced into [0, pivot) in that row. H depends
    only on the column span of M. V is unimodular by construction, a
    product of unimodular column steps, but only M * V == [H | 0] is
    verified: where M has full column rank that makes V the one solution,
    and elsewhere a slip in a row of V whose column of M is zero passes."""

    h: IntMatrix
    v: IntMatrix
    pivots: tuple

    @functools.cached_property
    def _substitution(self):
        """(pivot row, pivot, nonzeros of the column below the pivot) for
        each column of H, and the rows that hold no pivot."""
        steps = [(i, col[i], _nonzeros(col, i + 1))
                 for col, i in zip(self.h.transpose().data, self.pivots)]
        held = set(self.pivots)
        return steps, [i for i in range(self.h.rows) if i not in held]

    def solve(self, rhs):
        """The Y with H * Y == rhs by forward substitution on the pivots, or
        None when some column of ``rhs`` lies outside the lattice."""
        if rhs.rows != self.h.rows:
            raise ValueError("shape mismatch in solve")
        steps, free_rows = self._substitution
        B = list(rhs.data)
        ys = []
        # all columns at once, row by row: row k of Y is row pivots[k] of
        # what is left of rhs, divided by the pivot; that row is then spent,
        # and only the rows below it where column k of H is nonzero change
        for i, p, below in steps:
            b = B[i]
            if p != 1:
                if any(x % p for x in b):
                    return None
                b = [x // p for x in b]
            if any(b):
                for m, x in below:
                    B[m] = [a - x * y for a, y in zip(B[m], b)]
            ys.append(tuple(b))
        if any(any(B[m]) for m in free_rows):
            return None
        return IntMatrix._trusted(len(ys), rhs.cols, tuple(ys))


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b == g == gcd(a, b) > 0, by the extended
    Euclidean algorithm; a and b are not both zero."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _cached_nonzeros(i, cols, nz, start=0):
    """The nonzeros of ``cols[i]`` from ``start`` on, kept in ``nz[i]`` until
    the column changes."""
    nz[i] = found = _nonzeros(cols[i], start)
    return found


# The column steps of the Hermite core, logged for the replay on V, with y
# the transform of the column being added (e_j at first): (_EXACT, i, q):
# y -= q V_i; (_XGCD, i, s, t, p, e): V_i, y = s V_i + t y, p y - e V_i;
# (_REDUCE, i, l, q): V_i -= q V_l; and, ending the column, (_PIVOT, i,
# negate): V_i = -y if negate else y, or (_KERNEL,): y is a kernel column.
_EXACT, _XGCD, _REDUCE, _PIVOT, _KERNEL = range(5)


def _reduce_below(i, H, nz, r, log):
    """Reduce basis column i into [0, pivot) in the pivot rows below row i;
    True when it changed. A step at row l changes the column from row l
    down only, so the scan reads every entry after the steps above it."""
    a = H[i]
    changed = False
    for l in compress(range(i + 1, r), islice(a, i + 1, None)):
        if H[l] is not None and (q := a[l] // H[l][l]):
            for m, b in nz[l] or _cached_nonzeros(l, H, nz, l):
                a[m] -= q * b
            log.append((_REDUCE, i, l, q))
            changed = True
    return changed


def _hermite_core(mat):
    r, c = mat.rows, mat.cols
    # The Hermite basis of the columns added so far, by pivot row: its
    # columns of H, their nonzeros (made on first use after a change), and
    # the step that last changed each; ``low`` is the lowest pivot row.
    # Each step is logged, for the replay on V once H is done.
    H, nz, stamp = [None] * r, [None] * r, [0] * r
    log, low = [], -1
    for j, col in enumerate(zip(*mat.data) if r else [()] * c):
        x = list(col)
        changed = []
        # Reduce column j top-down against the basis: by an exact quotient
        # where the pivot divides the entry, else by a 2x2 extended-gcd step
        # that also replaces the pivot column. Both change x in place from
        # row i down, so the scan reads every entry as it is when reached.
        for i in compress(range(r), x):
            a = H[i]
            if a is None:
                negate = x[i] < 0
                H[i] = [-v for v in x] if negate else x
                log.append((_PIVOT, i, negate))
                changed.append(i)
                break
            p, e = a[i], x[i]
            q, rem = divmod(e, p)
            if rem:
                # [a | x] * [[s, -e/g], [t, p/g]], a unimodular 2x2 step
                g, s, t = _xgcd(p, e)
                p, e = p // g, e // g
                H[i] = [s * u + t * v for u, v in zip(a, x)]
                x[:] = [p * v - e * u for u, v in zip(a, x)]
                log.append((_XGCD, i, s, t, p, e))
                changed.append(i)
            else:
                for m, b in nz[i] or _cached_nonzeros(i, H, nz, i):
                    x[m] -= q * b
                log.append((_EXACT, i, q))
        else:
            log.append((_KERNEL,))
        # Only the columns that changed are reduced against the pivots below
        # them, bottom-up, which keeps the entries near the size of the form.
        for i in reversed(changed):
            if i < low:
                _reduce_below(i, H, nz, r, log)
            elif i > low:
                low = i
            nz[i], stamp[i] = None, j
    # One back-reduction pass makes H canonical. A column stays reduced
    # until a pivot below it appears or changes, so the others are skipped.
    # H[i] is a nonempty list at the pivot rows and None elsewhere.
    pivots = tuple(compress(range(r), H))
    latest = 0
    for i in reversed(pivots):
        if stamp[i] < latest and _reduce_below(i, H, nz, r, log):
            nz[i] = None
        if stamp[i] > latest:
            latest = stamp[i]
    cols = [H[i] for i in pivots]
    h = tuple(zip(*cols)) if pivots else ((),) * r
    size = _packed_slot_bytes(mat, cols, pivots) if c and len(pivots) == c else 0
    v = _replay_packed(log, pivots, c, size) if size else _replay_lists(log, pivots, r, c)
    return IntMatrix._trusted(r, len(pivots), h), IntMatrix._trusted(c, c, v), pivots


_PACKED_REPLAY_FILL, _PACKED_REPLAY_UPTO = 2 / 3, 4096


def _packed_slot_bytes(mat, cols, pivots):
    """Bytes per slot of the packed replay of V, or 0 to replay on lists;
    M has full column rank and ``cols`` are the columns of H.

    On the pivot rows S, M*V == H reads M_S*V == H_S, and H_S is lower
    triangular with the pivots on its diagonal, so V == adj(M_S)*H_S /
    det M_S is the one solution. V is unimodular by construction, so
    |det M_S| is the product d of the pivots. An entry of adj(M_S) is a
    minor of M_S without a row l, at most the product of the other rows'
    lengths (Hadamard; Cohen, GTM 138, 2.2.4), so |V[k][j]| <= prod_l
    ceil|M_l| / min_l ceil|M_l| * |column j of H|_1 / d; a slot holds that
    and a sign bit.

    A packed step is one multiply-add of c*s bytes, and c^2 slots are
    decoded; a list step costs a small multiply-add per nonzero of V read.
    Dense input fills V in: with at least ``_PACKED_REPLAY_FILL`` = 2/3
    of M_S nonzero, the seeded dense matrices of n = 16..48 replay 1.3 to
    3 times faster packed, up to ``_PACKED_REPLAY_UPTO`` = 4 096 bytes
    a column; past that, at n = 64..96, the gain falls to 15-45%. Sparser
    transforms, as of the nerve complexes, replay 2 to 25 times slower
    packed.
    """
    c, rows = mat.cols, [mat.data[i] for i in pivots]
    if sum(c - row.count(0) for row in rows) < _PACKED_REPLAY_FILL * c * c:
        return 0
    lengths = [isqrt(sum(map(mul, row, row)) - 1) + 1 for row in rows]
    bound = prod(lengths) // min(lengths) * max(sum(map(abs, col)) for col in cols)
    size = (bound // prod(col[i] for col, i in zip(cols, pivots))).bit_length() // 8 + 1
    return size if c * size <= _PACKED_REPLAY_UPTO else 0


def _replay_packed(log, pivots, c, size):
    """The rows of V, replayed with column j packed as sum_k V[k][j]
    2^(8 size k), in signed slots (Kronecker substitution, as in
    ``_product_equals``). M has full column rank, so every column ends in
    a pivot. Packing is linear, so a step is one big multiply-add, exact
    however large the entries grow on the way. With 2^(8 size - 1) added
    to every slot, the bytes of a final column are its offset slots when
    its entries lie below that offset in absolute value. A slot too narrow
    reads a wrong V, which fails M*V == [H | 0], since V is its one
    solution."""
    bits, V, y, j = 8 * size, {}, 1, 0
    for op in log:
        kind = op[0]
        if kind == _EXACT:
            y -= op[2] * V[op[1]]
        elif kind == _REDUCE:
            V[op[1]] -= op[3] * V[op[2]]
        elif kind == _XGCD:
            _, i, s, t, p, e = op
            w = V[i]
            V[i], y = s * w + t * y, p * y - e * w
        else:
            V[op[1]] = -y if op[2] else y
            j += 1
            y = 1 << bits * j
    total, half, cols = size * c, 1 << bits - 1, []
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * c, "little")
    for i in pivots:
        raw = ((V[i] + offset) & ((1 << 8 * total) - 1)).to_bytes(total, "little")
        cols.append([int.from_bytes(raw[k:k + size], "little") - half for k in range(0, total, size)])
    return tuple(zip(*cols))


def _replay_lists(log, pivots, r, c):
    """The rows of V, replayed on lists of entries. The nonzeros of each
    column of V are kept until it changes, and a step runs over those of
    the column it subtracts."""
    units = iter(_identity_lines(c))
    V, nz, kernel, y = [None] * r, [None] * r, [], next(units, None)
    for op in log:
        kind = op[0]
        if kind == _EXACT:
            _, i, q = op
            for m, b in nz[i] or _cached_nonzeros(i, V, nz):
                y[m] -= q * b
        elif kind == _REDUCE:
            _, i, l, q = op
            w = V[i]
            for m, b in nz[l] or _cached_nonzeros(l, V, nz):
                w[m] -= q * b
            nz[i] = None
        elif kind == _XGCD:
            _, i, s, t, p, e = op
            w, nz[i] = V[i], None
            V[i], y = [s * u + t * v for u, v in zip(w, y)], [p * v - e * u for u, v in zip(w, y)]
        else:
            if kind == _PIVOT:
                V[op[1]] = [-v for v in y] if op[2] else y
            else:
                kernel.append(y)
            y = next(units, None)
    return tuple(zip(*[V[i] for i in pivots], *kernel))


@functools.lru_cache(maxsize=4096)
def hermite_form(mat):
    """Column Hermite normal form with its unimodular transform.

    The identity M*V == [H | 0] is re-verified on every computation, by
    ``_product_equals``, which forms neither M*V nor [H | 0] past a small
    size; a memo hit returns the result verified when it was computed.
    A failure would mean corrupted bookkeeping and raises immediately.

    >>> hermite_form(IntMatrix.from_rows([[2, 4, 6], [1, 3, 5]])).h
    IntMatrix(2, 2, [[2, 0], [0, 1]])
    """
    form = HermiteForm(*_hermite_core(mat))
    _verify_hermite(mat, form)
    return form


def _verify_hermite(mat, form):
    """Raise unless M*V == [H | 0] (``_product_equals``)."""
    if not _product_equals(mat, form.v, form.h):
        raise AssertionError("Hermite reduction bookkeeping failed")


def determinant(mat):
    """Exact determinant via fraction-free Bareiss elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    A = [list(row) for row in mat.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k]), None)
            if pivot is None:
                return 0
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def solve_columns(mat, rhs):
    """Solve mat * X == rhs over the integers, columnwise.

    Returns an IntMatrix X (mat.cols x rhs.cols) or None when some column
    has no integral solution. The answer is the one without a component
    along ``kernel_basis(mat)``, so it is deterministic.
    """
    hf = hermite_form(mat)
    y, r = hf.solve(rhs), hf.h.cols
    return None if y is None else \
        IntMatrix._trusted(mat.cols, r, tuple(row[:r] for row in hf.v.data)) * y


def kernel_basis(mat):
    """Columns form a basis of the integer kernel lattice of ``mat``."""
    hf = hermite_form(mat)
    r = hf.h.cols
    return IntMatrix._trusted(mat.cols, mat.cols - r, tuple(row[r:] for row in hf.v.data))


def column_basis(mat):
    """The canonical basis of the column span lattice of ``mat``: its
    Hermite form, equal for two matrices exactly when their spans are."""
    return hermite_form(mat).h

