"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch against the textbook
definitions, using only the standard library: no imports from the package
under test. Values are exchanged as plain ints, tuples and lists so the
tests can compare them against the package's outputs. The exceptions are
the four sections at the end: unreduced homology replays the package's
full-size homology route through its own lattice engine as the reference
for the unit-reduced one, the kernel/cokernel verifier of split short
exact sequences is the reference for the biproduct check, the
per-generator Hom coordinates are the reference for the batched ones, and
the lattice route to Ext is the reference for its cyclic normal form.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd


# -- Smith normal form ----------------------------------------------------------


def snf_divisors_oracle(rows):
    """Nonzero invariant factors by naive row/column reduction.

    Repeatedly moves a smallest nonzero entry to the corner, clears its row
    and column with Euclidean steps, fixes divisibility by folding in any
    entry the corner does not divide, then recurses on the submatrix.
    """
    m = [list(r) for r in rows]
    out = []
    while m and m[0]:
        if all(all(x == 0 for x in r) for r in m):
            break
        while True:
            bi, bj = None, None
            for i, r in enumerate(m):
                for j, x in enumerate(r):
                    if x != 0 and (bi is None or abs(x) < abs(m[bi][bj])):
                        bi, bj = i, j
            m[0], m[bi] = m[bi], m[0]
            for r in m:
                r[0], r[bj] = r[bj], r[0]
            pivot = m[0][0]
            dirty = False
            for i in range(1, len(m)):
                q = m[i][0] // pivot
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[0])]
                if m[i][0]:
                    dirty = True
            if dirty:
                continue
            for j in range(1, len(m[0])):
                q = m[0][j] // pivot
                if q:
                    for r in m:
                        r[j] -= q * r[0]
                if m[0][j]:
                    dirty = True
            if dirty:
                continue
            culprit = None
            for i in range(1, len(m)):
                for j in range(1, len(m[0])):
                    if m[i][j] % pivot != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            m[0] = [a + b for a, b in zip(m[0], m[culprit])]
        out.append(abs(m[0][0]))
        m = [r[1:] for r in m[1:]]
    return tuple(out)


def smith_core_reference(mat):
    """The dense Smith core the library used before its reductions touched
    only nonzeros, kept as the reference for bit-identical transforms. It
    reads ``mat.rows``, ``mat.cols`` and ``mat.data`` and returns U, U^-1,
    D and V as (rows, cols, row tuples) triples."""
    r, c = mat.rows, mat.cols
    A = [list(row) for row in mat.data]
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    Ui = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in Ui:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for row in Ui:
            row[i] = -row[i]

    def row_add(i, j, q):
        # row_i += q * row_j; the inverse transform is a column op on Ui
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        for row in Ui:
            row[j] -= q * row[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for row in A:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    t = 0
    mn = min(r, c)
    while t < mn:
        # deterministic pivot: smallest |entry|, first such in row-major order
        best = None
        pi = pj = -1
        for i in range(t, r):
            Ai = A[i]
            for j in range(t, c):
                x = Ai[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best, pi, pj = ax, i, j
        if best is None:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if A[t][t] < 0:
            row_neg(t)
        p = A[t][t]
        dirty = False
        for i in range(t + 1, r):
            x = A[i][t]
            if x:
                q = x // p
                if q:
                    row_add(i, t, -q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            x = A[t][j]
            if x:
                q = x // p
                if q:
                    col_add(j, t, -q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        d = A[t][t]
        ok = True
        for i in range(t + 1, r):
            Ai = A[i]
            for j in range(t + 1, c):
                if Ai[j] % d:
                    # pull the offending row up so the next pass shrinks the pivot to a gcd
                    row_add(t, i, 1)
                    ok = False
                    break
            if not ok:
                break
        if ok:
            t += 1

    return tuple((len(M), cols, tuple(map(tuple, M)))
                 for M, cols in ((U, r), (Ui, r), (A, c), (V, c)))


def xgcd(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0, by the recursive
    extended Euclidean algorithm."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = xgcd(b, a % b)
    return g, y, x - (a // b) * y


def hermite_core_reference(mat):
    """The column-incremental Hermite core in plain dense form, the
    reference for bit-identical transforms. Column j is reduced top-down
    against the basis of the columns before it (indexed by pivot row): an
    exact quotient where the pivot divides the entry, else the unimodular
    2x2 step [basis | x] * [[s, -e/g], [t, p/g]]. Every basis column that
    changed, bottom-up, is then reduced into [0, pivot) in the pivot rows
    below it; at the end every basis column is, bottom-up. Returns H and V
    as (rows, cols, row tuples) triples and the pivot rows."""
    r, c = mat.rows, mat.cols
    cols = [list(col) for col in zip(*mat.data)] if r else [[] for _ in range(c)]
    H, V = {}, {}
    kernel = []

    def sub(u, v, q):
        return [a - q * b for a, b in zip(u, v)]

    def reduce_below(i):
        for l in range(i + 1, r):
            if l in H:
                q = H[i][l] // H[l][l]
                H[i], V[i] = sub(H[i], H[l], q), sub(V[i], V[l], q)

    for j in range(c):
        x, y = cols[j], [int(k == j) for k in range(c)]
        changed = []
        for i in range(r):
            e = x[i]
            if e == 0:
                continue
            if i not in H:
                if e < 0:
                    x, y = [-a for a in x], [-a for a in y]
                H[i], V[i] = x, y
                changed.append(i)
                break
            p = H[i][i]
            if e % p == 0:
                x, y = sub(x, H[i], e // p), sub(y, V[i], e // p)
            else:
                g, s, t = xgcd(p, e)
                a, w = H[i], V[i]
                H[i] = [s * u + t * v for u, v in zip(a, x)]
                V[i] = [s * u + t * v for u, v in zip(w, y)]
                x = [(p // g) * v - (e // g) * u for u, v in zip(a, x)]
                y = [(p // g) * v - (e // g) * u for u, v in zip(w, y)]
                changed.append(i)
        else:
            kernel.append(y)
        for i in reversed(changed):
            reduce_below(i)
    pivots = sorted(H)
    for i in reversed(pivots):
        reduce_below(i)
    h = tuple(zip(*(H[i] for i in pivots))) if pivots else ((),) * r
    v = tuple(zip(*([V[i] for i in pivots] + kernel)))
    return (r, len(pivots), h), (c, c, v), tuple(pivots)


def hermite_solve_reference(hf, rhs):
    """The column-at-a-time forward substitution ``HermiteForm.solve`` used
    before it substituted all right-hand sides at once, kept as the
    reference for the batched one. It reads the form's ``h`` and ``pivots``
    and ``rhs.rows``/``rhs.transpose()``, and returns Y as a (rows, cols,
    row tuples) triple, or None when some column lies outside the lattice."""
    if rhs.rows != hf.h.rows:
        raise ValueError("shape mismatch in solve")
    hcols = hf.h.transpose().data
    ys = []
    for b in rhs.transpose().data:
        y = []
        for col, i in zip(hcols, hf.pivots):
            q, rem = divmod(b[i], col[i])
            if rem:
                return None
            b = [x - q * c for x, c in zip(b, col)] if q else b
            y.append(q)
        if any(b):
            return None
        ys.append(y)
    return (len(hf.pivots), len(ys),
            tuple(zip(*ys)) if ys else ((),) * len(hf.pivots))


def hermite_oracle(rows, cols):
    """Column Hermite normal form by pairwise extended gcd (Cohen, GTM 138,
    Alg. 2.4.5, run top-down on columns): returns the rows of H, whose
    column k has a positive pivot in a row where all later columns vanish,
    zeros above it, and earlier columns reduced into [0, pivot) there."""
    m = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(cols)]
    n = len(rows)
    k = 0
    for i in range(n):
        if k == cols:
            break
        for j in range(k + 1, cols):
            a, b = m[k][i], m[j][i]
            if b == 0:
                continue
            g, x, y = xgcd(a, b)
            ck, cj = m[k], m[j]
            m[k] = [x * p + y * q for p, q in zip(ck, cj)]
            m[j] = [(a // g) * q - (b // g) * p for p, q in zip(ck, cj)]
        if m[k][i] == 0:
            continue
        if m[k][i] < 0:
            m[k] = [-p for p in m[k]]
        for j in range(k):
            q = m[j][i] // m[k][i]
            m[j] = [p - q * r for p, r in zip(m[j], m[k])]
        k += 1
    return [[m[j][i] for j in range(k)] for i in range(n)]


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * x * _det(minor)
    return total


def minors_gcd_divisors(rows):
    """Invariant factors as quotients of gcds of k x k minors."""
    if not rows or not rows[0]:
        return ()
    r, c = len(rows), len(rows[0])
    gcds = [1]
    for k in range(1, min(r, c) + 1):
        g = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        gcds.append(g)
    return tuple(gcds[k] // gcds[k - 1] for k in range(1, len(gcds)))


def rank_oracle(rows):
    """Rank over the rationals by Gaussian elimination with Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
    return rank


# -- finite abelian groups ------------------------------------------------------


def divisor_chains(total):
    """All ascending divisor chains d1 | d2 | ... with product ``total``."""
    if total == 1:
        return [()]
    out = []

    def rec(rest, smallest, acc):
        if rest == 1:
            out.append(tuple(acc))
            return
        for d in range(smallest, rest + 1):
            if rest % d == 0:
                ok = all(d % e == 0 for e in acc[-1:])
                if ok:
                    rec(rest // d, d, acc + [d])

    for d in range(2, total + 1):
        if total % d == 0:
            rec(total // d, d, [d])
    # chains must also be ascending under divisibility between all steps
    return [c for c in out
            if all(c[i + 1] % c[i] == 0 for i in range(len(c) - 1))]


def all_finite_groups_to(max_order):
    """Divisor chains of every abelian group of order <= max_order."""
    out = [()]
    for n in range(2, max_order + 1):
        out.extend(divisor_chains(n))
    return out


def _count_killed(torsion, m):
    """#{x in Z/d1 x ... : m*x = 0} = prod gcd(m, d_i)."""
    n = 1
    for d in torsion:
        n *= gcd(m, d)
    return n


def _prime_powers(total):
    out = {}
    rest = total
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
        p += 1
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def invariant_factors_oracle(orders):
    """(free rank, invariant factors) of the direct sum of Z/d over
    ``orders`` (0 meaning Z) by primary decomposition: factor each order by
    trial division, sort each prime's exponents from largest down, and
    multiply the k-th largest power of every prime into the k-th largest
    invariant factor."""
    exponents = {}
    for d in orders:
        if d:
            for p, e in _prime_powers(d).items():
                exponents.setdefault(p, []).append(e)
    factors = [1] * max((len(es) for es in exponents.values()), default=0)
    for p, es in exponents.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[k] *= p ** e
    return list(orders).count(0), tuple(sorted(factors))


def classify_by_order_counts(count_fn, total):
    """The unique divisor chain whose m-torsion counts match count_fn.

    One prime at a time: passing from elements killed by p^(k-1) to those
    killed by p^k multiplies the count by p^(number of cyclic p-power
    factors of order at least p^k), so the count ladder pins the exponent
    multiset of each prime; the primes are then zipped largest-to-largest
    into an ascending divisor chain.
    """
    if total == 1:
        return ()
    exponents = {}
    for p, e in _prime_powers(total).items():
        prev = 1
        ladder = []
        for k in range(1, e + 1):
            n_k = count_fn(p ** k)
            assert n_k % prev == 0, "torsion counts are not nested"
            q = n_k // prev
            step = 0
            while q > 1:
                assert q % p == 0, "count jump is not a power of %d" % p
                q //= p
                step += 1
            if step == 0:
                break
            ladder.append(step)
            prev = n_k
        assert sum(ladder) == e, \
            "order counts match no abelian group of order %d" % total
        assert all(ladder[i] >= ladder[i + 1] for i in range(len(ladder) - 1))
        exps = []
        for k, r in enumerate(ladder, start=1):
            below = ladder[k] if k < len(ladder) else 0
            exps.extend([k] * (r - below))
        exponents[p] = sorted(exps)
    width = max(len(v) for v in exponents.values())
    chain = []
    for j in range(width):
        d = 1
        for p, exps in exponents.items():
            pad = width - len(exps)
            if j >= pad:
                d *= p ** exps[j - pad]
        chain.append(d)
    assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
    return tuple(chain)


def _elements(torsion):
    return list(product(*[range(d) for d in torsion]))


def _scale(torsion, k, x):
    return tuple((k * a) % d for a, d in zip(x, torsion))


# Multipliers act through gcd with the exponent (the last invariant
# factor), so counts are memoized on that reduction; the same generator
# order / coefficient group combinations recur across the whole corpus.
_KILLED = {}
_KILLED_COUNT = {}
_SCALED_SET = {}
_COSET_COUNT = {}


def _killed_elements(g_torsion, d):
    exp = g_torsion[-1] if g_torsion else 1
    d = gcd(d, exp)
    key = (d, g_torsion)
    if key not in _KILLED:
        _KILLED[key] = [x for x in _elements(g_torsion)
                        if all(v == 0 for v in _scale(g_torsion, d, x))]
    return d, _KILLED[key]


def _killed_count(g_torsion, d, m):
    """#{x in G : d*x = 0 and m*x = 0} by literal enumeration."""
    exp = g_torsion[-1] if g_torsion else 1
    d, killed = _killed_elements(g_torsion, d)
    m = gcd(m, exp)
    key = (d, m, g_torsion)
    if key not in _KILLED_COUNT:
        _KILLED_COUNT[key] = sum(1 for x in killed
                                 if all(v == 0 for v in _scale(g_torsion, m, x)))
    return _KILLED_COUNT[key]


def hom_oracle(a_torsion, g_torsion):
    """Invariant factors of Hom(A, G) for finite A and G, by enumerating,
    for each generator of order d, the subgroup of G killed by d."""
    a_torsion, g_torsion = tuple(a_torsion), tuple(g_torsion)
    factors = []
    for d in a_torsion:
        _, killed = _killed_elements(g_torsion, d)

        def count(m, d=d):
            return _killed_count(g_torsion, d, m)

        factors.append((count, len(killed)))
    return _classify_product(factors)


def _scaled_set(g_torsion, d):
    exp = g_torsion[-1] if g_torsion else 1
    d = gcd(d, exp)
    key = (d, g_torsion)
    if key not in _SCALED_SET:
        _SCALED_SET[key] = {tuple(_scale(g_torsion, d, x))
                            for x in _elements(g_torsion)}
    return d, _SCALED_SET[key]


def ext_oracle(a_torsion, g_torsion):
    """Invariant factors of Ext(A, G) for finite A and G, by enumerating
    the quotient G / dG for each generator of order d."""
    a_torsion, g_torsion = tuple(a_torsion), tuple(g_torsion)
    elems = _elements(g_torsion)
    exp = g_torsion[-1] if g_torsion else 1
    factors = []
    for d in a_torsion:
        d_red, sub = _scaled_set(g_torsion, d)
        order = len(elems) // len(sub)

        def count(m, d_red=d_red, sub=sub):
            m = gcd(m, exp)
            key = (d_red, m, g_torsion)
            if key not in _COSET_COUNT:
                hits = sum(1 for x in elems
                           if tuple(_scale(g_torsion, m, x)) in sub)
                _COSET_COUNT[key] = hits // len(sub)
            return _COSET_COUNT[key]

        factors.append((count, order))
    return _classify_product(factors)


def cyclic_sum_iso_oracle(orders, normal, proj, lifts):
    """Is x |-> proj x an isomorphism of A = Z/o_1 + ... + Z/o_k onto
    B = Z/e_1 + ... + Z/e_n (an order 0 is Z; o = ``orders``, e = ``normal``;
    row r of ``proj`` is read modulo e_r), with column c of ``lifts`` sent to
    the c-th generator of B?

    The map is block triangular: a torsion coordinate can only go to the
    torsion rows, so it is an isomorphism exactly when the free block is a
    square integer matrix of determinant +-1 and the torsion part of A,
    brute-forced element by element (a few hundred at most), goes one to one
    onto the torsion part of B and respects addition: stepping any
    coordinate by one, with wrap-around, adds the image of its generator.
    """
    free_a = [i for i, o in enumerate(orders) if o == 0]
    tors_a = [i for i, o in enumerate(orders) if o]
    free_b = [r for r, e in enumerate(normal) if e == 0]
    tors_b = [r for r, e in enumerate(normal) if e]
    if any(proj[r][i] for r in free_b for i in tors_a) or len(free_a) != len(free_b):
        return False
    if abs(_det([[proj[r][i] for i in free_a] for r in free_b])) != 1:
        return False

    def image(x):
        return tuple(sum(proj[r][i] * a for i, a in zip(tors_a, x)) % normal[r]
                     for r in tors_b)

    tors_orders = [orders[i] for i in tors_a]
    elements = list(product(*[range(o) for o in tors_orders]))
    images = {x: image(x) for x in elements}
    size = 1
    for r in tors_b:
        size *= normal[r]
    if len(set(images.values())) != len(elements) or size != len(elements):
        return False
    units = [image(tuple(int(i == j) % o for j, o in enumerate(tors_orders)))
             for i in range(len(tors_a))]
    for x, fx in images.items():
        for i, o in enumerate(tors_orders):
            y = x[:i] + ((x[i] + 1) % o,) + x[i + 1:]
            if images[y] != tuple((a + b) % normal[r] for a, b, r in zip(fx, units[i], tors_b)):
                return False
    for c in range(len(normal)):
        got = [sum(row[i] * lifts[i][c] for i in range(len(orders))) for row in proj]
        want = [int(r == c) for r in range(len(normal))]
        if any((g - w) % e if e else g - w for g, w, e in zip(got, want, normal)):
            return False
    return True


def _classify_product(factors):
    total = 1
    for _, order in factors:
        total *= order
    if total == 1:
        return ()

    def count(m):
        n = 1
        for fn, _ in factors:
            n *= fn(m)
        return n

    return classify_by_order_counts(count, total)


# -- towers of finite groups ----------------------------------------------------


def stable_image_oracle(torsion, endo_rows):
    """Invariant factors of the stable image of an endomorphism of a finite
    group, by iterating the image at the element level."""
    elems = _elements(torsion)

    def apply(x):
        return tuple(sum(endo_rows[i][j] * x[j] for j in range(len(x))) % torsion[i]
                     for i in range(len(torsion)))

    current = set(elems)
    while True:
        nxt = {apply(x) for x in current}
        if nxt == current:
            break
        current = nxt
    members = sorted(current)

    def count(m):
        return sum(1 for x in members
                   if all(v == 0 for v in _scale(torsion, m, x)))

    return classify_by_order_counts(count, len(members))


# -- products and boundaries -----------------------------------------------------


def matmul_oracle(a, b, cols):
    """Rows of the product of the row lists ``a`` (n x k) and ``b``
    (k x cols), by the plain triple loop over every entry, zeros included."""
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            total = 0
            for t in range(len(b)):
                total += row[t] * b[t][j]
            out_row.append(total)
        out.append(out_row)
    return out


def full_sum_boundary_oracle(values, faces, n_blocks, orders):
    """Delta f(tau) = sum of f(b, tau) over every block b, for every tau in
    ``faces``. ``values`` maps strictly increasing block tuples to vectors;
    f(b, tau) is the value of the sorted tuple times the sign of the sorting
    permutation (its inversion count), zero on a repeated block or a tuple
    without a value. Coordinates are reduced modulo ``orders`` (0 = free).
    Returns (tau, vector) pairs in the order of ``faces``, zeros dropped."""
    out = []
    for tau in faces:
        total = [0] * len(orders)
        for b in range(n_blocks):
            args = (b,) + tuple(tau)
            key = tuple(sorted(args))
            if len(set(key)) < len(key) or key not in values:
                continue
            inversions = sum(1 for i in range(len(args))
                             for j in range(i + 1, len(args)) if args[i] > args[j])
            for g, v in enumerate(values[key]):
                total[g] += (-1) ** inversions * v
        total = tuple(x % d if d else x for x, d in zip(total, orders))
        if any(total):
            out.append((tuple(tau), total))
    return out


def generator_boundary_reference(levels, n, n_blocks, orders):
    """(rows, cols, data) of the degree-n boundary matrix of the set-function
    complex, from the definition: column (s, j) is Delta of the chain with
    value e_j on the simplex s and zero elsewhere, each Delta f(tau) summed
    over every block (full_sum_boundary_oracle). ``levels[d]`` lists the
    strictly increasing d-simplices of the nerve; coordinates run
    simplex-major, generator-minor. A degree outside the nerve has no
    coordinates."""
    g = len(orders)
    faces = levels[n - 1] if 1 <= n <= len(levels) else ()
    sources = levels[n] if 0 <= n < len(levels) else ()
    position = {tuple(tau): i for i, tau in enumerate(faces)}
    data = [[0] * (len(sources) * g) for _ in range(len(faces) * g)]
    for k, s in enumerate(sources):
        for j in range(g):
            unit = tuple(int(i == j) for i in range(g))
            for tau, vec in full_sum_boundary_oracle({tuple(s): unit}, faces,
                                                     n_blocks, orders):
                for i, x in enumerate(vec):
                    data[position[tau] * g + i][k * g + j] = x
    return len(faces) * g, len(sources) * g, tuple(map(tuple, data))


# -- endomorphisms of free groups -----------------------------------------------


def charpoly_oracle(rows):
    """Coefficients [c_0, ..., c_n] of det(x*I - M), by the Faddeev-LeVerrier
    recursion M_k = M*M_{k-1} + c_{n-k+1}*I, c_{n-k} = -trace(M*M_k)/k, in
    exact rational arithmetic."""
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    coeffs = [Fraction(0)] * n + [Fraction(1)]
    aux = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        aux = mul(m, aux)
        for i in range(n):
            aux[i][i] += coeffs[n - k + 1]
        coeffs[n - k] = -sum(mul(m, aux)[i][i] for i in range(n)) / k
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def image_chain_stabilizes_oracle(rows):
    """Does Z^n >= M(Z^n) >= M^2(Z^n) >= ... stabilize (Mittag-Leffler)?

    Over Q, M is nilpotent on one summand and invertible on another, U. The
    chain stabilizes exactly when M restricts to an automorphism of the
    stable lattice, a full lattice in U, i.e. when det(M on U) = +-1; that
    determinant is, up to sign, the constant term of the characteristic
    polynomial once its power of x is divided out."""
    lowest = next(c for c in charpoly_oracle(rows) if c != 0)
    return abs(lowest) == 1


# -- mosaics ---------------------------------------------------------------------


def expected_mosaic_blocks(sets):
    """Blocks of the membership-signature refinement: atoms grouped by the
    exact collection of input sets containing them."""
    by_sig = {}
    for s in sets:
        for a in s:
            sig = frozenset(i for i, t in enumerate(sets) if a in t)
            by_sig.setdefault(sig, set()).add(a)
    return sorted(frozenset(b) for b in by_sig.values())


def mosaic_conditions_hold(sets, blocks):
    """The defining conditions: blocks are nonempty and pairwise disjoint,
    cover exactly the union, and every input set is a union of blocks."""
    blocks = [frozenset(b) for b in blocks]
    if any(not b for b in blocks):
        return False
    union = set()
    for b in blocks:
        if union & b:
            return False
        union |= b
    target = set().union(*[set(s) for s in sets]) if sets else set()
    if union != target:
        return False
    for s in sets:
        s = set(s)
        chosen = set()
        for b in blocks:
            if b <= s:
                chosen |= b
            elif b & s:
                return False
        if chosen != s:
            return False
    return True


def occurrence_systems(n_sets, max_atoms):
    """Canonical set systems, one per occurrence-set of membership
    patterns: each nonempty subset of {0..n_sets-1} either is or is not
    realized by an atom, and atom i carries pattern p_i with multiplicity
    one. Mosaic blocks are unions of pattern classes, so the conditions
    only depend on which patterns occur; duplicating an atom never changes
    them. At most ``max_atoms`` patterns can occur on that many atoms."""
    all_patterns = [frozenset(s) for r in range(1, n_sets + 1)
                    for s in combinations(range(n_sets), r)]
    for r in range(min(len(all_patterns), max_atoms) + 1):
        for chosen in combinations(range(len(all_patterns)), r):
            pats = [all_patterns[i] for i in chosen]
            sets = [frozenset(a for a, p in enumerate(pats) if i in p)
                    for i in range(n_sets)]
            yield sets, len(pats)


# -- model faces -------------------------------------------------------------------


def maximal_faces_scan(simplices):
    """The faces of a family that lie in no other face, by comparing every
    pair, sorted as ``FiniteModel.maximal``."""
    return tuple(sorted(tuple(sorted(s)) for s in simplices
                        if not any(s < t for t in simplices)))


def torus_faces(n):
    """Facets of the n x n triangulated torus on atoms 0..n*n-1: two
    triangles per grid square."""
    def v(i, j):
        return (i % n) * n + j % n
    return [f for i in range(n) for j in range(n)
            for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]


def starred_sphere_faces(rng, k, stars):
    """(atoms, facets) of the boundary of the k-simplex, a (k-1)-sphere,
    with ``stars`` random facets each replaced by the cone from a new atom
    over its boundary."""
    facets = set(combinations(range(k + 1), k))
    atoms = k + 1
    for _ in range(stars):
        facet = rng.choice(sorted(facets))
        facets.remove(facet)
        facets.update(tuple(sorted(set(facet) - {x})) + (atoms,) for x in facet)
        atoms += 1
    return atoms, sorted(facets)


# -- unreduced homology ------------------------------------------------------------


def unreduced_homology_groups(mats, orders):
    """Every group of a chain complex of cyclic sums by the full-size
    formula, with no unit pivot split off: mats[n] maps degree n to n-1 (an
    absent matrix is zero) and orders[n] lists the orders of the degree-n
    coordinates (0: free)."""
    from tauthom.groups import Subquotient, _relations_for_orders, kernel_lattice
    from tauthom.matrices import IntMatrix, hstack

    def mat(n):
        return mats.get(n) or IntMatrix.zeros(len(orders.get(n - 1, ())),
                                              len(orders.get(n, ())))
    return {n: Subquotient(kernel_lattice(mat(n), orders.get(n - 1, ())),
                           hstack(mat(n + 1), _relations_for_orders(orders[n]))).group
            for n in sorted(orders)}


def coefficient_diff(cc, n):
    """The differential of a CoefficientComplex Hom(C, G) out of degree n,
    Hom(C^n, G) -> Hom(C^{n-1}, G), as the full-size dense matrix
    (d^{n-1})^T (x) I_m, entry by entry."""
    return kron_identity_reference(cc.base.diff(n - 1).transpose(), cc.coefficients.n_gens)


def coefficient_homology_subquotient(cc, n):
    """H_n(Hom(C, G)) as the full-size Subquotient of rank(n) * m: the kernel
    lattice of the outgoing differential over the image of the incoming one
    and the relations of G^rank(n)."""
    from tauthom.groups import Subquotient, _relations_for_orders, kernel_lattice
    from tauthom.matrices import hstack
    return Subquotient(kernel_lattice(coefficient_diff(cc, n), cc.orders(n - 1)),
                       hstack(coefficient_diff(cc, n + 1), _relations_for_orders(cc.orders(n))))


def unreduced_homology(cx):
    """Every group of a FreeComplex or CoefficientComplex by the full-size
    route: the Subquotient of the kernel of the outgoing differential by the
    image of the incoming one (``coefficient_homology_subquotient`` for a
    CoefficientComplex)."""
    from tauthom.complexes import FreeComplex
    from tauthom.groups import Subquotient
    from tauthom.matrices import kernel_basis

    def free_group(n):
        out = cx.diff(n)
        inn = cx.diff(n + 1 if cx.direction == "chain" else n - 1)
        return Subquotient(kernel_basis(out), inn).group

    if isinstance(cx, FreeComplex):
        return {n: free_group(n) for n in cx.degrees()}
    return {n: coefficient_homology_subquotient(cx, n).group for n in range(cx.lo, cx.hi + 1)}


def unreduced_kolmogoroff_groups(model, partition, coefficients):
    """The boundary-evaluation pipeline of kolmogoroff_homology as it was
    before unit reduction: kernel lattice and Subquotient on the full
    generator boundary matrices, degree by degree. The matrices come from
    generator_boundary_reference, not from the package's evaluation."""
    from tauthom.groups import Subquotient, _relations_for_orders, kernel_lattice
    from tauthom.kolmogoroff import NerveComplex
    from tauthom.matrices import IntMatrix, hstack

    nerve = NerveComplex(model, partition)
    dim = nerve.dimension
    deltas = {n: IntMatrix(*generator_boundary_reference(
        nerve.simplices, n, len(partition), coefficients.orders))
        for n in range(dim + 2)}
    direct = {}
    for n in range(dim + 1):
        orders_n = coefficients.orders * nerve.count(n)
        orders_out = coefficients.orders * nerve.count(n - 1)
        num = kernel_lattice(deltas[n], orders_out)
        den = hstack(deltas[n + 1], _relations_for_orders(orders_n))
        direct[n] = Subquotient(num, den).group
    return direct


# -- kernel/cokernel verifier of split short exact sequences ---------------------


def same_subgroup(f, g):
    """Do two maps into a common target have the same image subgroup?"""
    from tauthom.matrices import column_basis, hstack
    if f.target != g.target:
        raise ValueError("maps land in different groups")
    rel = f.target.relation_matrix()
    return column_basis(hstack(f.matrix, rel)) == column_basis(hstack(g.matrix, rel))


def check_short_exact(n, include, evaluate, left):
    """Raise CertificateFailure unless 0 -> . -include-> . -evaluate-> . -> 0
    is exact, by kernels, cokernels and image equality; ``left`` names the
    first term in the messages."""
    from tauthom.complexes import CertificateFailure
    from tauthom.groups import cokernel, kernel
    if not kernel(include)[0].is_trivial:
        raise CertificateFailure("degree %d: %s fails to inject" % (n, left))
    if not cokernel(evaluate)[0].is_trivial:
        raise CertificateFailure("degree %d: evaluation fails to surject" % n)
    if not (evaluate @ include).is_zero:
        raise CertificateFailure("degree %d: composite through the middle is nonzero" % n)
    if not same_subgroup(kernel(evaluate)[1], include):
        raise CertificateFailure("degree %d: kernel of evaluation differs from the image of %s"
                                 % (n, left))


def verify_certificate_reference(cert):
    """The certificate verifier by kernels and cokernels: exactness, the
    splitting as a right inverse of the surjection, and the middle group as
    the direct sum of the ends."""
    from tauthom.complexes import CertificateFailure
    n = cert.degree
    check_short_exact(n, cert.injection, cert.surjection, "the Ext term")
    if not (cert.surjection @ cert.splitting).is_identity:
        raise CertificateFailure("degree %d: splitting is not a right inverse" % n)
    if cert.middle != cert.ext_term.direct_sum(cert.hom_term):
        raise CertificateFailure("degree %d: middle group is not the direct sum of the ends" % n)


# -- per-generator Hom coordinates ------------------------------------------------


def kron_identity_reference(mat, block):
    """mat (x) I_block as a dense IntMatrix, entry by entry: mat[i][j] goes to
    every (i*block + g, j*block + g)."""
    from tauthom.matrices import IntMatrix
    data = [[0] * (mat.cols * block) for _ in range(mat.rows * block)]
    for i, row in enumerate(mat.data):
        for j, x in enumerate(row):
            for g in range(block):
                data[i * block + g][j * block + g] = x
    return IntMatrix(mat.rows * block, mat.cols * block, data)


def hom_to_map_reference(hom, coords):
    """HomGroup.to_map by the pair formula: lifted pair coordinate t_p of
    pair (j, i, c, _) adds t_p * c at entry (i, j)."""
    from tauthom.groups import GroupMap
    from tauthom.matrices import IntMatrix
    t = hom._cyclic.lifts.apply(hom.group.reduce(coords))
    data = [[0] * hom.source.n_gens for _ in range(hom.coefficients.n_gens)]
    for (j, i, c, _), val in zip(hom.pairs, t):
        data[i][j] += val * c
    return GroupMap(hom.source, hom.coefficients,
                    IntMatrix(hom.coefficients.n_gens, hom.source.n_gens, data))


def hom_from_map_reference(hom, f):
    """HomGroup.from_map pair by pair: entry (i, j) of the checked GroupMap
    divided by the pair's scale c."""
    from tauthom.groups import IllFormedMap
    from tauthom.matrices import IntMatrix
    t = []
    for j, i, c, _ in hom.pairs:
        e = f.matrix.data[i][j]
        if e % c:
            raise IllFormedMap("entry (%d,%d) is not a multiple of %d" % (i, j, c))
        t.append(e // c)
    return hom._cyclic.coords_matrix(IntMatrix(len(t), 1, [[x] for x in t])).column(0)


def _columns_map(source, target, cols):
    from tauthom.groups import GroupMap
    from tauthom.matrices import IntMatrix
    return GroupMap(source, target, IntMatrix(len(cols), target.n_gens, cols).transpose())


def hom_pullback_reference(hom, f, dest):
    """HomGroup.pullback one generator at a time: each canonical generator
    of Hom(A, G) as a GroupMap, composed with f and read back in Hom(B, G)."""
    from tauthom.matrices import IntMatrix
    return _columns_map(hom.group, dest.group, [
        hom_from_map_reference(dest, hom_to_map_reference(hom, e) @ f)
        for e in IntMatrix.identity(hom.group.n_gens).data])


def sequence_reference(suite, n, left, mid, h_lifts):
    """The certificate's three maps into and out of ``mid``, a Subquotient
    of Hom(C^n, G) such as the full-size ``coefficient_homology_subquotient``,
    with per-column loops: include by the entrywise Kronecker product,
    evaluate as one GroupMap H^n -> G per middle generator, and split from
    each Hom generator's GroupMap. ``h_lifts`` are cocycles naming the
    generators of H^n the certificate's Hom term is written in. Returns
    (include, evaluate, split).

    The integral data comes from the full-size lattice route on
    ``suite.base``: the cocycles z = ker d^n, the coboundary basis b of
    B^{n+1} (``left`` is in its coordinates), H^n = Subquotient(z, d^{n-1}),
    d^n in the basis b, and the section s of d^n onto b that ``solve_columns``
    picks, the one without a component along ker d^n. ``h_lifts`` must read
    as an automorphism of H^n in that Subquotient's coordinates. The
    splitting depends on the complement S^n = span(s) of the cocycles: a Hom
    generator becomes the cochain that evaluates it on the class of the
    projection I - s dB onto Z^n along S^n."""
    from tauthom.groups import GroupMap, HomGroup, Subquotient, inverse
    from tauthom.matrices import IntMatrix, column_basis, kernel_basis, solve_columns
    G, m = suite.coefficients, suite.coefficients.n_gens
    d = suite.base.diff(n)
    b = column_basis(d)
    in_b_basis = solve_columns(b, d)
    push = kron_identity_reference(in_b_basis.transpose(), m)
    include = GroupMap(left.group, mid.group, mid.coords_matrix(push * left.lifts))

    h_sq = Subquotient(kernel_basis(d), suite.base.diff(n - 1))
    H = h_sq.group
    named = inverse(GroupMap(H, H, h_sq.coords_matrix(h_lifts)))
    assert named is not None, "the cocycles do not name generators of H^%d" % n
    homg = HomGroup(H, G)
    values = kron_identity_reference(h_lifts.transpose(), m) * mid.lifts
    evaluate = _columns_map(mid.group, homg.group, [
        hom_from_map_reference(homg, GroupMap(H, G, IntMatrix(
            H.n_gens, m, [v[k * m:(k + 1) * m] for k in range(H.n_gens)]).transpose()))
        for v in values.transpose().data])

    h_of_basis = named.matrix * h_sq.coords_matrix(
        IntMatrix.identity(d.cols) - solve_columns(d, b) * in_b_basis)
    chains = [[x for col in (hom_to_map_reference(homg, e).matrix * h_of_basis).transpose().data
               for x in col]
              for e in IntMatrix.identity(homg.group.n_gens).data]
    split = GroupMap(homg.group, mid.group, mid.coords_matrix(
        IntMatrix(len(chains), mid.ambient_dim, chains).transpose()))
    return include, evaluate, split


# -- the lattice route to Ext ----------------------------------------------------


def ext_lattice_reference(a, g):
    """Ext(A, G) as a Subquotient: Z^(t*m), the G-tuples indexed by the t
    torsion relations of A, over the image of Hom(Z^n, G) --(R transposed)-->
    Hom(Z^t, G) for the resolution 0 -> Z^t --R--> Z^n -> A -> 0 and the
    relations of G in each tuple entry."""
    from tauthom.groups import Subquotient, _relations_for_orders
    from tauthom.matrices import IntMatrix, hstack
    t, m = len(a.torsion), g.n_gens
    restr = kron_identity_reference(a.relation_matrix().transpose(), m)
    return Subquotient(IntMatrix.identity(t * m),
                       hstack(restr, _relations_for_orders(g.orders * t)))


def ext_pullback_reference(f, g):
    """The action Ext(A, G) -> Ext(B, G) of f: B -> A on the lattice routes:
    f lifted to a map of resolutions, precomposed entry by entry. Returns
    (route of A, route of B, the map between their groups)."""
    from tauthom.groups import GroupMap
    from tauthom.matrices import solve_columns
    sq_a, sq_b = ext_lattice_reference(f.target, g), ext_lattice_reference(f.source, g)
    lifted = solve_columns(f.target.relation_matrix(), f.matrix * f.source.relation_matrix())
    push = kron_identity_reference(lifted.transpose(), g.n_gens)
    return sq_a, sq_b, GroupMap(sq_a.group, sq_b.group, sq_b.coords_matrix(push * sq_a.lifts))
