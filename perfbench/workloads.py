"""The three workloads: seeded query lists and the independent check of
every answer.

A round is one pass over a workload's size ladder. Every round draws fresh
inputs from ``random.Random("<workload>/<seed>/<round>")`` and a process
never hands the library the same input twice (``Context.fresh``), because
``smith_normal_form`` keeps a process-wide memo that would otherwise be
measured in place of the algebra. The four ``lim`` queries on the Z^2 tails
that tauthom cannot decide today draw their conjugates from the round index,
not from the seed (redrawing only one the process has already used), and
skip every conjugate the library would diagonalize, so they fail in every
round of every run.

A query's ``call`` is the timed user-level call; its ``check`` runs
afterwards, untimed, and returns OK, FAILED (the library raised, exited
nonzero, or answered ``unknown``) or WRONG (a definite answer that
contradicts the expectation computed in ``oracles``).
"""

import contextlib
import functools
import io
import itertools
import json
import os
import random

from tauthom import (FiniteModel, GroupMap, NeighborhoodTower, Partition,
                     PresentedGroup, SubspaceData, Telescope, Tower,
                     kolmogoroff_homology, octahedron, parse_group,
                     projective_plane, uct_certificates)
from tauthom.cli import main as cli_main
from tauthom.matrices import IntMatrix, smith_normal_form
from tauthom.randomgen import (random_finite_telescope,
                               random_free_cochain_complex)

import oracles

OK, FAILED, WRONG = "ok", "failed", "wrong"
_SEVERITY = {OK: 0, FAILED: 1, WRONG: 2}


def worst(statuses):
    return max(statuses, key=_SEVERITY.__getitem__, default=OK)


class Query:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


class InputsExhausted(RuntimeError):
    """A rung of the ladder has no input left that this process has not seen."""


class Context:
    """State of one benchmark process: the inputs already handed to the
    library, the directory for JSON input files, and the largest transform
    entry seen in ``snf`` reports."""

    def __init__(self, workload, seed, size, workdir):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.claimed = set()
        self.max_transform_bits = 0
        pool = _primes_below(60000)
        random.Random("%s/%d/primes" % (workload, seed)).shuffle(pool)
        self._primes = iter(pool)

    def fresh(self, draw, tries=2000):
        """Call ``draw()`` -> (value, key) until the key is new to the process."""
        for _ in range(tries):
            value, key = draw()
            if key not in self.claimed:
                self.claimed.add(key)
                return value
        raise InputsExhausted("no unused input left after %d draws" % tries)

    def prime(self):
        return next(self._primes)

    def path(self, round_index, name, obj):
        folder = os.path.join(self.workdir, "r%d" % round_index)
        os.makedirs(folder, exist_ok=True)
        path = os.path.join(folder, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\0\0"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


def build_round(ctx, round_index):
    rng = random.Random("%s/%d/%d" % (ctx.workload, ctx.seed, round_index))
    return BUILDERS[ctx.workload](ctx, rng, round_index)


# -- nerve-homology ------------------------------------------------------------

# (family, parameter) rungs; every model is queried over Z and over Z/2.
NERVE_LADDER = {
    "full": [("circle", 20), ("circle", 30), ("circle", 40), ("circle", 45), ("circle", 50),
             ("coarse", (40, 12)), ("coarse", (44, 16)), ("coarse", (48, 20)),
             ("coarse", (50, 24)), ("torus", 3), ("torus", 4),
             ("sphere", (3, 3)), ("sphere", (4, 3)), ("sphere", (5, 2)),
             ("octahedron", 2), ("rp2", 2)],
    "smoke": [("circle", 8), ("coarse", (12, 6)), ("sphere", (3, 3)), ("rp2", 2)],
}

_Z, _Z2 = oracles.Z, oracles.group(0, [2])


def _stellar(rng, facets, next_vertex):
    """Replace a random facet F by the cone from a new vertex over its boundary."""
    facet = rng.choice(sorted(facets))
    facets.remove(facet)
    for x in facet:
        facets.add(tuple(sorted(set(facet) - {x})) + (next_vertex,))


def _nerve_model(rng, family, param):
    """(atoms, faces, blocks, integral homology) before relabelling."""
    if family in ("circle", "coarse"):
        n = param if family == "circle" else param[0]
        faces = [(i, (i + 1) % n) for i in range(n)]
        blocks = [(a,) for a in range(n)]
        if family == "coarse":
            cuts = sorted(rng.sample(range(n), param[1]))
            blocks = [tuple(range(a, b)) for a, b in zip(cuts, cuts[1:])]
            blocks.append(tuple(range(cuts[-1], n)) + tuple(range(cuts[0])))
        return n, faces, blocks, {0: _Z, 1: _Z}
    if family == "torus":
        n = param

        def v(i, j):
            return (i % n) * n + j % n
        faces = [f for i in range(n) for j in range(n)
                 for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                           (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
        return n * n, faces, None, {0: _Z, 1: oracles.group(2), 2: _Z}
    # the rest are starred some number of times: one labelling of the plain
    # complex would repeat, its starred versions come in thousands
    if family == "sphere":
        # the boundary of the k-simplex, a (k-1)-sphere
        k, stars = param
        facets = set(itertools.combinations(range(k + 1), k))
        homology = {0: _Z, k - 1: _Z}
        atoms = k + 1
    else:
        base = octahedron() if family == "octahedron" else projective_plane()
        facets = set(base.maximal)
        homology = {0: _Z, 2: _Z} if family == "octahedron" else \
            {0: _Z, 1: oracles.group(0, [2])}
        atoms, stars = base.atoms, param
    for _ in range(stars):
        _stellar(rng, facets, atoms)
        atoms += 1
    return atoms, sorted(facets), None, homology


def _nerve_of(faces, blocks):
    """Simplices of the nerve as sorted block-index tuples, computed apart
    from the library: blocks ordered by smallest atom, faces closed downward."""
    order = sorted(blocks, key=min)
    block_of = {a: i for i, b in enumerate(order) for a in b}
    simplices = set()
    for face in faces:
        for r in range(1, len(face) + 1):
            for sub in itertools.combinations(face, r):
                simplices.add(tuple(sorted({block_of[a] for a in sub})))
    return frozenset(simplices)


def _draw_nerve_input(rng, family, param):
    atoms, faces, blocks, homology = _nerve_model(rng, family, param)
    perm = list(range(atoms))
    rng.shuffle(perm)
    faces = [tuple(perm[a] for a in f) for f in faces]
    blocks = [(a,) for a in range(atoms)] if blocks is None else \
        [tuple(perm[a] for a in b) for b in blocks]
    nerve = _nerve_of(faces, blocks)
    return (atoms, faces, blocks, homology, nerve), nerve


def _check_nerve(expected, counts, coeffs, out):
    top = len(counts) - 1
    if sorted(out) != list(range(top + 1)):
        return WRONG
    want = oracles.coefficient_homology(expected, coeffs, top)
    got = {n: oracles.of_presented(g) for n, g in out.items()}
    if got != want:
        return WRONG
    if coeffs == _Z2:
        # Euler characteristic over a field: sum (-1)^n dim H_n == sum (-1)^n #simplices
        if any(g[0] or any(p != 2 for p in g[1]) for g in got.values()):
            return WRONG
        betti = sum((-1) ** n * len(got[n][1]) for n in got)
        if betti != sum((-1) ** n * c for n, c in enumerate(counts)):
            return WRONG
    return OK


def _nerve_round(ctx, rng, round_index):
    queries = []
    coefficient_groups = [("Z", _Z), ("Z/2", _Z2)]
    for family, param in NERVE_LADDER[ctx.size]:
        atoms, faces, blocks, homology, nerve = ctx.fresh(
            functools.partial(_draw_nerve_input, rng, family, param))
        model = FiniteModel(atoms, faces)
        partition = Partition(blocks)
        dims = [len(s) - 1 for s in nerve]
        counts = [dims.count(d) for d in range(max(dims) + 1)]
        for text, coeffs in coefficient_groups:
            label = "kolmogoroff %s %s over %s" % (family, param, text)
            queries.append(Query(
                label,
                functools.partial(kolmogoroff_homology, model, partition, parse_group(text)),
                functools.partial(_check_nerve, homology, counts, coeffs)))
    return queries


# -- uct-corpus ----------------------------------------------------------------

UCT_RANKS = {"full": list(range(4, 24)), "smoke": [3, 4, 5]}
UCT_COEFFICIENTS = ("Z", "Z/2", "Z/12", "Z+Z/4")
_MAX_RANK, _MAX_ENTRY, _MAX_DEGREES = 6, 5, 5


def _complex_with_total_rank(rng, total):
    """A random_free_cochain_complex sample whose ranks sum to ``total``.
    The rank draw is replayed on a copy of the generator first, so rejected
    samples cost no library work."""
    while True:
        state = rng.getstate()
        n_deg = rng.randint(2, _MAX_DEGREES)
        ranks = [rng.randint(0, _MAX_RANK) for _ in range(n_deg)]
        if sum(ranks) != total:
            continue
        rng.setstate(state)
        cx, cohomology = random_free_cochain_complex(rng, _MAX_RANK, _MAX_ENTRY, _MAX_DEGREES)
        if sum(cx.ranks) == total:
            return cx, cohomology


def _draw_complex(rng, total):
    cx, cohomology = _complex_with_total_rank(rng, total)
    return (cx, cohomology), json.dumps(cx.to_json(), sort_keys=True)


def _uct_call(cx, groups):
    return [uct_certificates(cx, g) for g in groups]


def _check_uct(cx, cohomology, out):
    h = {n: oracles.of_presented(g) for n, g in cohomology.items()}
    for text, certs in zip(UCT_COEFFICIENTS, out):
        coeffs = oracles.parse(text.replace("+", " + "))
        if sorted(certs) != list(cx.degrees()):
            return WRONG
        for n, cert in certs.items():
            ext = oracles.ext(h.get(n + 1, oracles.TRIVIAL), coeffs)
            hom = oracles.hom(h.get(n, oracles.TRIVIAL), coeffs)
            if (oracles.of_presented(cert.ext_term) != ext
                    or oracles.of_presented(cert.hom_term) != hom
                    or oracles.of_presented(cert.middle) != oracles.direct_sum(ext, hom)):
                return WRONG
    return OK


def _uct_round(ctx, rng, round_index):
    groups = [parse_group(text) for text in UCT_COEFFICIENTS]
    queries = []
    for total in UCT_RANKS[ctx.size]:
        cx, cohomology = ctx.fresh(functools.partial(_draw_complex, rng, total))
        queries.append(Query("uct total rank %d" % total,
                             functools.partial(_uct_call, cx, groups),
                             functools.partial(_check_uct, cx, cohomology)))
    return queries


# -- cli-reports ---------------------------------------------------------------

CLI_LADDER = {
    "full": {"snf": list(range(16, 33, 2)), "lim_free": 6, "light": 2,
             "sixterm": 2, "solenoid": 3, "trivial": 2},
    "smoke": {"snf": [6, 8], "lim_free": 1, "light": 1,
              "sixterm": 1, "solenoid": 1, "trivial": 1},
}

# Z^2 tails on which lim and lim1 answer "unknown" today; the expected lim
# is Z, 0, 0, 0 and lim1 is nonzero and uncountable for all four: F^2 = 2I
# for the middle two, and |det| = 2 and 9 make the images descend strictly
# for the others.
UNDECIDED_TAILS = (([[1, 1], [0, 2]], oracles.Z), ([[0, 2], [1, 0]], oracles.TRIVIAL),
                   ([[1, 1], [1, -1]], oracles.TRIVIAL), ([[3, 1], [0, 3]], oracles.TRIVIAL))
# The same tails as telescopes: injective with |det| >= 2, so the colimit
# is not finitely generated; diagonal forms describe it exactly.
UNDECIDED_COLIMITS = ({"Z", "Z[1/2]"}, None, None, None)

UNCOUNTABLE = "nonzero-uncountable"


def _cli(*argvs):
    """Run the tauthom command line in-process; (exit code, stdout) per call."""
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(list(argv))
        out.append((code, buf.getvalue()))
    return out


def _argv(verb, path, *extra):
    return [verb, "--input", path, "--format", "json"] + list(extra)


def _reports(out):
    """Parsed JSON reports, or None when some call exited nonzero."""
    if any(code != 0 for code, _ in out):
        return None
    return [json.loads(text) for _, text in out]


def _outcome(obj, kind, group=None):
    """Status of one lim/lim1/colim outcome against the expected kind (and
    group, when the kind is exact or zero)."""
    if obj["kind"] == "unknown":
        return FAILED
    if obj["kind"] != kind:
        return WRONG
    if group is not None and oracles.parse(obj["value"]) != group:
        return WRONG
    return OK


def _group_kind(g):
    return "zero" if g == oracles.TRIVIAL else "exact"


def _check_snf(ctx, matrix, out):
    reports = _reports(out)
    if reports is None:
        return FAILED
    rep = reports[0]
    u, v, d = (rep[k]["entries"] for k in ("u", "v", "d"))
    n = len(matrix)
    ctx.max_transform_bits = max(ctx.max_transform_bits,
                                 max(abs(x).bit_length() for m in (u, v) for row in m for x in row))
    diag = [d[i][i] for i in range(n)]
    if (oracles.matmul(oracles.matmul(u, matrix), v) != d
            or any(d[i][j] for i in range(n) for j in range(n) if i != j)
            or abs(oracles.determinant(u)) != 1 or abs(oracles.determinant(v)) != 1
            or rep["divisors"] != [x for x in diag if x] or any(x < 0 for x in diag)
            or not oracles.is_divisor_chain(rep["divisors"])
            or any(diag[i] == 0 and diag[i + 1] for i in range(n - 1))):
        return WRONG
    return OK


def _draw_matrix(rng, n):
    matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    return matrix, tuple(map(tuple, matrix))


def _tail(free, torsion, endo):
    return {"tail": {"group": {"free": free, "torsion": torsion}, "endo": endo}}


def _diag(entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


def _draw_free_tail(ctx, rng, units):
    entries = [rng.choice((1, -1)) for _ in range(units)]
    entries.insert(rng.randint(0, units), rng.choice((1, -1)) * ctx.prime())
    return entries, tuple(entries)


def _check_free_tail(entries, out):
    reports = _reports(out)
    if reports is None:
        return FAILED
    limits, colimit = reports
    units = sum(1 for x in entries if abs(x) == 1)
    statuses = [_outcome(limits["lim"], _group_kind(oracles.group(units)), oracles.group(units)),
                _outcome(limits["lim1"], UNCOUNTABLE),
                _outcome(limits["lim2"], "zero", oracles.TRIVIAL)]
    parts = sorted("Z" if abs(x) == 1 else "Z[1/%d]" % abs(x) for x in entries)
    co = colimit["colim"]
    if co["kind"] != "symbolic" or sorted(co["value"].split(" + ")) != parts:
        statuses.append(WRONG)
    return worst(statuses)


def _draw_torsion_tail(rng):
    m = rng.randint(2, 240)
    a = rng.randrange(m)
    return (m, a), ("torsion", m, a)


def _unimodular(rng):
    p = [[1, 0], [0, 1]]
    for _ in range(5):
        q = rng.choice((-2, -1, 1, 2))
        e = [[1, q], [0, 1]] if rng.random() < 0.5 else [[1, 0], [q, 1]]
        p = oracles.matmul(p, e)
    (a, b), (c, d) = p
    det = a * d - b * c
    return p, [[d * det, -b * det], [-c * det, a * det]]


def _draw_conjugate(rng, endo):
    p, p_inv = _unimodular(rng)
    conj = oracles.matmul(oracles.matmul(p, endo), p_inv)
    return conj, ("conjugate",) + tuple(map(tuple, conj))


def _draw_undecided(rng, endo):
    """A conjugate of ``endo`` that ``_diagonal_tail`` in ``tauthom.limits``
    does not recognise: not diagonal, and not conjugated by its own Smith
    transforms (``V*U`` is not the identity). The Smith form is taken
    through ``__wrapped__``, which leaves the process-wide memo untouched."""
    while True:
        conj, key = _draw_conjugate(rng, endo)
        m = IntMatrix.from_rows(conj)
        s = smith_normal_form.__wrapped__(m)
        if not m.is_diagonal() and not (s.v * s.u).is_identity():
            return conj, key


def _check_light(expect, out):
    reports = _reports(out)
    if reports is None:
        return FAILED
    statuses = []
    for (kind, want), rep in zip(expect, reports):
        if kind == "torsion":
            g = oracles.cyclic_sum([want])
            statuses += [_outcome(rep["lim"], _group_kind(g), g),
                         _outcome(rep["lim1"], "zero", oracles.TRIVIAL),
                         _outcome(rep["lim2"], "zero", oracles.TRIVIAL)]
        elif kind == "torsion-colim":
            # a finitely generated colimit is "exact" even when it is trivial
            statuses.append(_outcome(rep["colim"], "exact", oracles.cyclic_sum([want])))
        else:
            co = rep["colim"]
            exact_form = want is not None and set(co["value"].split(" + ")) == want \
                and len(co["value"].split(" + ")) == 2
            if co["kind"] != "symbolic" or not (
                    exact_form or co["value"] == "colim(Z^2, injective endomorphism)"):
                statuses.append(WRONG)
    return worst(statuses)


def _check_undecided(expected_lim, out):
    reports = _reports(out)
    if reports is None:
        return FAILED
    rep = reports[0]
    return worst([_outcome(rep["lim"], _group_kind(expected_lim), expected_lim),
                  _outcome(rep["lim1"], UNCOUNTABLE),
                  _outcome(rep["lim2"], "zero", oracles.TRIVIAL)])


def _draw_telescope(rng):
    t = random_finite_telescope(rng, stages=4)
    obj = t.to_json()
    return (obj, oracles.of_presented(t.stages[-1])), json.dumps(obj, sort_keys=True)


def _check_sixterm(last_stages, out):
    reports = _reports(out)
    if reports is None:
        return FAILED
    statuses = []
    twelve = oracles.group(0, [12])
    for last, rep in zip(last_stages, reports):
        ext = oracles.ext(last, twelve)
        statuses += [_outcome(rep["lim1_hom"], "zero", oracles.TRIVIAL),
                     _outcome(rep["ext_colim"], _group_kind(ext), ext),
                     _outcome(rep["lim_ext"], _group_kind(ext), ext),
                     _outcome(rep["lim2_hom"], "zero", oracles.TRIVIAL)]
        if not (rep["iso"] and rep["iso"]["verified"]):
            statuses.append(WRONG)
    return worst(statuses)


def _terms_status(report, expected):
    """Term outcomes of a sequence report against (kind, group) pairs."""
    if report["failed"] or len(report["terms"]) != len(expected):
        return WRONG
    return worst([_outcome(t["outcome"], kind, group)
                  for t, (kind, group) in zip(report["terms"], expected)])


def _check_sequences(expected, out):
    """``expected`` lists (degree, [(kind, group) of lim1, the middle term and
    lim]) in order; the reports alternate tautness, milnor for each degree."""
    reports = _reports(out)
    if reports is None:
        return FAILED
    statuses = []
    zero = ("zero", oracles.TRIVIAL)
    for (_, terms), (taut, milnor) in zip(expected, zip(reports[::2], reports[1::2])):
        statuses += [_terms_status(taut["tautness"], terms),
                     _terms_status(taut["four_term"], terms + [zero]),
                     _terms_status(milnor, terms)]
        if not taut["junction_agreement"]:
            statuses.append(WRONG)
    return worst(statuses)


def _sequence_argvs(source, degrees):
    out = []
    for n, extra in degrees:
        for verb in ("tautness", "milnor"):
            out.append([verb] + source + ["--degree", str(n), "--format", "json"] + extra)
    return out


def _taut_family(a, m, stages):
    """Neighborhood data of a trivially taut space with H_0 = Z^a and
    H_1 = Z/m: constant finite towers, identity comparison maps."""
    groups = {"h": ((0, [0] * a), (1, [m]), (2, [])),
              "c": ((0, [0] * a), (1, []), (2, [m]), (3, []))}
    homology, cohomology, subspace = {}, {}, {}
    for kind, cls, table in (("h", Tower, homology), ("c", Telescope, cohomology)):
        for n, orders in groups[kind]:
            g = PresentedGroup.from_orders(orders)
            maps = tuple(GroupMap.identity(g) for _ in range(stages - 1))
            table[n] = cls((g,) * stages, maps, None)
            if kind == "h":
                subspace[n] = SubspaceData(g, (GroupMap.identity(g),) * stages)
    return NeighborhoodTower(homology, cohomology, subspace).to_json()


def _draw_taut_family(rng):
    a, m, stages = rng.randint(1, 3), rng.randint(2, 400), rng.randint(2, 4)
    return (a, m, stages), ("taut", a, m, stages)


def _cli_round(ctx, rng, r):
    ladder = CLI_LADDER[ctx.size]
    queries = []
    for n in ladder["snf"]:
        matrix = ctx.fresh(functools.partial(_draw_matrix, rng, n))
        path = ctx.path(r, "snf%d" % n, matrix)
        queries.append(Query("snf %dx%d" % (n, n), functools.partial(_cli, _argv("snf", path)),
                             functools.partial(_check_snf, ctx, matrix)))
    for j in range(ladder["lim_free"]):
        entries = ctx.fresh(functools.partial(_draw_free_tail, ctx, rng, j % 3))
        path = ctx.path(r, "free%d" % j, _tail(len(entries), [], _diag(entries)))
        queries.append(Query("lim+colim free tail %s" % entries,
                             functools.partial(_cli, _argv("lim", path), _argv("colim", path)),
                             functools.partial(_check_free_tail, entries)))
    for j in range(ladder["light"]):
        argvs, expect = [], []
        for i in range(3):
            m, a = ctx.fresh(functools.partial(_draw_torsion_tail, rng))
            path = ctx.path(r, "torsion%d_%d" % (j, i), _tail(0, [m], [[a]]))
            argvs += [_argv("lim", path), _argv("colim", path)]
            expect += [("torsion", oracles.coprime_part(m, a)),
                       ("torsion-colim", oracles.coprime_part(m, a))]
        for i in (2 * j, 2 * j + 1):
            endo = ctx.fresh(functools.partial(_draw_conjugate, rng, UNDECIDED_TAILS[i][0]))
            path = ctx.path(r, "conj%d" % i, _tail(2, [], endo))
            argvs.append(_argv("colim", path))
            expect.append(("z2-colim", UNDECIDED_COLIMITS[i]))
        queries.append(Query("lim/colim bundle %d" % j, functools.partial(_cli, *argvs),
                             functools.partial(_check_light, expect)))
    undecided_rng = random.Random("%s/undecided/%d" % (ctx.workload, r))
    for i, (tail, expected_lim) in enumerate(UNDECIDED_TAILS):
        endo = ctx.fresh(functools.partial(_draw_undecided, undecided_rng, tail))
        path = ctx.path(r, "undecided%d" % i, _tail(2, [], endo))
        queries.append(Query("lim undecided tail %s as %s" % (tail, endo),
                             functools.partial(_cli, _argv("lim", path)),
                             functools.partial(_check_undecided, expected_lim)))
    for j in range(ladder["sixterm"]):
        argvs, lasts = [], []
        for i in range(4):
            obj, last = ctx.fresh(functools.partial(_draw_telescope, rng))
            path = ctx.path(r, "telescope%d_%d" % (j, i), obj)
            argvs.append(_argv("sixterm", path, "--coefficients", "Z/12"))
            lasts.append(last)
        queries.append(Query("sixterm bundle %d" % j, functools.partial(_cli, *argvs),
                             functools.partial(_check_sixterm, lasts)))
    unc, zero = (UNCOUNTABLE, None), ("zero", oracles.TRIVIAL)
    for j in range(ladder["solenoid"]):
        p = ctx.prime()
        argvs = _sequence_argvs(["--preset", "solenoid:%d" % p],
                                [(0, ["--reduced"]), (1, [])])
        expected = [(0, [unc, unc, zero]), (1, [zero, zero, zero])]
        queries.append(Query("tautness+milnor solenoid:%d" % p, functools.partial(_cli, *argvs),
                             functools.partial(_check_sequences, expected)))
    for j in range(ladder["trivial"]):
        a, m, stages = ctx.fresh(functools.partial(_draw_taut_family, rng))
        path = ctx.path(r, "taut%d" % j, _taut_family(a, m, stages))
        argvs = _sequence_argvs(["--input", path], [(0, []), (1, [])])
        za, zm = oracles.group(a), oracles.cyclic_sum([m])
        expected = [(0, [zero, ("exact", za), ("exact", za)]),
                    (1, [zero, ("exact", zm), ("exact", zm)])]
        queries.append(Query("tautness+milnor trivially taut Z^%d, Z/%d, %d stages"
                             % (a, m, stages), functools.partial(_cli, *argvs),
                             functools.partial(_check_sequences, expected)))
    return queries


BUILDERS = {"nerve-homology": _nerve_round, "uct-corpus": _uct_round,
            "cli-reports": _cli_round}
