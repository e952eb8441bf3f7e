import hashlib
import json

import pytest

from tauthom.complexes import (CertificateFailure, CoefficientComplex,
                               DegreeOutOfRange, FreeComplex, homology_groups,
                               uct_certificate, uct_certificates)
from tauthom.groups import (CyclicSum, ExtGroup, GroupMap, HomGroup, PresentedGroup, Subquotient,
                            _relations_for_orders, cokernel, kernel, parse_group)
from tauthom.matrices import IntMatrix, hermite_form, hstack, smith_normal_form, solve_columns
from tauthom.randomgen import random_free_cochain_complex, random_group, seeded

from oracles import (check_short_exact, coefficient_diff, coefficient_homology_subquotient,
                     kron_identity_reference, rank_oracle, sequence_reference,
                     unreduced_homology, unreduced_homology_groups,
                     verify_certificate_reference)

Z = PresentedGroup(1, ())
Z2 = PresentedGroup(0, (2,))
Z4 = PresentedGroup(0, (4,))
Z12 = PresentedGroup(0, (12,))
MIXED = PresentedGroup(1, (4,))
ZERO = PresentedGroup(0, ())
COEFFICIENTS = [parse_group(g) for g in ("Z", "Z/2", "Z/12", "Z+Z/4", "Z/2+Z/6")]


def circle_chain():
    # two vertices, two edges glued head to tail
    d1 = IntMatrix.from_rows([[1, 1], [-1, -1]])
    return FreeComplex("chain", 0, 1, [2, 2], {1: d1})


def ext_generators(suite, n):
    """Degree n + 1's rows of V^-1, the Ext generators of degree n, read
    back from the record's Ext classes on C^n through the section s_n of the
    Hermite transform of d^n (dB s_n = I)."""
    hf = hermite_form(suite.base.diff(n))
    r = hf.h.cols
    return suite._cohomology(n + 1)[3] * IntMatrix(hf.v.rows, r, [row[:r] for row in hf.v.data])


def rp2_cochain():
    """Cochain complex with H^0 = Z, H^1 = 0, H^2 = Z/2."""
    d0 = IntMatrix.zeros(1, 1)
    d1 = IntMatrix.from_rows([[2]])
    return FreeComplex("cochain", 0, 2, [1, 1, 1], {0: d0, 1: d1})


class TestFreeComplex:
    def test_composition_must_vanish(self):
        d1 = IntMatrix.from_rows([[1]])
        d2 = IntMatrix.from_rows([[1]])
        with pytest.raises(ValueError):
            FreeComplex("chain", 0, 2, [1, 1, 1], {1: d1, 2: d2})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FreeComplex("chain", 0, 1, [2, 2], {1: IntMatrix.zeros(3, 2)})

    def test_circle_homology(self):
        c = circle_chain()
        assert c.homology(0) == Z
        assert c.homology(1) == Z

    def test_rp2_cohomology(self):
        c = rp2_cochain()
        assert c.homology_all() == {0: Z, 1: PresentedGroup(0, ()), 2: Z2}

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            circle_chain().homology(5)

    def test_diff_defaults_to_zero(self):
        c = circle_chain()
        assert c.diff(0).is_zero() and c.diff(7).rows == 0

    def test_json_round_trip(self):
        c = rp2_cochain()
        c2 = FreeComplex.from_json(c.to_json())
        assert c2.direction == "cochain"
        assert c2.homology_all() == c.homology_all()

    @pytest.mark.parametrize("key", ["01", "-0", "-01", "1.0"])
    def test_json_degree_keys_are_canonical(self, key):
        # "01" would name degree 1 beside "1"; the later key would win
        obj = circle_chain().to_json()
        obj["diffs"][key] = obj["diffs"].pop("1")
        with pytest.raises(ValueError, match="got %r" % key):
            FreeComplex.from_json(obj)

    @pytest.mark.parametrize("field", [None, "diffs"])
    def test_json_needs_objects(self, field):
        obj = circle_chain().to_json()
        if field is None:
            obj = [obj]
        else:
            obj[field] = list(obj[field].values())
        with pytest.raises(ValueError, match="must be a JSON object, got list"):
            FreeComplex.from_json(obj)

    def test_free_ranks_match_rational_ranks(self):
        rng = seeded(21)
        for _ in range(25):
            cx, known = random_free_cochain_complex(rng)
            for n in cx.degrees():
                out = cx.diff(n)
                inn = cx.diff(n - 1)
                betti = cx.rank(n) - rank_oracle(out.data) - rank_oracle(inn.data)
                assert cx.homology(n).free_rank == betti == known[n].free_rank


class TestCoefficientComplex:
    def test_requires_cochain_base(self):
        with pytest.raises(ValueError):
            CoefficientComplex(circle_chain(), Z2)

    def test_rp2_with_z4(self):
        cc = CoefficientComplex(rp2_cochain(), Z4)
        assert cc.homology_all() == {0: Z4, 1: Z2, 2: Z2}

    def test_homology_matches_uct_formula(self):
        rng = seeded(22)
        for _ in range(20):
            cx, known = random_free_cochain_complex(rng)
            g = random_group(rng, max_gens=2, max_order=9)
            cc = CoefficientComplex(cx, g)
            for n in cx.degrees():
                above = known.get(n + 1, PresentedGroup(0, ()))
                expected = ExtGroup(above, g).group.direct_sum(
                    HomGroup(known[n], g).group)
                assert cc.homology(n) == expected


def transposed_chain(cx):
    """The chain complex whose differential out of degree n+1 is the
    transpose of the cochain differential out of degree n."""
    return FreeComplex("chain", cx.lo, cx.hi, cx.ranks,
                       {n + 1: m.transpose() for n, m in cx.diffs.items()})


def m(rows):
    return IntMatrix.from_rows(rows)


class TestUnitReduction:
    """homology_groups splits off unit pivots before the lattice work; the
    groups must equal those of the full-size route in tests/oracles.py."""

    def test_random_complexes_both_directions(self):
        rng = seeded(41)
        for _ in range(40):
            cx, known = random_free_cochain_complex(rng)
            assert cx.homology_all() == unreduced_homology(cx) == known
            chain = transposed_chain(cx)
            assert chain.homology_all() == unreduced_homology(chain)

    def test_coefficient_complexes(self):
        rng = seeded(42)
        for _ in range(15):
            cx, _ = random_free_cochain_complex(rng)
            for g in COEFFICIENTS:
                cc = CoefficientComplex(cx, g)
                assert cc.homology_all() == unreduced_homology(cc)

    @pytest.mark.parametrize("mats, orders, expected", [
        # 3 is a unit modulo 4 only: the pivot splits off, the Schur
        # complement 0 - 2 * 3^-1 * 1 = -6 is reduced modulo 4 to 2
        ({1: m([[3, 1], [2, 0]])}, {0: (4, 4), 1: (4, 4)}, {0: "Z/2", 1: "Z/2"}),
        ({1: m([[3, 1], [2, 2]])}, {0: (4, 4), 1: (4, 4)}, {0: "Z/4", 1: "Z/4"}),
        ({1: m([[3]])}, {0: (4,), 1: (4,)}, {0: "0", 1: "0"}),
        # a free coordinate onto a torsion one is no isomorphism
        ({1: m([[1]])}, {0: (2,), 1: (0,)}, {0: "0", 1: "Z"}),
        # nor is Z/4 -> Z/2, although 1 is a unit modulo 2
        ({1: m([[1]])}, {0: (2,), 1: (4,)}, {0: "0", 1: "Z/2"}),
        # no unit entry anywhere
        ({1: m([[2, 0], [0, 6]])}, {0: (0, 0), 1: (0, 0)}, {0: "Z/2 + Z/6", 1: "0"}),
        ({1: m([[3]])}, {0: (9,), 1: (9,)}, {0: "Z/3", 1: "Z/3"}),
        ({1: m([[2]]), 2: m([[0]])}, {0: (0,), 1: (0,), 2: (0,)},
         {0: "Z/2", 1: "0", 2: "Z"}),
        # zero and empty degrees, absent differentials and a gap in the degrees
        ({1: IntMatrix.zeros(0, 2)}, {0: (), 1: (0, 0), 2: ()}, {0: "0", 1: "Z^2", 2: "0"}),
        ({}, {0: (0,), 2: (3,)}, {0: "Z", 2: "Z/3"}),
        ({1: IntMatrix.zeros(1, 1)}, {0: (0,), 1: (0,)}, {0: "Z", 1: "Z"}),
        # two edges joining two vertices and bounding a disc, plus a loop: the
        # Schur complement of the first pivot cancels the second edge
        ({1: m([[-1, -1, 0], [1, 1, 0]]), 2: m([[1], [-1], [0]])},
         {0: (0, 0), 1: (0, 0, 0), 2: (0,)}, {0: "Z", 1: "Z", 2: "0"}),
    ])
    def test_hand_made_cases(self, mats, orders, expected):
        got = homology_groups(mats, orders)
        assert got == unreduced_homology_groups(mats, orders)
        assert {n: g.describe() for n, g in got.items()} == expected

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            homology_groups({1: IntMatrix.zeros(2, 1)}, {0: (0,), 1: (0,)})

    def test_lattice_work_sees_the_reduced_complex(self, monkeypatch):
        # a 12-gon: eleven unit pivots leave one vertex, one edge and a zero
        # differential, so both groups are read off with no lattice work;
        # diag(I_11, [2]) leaves the differential [2], seen only at 1 x 1
        import tauthom.complexes as complexes
        d1 = IntMatrix._trusted(12, 12, tuple(
            tuple((1 if i == (j + 1) % 12 else 0) - (1 if i == j else 0) for j in range(12))
            for i in range(12)))
        shapes = []
        lattice = complexes.kernel_lattice

        def recording(mat, orders):
            shapes.append((mat.rows, mat.cols))
            return lattice(mat, orders)

        monkeypatch.setattr(complexes, "kernel_lattice", recording)
        cx = FreeComplex("chain", 0, 1, [12, 12], {1: d1})
        assert cx.homology_all() == {0: Z, 1: Z}
        assert shapes == []
        diag = IntMatrix._trusted(12, 12, tuple(
            tuple((2 if i == 11 else 1) if i == j else 0 for j in range(12)) for i in range(12)))
        cx = FreeComplex("chain", 0, 1, [12, 12], {1: diag})
        assert cx.homology_all() == {0: Z2, 1: ZERO}
        assert (1, 1) in shapes and max(max(s) for s in shapes) == 1

    def test_closed_form_battery(self, monkeypatch):
        # a degree whose reduced differentials in and out vanish is read off
        # in closed form, any other through a Subquotient; both agree with
        # the full-size route, and over a field no Subquotient is built
        import tauthom.complexes as complexes
        built = []

        def recording(numerator, denominator):
            built.append(numerator.rows)
            return Subquotient(numerator, denominator)

        monkeypatch.setattr(complexes, "Subquotient", recording)
        rng = seeded(63)
        paths = {}
        for text in ("Z", "Z/2", "Z/3", "Z/4", "Z+Z/4"):
            g = parse_group(text)
            closed = 0
            before = len(built)
            for _ in range(12):
                cx, _ = random_free_cochain_complex(rng)
                cc = CoefficientComplex(cx, g)
                mats = {n: coefficient_diff(cc, n) for n in range(cx.lo + 1, cx.hi + 1)}
                orders = {n: cc.orders(n) for n in cx.degrees()}
                count = len(built)
                assert homology_groups(mats, orders) == unreduced_homology_groups(mats, orders)
                closed += len(orders) - (len(built) - count)
            paths[text] = (closed, len(built) - before)
        assert paths["Z/2"][1] == paths["Z/3"][1] == 0
        for text in ("Z", "Z/4", "Z+Z/4"):
            assert min(paths[text]) > 0, (text, paths[text])


def accepts(check, *args):
    """True when ``check`` returns, False when it raises CertificateFailure."""
    try:
        check(*args)
    except CertificateFailure:
        return False
    return True


def scaled_maps(maps, fields):
    """Copies of ``maps`` with one of ``fields`` replaced by 0, 2 or 3 times
    itself; a multiple of a homomorphism is again well defined."""
    for field in fields:
        f = getattr(maps, field)
        for k in (0, 2, 3):
            yield type(maps)(**{**vars(maps), field: GroupMap(f.source, f.target, f.matrix * k)})


class TestUct:
    def test_rp2_certificate_over_z(self):
        cert = uct_certificate(rp2_cochain(), Z, 1)
        assert cert.ext_term == Z2
        assert cert.hom_term.is_trivial
        assert cert.middle == Z2

    def test_certificates_all_degrees(self):
        certs = uct_certificates(rp2_cochain(), Z12)
        assert set(certs) == {0, 1, 2}
        assert certs[0].middle == Z12
        # H_1(Hom(C, Z/12)) = Ext(Z/2, Z/12) + Hom(0, Z/12) = Z/2
        assert certs[1].middle == Z2
        # H_2 = Ext(0, Z/12) + Hom(Z/2, Z/12) = Z/2
        assert certs[2].middle == Z2

    def test_closed_forms_are_built_once_per_process(self, fresh_memos, monkeypatch):
        # a second complex with the cohomology Z, 0, Z/2 of the first meets,
        # over the same G, only order tuples and (A, G) pairs already built
        built = []
        for cls in (CyclicSum, HomGroup, ExtGroup):
            monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=cls.__init__:
                                built.append((type(obj), args)) or init(obj, *args))
        first = uct_certificates(rp2_cochain(), Z2)
        assert {cls for cls, _ in built} == {CyclicSum, HomGroup, ExtGroup}
        del built[:]
        twin = FreeComplex("cochain", 0, 2, [1, 2, 2],
                           {0: IntMatrix.zeros(2, 1), 1: m([[2, 0], [0, 1]])})
        assert twin.homology_all() == rp2_cochain().homology_all()
        second = uct_certificates(twin, Z2)
        assert built == []
        assert [(c.ext_term, c.hom_term, c.middle) for c in second.values()] == \
            [(c.ext_term, c.hom_term, c.middle) for c in first.values()]

    def test_seeded_corpus_digest(self):
        # a byte-identity net over the certificate layer: the sha256 of the
        # sorted-key JSON of every certificate of 60 seeded complexes over
        # the five coefficient groups, 870 certificates in all
        rng = seeded(34)
        reports = []
        for _ in range(60):
            cx, _ = random_free_cochain_complex(rng)
            reports.append([{str(n): c.to_json() for n, c in uct_certificates(cx, g).items()}
                            for g in COEFFICIENTS])
        blob = json.dumps(reports, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == \
            "31b9f1a3f3f3d614b1bb22663d8b8fb682620f141d85534e3eead96af4a5540f"

    def test_random_certificates_match_known_cohomology(self):
        rng = seeded(23)
        for _ in range(25):
            cx, known = random_free_cochain_complex(rng)
            for g in (Z, Z2, Z12, MIXED):
                certs = uct_certificates(cx, g)
                for n, cert in certs.items():
                    above = known.get(n + 1, PresentedGroup(0, ()))
                    assert cert.ext_term == ExtGroup(above, g).group
                    assert cert.hom_term == HomGroup(known[n], g).group

    def test_sequence_maps_match_full_size_reference(self):
        # the middle's lifts name an isomorphism onto the full-size
        # H_n(Hom(C, G)), and the Ext term's generators, degree n + 1's rows of
        # V^-1 (x) e_g, one onto the lattice route's cokernel of inside^T (x) G;
        # along the two the three maps are the per-column ones
        rng = seeded(24)
        for _ in range(12):
            cx, _ = random_free_cochain_complex(rng)
            for g in (Z, Z2, Z12, MIXED):
                suite = CoefficientComplex(cx, g)
                full_sq = CoefficientComplex(cx, g)
                for n, cert in uct_certificates(cx, g).items():
                    full = coefficient_homology_subquotient(full_sq, n)
                    ext_sum, _, _, lifts = suite._middle(n)
                    iso = GroupMap(cert.middle, full.group, full.coords_matrix(lifts))
                    assert kernel(iso)[0].is_trivial and cokernel(iso)[0].is_trivial
                    # the Ext term from the resolution B^{n+1} -> Z^{n+1}
                    inside = suite._split(n + 1)[3] * suite._split(n)[0]
                    ext = Subquotient(IntMatrix.identity(inside.cols * g.n_gens), hstack(
                        kron_identity_reference(inside.transpose(), g.n_gens),
                        _relations_for_orders(g.orders * inside.cols)))
                    ext_iso = GroupMap(cert.ext_term, ext.group, ext.coords_matrix(
                        kron_identity_reference(ext_generators(suite, n).transpose(), g.n_gens)
                        * ext_sum.lifts))
                    assert kernel(ext_iso)[0].is_trivial and cokernel(ext_iso)[0].is_trivial
                    include, evaluate, split = sequence_reference(
                        suite, n, ext, full, suite._cohomology(n)[1])
                    assert include @ ext_iso == iso @ cert.injection
                    assert evaluate @ iso == cert.surjection
                    assert split == iso @ cert.splitting

    def test_ext_generators_name_the_cokernel(self):
        # the Ext generators of degree n + 1's record are the rows of the
        # inverse of V, for U inside V = D, that belong to the invariant
        # factors t >= 2, and they generate the cokernel of inside^T, the Ext
        # term over Z: read in the lattice route's coordinates they give an
        # isomorphism from the sum of the Z/t_i, the torsion of H^{n+1}, and
        # precomposed with d^n in the coboundary basis they give back the
        # record's Ext classes on C^n, which so vanish on the cocycles; inside
        # and dB are read from the split records, and checked against their
        # definitions
        rng = seeded(30)
        checked = 0
        for _ in range(150):
            cx, _ = random_free_cochain_complex(rng)
            suite = CoefficientComplex(cx, Z)
            for n in cx.degrees():
                above, _, _, extdb = suite._cohomology(n + 1)
                ext = ext_generators(suite, n)
                h, _, db, _ = suite._split(n)
                inside = suite._split(n + 1)[3] * h
                assert suite._split(n + 1)[1] * inside == h
                s = smith_normal_form(inside)
                vinv = solve_columns(s.v, IntMatrix.identity(s.v.rows))
                assert ext.data == tuple(row for d, row in zip(s.diagonal, vinv.data) if d >= 2)
                coker = Subquotient(IntMatrix.identity(inside.cols), inside.transpose())
                iso = GroupMap(PresentedGroup(0, above.torsion), coker.group,
                               coker.coords_matrix(ext.transpose()))
                assert kernel(iso)[0].is_trivial and cokernel(iso)[0].is_trivial
                assert h * db == cx.diff(n)
                assert extdb == ext * db
                checked += bool(above.torsion)
        assert checked > 50, checked

    def test_shared_integral_data_matches_fresh_complexes(self):
        # the lattice data memoised on a complex does not depend on G: over
        # every G, in either order, one shared complex reports what a fresh
        # copy of it reports, and later groups add nothing to the memo
        def report(cx, g):
            return json.dumps({str(n): c.to_json() for n, c in uct_certificates(cx, g).items()},
                              sort_keys=True)

        groups = (Z, Z2, Z12, MIXED)
        rng = seeded(27)
        for _ in range(15):
            cx, _ = random_free_cochain_complex(rng)
            fresh = {g: report(FreeComplex.from_json(cx.to_json()), g) for g in groups}
            for order in (groups, groups[::-1]):
                shared = FreeComplex.from_json(cx.to_json())
                assert report(shared, order[0]) == fresh[order[0]]
                keys = set(shared._integral)
                assert keys
                for g in order[1:]:
                    assert report(shared, g) == fresh[g]
                assert set(shared._integral) == keys

    def test_split_identity_is_checked(self, monkeypatch):
        # W V = I fails for the inverse doubled, and for the true inverse
        # against a V whose first section column is shifted by a cocycle
        # column, which is still a Hermite transform of d^n
        import tauthom.complexes as complexes
        from tauthom.matrices import HermiteForm
        rng = seeded(28)
        shifted = doubled = 0
        for _ in range(30):
            cx, _ = random_free_cochain_complex(rng)
            for n in cx.degrees():
                hf = hermite_form(cx.diff(n))
                v, r = hf.v, hf.h.cols
                w = solve_columns(v, IntMatrix.identity(v.rows))
                assert w * v == IntMatrix.identity(v.cols)
                CoefficientComplex(FreeComplex.from_json(cx.to_json()), Z)._split(n)
                if not v.cols:
                    continue
                mutants = [(hf, w * 2)]
                if 0 < r < v.cols:
                    shift = IntMatrix.from_columns(
                        [v.column(r)] + [(0,) * v.rows] * (v.cols - 1), rows=v.rows)
                    assert cx.diff(n) * (v + shift) == cx.diff(n) * v
                    mutants.append((HermiteForm(hf.h, v + shift, hf.pivots), w))
                for form, inverse_ in mutants:
                    monkeypatch.setattr(complexes, "hermite_form", lambda mat: form)
                    monkeypatch.setattr(complexes, "solve_columns", lambda mat, rhs: inverse_)
                    suite = CoefficientComplex(FreeComplex.from_json(cx.to_json()), Z)
                    with pytest.raises(CertificateFailure, match="degree %d: " % n):
                        suite._split(n)
                    monkeypatch.undo()
                doubled += 1
                shifted += len(mutants) - 1
        assert min(shifted, doubled) >= 10, (shifted, doubled)

    def test_certificate_runs_the_split_identity(self, monkeypatch):
        # a wrong inverse of degree n's Hermite transform stops the certificate
        import tauthom.complexes as complexes
        rng = seeded(29)
        stopped = 0
        for _ in range(12):
            cx, _ = random_free_cochain_complex(rng)
            for n in cx.degrees():
                if not cx.rank(n):
                    continue
                fresh = FreeComplex.from_json(cx.to_json())
                suite = CoefficientComplex(fresh, Z12)
                for built in (n - 1, n + 1):
                    suite._split(built)
                monkeypatch.setattr(complexes, "solve_columns",
                                    lambda mat, rhs: solve_columns(mat, rhs) * 2)
                with pytest.raises(CertificateFailure, match="degree %d: the cocycles" % n):
                    suite.certificate(n)
                monkeypatch.undo()
                stopped += 1
        assert stopped > 10

    def test_certificates_build_no_full_size_subquotient(self, monkeypatch):
        # Hom(C^n, G) has rank(n) * m coordinates; with the integral data
        # memoised, a certificate builds no Subquotient at all and takes no
        # Hermite or Smith form.
        # The 12-gon and a cone on it with H^2 = Z/2 keep every Ext and Hom
        # term small.
        import tauthom.complexes as complexes
        import tauthom.groups as groups
        import tauthom.matrices as matrices
        d0 = IntMatrix._trusted(12, 12, tuple(
            tuple((1 if i == (j + 1) % 12 else 0) - (1 if i == j else 0) for j in range(12))
            for i in range(12)))
        cxs = [FreeComplex("cochain", 0, 1, [12, 12], {0: d0}),
               FreeComplex("cochain", 0, 2, [12, 12, 1], {0: d0, 1: m([[2] * 12])})]
        groups_ = (Z, Z2, Z12, MIXED, parse_group("Z/2+Z/6"))
        for cx in cxs:
            uct_certificates(cx, Z)
        ambient, forms = [], []

        def recording(numerator, denominator):
            ambient.append(numerator.rows)
            return Subquotient(numerator, denominator)

        def counted(kind, form):
            return lambda mat: forms.append(kind) or form(mat)

        monkeypatch.setattr(complexes, "Subquotient", recording)
        monkeypatch.setattr(groups, "Subquotient", recording)
        for module in (matrices, groups, complexes):
            monkeypatch.setattr(module, "hermite_form", counted("hermite", matrices.hermite_form))
            monkeypatch.setattr(module, "smith_normal_form",
                                counted("smith", matrices.smith_normal_form))
        for g in groups_:
            for cx in cxs:
                del ambient[:], forms[:]
                certs = uct_certificates(cx, g)
                assert ambient == []
                assert forms == []
                # the full-size route would build one of 12 * m
                coefficient_homology_subquotient(CoefficientComplex(cx, g), 1)
                assert ambient[-1] == 12 * g.n_gens
            assert certs[2].middle == ExtGroup(ZERO, g).group.direct_sum(HomGroup(Z2, g).group)

    def test_cold_path_takes_one_hermite_transform_per_degree(self, monkeypatch):
        # on a fresh complex every degree from lo - 1 to hi + 1 takes one
        # Hermite form, of d^n, and one solve, against its transform V, and
        # every degree from lo to hi + 1 one Smith form, of the inclusion
        # p_n H_{n-1} of B^n into Z^n and of no transpose; no certificate
        # solves for its retraction, and nothing asks for a kernel or column
        # basis. The memo holds two key kinds.
        import tauthom.complexes as complexes
        import tauthom.groups as groups
        import tauthom.matrices as matrices

        def inside(cx, n):
            hf = hermite_form(cx.diff(n))
            w = solve_columns(hf.v, IntMatrix.identity(hf.v.rows))
            p = IntMatrix(w.rows - hf.h.cols, w.cols, w.data[hf.h.cols:])
            return p * hermite_form(cx.diff(n - 1)).h

        def forbidden(mat):
            raise AssertionError("full-lattice basis on the certificate path")

        rng = seeded(31)
        for i in range(20):
            cx, _ = random_free_cochain_complex(rng)
            events = []
            monkeypatch.setattr(complexes, "hermite_form", lambda mat: events.append(
                ("hermite", mat)) or hermite_form(mat))
            monkeypatch.setattr(complexes, "solve_columns", lambda mat, rhs: events.append(
                ("solve", mat)) or solve_columns(mat, rhs))
            monkeypatch.setattr(complexes, "smith_normal_form", lambda mat: events.append(
                ("smith", mat)) or smith_normal_form(mat))
            for module in (matrices, groups):
                for name in ("kernel_basis", "column_basis"):
                    monkeypatch.setattr(module, name, forbidden, raising=False)
            uct_certificates(cx, COEFFICIENTS[i % len(COEFFICIENTS)])
            monkeypatch.undo()
            records = [k for k, (kind, _) in enumerate(events) if kind == "hermite"]
            assert sorted(repr(events[k][1]) for k in records) == \
                sorted(repr(cx.diff(n)) for n in range(cx.lo - 1, cx.hi + 2))
            for k in records:
                assert events[k + 1] == ("solve", hermite_form(events[k][1]).v)
            smiths = [mat for kind, mat in events if kind == "smith"]
            insides = [inside(cx, n) for n in range(cx.lo, cx.hi + 2)]
            assert sorted(map(repr, smiths)) == sorted(map(repr, insides))
            transposes = {mat.transpose() for mat in insides} - set(insides)
            assert not transposes & set(smiths)
            assert len(events) == 2 * len(records) + len(smiths)
            assert {key[0] for key in cx._integral} == {"V", "H"}

    def test_cold_path_reads_each_cokernel_off_its_smith_form(self, monkeypatch):
        # on fresh complexes the certificates build no Subquotient, take a
        # Hermite form of an identity matrix only where a differential or its
        # transform V is one, and ask for one Smith form per degree from lo to
        # hi + 1
        import tauthom.complexes as complexes
        import tauthom.groups as groups
        import tauthom.matrices as matrices
        rng = seeded(33)
        for i in range(20):
            cx, _ = random_free_cochain_complex(rng)
            built, hermites, smiths = [], [], []
            init = Subquotient.__init__
            monkeypatch.setattr(Subquotient, "__init__", lambda sq, num, den:
                                built.append(num) or init(sq, num, den))
            for module in (matrices, groups, complexes):
                monkeypatch.setattr(module, "hermite_form", lambda mat: hermites.append(mat)
                                    or hermite_form(mat))
                monkeypatch.setattr(module, "smith_normal_form", lambda mat: smiths.append(mat)
                                    or smith_normal_form(mat))
            uct_certificates(cx, COEFFICIENTS[i % len(COEFFICIENTS)])
            monkeypatch.undo()
            assert built == []
            named = {mat for n in range(cx.lo - 1, cx.hi + 2)
                     for mat in (cx.diff(n), hermite_form(cx.diff(n)).v)}
            assert [mat for mat in hermites if mat.is_identity() and mat not in named] == []
            assert len(smiths) == cx.hi + 2 - cx.lo

    def test_record_divides_the_smith_form_exactly(self, monkeypatch):
        # a Smith form of inside(n) with the row of an invariant factor 1
        # added to a torsion row of U stops degree n's record: row i of
        # U inside becomes d_i v_i + v_j for rows v of V^-1, and v_j, a row of
        # a unimodular matrix, is not divisible by d_i >= 2
        import tauthom.complexes as complexes
        from tauthom.matrices import SmithForm
        rng = seeded(32)
        stopped = 0
        for _ in range(40):
            cx, _ = random_free_cochain_complex(rng)
            suite = CoefficientComplex(cx, Z)
            for n in range(cx.lo, cx.hi + 2):
                inside = suite._split(n)[3] * suite._split(n - 1)[0]
                s = smith_normal_form(inside)
                units = [j for j, d in enumerate(s.diagonal) if d == 1]
                tors = [i for i, d in enumerate(s.diagonal) if d >= 2]
                if not (units and tors):
                    continue
                rows = [list(row) for row in s.u.data]
                rows[tors[0]] = [a + b for a, b in zip(rows[tors[0]], rows[units[0]])]
                bad = SmithForm(IntMatrix.from_rows(rows), s.uinv, s.d, s.v)
                fresh = FreeComplex.from_json(cx.to_json())
                for k in range(cx.lo, cx.hi + 2):
                    if k != n:
                        CoefficientComplex(fresh, Z)._cohomology(k)
                monkeypatch.setattr(complexes, "smith_normal_form",
                                    lambda mat, bad=bad, inside=inside:
                                    bad if mat == inside else smith_normal_form(mat))
                with pytest.raises(CertificateFailure, match="degree %d: " % n):
                    uct_certificates(fresh, Z)
                monkeypatch.undo()
                stopped += 1
        assert stopped > 10, stopped

    def test_splitting_is_right_inverse(self):
        for g in (Z, Z4, MIXED):
            for n, cert in uct_certificates(rp2_cochain(), g).items():
                comp = cert.surjection @ cert.splitting
                assert comp.is_identity

    def test_injection_surjection_exactness(self):
        for n, cert in uct_certificates(rp2_cochain(), Z4).items():
            assert (cert.surjection @ cert.injection).is_zero

    def test_tampered_certificate_detected(self):
        # each certificate is checked against the builder's retraction, the
        # Ext rows of the middle's lifts
        from tauthom.complexes import _check_split

        def check(cc, cert):
            mid_sum = cc._middle(cert.degree)[2]
            k = cert.ext_term.n_gens
            _check_split(cert.degree, cert.injection, cert.surjection, cert.splitting,
                         IntMatrix(k, cert.middle.n_gens, mid_sum.lifts.data[:k]))

        cc = CoefficientComplex(rp2_cochain(), Z)
        # degree 1 has ext_term Z/2: a zero injection no longer injects
        cert = cc.certificate(1)
        bad = type(cert)(cert.degree, cert.ext_term, cert.hom_term,
                         cert.middle, GroupMap.zero(cert.ext_term, cert.middle),
                         cert.surjection, cert.splitting)
        with pytest.raises(CertificateFailure):
            check(cc, bad)
        # degree 0 has hom_term Z: a zero surjection no longer surjects
        cert0 = cc.certificate(0)
        bad0 = type(cert0)(cert0.degree, cert0.ext_term, cert0.hom_term,
                           cert0.middle, cert0.injection,
                           GroupMap.zero(cert0.middle, cert0.hom_term),
                           cert0.splitting)
        with pytest.raises(CertificateFailure):
            check(cc, bad0)
        # a seeded battery: every built certificate passes with its
        # retraction, and each map scaled by 0, 2 or 3 that the kernel/cokernel
        # check rejects is rejected. A scaled map can keep the sequence split
        # exact and still fail against the builder's retraction, such as the
        # injection of Ext = Z/3 doubled; those are counted
        rng = seeded(25)
        verdicts, stale, total = set(), 0, 0
        for _ in range(25):
            cx, _ = random_free_cochain_complex(rng)
            for g in (Z, Z2, Z12, MIXED):
                cc = CoefficientComplex(cx, g)
                for n in cx.degrees():
                    cert = cc.certificate(n)
                    assert accepts(check, cc, cert)
                    for bad in scaled_maps(cert, ("injection", "surjection", "splitting")):
                        verdict = accepts(verify_certificate_reference, bad)
                        ours = accepts(check, cc, bad)
                        assert verdict or not ours
                        assert ours or not verdict or bad.injection != cert.injection
                        stale += verdict and not ours
                        verdicts.add(verdict)
                        total += 1
        assert verdicts == {True, False}
        assert (stale, total) == (43, 2700)

    @pytest.mark.parametrize("include, evaluate, retraction, message", [
        # Z/2 -> Z sending 1 to an odd number is no homomorphism
        (GroupMap(Z, Z2, m([[1]])), GroupMap.zero(Z2, ZERO), m([[1]]), "not well defined"),
        # Z/2 + Z/2 -> Z/2 hits the kernel of evaluation but does not inject
        (GroupMap(PresentedGroup(0, (2, 2)), Z2, m([[1, 1]])), GroupMap.zero(Z2, ZERO),
         m([[1], [0]]), "fails to inject"),
        # evaluation is zero onto a nonzero group: no splitting is a right inverse
        (GroupMap.identity(Z), GroupMap.zero(Z, Z2), m([[1]]), "right inverse"),
        (GroupMap.identity(Z), GroupMap(Z, Z2, m([[1]])), m([[1]]),
         "composite through the middle"),
        # Ext 0 into the middle Z: evaluation onto 0 kills all of Z
        (GroupMap.zero(ZERO, Z), GroupMap.zero(Z, ZERO), IntMatrix.zeros(0, 1),
         "kernel of evaluation escapes the image of the Ext term"),
    ])
    def test_each_identity_is_checked(self, include, evaluate, retraction, message):
        from tauthom.complexes import _check_split
        split = GroupMap.zero(evaluate.target, evaluate.source)
        with pytest.raises(CertificateFailure, match=message):
            _check_split(0, include, evaluate, split, retraction)
        assert not accepts(check_short_exact, 0, include, evaluate, "the Ext term")

    def test_certificates_build_no_validated_matrices(self, monkeypatch):
        # the validated constructor re-checks every entry; matrices the
        # package builds itself must bypass it on the certificate path
        rng = seeded(31)
        complexes = [random_free_cochain_complex(rng)[0] for _ in range(8)]
        calls = []
        validated = IntMatrix.__init__

        def counting(self, rows, cols, entries):
            calls.append((rows, cols))
            validated(self, rows, cols, entries)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        for cx in complexes:
            for g in (Z, Z2, Z12, MIXED):
                uct_certificates(cx, g)
        assert calls == []
        IntMatrix(1, 1, [[1]])
        assert calls == [(1, 1)]
