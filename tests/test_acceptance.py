"""End-to-end acceptance gate.

One test per criterion, so a verbose run prints exactly one pass/fail line
for each. Oracles are independent implementations from tests/oracles.py;
randomized corpora are seeded, so runs are reproducible byte for byte.
"""

import random
import time

from tauthom.complexes import CoefficientComplex, uct_certificates
from tauthom.groups import (ExtGroup, GroupMap, HomGroup, PresentedGroup,
                            cokernel, kernel)
from tauthom.kolmogoroff import (ConditionViolated, NerveComplex, Partition,
                                 free_colimit_basis, model_preset,
                                 random_chain)
from tauthom.limits import (NONZERO_UNCOUNTABLE, ZERO, Telescope, Tower,
                            colim, lim, lim1, lim_higher, six_term_check)
from tauthom.matrices import IntMatrix, determinant, smith_normal_form
from tauthom.randomgen import random_finite_telescope, random_free_cochain_complex, seeded
from tauthom.tautness import (VERIFIED, comparison_into_limit,
                              four_term_sequence, milnor_sequence,
                              reports_consistent, solenoid_tower,
                              tautness_sequence, trivially_taut_tower)

from generators import random_finite_tower, random_matrix
from oracles import (all_finite_groups_to, expected_mosaic_blocks, ext_oracle,
                     hom_oracle, mosaic_conditions_hold, occurrence_systems,
                     snf_divisors_oracle)
from test_kolmogoroff import nerve_boundary_of

Z = PresentedGroup(1, ())
Z2 = PresentedGroup(0, (2,))
Z4 = PresentedGroup(0, (4,))
Z12 = PresentedGroup(0, (12,))
Z_PLUS_Z4 = PresentedGroup(1, (4,))


def test_criterion_1_universal_coefficient_split_sequences():
    """500 random free cochain complexes x {Z, Z/2, Z/12, Z+Z/4}: every
    degree yields a short exact sequence with a verified splitting, under
    30 seconds."""
    rng = seeded(101)
    start = time.monotonic()
    complexes = [random_free_cochain_complex(rng)[0] for _ in range(500)]
    for cx in complexes:
        for g in (Z, Z2, Z12, Z_PLUS_Z4):
            for n, cert in uct_certificates(cx, g).items():
                assert kernel(cert.injection)[0].is_trivial
                assert cokernel(cert.surjection)[0].is_trivial
                assert (cert.surjection @ cert.injection).is_zero
                assert kernel(cert.surjection)[0] == cert.ext_term
                assert (cert.surjection @ cert.splitting).is_identity
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "UCT corpus took %.1fs" % elapsed


def test_criterion_2_smith_normal_form_oracle():
    """1000 random matrices up to 6x6 against the naive row/column
    reduction oracle; transforms unimodular and exact, under 10 seconds."""
    rng = seeded(102)
    start = time.monotonic()
    for _ in range(1000):
        m = random_matrix(rng, rng.randrange(0, 7), rng.randrange(0, 7), 9)
        s = smith_normal_form(m)
        assert s.u * m * s.v == s.d
        assert abs(determinant(s.u)) == 1
        assert abs(determinant(s.v)) == 1
        assert tuple(x for x in s.diagonal if x != 0) == \
            snf_divisors_oracle(m.data)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "SNF corpus took %.1fs" % elapsed


def test_criterion_3_hom_ext_enumeration_oracle():
    """Hom and Ext agree with element-level enumeration for every ordered
    pair of abelian groups of order at most 64."""
    chains = all_finite_groups_to(64)
    assert len(chains) > 100
    for a in chains:
        src = PresentedGroup(0, a)
        for g in chains:
            tgt = PresentedGroup(0, g)
            assert HomGroup(src, tgt).group.torsion == hom_oracle(a, g)
            assert ExtGroup(src, tgt).group.torsion == ext_oracle(a, g)


def test_criterion_4_six_term_sequence():
    """200 random finite telescopes: Ext(colim, G) -> lim Ext is a verified
    isomorphism; the doubling telescope over Z classifies its lim1 term as
    nonzero uncountable."""
    rng = seeded(104)
    for _ in range(200):
        t = random_finite_telescope(rng)
        rep = six_term_check(t, Z12)
        assert rep.iso is not None and rep.iso.verified
        assert rep.lim1_hom.kind == ZERO
        assert rep.lim2_hom.kind == ZERO
    doubling = Telescope.periodic(GroupMap(Z, Z, IntMatrix.from_rows([[2]])))
    rep = six_term_check(doubling, Z)
    assert colim(doubling).description == "Z[1/2]"
    assert rep.lim1_hom.kind == NONZERO_UNCOUNTABLE
    assert rep.ext_colim.kind == NONZERO_UNCOUNTABLE
    assert rep.lim_ext.kind == ZERO
    assert rep.lim2_hom.kind == ZERO


def test_criterion_5_derived_limit_classifications():
    """Winding towers over Z: lim exactly zero, lim1 nonzero uncountable
    with a strict-descent certificate; lim1 of towers of finite groups and
    every lim^i for i >= 2 are zero."""
    for p in (2, 3, 5):
        winding = Tower.periodic(GroupMap(Z, Z, IntMatrix.from_rows([[p]])))
        l0 = lim(winding)
        assert l0.kind == ZERO and l0.group.is_trivial
        l1 = lim1(winding)
        assert l1.kind == NONZERO_UNCOUNTABLE
        assert "descend strictly" in l1.certificate
        for i in (2, 3, 4):
            assert lim_higher(winding, i).kind == ZERO
    rng = seeded(105)
    for _ in range(150):
        t = random_finite_tower(rng)
        assert lim1(t).kind == ZERO
        assert lim_higher(t, 2).kind == ZERO
        assert lim_higher(t, 3).kind == ZERO


def test_criterion_6_set_function_vs_nerve_homology():
    """Set-function homology equals Hom-dual nerve homology on every preset
    and coefficient group; Delta agrees with the nerve boundary (x) G on 200
    random chains per model."""
    from tauthom.kolmogoroff import kolmogoroff_homology
    rng = seeded(106)
    names = ["arc-circle:%d" % n for n in range(4, 9)] + \
        ["octahedron", "rp2-6vertex"]
    coefficient_groups = (Z, Z2, Z4)
    for name in names:
        model = model_preset(name)
        part = Partition.singletons(model.atoms)
        nerve = NerveComplex(model, part)
        for g in coefficient_groups:
            direct = kolmogoroff_homology(model, part, g)
            dual = CoefficientComplex(nerve.cochain_complex(), g).homology_all()
            assert direct == dual
        for k in range(200):
            g = coefficient_groups[k % 3]
            deg = rng.randrange(0, nerve.dimension + 1)
            f = random_chain(rng, nerve, deg, g)
            if deg >= 1:
                assert f.boundary().values == nerve_boundary_of(f)


def test_criterion_7_mosaic_conditions_exhaustive():
    """Every set system with at most 4 sets over at most 8 atoms admits the
    computed mosaic: exhaustive over occurrence patterns (which determine
    the conditions), plus literal random systems with multiplicities."""
    from tauthom.kolmogoroff import mosaic
    checked = 0
    for n_sets in (1, 2, 3, 4):
        for sets, _ in occurrence_systems(n_sets, 8):
            blocks = mosaic(sets)
            assert mosaic_conditions_hold(sets, blocks)
            assert sorted(map(sorted, blocks)) == \
                sorted(map(sorted, expected_mosaic_blocks(sets)))
            checked += 1
    assert checked > 20000
    rng = random.Random(107)
    for _ in range(2000):
        sets = [frozenset(a for a in range(8) if rng.random() < 0.45)
                for _ in range(4)]
        assert mosaic_conditions_hold(sets, mosaic(sets))


def test_criterion_8_free_colimit_certificates():
    """Disjoint-support telescopes of free groups get verified bases;
    violating maps are rejected with a witness naming the bad entry."""
    rng = seeded(108)

    def conforming_map(src_rank, tgt_rank):
        rows = list(range(tgt_rank))
        rng.shuffle(rows)
        taken = 0
        cols = []
        for _ in range(src_rank):
            width = rng.randrange(0, 3)
            bundle = rows[taken:taken + width]
            taken += width
            col = [0] * tgt_rank
            for i in bundle:
                col[i] = rng.choice((1, -1))
            cols.append(col)
        return IntMatrix.from_columns(cols, tgt_rank)

    for _ in range(100):
        ranks = [rng.randrange(1, 6) for _ in range(rng.randrange(2, 5))]
        stages = tuple(PresentedGroup(r, ()) for r in ranks)
        maps = tuple(GroupMap(stages[k], stages[k + 1],
                              conforming_map(ranks[k], ranks[k + 1]))
                     for k in range(len(ranks) - 1))
        cert = free_colimit_basis(Telescope(stages, maps))
        assert cert.group == stages[-1]
        assert cert.basis is not None and cert.basis.is_identity()

    z1 = PresentedGroup(1, ())
    z2free = PresentedGroup(2, ())
    bad_entry = Telescope((z1, z1),
                          (GroupMap(z1, z1, IntMatrix.from_rows([[3]])),))
    try:
        free_colimit_basis(bad_entry)
        raise AssertionError("entry violation was accepted")
    except ConditionViolated as e:
        assert "entry 3" in str(e)
    shared = Telescope((z2free, z1),
                       (GroupMap(z2free, z1, IntMatrix.from_rows([[1, -1]])),))
    try:
        free_colimit_basis(shared)
        raise AssertionError("shared-support violation was accepted")
    except ConditionViolated as e:
        assert "shared" in str(e)


def test_criterion_9_tautness_milnor_harness():
    """Solenoid data yields H_1(A) = 0 exactly and reduced H_0(A) nonzero
    uncountable; constant finite data collapses to a verified isomorphism;
    the three sequence builders agree junction by junction on the corpus."""
    rep = tautness_sequence(solenoid_tower(2), 1, Z)
    assert rep.terms[1].outcome.kind == ZERO
    assert not rep.failed
    rep = tautness_sequence(solenoid_tower(2, reduced=True), 0, Z)
    assert rep.terms[1].outcome.kind == NONZERO_UNCOUNTABLE
    assert not rep.failed

    finite = trivially_taut_tower()
    for n in (0, 1, 2):
        comp = comparison_into_limit(finite, n)
        assert comp.kernel.is_trivial and comp.cokernel.is_trivial
        rep = tautness_sequence(finite, n, Z)
        assert rep.junctions[0].verdict == VERIFIED
        assert rep.junctions[1].verdict == VERIFIED

    corpus = [(solenoid_tower(2), (0, 1)), (solenoid_tower(3), (0, 1)),
              (solenoid_tower(5), (0, 1)),
              (solenoid_tower(2, reduced=True), (0, 1)),
              (trivially_taut_tower(), (0, 1, 2))]
    for data, degrees in corpus:
        for n in degrees:
            taut = tautness_sequence(data, n, Z)
            four = four_term_sequence(data, n, Z)
            milnor = milnor_sequence(data, n)
            assert not (taut.failed or four.failed or milnor.failed)
            assert reports_consistent(taut, four)
            assert reports_consistent(taut, milnor)
            assert reports_consistent(four, milnor)
