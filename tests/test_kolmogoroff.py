import itertools
import json
import random

import pytest

from tauthom import kolmogoroff
from tauthom.cli import main
from tauthom.complexes import CoefficientComplex, FreeComplex, homology_groups
from tauthom.groups import GroupMap, PresentedGroup, Subquotient, parse_group
from tauthom.kolmogoroff import (BlockMismatch, ConditionViolated, FiniteModel,
                                 KolmogoroffChain, NerveComplex, NotACover,
                                 NotARefinement, Partition, PipelineMismatch,
                                 RefinementMap, _generator_boundary_matrix,
                                 arc_circle, free_colimit_basis,
                                 kolmogoroff_homology, kolmogoroff_uct_check,
                                 model_preset, mosaic, octahedron,
                                 projective_plane, random_chain, regularize)
from tauthom.limits import Telescope
from tauthom.matrices import IntMatrix, _SparseMatrix
from tauthom.randomgen import seeded

from oracles import (expected_mosaic_blocks, full_sum_boundary_oracle,
                     generator_boundary_reference, maximal_faces_scan,
                     mosaic_conditions_hold, occurrence_systems,
                     starred_sphere_faces, torus_faces, unreduced_homology,
                     unreduced_kolmogoroff_groups)

Z = PresentedGroup(1, ())
Z2 = PresentedGroup(0, (2,))
Z4 = PresentedGroup(0, (4,))
ZZ4 = PresentedGroup(1, (4,))
Z2Z6 = PresentedGroup(0, (2, 6))


def torus_grid(n):
    """The n x n triangulated torus: two triangles per grid square."""
    return FiniteModel(n * n, torus_faces(n))


class TestMosaic:
    def test_overlapping_pair(self):
        blocks = mosaic([{1, 2}, {2, 3}])
        assert sorted(sorted(b) for b in blocks) == [[1], [2], [3]]

    def test_disjoint_preserved(self):
        blocks = mosaic([{1, 2}, {3, 4}])
        assert sorted(sorted(b) for b in blocks) == [[1, 2], [3, 4]]

    def test_nested(self):
        blocks = mosaic([{1, 2, 3, 4}, {2, 3}])
        assert sorted(sorted(b) for b in blocks) == [[1, 4], [2, 3]]

    def test_small_systems_exhaustively(self):
        # one canonical system per occurrence-set of membership patterns
        for sets, _ in occurrence_systems(3, 7):
            got = mosaic(sets)
            assert mosaic_conditions_hold(sets, got)
            assert sorted(map(sorted, got)) == \
                sorted(map(sorted, expected_mosaic_blocks(sets)))

    def test_multiplicity_invariance(self):
        # duplicating an atom's membership pattern never breaks the conditions
        rng = random.Random(41)
        for _ in range(200):
            sets = [frozenset(a for a in range(6) if rng.random() < 0.4)
                    for _ in range(3)]
            doubled = [frozenset(s | {a + 6 for a in s}) for s in sets]
            assert mosaic_conditions_hold(doubled, mosaic(doubled))

    def test_regularize(self):
        # disjointified in input order, empty residues dropped
        p = regularize([{0, 1, 2}, {2, 3}, {1, 2}, {3, 4}], 5)
        assert p.blocks == ((0, 1, 2), (3,), (4,))

    def test_regularize_rejects_non_cover(self):
        with pytest.raises(NotACover):
            regularize([{0, 1}], 3)

    def test_non_int_atoms_rejected(self):
        # none is coerced into another atom system
        with pytest.raises(ValueError, match="got 1.5"):
            mosaic([{0, 1}, {1, 1.5}])
        with pytest.raises(ValueError, match="got '2'"):
            regularize([[0, 1], ["2"]], 3)
        f = KolmogoroffChain(make_nerve("arc-circle:4"), 1, Z4, {(0, 1): (1,)})
        with pytest.raises(ValueError, match="got 0.9"):
            f.evaluate_sets(({0.9}, {True}))


class TestModelAndPartition:
    def test_faces_downward_closed(self):
        m = FiniteModel(3, [(0, 1, 2)])
        assert frozenset({0, 1}) in m.simplices
        assert frozenset({2}) in m.simplices
        assert m.dimension == 2

    def test_maximal_faces_match_pairwise_scan(self):
        rng = seeded(52)
        models = [torus_grid(n) for n in (3, 5, 8)]
        for _ in range(200):
            atoms = rng.randint(1, 9)
            faces = [rng.sample(range(atoms), rng.randint(1, min(atoms, 5)))
                     for _ in range(rng.randint(0, 6))]
            models.append(FiniteModel(atoms, faces))
        for m in models:
            assert m.maximal == maximal_faces_scan(m.simplices)

    def test_singletons_always_present(self):
        m = FiniteModel(4, [])
        assert all(frozenset({a}) in m.simplices for a in range(4))

    def test_face_bounds_checked(self):
        with pytest.raises(ValueError):
            FiniteModel(2, [(0, 5)])

    def test_partition_canonicalization(self):
        p = Partition([[2, 1], [0]])
        assert p.blocks == ((0,), (1, 2))
        assert p.block_of[2] == 1

    def test_refines(self):
        fine = Partition.singletons(4)
        coarse = Partition([[0, 1], [2, 3]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert coarse.refines(Partition([[0, 1, 2, 3]]))

    def test_model_json_round_trip(self):
        m = projective_plane()
        assert FiniteModel.from_json(json.loads(json.dumps(m.to_json()))) == m

    def test_preset_errors(self):
        with pytest.raises(ValueError):
            model_preset("arc-circle:2")
        with pytest.raises(ValueError):
            model_preset("torus")


class TestNerve:
    def test_circle_nerve_counts(self):
        nerve = NerveComplex(arc_circle(5), Partition.singletons(5))
        assert [nerve.count(n) for n in (0, 1)] == [5, 5]
        assert nerve.dimension == 1

    def test_coarsening_collapses(self):
        # grouping opposite arcs of a hexagonal circle gives a 3-block nerve
        nerve = NerveComplex(arc_circle(6), Partition([[0, 3], [1, 4], [2, 5]]))
        assert nerve.count(0) == 3

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            NerveComplex(arc_circle(4), Partition([[0, 1]]))

    def test_boundary_squares_to_zero(self):
        nerve = NerveComplex(projective_plane(), Partition.singletons(6))
        d1, d2 = nerve.boundary_matrix(1), nerve.boundary_matrix(2)
        assert (d1 * d2).is_zero()

    def test_chain_vs_cochain_transpose(self):
        nerve = NerveComplex(octahedron(), Partition.singletons(6))
        co = nerve.cochain_complex()
        for n in range(1, nerve.dimension + 1):
            assert co.diff(n - 1) == nerve.boundary_matrix(n).transpose()

    @pytest.mark.parametrize("form", ["sparse", "dense"])
    def test_flipped_sign_fails_composition_check(self, form):
        # one sign flipped in the sparse d_2 of the octahedron breaks d_1 d_2 = 0,
        # whether the complex is handed the sparse columns or their dense view
        nerve = NerveComplex(octahedron(), Partition.singletons(6))
        diffs = {n: _SparseMatrix(d.rows, d.cols, {j: dict(c) for j, c in d.columns.items()})
                 for n, d in nerve.chain.diffs.items()}
        col = diffs[2].columns[5]
        col[min(col)] *= -1
        if form == "dense":
            diffs = {n: d.dense() for n, d in diffs.items()}
        with pytest.raises(ValueError, match="degrees 2 and 1 do not compose"):
            FreeComplex("chain", 0, 2, nerve.chain.ranks, diffs)
        with pytest.raises(ValueError, match="degrees 0 and 1 do not compose"):
            FreeComplex("cochain", 0, 2, nerve.chain.ranks,
                        {n - 1: d.transpose() for n, d in diffs.items()})
        FreeComplex("chain", 0, 2, nerve.chain.ranks, nerve.chain.diffs)


def make_nerve(name):
    m = model_preset(name)
    return NerveComplex(m, Partition.singletons(m.atoms))


def star_sum(f, tau):
    """Delta f(tau) summed over the star blocks of the face tau only: the
    blocks b outside tau with (b,) + tau on the nerve."""
    nerve = f.nerve
    total = (0,) * f.coefficients.n_gens
    for b in range(len(nerve.partition)):
        if b not in tau and tuple(sorted((b,) + tau)) in nerve.index[len(tau)]:
            total = tuple(x + y for x, y in zip(total, f.evaluate_blocks((b,) + tau)))
    return f.coefficients.reduce(total)


def nerve_boundary_of(f):
    """The nerve boundary (x) G applied to the values of f, reduced mod G:
    {face: value} on the faces where it is nonzero."""
    nerve, g, n = f.nerve, f.coefficients, f.degree
    k = g.n_gens
    coords = [x for s in nerve.simplices[n] for x in f.values.get(s, (0,) * k)]
    image = nerve.chain.diffs[n].blockwise(k).dense().apply(coords)
    out = {}
    for i, tau in enumerate(nerve.simplices[n - 1]):
        vec = g.reduce(image[i * k:(i + 1) * k])
        if any(vec):
            out[tau] = vec
    return out


class TestKolmogoroffChains:
    def test_alternation_and_repeats(self):
        nerve = make_nerve("arc-circle:4")
        f = KolmogoroffChain(nerve, 1, Z4, {(0, 1): (1,)})
        assert f.evaluate_blocks((1, 0)) == (3,)  # sign flip mod 4
        assert f.evaluate_blocks((1, 1)) == (0,)  # repeated argument
        assert f.evaluate_blocks((2, 3)) == (0,)

    def test_off_nerve_values_rejected(self):
        nerve = make_nerve("arc-circle:4")
        with pytest.raises(ValueError):
            KolmogoroffChain(nerve, 1, Z4, {(0, 2): (1,)})

    def test_non_int_keys_and_values_rejected(self):
        # (0, True) and (1.0,) are not read as (0, 1) and (1,)
        nerve = make_nerve("arc-circle:4")
        with pytest.raises(ValueError, match="got True"):
            KolmogoroffChain(nerve, 1, Z4, {(0, True): (1,)})
        with pytest.raises(ValueError, match="got 1.0"):
            KolmogoroffChain(nerve, 1, Z4, {(0, 1): (1.0,)})

    def test_additivity_on_block_unions(self):
        nerve = make_nerve("arc-circle:5")
        f = KolmogoroffChain(nerve, 1, Z4, {(0, 1): (1,), (1, 2): (2,)})
        # evaluating on {0}u{2} against {1} sums the matching tuples:
        # f(0,1) + f(2,1) = 1 - 2 = -1
        val = f.evaluate_sets((frozenset({0, 2}), frozenset({1})))
        assert val == (3,)

    def test_unsaturated_set_rejected(self):
        nerve = NerveComplex(arc_circle(6), Partition([[0, 1], [2, 3], [4, 5]]))
        f = KolmogoroffChain(nerve, 0, Z4, {(0,): (1,)})
        with pytest.raises(BlockMismatch):
            f.evaluate_sets((frozenset({0}),))  # half of a block

    def test_mosaic_consistency(self):
        # additivity: the value on the sets is the sum of the values on
        # every tuple of mosaic pieces they contain
        nerve = make_nerve("arc-circle:5")
        rng = seeded(42)
        for _ in range(10):
            f = random_chain(rng, nerve, 1, Z4)
            for args in ((frozenset({0, 1}), frozenset({2, 3})),
                         (frozenset({0, 1, 2}), frozenset({1, 2, 3}))):
                pieces = [frozenset(p) for p in mosaic(args)]
                inside = [[p for p in pieces if p <= s] for s in args]
                assert [frozenset().union(*ps) for ps in inside] == list(args)
                total = sum(f.evaluate_sets(combo)[0] for combo in itertools.product(*inside))
                assert f.evaluate_sets(args) == Z4.reduce((total,))

    def test_boundary_star_support(self):
        # summing over the star of each face alone gives the boundary, so
        # it does not depend on the admissible U
        nerve = make_nerve("arc-circle:6")
        f = KolmogoroffChain(nerve, 1, Z4, {(0, 1): (1,)})
        d = f.boundary()
        assert d.values == {(0,): (3,), (1,): (1,)}
        for tau in nerve.simplices[0]:
            assert star_sum(f, tau) == d.evaluate_blocks(tau)

    def test_boundary_against_full_sum(self):
        # the coface-restricted sum equals the sum over every face and block
        rng = seeded(45)
        models = [arc_circle(7), octahedron(), projective_plane()]
        partitions = [Partition.singletons(m.atoms) for m in models] + \
            [Partition([[0, 1], [2], [3, 4], [5, 6]])]
        for m, p in zip(models + [models[0]], partitions):
            nerve = NerveComplex(m, p)
            for g in (Z, Z2, ZZ4):
                for deg in range(1, nerve.dimension + 1):
                    for keep in (1.0, 0.3):
                        f = random_chain(rng, nerve, deg, g)
                        f = KolmogoroffChain(nerve, deg, g, {
                            s: v for s, v in f.values.items() if rng.random() < keep})
                        want = full_sum_boundary_oracle(
                            f.values, nerve.simplices[deg - 1], len(p), g.orders)
                        assert list(f.boundary().values.items()) == want

    def test_boundary_support(self):
        # blocks 3 and 4 lie on no 2-simplex, and stars differ from face to
        # face; on every face the star sum alone gives the boundary
        nerve = NerveComplex(FiniteModel(5, [(0, 1, 2), (2, 3), (3, 4)]),
                             Partition.singletons(5))
        rng = seeded(48)
        chains = [KolmogoroffChain(nerve, 2, ZZ4, {(0, 1, 2): (1, 3)}),
                  KolmogoroffChain(nerve, 1, Z4, {(2, 3): (1,), (3, 4): (2,)})]
        chains += [random_chain(rng, nerve, deg, g) for deg in (1, 2) for g in (Z, Z2Z6)]
        for f in chains:
            d = f.boundary()
            assert not d.is_zero()
            for tau in nerve.simplices[f.degree - 1]:
                assert star_sum(f, tau) == d.evaluate_blocks(tau)

    @pytest.mark.parametrize("model, degree, coefficients", [
        (arc_circle(40), 1, Z2), (arc_circle(40), 1, ZZ4),
        (torus_grid(4), 1, Z), (torus_grid(4), 2, ZZ4)],
        ids=["circle40-Z/2", "circle40-Z+Z/4", "torus4-Z", "torus4-deg2-Z+Z/4"])
    def test_generator_boundary_evaluations_scale_with_simplices(
            self, monkeypatch, model, degree, coefficients):
        # one evaluation per face of each generator; summing over every
        # (n-1)-simplex and block instead would make |S_{n-1}| * blocks each
        evaluate = KolmogoroffChain.evaluate_blocks
        calls = []

        def counting(self, blocks):
            calls.append(blocks)
            return evaluate(self, blocks)

        nerve = NerveComplex(model, Partition.singletons(model.atoms))
        monkeypatch.setattr(KolmogoroffChain, "evaluate_blocks", counting)
        _generator_boundary_matrix(nerve, degree, coefficients)
        assert 0 < len(calls) <= \
            (degree + 1) * nerve.count(degree) * coefficients.n_gens

    def test_trusted_boundary_passes_validation(self):
        # boundary() wraps its dict unchecked; the validated constructor must
        # return it unchanged: sorted nerve keys, reduced nonzero values
        rng = seeded(46)
        nerves = [make_nerve(name) for name in ("arc-circle:5", "octahedron", "rp2-6vertex")]
        nerves.append(NerveComplex(arc_circle(7), Partition([[0, 1], [2], [3, 4], [5, 6]])))
        for nerve in nerves:
            for g in (Z, Z4, ZZ4, Z2Z6):
                for deg in range(1, nerve.dimension + 1):
                    for keep in (1.0, 0.4):
                        f = random_chain(rng, nerve, deg, g)
                        f = KolmogoroffChain(nerve, deg, g, {
                            s: v for s, v in f.values.items() if rng.random() < keep})
                        d = f.boundary()
                        checked = KolmogoroffChain(nerve, deg - 1, g, d.values)
                        assert d == checked
                        assert list(d.values.items()) == list(checked.values.items())

    def test_odd_permutation_gives_reduced_negation(self):
        nerve = make_nerve("arc-circle:4")
        f = KolmogoroffChain(nerve, 1, ZZ4, {(0, 1): (2, 1)})
        assert f.evaluate_blocks((0, 1)) == (2, 1)
        assert f.evaluate_blocks((1, 0)) == (-2, 3)
        h = KolmogoroffChain(nerve, 1, Z2Z6, {(1, 2): (1, 5)})
        assert h.evaluate_blocks((2, 1)) == (1, 1)
        assert h.evaluate_blocks((2, 2)) == (0, 0)

    @pytest.mark.parametrize("coefficients", [Z, Z2, Z4, PresentedGroup(0, (12,)), ZZ4, Z2Z6],
                             ids=["Z", "Z/2", "Z/4", "Z/12", "Z+Z/4", "Z/2+Z/6"])
    def test_generator_boundary_matches_definition(self, coefficients):
        # every column is Delta of a one-generator chain summed over every
        # block, as written in tests/oracles.py; the sparse form holds
        # exactly the reference's nonzero entries, each in its column
        cases = [(m, Partition.singletons(m.atoms)) for m in reduction_corpus()]
        cases.append((torus_grid(4), Partition([[0, 5], [1, 2, 7], [3, 8], [4, 9, 14],
                                                [6, 11], [10, 15], [12, 13]])))
        for m, p in cases:
            nerve = NerveComplex(m, p)
            for n in range(nerve.dimension + 2):
                mat = _generator_boundary_matrix(nerve, n, coefficients)
                rows, cols, data = generator_boundary_reference(
                    nerve.simplices, n, len(p), coefficients.orders)
                assert (mat.rows, mat.cols, mat.dense().data) == (rows, cols, data)
                assert mat.columns == {
                    j: {i: data[i][j] for i in range(rows) if data[i][j]}
                    for j in range(cols) if any(data[i][j] for i in range(rows))}

    def test_double_boundary_vanishes(self):
        # the degree-0 boundary is the identically-zero degree -1 function
        rng = seeded(43)
        for name in ("arc-circle:5", "octahedron", "rp2-6vertex"):
            nerve = make_nerve(name)
            for deg in range(1, nerve.dimension + 1):
                f = random_chain(rng, nerve, deg, Z4)
                assert f.boundary().boundary().is_zero()

    def test_degree_zero_boundary_is_the_zero_chain_below(self):
        nerve = make_nerve("octahedron")
        f = random_chain(seeded(47), nerve, 0, ZZ4)
        d = f.boundary()
        assert d == KolmogoroffChain._trusted(nerve, -1, ZZ4, {}) and d.is_zero()
        for chain in (d, KolmogoroffChain(nerve, -1, ZZ4, {})):
            with pytest.raises(ValueError, match="no boundary below degree 0"):
                chain.boundary()

    def test_boundary_naturality(self):
        # Delta agrees with the nerve boundary (x) G on random chains
        rng = seeded(44)
        for name in ("arc-circle:5", "octahedron", "rp2-6vertex"):
            nerve = make_nerve(name)
            for g in (Z, Z2, Z4):
                for deg in range(nerve.dimension + 1):
                    f = random_chain(rng, nerve, deg, g)
                    if deg >= 1:
                        assert f.boundary().values == nerve_boundary_of(f)


class TestHomology:
    def test_no_large_dense_matrices(self, monkeypatch):
        # differentials stay sparse from the nerve to homology_groups; the
        # only dense matrices are those of the unit-reduced complexes and
        # their lattice work, both validated and trusted ones. Both complexes
        # reduce to zero differentials, so every group is read off in closed
        # form and no Subquotient is built
        shapes, subquotients = [], []
        validated, trusted = IntMatrix.__init__, IntMatrix._trusted.__func__
        subquotient = Subquotient.__init__

        def counting_subquotient(self, numerator, denominator):
            subquotients.append((numerator.rows, numerator.cols))
            subquotient(self, numerator, denominator)

        def counting(self, rows, cols, entries):
            shapes.append((rows, cols))
            validated(self, rows, cols, entries)

        def counting_trusted(cls, rows, cols, data):
            shapes.append((rows, cols))
            return trusted(cls, rows, cols, data)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        monkeypatch.setattr(IntMatrix, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(Subquotient, "__init__", counting_subquotient)
        circle = kolmogoroff_homology(arc_circle(400), Partition.singletons(400), Z2)
        torus = kolmogoroff_homology(torus_grid(15), Partition.singletons(225), Z)
        assert circle == {0: Z2, 1: Z2}
        assert torus == {0: Z, 1: PresentedGroup(2, ()), 2: Z}
        assert max((r * c for r, c in shapes), default=0) <= 16 * 16
        assert subquotients == []

    def test_nerve_built_once_per_model_and_partition(self, monkeypatch):
        # the nerve is kept on the model, keyed by the partition: an equal
        # but distinct partition reuses it over any G, another one builds
        # its own, and a model with a filled memo still equals a fresh one
        built = []
        nerve_complex = NerveComplex

        def counting(model, partition):
            built.append(partition)
            return nerve_complex(model, partition)

        monkeypatch.setattr(kolmogoroff, "NerveComplex", counting)
        model = octahedron()
        first = kolmogoroff_homology(model, Partition.singletons(6), Z)
        assert len(built) == 1
        assert kolmogoroff_homology(model, Partition([[a] for a in range(6)]), Z) == first
        kolmogoroff_homology(model, Partition.singletons(6), Z2)
        assert len(built) == 1
        kolmogoroff_homology(model, Partition([[0, 1], [2], [3], [4], [5]]), Z)
        assert len(built) == 2
        # the UCT check along a refinement chain reuses both nerves and
        # leaves no dense boundary view on them
        kolmogoroff_uct_check(model, [Partition([[0, 1], [2], [3], [4], [5]]),
                                      Partition.singletons(6)], Z)
        assert len(built) == 2 and not any(nv.chain._dense for nv in model._nerves.values())
        fresh = octahedron()
        assert len(model._nerves) == 2 and fresh._nerves == {}
        assert fresh == model and hash(fresh) == hash(model)

    def test_circle_over_z(self):
        m = arc_circle(4)
        hom = kolmogoroff_homology(m, Partition.singletons(4), Z)
        assert hom == {0: Z, 1: Z}

    def test_octahedron_over_z2(self):
        hom = kolmogoroff_homology(octahedron(), Partition.singletons(6), Z2)
        assert hom == {0: Z2, 1: PresentedGroup(0, ()), 2: Z2}

    def test_projective_plane_values(self):
        m = projective_plane()
        p = Partition.singletons(6)
        assert kolmogoroff_homology(m, p, Z) == \
            {0: Z, 1: Z2, 2: PresentedGroup(0, ())}
        assert kolmogoroff_homology(m, p, Z4) == {0: Z4, 1: Z2, 2: Z2}

    def test_single_atom(self):
        hom = kolmogoroff_homology(FiniteModel(1, []), Partition.singletons(1), Z4)
        assert hom == {0: Z4}

    def test_matches_dual_nerve_pipeline(self):
        # same values out of the independently assembled coefficient complex
        for name in ("arc-circle:6", "octahedron"):
            m = model_preset(name)
            p = Partition.singletons(m.atoms)
            nerve = NerveComplex(m, p)
            for g in (Z2, Z4):
                hom = kolmogoroff_homology(m, p, g)
                dual = CoefficientComplex(nerve.cochain_complex(), g)
                assert hom == dual.homology_all()

    def test_nerve_path_builds_no_validated_matrices(self, monkeypatch):
        # the validated constructor re-checks every entry; boundary,
        # generator-boundary and refinement matrices the package builds
        # itself must bypass it
        calls = []
        validated = IntMatrix.__init__

        def counting(self, rows, cols, entries):
            calls.append((rows, cols))
            validated(self, rows, cols, entries)

        models = (torus_grid(3), arc_circle(9), projective_plane())
        nerves = [NerveComplex(m, Partition.singletons(m.atoms)) for m in models]
        complexes = [c for nv in nerves for c in (nv.chain, nv.cochain_complex())]
        monkeypatch.setattr(IntMatrix, "__init__", counting)
        for m in models:
            for g in (Z, Z2):
                kolmogoroff_homology(m, Partition.singletons(m.atoms), g)
        for cx in complexes:
            cx.homology_all()
        m = arc_circle(8)
        fine = NerveComplex(m, Partition.singletons(8))
        coarse = NerveComplex(m, Partition([[0, 1], [2, 3], [4, 5], [6, 7]]))
        RefinementMap(fine, coarse)
        assert calls == []
        IntMatrix(1, 1, [[1]])
        assert calls == [(1, 1)]


    def test_homology_builds_no_validated_chains(self, monkeypatch):
        # generator chains and their boundaries are built here and wrapped
        # unchecked; only user-facing construction validates
        calls = []
        validated = KolmogoroffChain.__init__

        def counting(self, nerve, degree, coefficients, values):
            calls.append(degree)
            validated(self, nerve, degree, coefficients, values)

        monkeypatch.setattr(KolmogoroffChain, "__init__", counting)
        for m in (torus_grid(3), arc_circle(9), projective_plane()):
            for g in (Z, Z2, ZZ4):
                kolmogoroff_homology(m, Partition.singletons(m.atoms), g)
        assert calls == []
        KolmogoroffChain(make_nerve("arc-circle:4"), 1, Z4, {(0, 1): (1,)})
        assert calls == [1]


def reduction_corpus():
    """Closure models whose nerves have mostly unit boundary entries; the
    projective plane keeps a non-unit 2 over Z."""
    rng = seeded(43)
    spheres = [FiniteModel(*starred_sphere_faces(rng, k, stars))
               for k, stars in ((3, 2), (4, 2), (5, 1))]
    return [arc_circle(5), arc_circle(12), torus_grid(3), torus_grid(4),
            projective_plane()] + spheres


class TestUnitReduction:
    """homology_groups splits off unit pivots; the groups must equal the
    full-size route kept in tests/oracles.py."""

    @pytest.mark.parametrize("coefficients", ["Z", "Z/2", "Z/12", "Z+Z/4", "Z/2+Z/6"])
    def test_nerves_match_unreduced_route(self, coefficients):
        g = parse_group(coefficients)
        for m in reduction_corpus():
            p = Partition.singletons(m.atoms)
            assert kolmogoroff_homology(m, p, g) == unreduced_kolmogoroff_groups(m, p, g)

    def test_nerve_complexes_match_unreduced_route(self):
        for m in reduction_corpus():
            nerve = NerveComplex(m, Partition.singletons(m.atoms))
            for cx in (nerve.chain, nerve.cochain_complex()):
                assert cx.homology_all() == unreduced_homology(cx)

    def test_projective_plane_keeps_its_torsion(self):
        m = projective_plane()
        nerve = NerveComplex(m, Partition.singletons(6))
        assert nerve.chain.homology_all()[1] == Z2
        assert nerve.cochain_complex().homology_all()[2] == Z2


def tamper(monkeypatch, edit):
    """Make ``_generator_boundary_matrix`` hand back its columns after
    ``edit(n, columns)``, which changes a copy of the degree-n columns in
    place."""
    original = kolmogoroff._generator_boundary_matrix

    def tampered(nerve, n, coefficients):
        mat = original(nerve, n, coefficients)
        columns = {j: dict(col) for j, col in mat.columns.items()}
        edit(n, columns)
        return _SparseMatrix(mat.rows, mat.cols, columns)

    monkeypatch.setattr(kolmogoroff, "_generator_boundary_matrix", tampered)


def corrupt_first_entry(monkeypatch):
    """Zero the first nonzero entry (in row-major order) of each generator
    boundary matrix, by deleting it from its sparse column."""
    def edit(n, columns):
        i, j = min((i, j) for j, col in columns.items() for i in col)
        del columns[j][i]

    tamper(monkeypatch, edit)


def mismatch_of(model, coefficients):
    with pytest.raises(PipelineMismatch) as info:
        kolmogoroff_homology(model, Partition.singletons(model.atoms), coefficients)
    return info.value


class TestPipelineCrossCheck:
    """Delta on one-generator chains is checked entry for entry against
    the nerve boundary (x) G; the first difference is the witness."""

    def test_corrupted_boundary_raises(self, monkeypatch):
        corrupt_first_entry(monkeypatch)
        exc = mismatch_of(arc_circle(4), Z)
        assert (exc.degree, exc.simplex, exc.generator) == (1, (0, 1), 0)
        assert (exc.expected, exc.found) == ({0: -1, 1: 1}, {1: 1})

    def test_cli_reports_check_failed(self, monkeypatch, capsys):
        corrupt_first_entry(monkeypatch)
        code = main(["kolmogoroff", "--preset", "arc-circle:4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "check failed: degree 1: Delta of generator 0 on simplex (0, 1) gives "
            "column {1: 1}, the nerve boundary gives {0: -1, 1: 1}\n")

    @pytest.mark.parametrize("model", [arc_circle(9), torus_grid(3), projective_plane()],
                             ids=["arc-circle:9", "torus-3x3", "rp2-6vertex"])
    @pytest.mark.parametrize("coefficients", [Z, Z2], ids=["Z", "Z/2"])
    def test_one_homology_run_per_query(self, monkeypatch, model, coefficients):
        calls = []
        original = kolmogoroff.homology_groups

        def counting(mats, orders):
            calls.append(sorted(mats))
            return original(mats, orders)

        monkeypatch.setattr(kolmogoroff, "homology_groups", counting)
        hom = kolmogoroff_homology(model, Partition.singletons(model.atoms), coefficients)
        dim = max(hom)
        assert calls == [list(range(1, dim + 1))]

    @pytest.mark.parametrize("model, coefficients, degree, column", [
        (projective_plane(), Z, 2, 3),
        (torus_grid(3), ZZ4, 2, 5),
        (torus_grid(3), ZZ4, 1, 4),
        (arc_circle(5), Z2Z6, 1, 7),
    ], ids=["rp2-Z-d2", "torus-Z+Z/4-d2", "torus-Z+Z/4-d1", "arc-Z/2+Z/6-d1"])
    def test_flipped_sign_is_witnessed(self, monkeypatch, model, coefficients,
                                       degree, column):
        def edit(n, columns):
            if n == degree:
                col = columns[column]
                i = max(col)
                col[i] = -col[i]

        tamper(monkeypatch, edit)
        g = coefficients.n_gens
        exc = mismatch_of(model, coefficients)
        nerve = NerveComplex(model, Partition.singletons(model.atoms))
        assert (exc.degree, exc.simplex, exc.generator) == \
            (degree, nerve.simplices[degree][column // g], column % g)
        i = max(exc.found)
        assert exc.found[i] == -exc.expected[i] != 0
        assert str(exc).startswith("degree %d: " % degree)

    def test_unreduced_entry_over_z2_is_witnessed(self, monkeypatch):
        # -1 instead of its residue 1: homology_groups reduces entries on
        # input, so the groups cannot tell the two matrices apart
        model = torus_grid(3)
        nerve = NerveComplex(model, Partition.singletons(9))
        column = 2
        row = min(nerve.chain.diffs[1].columns[column])

        def edit(n, columns):
            if n == 1:
                assert columns[column][row] == 1
                columns[column][row] = -1

        tamper(monkeypatch, edit)
        exc = mismatch_of(model, Z2)
        assert (exc.degree, exc.simplex, exc.generator) == (1, nerve.simplices[1][column], 0)
        assert (exc.expected[row], exc.found[row]) == (1, -1)
        tampered = {n: kolmogoroff._generator_boundary_matrix(nerve, n, Z2) for n in (1, 2)}
        orders = {n: Z2.orders * nerve.count(n) for n in (0, 1, 2)}
        monkeypatch.undo()
        assert homology_groups(tampered, orders) == \
            kolmogoroff_homology(model, Partition.singletons(9), Z2)

    def test_missing_column_is_witnessed(self, monkeypatch):
        def edit(n, columns):
            if n == 2:
                del columns[1]

        tamper(monkeypatch, edit)
        exc = mismatch_of(octahedron(), Z)
        nerve = NerveComplex(octahedron(), Partition.singletons(6))
        assert (exc.degree, exc.simplex, exc.generator) == (2, nerve.simplices[2][1], 0)
        assert exc.found == {} and exc.expected == nerve.chain.diffs[2].columns[1]

    def test_extra_column_is_witnessed(self, monkeypatch):
        # one column past the last generator of degree 1 names no simplex
        def edit(n, columns):
            if n == 1:
                columns[len(columns)] = {0: 1}

        tamper(monkeypatch, edit)
        exc = mismatch_of(arc_circle(4), Z)
        assert (exc.degree, exc.simplex, exc.generator) == (1, None, 0)
        assert (exc.expected, exc.found) == ({}, {0: 1})


class TestRefinements:
    def test_pushforward_commutes(self):
        m = arc_circle(8)
        fine = NerveComplex(m, Partition.singletons(8))
        coarse = NerveComplex(m, Partition([[0, 1], [2, 3], [4, 5], [6, 7]]))
        r = RefinementMap(fine, coarse)
        for n in range(1, fine.dimension + 1):
            lhs = coarse.boundary_matrix(n) * r.chain_matrix(n)
            rhs = r.chain_matrix(n - 1) * fine.boundary_matrix(n)
            assert lhs == rhs

    @pytest.mark.parametrize("degree", [1, 2])
    def test_sign_slip_fails_to_commute(self, monkeypatch, degree):
        # one simplex pushed forward with the wrong orientation
        model = FiniteModel(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        fine = NerveComplex(model, Partition.singletons(5))
        coarse = NerveComplex(model, Partition([[0], [1, 4], [2], [3]]))
        build = RefinementMap._build_chain_matrix

        def slipped(self, n):
            mat = build(self, n)
            if n != degree:
                return mat
            data = [list(row) for row in mat.data]
            i, j = next((i, j) for i, row in enumerate(data) for j, x in enumerate(row) if x)
            data[i][j] = -data[i][j]
            return IntMatrix(mat.rows, mat.cols, data)

        RefinementMap(fine, coarse)
        monkeypatch.setattr(RefinementMap, "_build_chain_matrix", slipped)
        with pytest.raises(AssertionError, match="fails to commute with the boundary at "
                                                 "degree %d" % degree):
            RefinementMap(fine, coarse)

    def test_functoriality(self):
        m = arc_circle(8)
        n2 = NerveComplex(m, Partition.singletons(8))
        n1 = NerveComplex(m, Partition([[0, 1], [2, 3], [4, 5], [6, 7]]))
        n0 = NerveComplex(m, Partition([[0, 1, 2, 3], [4, 5, 6, 7]]))
        r21 = RefinementMap(n2, n1)
        r10 = RefinementMap(n1, n0)
        r20 = RefinementMap(n2, n0)
        for n in range(n2.dimension + 1):
            assert r10.chain_matrix(n) * r21.chain_matrix(n) == r20.chain_matrix(n)

    def test_not_a_refinement(self):
        m = arc_circle(8)
        fine = NerveComplex(m, Partition.singletons(8))
        coarse = NerveComplex(m, Partition([[0, 1], [2, 3], [4, 5], [6, 7]]))
        with pytest.raises(NotARefinement):
            RefinementMap(coarse, fine)


class TestFreeColimit:
    def test_conforming_certificate(self):
        z1, z2 = PresentedGroup(1, ()), PresentedGroup(2, ())
        f = GroupMap(z1, z2, IntMatrix.from_columns([[1, 1]], 2))
        cert = free_colimit_basis(Telescope((z1, z2), (f,)))
        assert cert.group == z2
        assert cert.basis is not None and cert.basis.is_identity()

    def test_entry_violation_witnessed(self):
        z1 = PresentedGroup(1, ())
        f = GroupMap(z1, z1, IntMatrix.from_rows([[2]]))
        with pytest.raises(ConditionViolated) as e:
            free_colimit_basis(Telescope((z1, z1), (f,)))
        assert "entry 2" in str(e.value)

    def test_shared_row_violation_witnessed(self):
        z2, z1 = PresentedGroup(2, ()), PresentedGroup(1, ())
        f = GroupMap(z2, z1, IntMatrix.from_rows([[1, 1]]))
        with pytest.raises(ConditionViolated) as e:
            free_colimit_basis(Telescope((z2, z1), (f,)))
        assert "shared" in str(e.value)

    def test_torsion_stage_rejected(self):
        with pytest.raises(ValueError):
            free_colimit_basis(Telescope.periodic(GroupMap.identity(Z4)))

    def test_tail_stabilized_to_quotient_stage(self):
        # killing one generator forever: stable quotient is free of rank 1
        z2 = PresentedGroup(2, ())
        kill = GroupMap(z2, z2, IntMatrix.from_rows([[1, 0], [0, 0]]))
        cert = free_colimit_basis(Telescope.periodic(kill))
        assert cert.group == PresentedGroup(1, ())
        assert "tail" in cert.stage


class TestUctBridge:
    def test_single_partition(self):
        m = projective_plane()
        certs = kolmogoroff_uct_check(m, [Partition.singletons(6)], Z)
        assert certs[1].ext_term == Z2
        assert certs[1].hom_term.is_trivial

    def test_refinement_chain(self):
        m = arc_circle(8)
        chain = [Partition([[0, 1, 2, 3], [4, 5, 6, 7]]),
                 Partition([[0, 1], [2, 3], [4, 5], [6, 7]]),
                 Partition.singletons(8)]
        certs = kolmogoroff_uct_check(m, chain, Z)
        assert certs[1].middle == Z

    def test_unordered_chain_rejected(self):
        m = arc_circle(8)
        with pytest.raises(NotARefinement):
            kolmogoroff_uct_check(m, [Partition.singletons(8),
                                      Partition([[0, 1], [2, 3], [4, 5], [6, 7]])],
                                  Z)
