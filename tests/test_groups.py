import doctest
import random
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import tauthom.groups
import tauthom.matrices
from tauthom.groups import (CyclicSum, ExtGroup, GroupMap, GroupParseError, HomGroup,
                            IllFormedMap, PresentedGroup, Subquotient, _cokernel, _cyclic_sum,
                            _functor, _precompose, _reduce_rows, _relations_for_orders,
                            cokernel, image, inverse, kernel, kernel_lattice, normalize,
                            parse_group)
from tauthom.matrices import IntMatrix, _SparseMatrix, smith_normal_form, solve_columns
from tauthom.randomgen import random_finite_group, random_group, random_group_map, seeded

from generators import diagonal_matrix, random_matrix
from oracles import (all_finite_groups_to, cyclic_sum_iso_oracle, ext_lattice_reference,
                     ext_oracle, ext_pullback_reference, hom_from_map_reference, hom_oracle,
                     hom_pullback_reference, hom_to_map_reference, invariant_factors_oracle,
                     kron_identity_reference)

Z = PresentedGroup(1, ())
Z2 = PresentedGroup(0, (2,))
Z4 = PresentedGroup(0, (4,))


def groups_strategy():
    return st.tuples(st.integers(0, 2),
                     st.lists(st.integers(2, 12), max_size=3)).map(
        lambda t: PresentedGroup.from_orders([0] * t[0] + sorted(t[1])))


class TestPresentedGroup:
    def test_normalization(self):
        g = PresentedGroup.from_orders([6, 4])
        assert g.torsion == (2, 12)
        assert str(g) == "Z/2 + Z/12"
        assert PresentedGroup.from_orders([0, 3, 2]).describe() == "Z + Z/6"

    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            PresentedGroup(0, (4, 2))
        with pytest.raises(ValueError):
            PresentedGroup(0, (3, 4))

    @pytest.mark.parametrize("make, message", [
        (lambda: PresentedGroup.from_orders([2.5, True, 0.0]), "cyclic orders must be integers"),
        (lambda: PresentedGroup.from_orders([4, True]), "cyclic orders must be integers"),
        (lambda: PresentedGroup(0, (2.9,)), "torsion coefficients must be integers"),
        (lambda: PresentedGroup(True, ()), "free rank must be an integer"),
        (lambda: PresentedGroup(1.0, ()), "free rank must be an integer"),
        (lambda: GroupMap.identity(Z4)((5.9,)), "element coordinates must be integers"),
        (lambda: Z4.reduce((True,)), "element coordinates must be integers"),
        (lambda: Z4.reduce(("3",)), "element coordinates must be integers"),
    ], ids=["orders-float", "orders-bool", "torsion-float", "free-bool", "free-float",
            "element-float", "element-bool", "element-str"])
    def test_non_int_rejected(self, make, message):
        # int() coercion would give Z + Z/2, Z + Z/4, Z/2, Z, Z, (1,), (1,) and (3,)
        with pytest.raises(ValueError, match=message):
            make()

    def test_cardinality_and_elements(self):
        g = PresentedGroup(0, (2, 4))
        assert g.cardinality() == 8
        assert len(list(g.elements())) == 8
        assert Z.cardinality() is None

    def test_parse(self):
        assert parse_group("Z") == Z
        assert parse_group("Z/2+Z/4").torsion == (2, 4)
        assert parse_group("Z/6+Z/4").torsion == (2, 12)
        assert parse_group("Z + Z/2") == PresentedGroup(1, (2,))
        assert parse_group("0").is_trivial

    def test_parse_errors_carry_position(self):
        with pytest.raises(GroupParseError) as e:
            parse_group("Z/2+Q/3")
        assert e.value.position == 4
        with pytest.raises(GroupParseError):
            parse_group("Z/0")
        with pytest.raises(GroupParseError):
            parse_group("")

    @pytest.mark.parametrize("text, message, position", [
        ("Z^+1", "bad free rank 'Z^+1'", 0),
        ("Z/+3", "bad cyclic order 'Z/+3'", 0),
        ("Z + Z/+3", "bad cyclic order 'Z/+3'", 4),
    ])
    def test_signed_number_named_whole(self, text, message, position):
        # the + after ^ or / is part of the summand, not a separator
        with pytest.raises(GroupParseError) as e:
            parse_group(text)
        assert message in str(e.value) and e.value.position == position

    @pytest.mark.parametrize("text, message, position", [
        ("Z^\u00b2", "bad free rank 'Z^\u00b2'", 0),
        ("Z/2 + Z/\u00b2", "bad cyclic order 'Z/\u00b2'", 6),
        ("Z/\u0663", "bad cyclic order 'Z/\u0663'", 0),
    ], ids=["superscript-rank", "superscript-order", "arabic-indic-order"])
    def test_non_ascii_digit_named_whole(self, text, message, position):
        # str.isdigit accepts all three; the group grammar takes ASCII digits only
        with pytest.raises(GroupParseError) as e:
            parse_group(text)
        assert message in str(e.value) and e.value.position == position

    def test_json_round_trip(self):
        g = PresentedGroup(2, (3, 9))
        assert PresentedGroup.from_json(g.to_json()) == g

    def test_from_orders_matches_primary_decomposition(self):
        rng = random.Random(2024)
        small = [0, 1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 30, 32, 49, 60, 97, 210]
        # pairwise coprime values of 60 bits and more, all smooth enough
        # for the trial-division oracle
        big = [2 ** 61, 3 ** 39, 5 ** 27 * 7, 11 ** 18, 13 ** 17 * 17 ** 2]
        for _ in range(300):
            orders = [rng.choice(small) for _ in range(rng.randrange(0, 7))]
            orders += rng.sample(big, rng.randrange(0, 3))
            orders += [rng.choice([2, 3, 4, 8, 9, 16])] * rng.randrange(0, 4)
            rng.shuffle(orders)
            expected = invariant_factors_oracle(orders)
            g = PresentedGroup.from_orders(orders)
            assert (g.free_rank, g.torsion) == expected, orders
            assert normalize(diagonal_matrix(orders)) == g


class TestGroupMap:
    def test_well_defined_enforced(self):
        # Z/2 -> Z/3 sending the generator to 1 is not a homomorphism
        with pytest.raises(IllFormedMap):
            GroupMap(Z2, PresentedGroup(0, (3,)), IntMatrix.from_rows([[1]]))
        # but the zero map is
        GroupMap.zero(Z2, PresentedGroup(0, (3,)))

    def test_entries_canonicalized(self):
        f = GroupMap(Z, Z4, IntMatrix.from_rows([[7]]))
        assert f.matrix.data == ((3,),)

    def test_composition_and_identity(self):
        f = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
        g = GroupMap(Z, Z4, IntMatrix.from_rows([[1]]))
        h = g @ f
        assert h((1,)) == (2,)
        assert (GroupMap.identity(Z) @ f) == f

    def test_mismatched_composition(self):
        f = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
        g = GroupMap(Z2, Z2, IntMatrix.from_rows([[1]]))
        with pytest.raises(IllFormedMap):
            g @ f

    def test_is_identity_matches_the_identity_map(self):
        # reduction modulo torsion orders >= 2 leaves the identity matrix as is
        rng = seeded(22)
        for _ in range(300):
            a = random_group(rng)
            b = a if rng.random() < 0.8 else random_group(rng)
            lifted = diagonal_matrix([1 + d * rng.randint(-2, 2) for d in a.orders])
            maps = [random_group_map(rng, a, b, bound=1)]
            if a == b:
                maps.append(GroupMap(a, a, lifted))
            for f in maps:
                old = f.source == f.target and f == GroupMap.identity(f.source)
                assert f.is_identity == old


class TestSubquotient:
    def test_circle_style_quotient(self):
        # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
        den = IntMatrix.from_rows([[2, 0], [0, 3]])
        sq = Subquotient(IntMatrix.identity(2), den)
        assert sq.group == PresentedGroup(0, (6,))

    def test_coords_rejects_non_members(self):
        num = IntMatrix.from_rows([[2], [0]])  # subgroup 2Z x 0 of Z^2
        sq = Subquotient(num, IntMatrix.zeros(2, 0))
        sq.coords_matrix(IntMatrix.from_rows([[4], [0]]))
        with pytest.raises(ValueError):
            sq.coords_matrix(IntMatrix.from_rows([[1], [0]]))
        with pytest.raises(ValueError):
            sq.coords_matrix(IntMatrix.from_rows([[0], [1]]))

    def test_lifts_land_in_numerator(self):
        rng = seeded(11)
        for _ in range(40):
            g = random_finite_group(rng, max_order=16)
            rel = g.relation_matrix()
            sq = Subquotient(IntMatrix.identity(g.n_gens), rel)
            assert sq.group == g


def cokernel_corpus(rng, count):
    """Seeded matrices X for Z^rows / <columns of X>: empty shapes, then in
    turn dense, rank-deficient products and torsion-heavy multiples."""
    yield from (IntMatrix(0, 0, []), IntMatrix(0, 3, []), IntMatrix.zeros(3, 0),
                IntMatrix.zeros(2, 2))
    for k in range(count):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        if k % 3 == 0:
            yield random_matrix(rng, rows, cols)
        elif k % 3 == 1:
            inner = rng.randint(0, max(0, min(rows, cols) - 1))
            yield random_matrix(rng, rows, inner, 3) * random_matrix(rng, inner, cols, 3)
        else:
            scale = rng.choice((2, 4, 6, 12, 36))
            yield IntMatrix(rows, cols, [[scale * x for x in row]
                                         for row in random_matrix(rng, rows, cols, 3).data])


class TestCokernelReader:
    def test_reads_the_identity_lattice_subquotient(self):
        # entry for entry the Subquotient of Z^rows over X: group, lifts and
        # the coordinates of random columns, once proj's rows are reduced
        rng = seeded(41)
        torsion = 0
        for x in cokernel_corpus(rng, 240):
            group, lifts, proj = _cokernel(smith_normal_form(x))
            sq = Subquotient(IntMatrix.identity(x.rows), x)
            assert group == sq.group and lifts == sq.lifts
            cols = random_matrix(rng, x.rows, rng.randint(0, 3))
            assert _reduce_rows((proj * cols).data, group.orders) == sq.coords_matrix(cols).data
            torsion += len(group.torsion) >= 2
        assert torsion > 20


class TestKernelImageCokernel:
    def test_times_two_on_z4(self):
        f = GroupMap(Z4, Z4, IntMatrix.from_rows([[2]]))
        assert kernel(f)[0] == Z2
        assert image(f)[0] == Z2
        assert cokernel(f)[0] == Z2

    def test_kernel_lattice_annihilates(self):
        f = IntMatrix.from_rows([[2, 1], [0, 2]])
        lat = kernel_lattice(f, (4, 8))
        for j in range(lat.cols):
            v = f.apply(lat.column(j))
            assert v[0] % 4 == 0 and v[1] % 8 == 0

    def test_order_balance(self):
        rng = seeded(12)
        for _ in range(60):
            a = random_finite_group(rng, max_order=24)
            b = random_finite_group(rng, max_order=24)
            if a.n_gens == 0 or b.n_gens == 0:
                continue
            cols = [list(x) for x in
                    (b.elements() if b.cardinality() < 200 else [b.zero()])]
            f = None
            for _ in range(20):
                pick = [list(rng.choice(cols)) for _ in range(a.n_gens)]
                try:
                    f = GroupMap(a, b, IntMatrix.from_columns(pick, b.n_gens))
                    break
                except IllFormedMap:
                    continue
            if f is None:
                continue
            k, _ = kernel(f)
            im, _ = image(f)
            assert k.cardinality() * im.cardinality() == a.cardinality()
            assert cokernel(f)[0].cardinality() * im.cardinality() == b.cardinality()

    def test_inverse_round_trip(self):
        f = GroupMap(PresentedGroup(0, (6,)), PresentedGroup(0, (6,)),
                     IntMatrix.from_rows([[5]]))
        assert kernel(f)[0].is_trivial and cokernel(f)[0].is_trivial
        g = inverse(f)
        assert (g @ f).is_identity and (f @ g).is_identity

    def test_injective_surjective_predicates(self):
        f = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
        assert kernel(f)[0].is_trivial and not cokernel(f)[0].is_trivial
        p = GroupMap(Z, Z2, IntMatrix.from_rows([[1]]))
        assert cokernel(p)[0].is_trivial and not kernel(p)[0].is_trivial
        assert inverse(p) is None
        q = GroupMap(Z4, Z2, IntMatrix.from_rows([[1]]))
        assert cokernel(q)[0].is_trivial and not kernel(q)[0].is_trivial
        assert inverse(q) is None


def _flatten(f):
    """A GroupMap's matrix as one block-major column: entry (i, j) at j*m + i."""
    flat = [(x,) for col in f.matrix.transpose().data for x in col]
    return IntMatrix(len(flat), 1, flat)


class TestPrecompose:
    def test_block_structure(self):
        mat = IntMatrix.from_rows([[1, 2], [3, 4]])
        t = _precompose(mat, 3)
        assert (t.rows, t.cols) == (6, 6)
        assert t.data[0][0] == 1 and t.data[0][3] == 3
        assert t.data[1][1] == 1 and t.data[4][1] == 2
        rng = random.Random(12)
        for rows, cols, block in ((3, 2, 2), (1, 4, 1), (2, 3, 0), (0, 2, 3), (4, 4, 3)):
            mat = random_matrix(rng, rows, cols, bound=2)
            expected = kron_identity_reference(mat.transpose(), block)
            assert _precompose(mat, block) == expected
            assert _precompose(_SparseMatrix.of(mat), block) == expected

    def test_multiplicativity(self):
        rng = random.Random(13)
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(2)]
                                 for _ in range(3)])
        b = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(4)]
                                 for _ in range(2)])
        assert _precompose(a * b, 2) == _precompose(b, 2) * _precompose(a, 2)

    def test_acts_by_precomposition(self):
        rng = seeded(16)
        for _ in range(40):
            a, b, g = (random_finite_group(rng, max_gens=2, max_order=12) for _ in range(3))
            f, phi = random_group_map(rng, b, a), random_group_map(rng, a, g)
            pulled = (_precompose(f.matrix, g.n_gens) * _flatten(phi)).column(0)
            reduced = tuple(x % d if d else x for x, d in zip(pulled, g.orders * b.n_gens))
            assert reduced == _flatten(phi @ f).column(0)


class TestHomExt:
    def test_known_values(self):
        assert HomGroup(Z, Z4).group == Z4
        assert HomGroup(Z4, Z).group.is_trivial
        assert ExtGroup(Z4, Z).group == Z4
        assert ExtGroup(Z, Z4).group.is_trivial
        assert HomGroup(Z2, Z4).group == Z2
        assert ExtGroup(PresentedGroup(0, (6,)), Z4).group == Z2

    def test_oracle_sample(self):
        rng = seeded(14)
        chains = all_finite_groups_to(24)
        for _ in range(80):
            a = PresentedGroup(0, tuple(rng.choice(chains)))
            g = PresentedGroup(0, tuple(rng.choice(chains)))
            assert HomGroup(a, g).group.torsion == hom_oracle(a.torsion, g.torsion)
            assert ExtGroup(a, g).group.torsion == ext_oracle(a.torsion, g.torsion)

    def test_hom_to_map_round_trip(self):
        h = HomGroup(PresentedGroup(1, (4,)), PresentedGroup(0, (2, 8)))
        seen = set()
        for coords in h.group.elements():
            f = h.to_map(coords)
            back = h.from_map(f)
            assert tuple(h.group.reduce(back)) == coords
            seen.add(tuple(f.matrix.data))
        assert len(seen) == h.group.cardinality()

    def test_pullback_contravariant(self):
        rng = seeded(15)
        a = PresentedGroup(0, (4,))
        b = PresentedGroup(0, (2, 4))
        c = PresentedGroup(0, (8,))
        g0 = PresentedGroup(0, (2, 8))
        f = GroupMap(a, b, IntMatrix.from_columns([[1, 2]], 2))
        g = GroupMap(b, c, IntMatrix.from_columns([[4], [2]], 1))
        for functor in (HomGroup, ExtGroup):
            fa, fb, fc = functor(a, g0), functor(b, g0), functor(c, g0)
            lhs = fc.pullback(g @ f, fa)
            rhs = fb.pullback(f, fa) @ fc.pullback(g, fb)
            assert lhs == rhs

    def test_hom_functor_identity(self):
        a = PresentedGroup(0, (4,))
        h = HomGroup(a, Z4)
        assert h.pullback(GroupMap.identity(a), h).is_identity

    def test_coordinates_match_per_generator_reference(self):
        rng = seeded(17)
        groups = [parse_group(t) for t in ("Z", "Z/2", "Z/12", "Z+Z/4", "Z^2+Z/6", "0")]
        for _ in range(60):
            a, g = rng.choice(groups), rng.choice(groups)
            h = HomGroup(a, g)
            for _ in range(4):
                coords = tuple(rng.randint(-5, 5) for _ in range(h.group.n_gens))
                f = h.to_map(coords)
                assert f == hom_to_map_reference(h, coords)
                assert h.from_map(f) == hom_from_map_reference(h, f)

    def test_pullback_matches_per_generator_reference(self):
        rng = seeded(18)
        groups = [parse_group(t) for t in ("Z", "Z/2", "Z/12", "Z+Z/4", "Z^2+Z/6", "0")]
        for _ in range(150):
            a, b, g = rng.choice(groups), rng.choice(groups), rng.choice(groups)
            f = random_group_map(rng, b, a)
            hom_a, hom_b = HomGroup(a, g), HomGroup(b, g)
            assert hom_a.pullback(f, hom_b) == hom_pullback_reference(hom_a, f, hom_b)

    @pytest.mark.parametrize("source, target, entry", [
        ("Z/4", "Z", 3), ("Z/3", "Z/2", 1), ("Z/4", "Z/8", 1)])
    def test_coords_of_rejects_ill_defined_maps(self, source, target, entry):
        h = HomGroup(parse_group(source), parse_group(target))
        with pytest.raises(IllFormedMap):
            h.coords_of(IntMatrix(1, 1, [[entry]]))
        # one bad column spoils a batch of good ones
        with pytest.raises(IllFormedMap):
            h.coords_of(IntMatrix(1, 2, [[0, entry]]))

    def test_coords_of_reduces_modulo_the_coefficients(self):
        h = HomGroup(parse_group("Z/4"), parse_group("Z/8"))
        assert h.coords_of(IntMatrix(1, 3, [[2, 10, -6]])) == IntMatrix(1, 3, [[1, 1, 1]])


def lattice_isos(cyc, sq):
    """Mutually inverse maps between the coordinates of a CyclicSum and of
    a Subquotient over the same summands: (cyc -> sq, sq -> cyc)."""
    there = GroupMap(cyc.group, sq.group, sq.coords_matrix(cyc.lifts))
    back = GroupMap(sq.group, cyc.group, cyc.coords_matrix(sq.lifts))
    assert (there @ back).is_identity and (back @ there).is_identity
    return there, back


class TestClosedForms:
    """``.group`` of HomGroup and ExtGroup is that of the cyclic normal
    form behind their maps, and it agrees with the lattice routes: for Hom
    the sum of the pair components, for Ext the cokernel of its free
    resolution."""

    @staticmethod
    def assert_routes_agree(sources, targets):
        for a in sources:
            for g in targets:
                hom, ext = HomGroup(a, g), ExtGroup(a, g)
                lattice = Subquotient(IntMatrix.identity(len(hom.pairs)),
                                      _relations_for_orders(tuple(p[3] for p in hom.pairs)))
                assert hom._cyclic.group == lattice.group == hom.group
                resolution = ext_lattice_reference(a, g)
                assert ext._cyclic.group == resolution.group == ext.group
                lattice_isos(ext._cyclic, resolution)

    def test_every_pair_of_small_finite_groups(self):
        groups = [PresentedGroup(0, a) for a in all_finite_groups_to(64)]
        self.assert_routes_agree(groups, groups)

    def test_free_summands(self):
        free = [parse_group(t) for t in ("Z", "Z^2", "Z+Z/4", "Z^2+Z/6", "Z+Z/2+Z/12")]
        finite = [parse_group(t) for t in ("0", "Z/2", "Z/12", "Z/2+Z/4", "Z/3+Z/9")]
        self.assert_routes_agree(free, free + finite)
        self.assert_routes_agree(finite, free)

    def test_group_builds_no_subquotient(self, monkeypatch):
        built = []
        init = Subquotient.__init__
        monkeypatch.setattr(Subquotient, "__init__",
                            lambda sq, num, den: built.append(num) or init(sq, num, den))
        a, g = parse_group("Z+Z/4"), parse_group("Z^2+Z/6")
        hom = HomGroup(a, g)
        assert hom.group == parse_group("Z^2 + Z/2 + Z/6")
        assert ExtGroup(a, g).group == parse_group("Z/4 + Z/4 + Z/2")
        assert built == []
        # Hom's generators come from the cyclic normal form, not a lattice
        hom.to_map(hom.group.zero())
        hom.from_map(GroupMap.zero(a, g))
        # and Ext's from the cyclic normal form of its resolution
        ext = ExtGroup(a, g)
        ext.pullback(GroupMap.identity(a), ext)
        assert built == []

    def test_each_closed_form_is_built_once(self, fresh_memos, monkeypatch):
        # the library shares one verified instance per order tuple and per
        # (A, G) pair; the constructors themselves stay unmemoised
        built = []
        for cls in (CyclicSum, HomGroup, ExtGroup):
            monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=cls.__init__:
                                built.append(type(obj)) or init(obj, *args))
        a, g = parse_group("Z+Z/4"), parse_group("Z^2+Z/6")
        hom, ext = _functor(HomGroup, a, g), _functor(ExtGroup, a, g)
        hom.to_map(hom.group.zero())
        ext.pullback(GroupMap.identity(a), ext)
        assert built == [HomGroup, CyclicSum, ExtGroup, CyclicSum]
        assert _functor(HomGroup, parse_group("Z+Z/4"), g) is hom
        assert _functor(ExtGroup, a, parse_group("Z^2+Z/6")) is ext
        assert _cyclic_sum(hom._cyclic.orders) is hom._cyclic
        # a fresh instance takes its group from the shared normal form
        other = HomGroup(a, g)
        assert other is not hom and other._cyclic is hom._cyclic
        assert built == [HomGroup, CyclicSum, ExtGroup, CyclicSum, HomGroup]


@given(groups_strategy(), groups_strategy())
@settings(max_examples=60, deadline=None)
def test_hom_ext_of_finite_parts_match_formula(a, g):
    # free parts: Hom(Z^r, G) adds G^r; Ext(Z^r, -) adds nothing;
    # torsion parts must match the enumeration oracles
    hom = HomGroup(a, g).group
    expected_free = a.free_rank * g.free_rank
    assert hom.free_rank == expected_free
    if a.free_rank == 0 and g.free_rank == 0:
        assert hom.torsion == hom_oracle(a.torsion, g.torsion)
        assert ExtGroup(a, g).group.torsion == ext_oracle(a.torsion, g.torsion)
    # Ext(A, G) of finitely generated groups is always finite
    assert ExtGroup(a, g).group.free_rank == 0


@given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 9, 12]), max_size=6)
       .filter(lambda orders: prod(d or 1 for d in orders) <= 200))
@example([4, 6])
@example([2, 3, 5])
@example([12, 0, 4, 3])
@example([1])
@example([1, 0, 1, 6, 4])
@example([])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cyclic_sum_against_oracle_and_lattice_route(orders):
    # the closed-form normal form is an isomorphism by brute force, and it
    # and the lattice route of Z^k over the relations o_i e_i name the same
    # group, their coordinates related by mutually inverse maps
    cyc = CyclicSum(orders)
    assert cyclic_sum_iso_oracle(orders, cyc.group.orders, cyc.proj.data, cyc.lifts.data)
    assert cyc.coords_matrix(IntMatrix.identity(len(orders))) == cyc.proj
    sq = Subquotient(IntMatrix.identity(len(orders)), _relations_for_orders(orders))
    assert cyc.group == sq.group
    lattice_isos(cyc, sq)


def test_cyclic_sum_checks_the_order_of_its_group(fresh_memos, monkeypatch):
    # a sweep that keeps b where the lcm belongs: both identities hold
    # modulo its too small orders, Z/2 + Z/6 for Z/4 + Z/6, and only the
    # count of elements tells
    def short_sweep(chain):
        for i, a in enumerate(chain):
            for j in range(i + 1, len(chain)):
                b = chain[j]
                if b % a:
                    yield i, j, a, b
                    a = gcd(a, b)
            chain[i] = a

    monkeypatch.setattr(tauthom.groups, "_sweep", short_sweep)
    with pytest.raises(AssertionError, match="failed its identities"):
        CyclicSum([4, 6])
    # the memoised route runs the same checks and keeps no failed build
    for _ in range(2):
        with pytest.raises(AssertionError, match="failed its identities"):
            _cyclic_sum((4, 6))


def test_cyclic_sum_identities_reject_broken_maps(fresh_memos):
    # Z/4 + Z/1 onto Z/4: proj must kill the order of each summand and
    # invert the lifts, each failure alone is caught
    cyc = CyclicSum([4, 1])
    assert cyc.lifts == IntMatrix(2, 1, [[1], [0]]) and cyc._identities_hold()
    cyc.proj = IntMatrix(1, 2, [[1, 1]])     # proj * lifts == I, ill defined on Z/1
    assert not cyc._identities_hold()
    cyc.proj = IntMatrix(1, 2, [[3, 0]])     # well defined, proj * lifts == 3
    assert not cyc._identities_hold()


@given(groups_strategy(), groups_strategy(),
       st.sampled_from(["Z+Z/4", "Z^2+Z/6", "Z/2+Z/6+Z/18"]), st.integers(0, 2 ** 32))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_ext_pullback_matches_the_lattice_route(a, b, g, seed):
    # over these G the cyclic basis of Ext and the lattice one can differ;
    # the actions of f: B -> A agree through the isomorphisms between them
    g = parse_group(g)
    f = random_group_map(seeded(seed), b, a)
    ext_a, ext_b = ExtGroup(a, g), ExtGroup(b, g)
    sq_a, sq_b, reference = ext_pullback_reference(f, g)
    there, _ = lattice_isos(ext_a._cyclic, sq_a)
    _, back = lattice_isos(ext_b._cyclic, sq_b)
    assert ext_a.pullback(f, ext_b) == back @ reference @ there


def test_ext_pullback_lifts_by_exact_division():
    # R_A has full column rank, so the lift L with R_A L = f R_B that a solve
    # finds is the one read off by dividing f R_B's torsion rows
    rng = seeded(43)
    coefficients = [parse_group(t) for t in ("Z", "Z/2", "Z/12", "Z+Z/4", "Z/2+Z/6")]
    mixed = 0
    for _ in range(300):
        a, b = random_group(rng, max_gens=4), random_group(rng, max_gens=4)
        f, g = random_group_map(rng, b, a), rng.choice(coefficients)
        ext_a, ext_b = ExtGroup(a, g), ExtGroup(b, g)
        lifted = solve_columns(a.relation_matrix(), f.matrix * b.relation_matrix())
        push = _precompose(lifted, g.n_gens)
        solved = GroupMap(ext_a.group, ext_b.group,
                          ext_b._cyclic.coords_matrix(push * ext_a._cyclic.lifts))
        assert ext_a.pullback(f, ext_b) == solved
        mixed += bool(a.free_rank and a.torsion and b.free_rank and b.torsion)
    assert mixed > 10


@pytest.mark.parametrize("a, b, slipped", [
    # Z/2 -> Z/4 sending 1 to 1: 2 is not divisible by 4
    ("Z/4", "Z/2", [[1]]),
    # Z/2 -> Z + Z/2 + Z/4 + Z/8 with only the middle torsion row inexact
    ("Z + Z/2 + Z/4 + Z/8", "Z/2", [[0], [1], [1], [4]]),
    # Z/2 -> Z + Z/4 with a nonzero free row
    ("Z + Z/4", "Z/2", [[1], [2]]),
])
def test_ext_pullback_rejects_a_map_without_a_lift(a, b, slipped):
    a, b = parse_group(a), parse_group(b)
    f = GroupMap.zero(b, a)
    f.matrix = IntMatrix.from_rows(slipped)
    ext = ExtGroup(a, Z)
    with pytest.raises(AssertionError, match="resolution lift must exist"):
        ext.pullback(f, ExtGroup(b, Z))


def test_cyclic_sum_oracle_rejects_broken_maps():
    # two valid bases of Z/4 + Z/6, and the second's proj with the first's
    # lifts; a proj that is not onto; lifts off by one; a torsion
    # coordinate sent to the free row
    assert cyclic_sum_iso_oracle([4, 6], [2, 12], [[1, 1], [9, 2]], [[2, 3], [3, 5]])
    assert cyclic_sum_iso_oracle([4, 6], [2, 12], [[1, 1], [3, 2]], [[2, 1], [3, 5]])
    assert not cyclic_sum_iso_oracle([4, 6], [2, 12], [[1, 1], [3, 2]], [[2, 3], [3, 5]])
    assert not cyclic_sum_iso_oracle([2, 2], [2, 2], [[1, 1], [1, 1]], [[1, 0], [0, 1]])
    assert not cyclic_sum_iso_oracle([0, 3], [0, 3], [[1, 0], [0, 1]], [[1, 0], [0, 2]])
    assert not cyclic_sum_iso_oracle([0, 3], [0, 3], [[1, 1], [0, 1]], [[1, 0], [0, 1]])


@pytest.mark.parametrize("module, examples", [(tauthom.groups, 6), (tauthom.matrices, 1)],
                         ids=["groups", "matrices"])
def test_module_doctests(module, examples):
    # pytest collects only tests/, so the examples in the module docstrings
    # run here
    assert doctest.testmod(module) == (0, examples)
