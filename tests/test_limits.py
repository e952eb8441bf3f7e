import json
import time

import pytest

from tauthom.groups import GroupMap, PresentedGroup, cokernel, kernel
from tauthom.limits import (MalformedTower, Telescope, Tower, colim, ext_tower,
                            hom_into_colim_check, hom_tower, lim, lim1,
                            lim_higher, six_term_check)
from tauthom.matrices import IntMatrix
from tauthom.randomgen import random_finite_telescope, random_group_map, seeded

from generators import diagonal_matrix, random_finite_tower
from oracles import image_chain_stabilizes_oracle, stable_image_oracle

Z = PresentedGroup(1, ())
Z2 = PresentedGroup(0, (2,))
Z4 = PresentedGroup(0, (4,))
Z8 = PresentedGroup(0, (8,))


def times(n, g=Z):
    return GroupMap(g, g, IntMatrix.from_rows([[n]]))


class TestTowerValidation:
    def test_map_targets_checked(self):
        with pytest.raises(MalformedTower):
            Tower((Z, Z2), (GroupMap.identity(Z),), None)

    def test_tail_must_be_endo_of_last_stage(self):
        with pytest.raises(MalformedTower):
            Tower((Z, Z2), (GroupMap(Z2, Z, IntMatrix.from_rows([[0]])),),
                  GroupMap.identity(Z))

    def test_json_round_trip(self):
        t = Tower((Z4, Z8), (GroupMap(Z8, Z4, IntMatrix.from_rows([[1]])),),
                  times(3, Z8))
        t2 = Tower.from_json(json.loads(json.dumps(t.to_json())))
        assert t2.stages == t.stages and t2.maps == t.maps and t2.tail == t.tail

    def test_telescope_json_round_trip(self):
        t = Telescope.periodic(times(2))
        t2 = Telescope.from_json(t.to_json())
        assert t2.tail == t.tail


@pytest.mark.parametrize("cls", [Tower, Telescope])
class TestSequenceValidation:
    """The TestTowerValidation cases, run for both map directions."""

    def test_map_ends_checked(self, cls):
        # a map Z -> Z never connects the stages Z and Z/2, in either direction
        with pytest.raises(MalformedTower):
            cls((Z, Z2), (GroupMap.identity(Z),), None)

    def test_tail_must_be_endo_of_last_stage(self, cls):
        src, tgt = (Z2, Z) if cls is Tower else (Z, Z2)
        link = GroupMap(src, tgt, IntMatrix.from_rows([[0]]))
        with pytest.raises(MalformedTower):
            cls((Z, Z2), (link,), GroupMap.identity(Z))

    def test_json_round_trip(self, cls):
        src, tgt = (Z8, Z4) if cls is Tower else (Z4, Z8)
        link = GroupMap(src, tgt, IntMatrix.from_rows([[1 if cls is Tower else 2]]))
        t = cls((Z4, Z8), (link,), times(3, Z8))
        t2 = cls.from_json(json.loads(json.dumps(t.to_json())))
        assert type(t2) is cls
        assert t2.stages == t.stages and t2.maps == t.maps and t2.tail == t.tail

    def test_periodic_json_round_trip(self, cls):
        t = cls.periodic(times(2))
        t2 = cls.from_json(t.to_json())
        assert t2 == t

    def test_from_json_needs_prefix_or_tail(self, cls):
        with pytest.raises(MalformedTower):
            cls.from_json({})

    def test_from_json_rejects_maps_without_prefix_groups(self, cls):
        obj = cls.periodic(times(2)).to_json()
        obj["prefix"] = {"groups": [], "maps": [IntMatrix.from_rows([[5]]).to_json()]}
        with pytest.raises(MalformedTower):
            cls.from_json(obj)

    @pytest.mark.parametrize("obj", [[], {"prefix": []}, {"prefix": "Z"}])
    def test_from_json_needs_objects(self, cls, obj):
        with pytest.raises(ValueError, match="must be a JSON object, got"):
            cls.from_json(obj)

    @pytest.mark.parametrize("prefix, field", [
        ({"groups": "Z", "maps": []}, "prefix groups"),
        ({"groups": "ZZ", "maps": {}}, "prefix groups"),
        ({"groups": {"0": "Z"}}, "prefix groups"),
        ({"groups": ["Z"], "maps": {}}, "prefix maps"),
        ({"groups": ["Z", "Z"], "maps": "1"}, "prefix maps"),
    ])
    def test_from_json_needs_arrays(self, cls, prefix, field):
        with pytest.raises(ValueError, match="%s data must be a JSON array, got" % field):
            cls.from_json({"prefix": prefix})

    def test_from_json_tail_group_must_match_last_stage(self, cls):
        obj = cls.periodic(times(3, Z8)).to_json()
        obj["tail"]["group"] = Z4.to_json()
        with pytest.raises(MalformedTower):
            cls.from_json(obj)


class TestLim:
    def test_finite_tower_is_last_stage(self):
        rng = seeded(31)
        for _ in range(40):
            t = random_finite_tower(rng)
            out = lim(t)
            assert out.is_exact
            assert out.group == t.stages[-1]

    def test_finite_tower_projection_maps(self):
        t = Tower((Z4, Z8), (GroupMap(Z8, Z4, IntMatrix.from_rows([[1]])),), None)
        out = lim(t)
        assert out.group == Z8
        # a compatible family x -> (proj(x), x) is determined by its last map
        f = out.compare(GroupMap.identity(Z8)).map
        assert f.source == Z8 and f.target == out.group
        assert kernel(f)[0].is_trivial and cokernel(f)[0].is_trivial

    def test_solenoid_limits(self):
        for p in (2, 3, 5):
            t = Tower.periodic(times(p))
            assert lim(t).describe() == "0"
            l1 = lim1(t)
            assert l1.kind == "nonzero-uncountable"
            assert "descend strictly" in l1.certificate
            for i in (2, 3, 5):
                assert lim_higher(t, i).kind == "zero"

    def test_identity_tail(self):
        out = lim(Tower.periodic(GroupMap.identity(Z)))
        assert out.group == Z

    def test_finite_group_tail_stable_image(self):
        rng = seeded(32)
        from tauthom.randomgen import random_finite_group, random_group_map
        for _ in range(40):
            g = random_finite_group(rng, max_gens=2, max_order=9)
            f = random_group_map(rng, g, g)
            t = Tower.periodic(f)
            out = lim(t)
            assert out.is_exact
            if g.n_gens:
                expected = stable_image_oracle(
                    g.orders, [list(r) for r in f.matrix.data])
                assert out.group.torsion == expected
            assert lim1(t).kind == "zero"

    def test_mixed_prefix_and_tail(self):
        # x2 iterated on Z/4 dies: the stable image is 0
        t = Tower((Z2, Z4), (GroupMap(Z4, Z2, IntMatrix.from_rows([[1]])),),
                  times(2, Z4))
        assert lim(t).describe() == "0"
        # x3 is an automorphism of Z/4: the whole last stage survives
        t = Tower((Z2, Z4), (GroupMap(Z4, Z2, IntMatrix.from_rows([[1]])),),
                  times(3, Z4))
        assert lim(t).group == Z4

    def test_diagonal_with_unit_entries(self):
        g = PresentedGroup(2, ())
        f = GroupMap(g, g, IntMatrix.from_rows([[2, 0], [0, 1]]))
        out = lim(Tower.periodic(f))
        assert out.group == Z
        assert lim1(Tower.periodic(f)).kind == "nonzero-uncountable"

    def test_non_diagonalizable_tail_is_unknown(self):
        g = PresentedGroup(2, ())
        f = GroupMap(g, g, IntMatrix.from_rows([[2, 1], [0, 2]]))
        assert lim(Tower.periodic(f)).kind == "unknown"
        assert lim1(Tower.periodic(f)).kind == "nonzero-uncountable"

    def test_lim1_finite_tower_zero(self):
        rng = seeded(33)
        for _ in range(30):
            assert lim1(random_finite_tower(rng)).kind == "zero"


class TestDecidedChains:
    """Tail chains are followed as far as the stage group allows a chain to
    go before it stabilizes, so lim1 and colim are always decided."""

    @pytest.mark.parametrize("entries", [(2, 3, 5), (2, -3, 5)])
    def test_coprime_diagonal_tail_is_fast(self, entries):
        g = PresentedGroup(3, ())
        t = Tower.periodic(GroupMap(g, g, diagonal_matrix(entries)))
        start = time.perf_counter()
        assert lim(t).kind == "zero"
        assert lim1(t).kind == "nonzero-uncountable"
        assert time.perf_counter() - start < 1.0

    def test_chain_longer_than_64_steps(self):
        # x2 on Z/2^70 takes 70 steps to kill the group
        big = PresentedGroup(0, (2 ** 70,))
        t = Tower.periodic(times(2, big))
        assert lim(t).kind == "zero"
        assert lim1(t).kind == "zero"
        out = colim(Telescope.periodic(times(2, big)))
        assert out.kind == "exact" and out.describe() == "0"

    def test_non_diagonal_tail_with_torsion_is_fast(self):
        # the image chain of this tail never stabilizes; unreduced bases
        # grew to 726 758-bit entries within the bound
        g = PresentedGroup(3, (2, 4))
        rows = [[0, -3, -2, 0, 0], [-3, -3, 3, 0, 0], [1, -3, 3, 0, 0],
                [0, 0, 1, 1, 1], [2, 0, 1, 0, 1]]
        t = Tower.periodic(GroupMap(g, g, IntMatrix.from_rows(rows)))
        start = time.perf_counter()
        assert lim(t).kind == "unknown"
        assert lim1(t).kind == "nonzero-uncountable"
        assert time.perf_counter() - start < 1.0

    def test_lim1_matches_characteristic_polynomial(self):
        rng = seeded(36)
        for _ in range(200):
            r = rng.randint(1, 3)
            rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
            g = PresentedGroup(r, ())
            out = lim1(Tower.periodic(GroupMap(g, g, IntMatrix.from_rows(rows))))
            stable = image_chain_stabilizes_oracle(rows)
            assert out.kind == ("zero" if stable else "nonzero-uncountable"), rows

    def test_lim_matches_stable_image_on_long_torsion_chains(self):
        # groups where a chain can take Omega(|T|) = 3 or 4 strict steps
        rng = seeded(37)
        for orders in ((2, 2, 2), (16,), (3, 9)):
            g = PresentedGroup(0, orders)
            for _ in range(30):
                f = random_group_map(rng, g, g)
                expected = stable_image_oracle(orders, [list(r) for r in f.matrix.data])
                assert lim(Tower.periodic(f)).group.torsion == expected

    def test_colim_never_unknown(self):
        rng = seeded(38)
        for _ in range(100):
            g = PresentedGroup(rng.randint(0, 2),
                               rng.choice(((), (2,), (2, 4), (3, 9), (2, 2, 2))))
            out = colim(Telescope.periodic(random_group_map(rng, g, g)))
            assert out.kind in ("exact", "symbolic")


class TestCompare:
    def test_non_isomorphism_reports_kernel_and_cokernel(self):
        out = lim(Tower.periodic(GroupMap.identity(Z)))
        assert out.kind == "exact" and out.group == Z
        rep = out.compare(times(2), "x2", "isomorphism", "not an isomorphism")
        assert rep.kernel.is_trivial and rep.cokernel == Z2
        assert not rep.verified and rep.detail == "not an isomorphism"
        assert rep.source == Z and rep.target == Z and rep.map.matrix.data == ((2,),)
        rep = lim(Tower((Z2,), (), None)).compare(
            GroupMap(Z4, Z2, IntMatrix.from_rows([[1]])))
        assert rep.kernel == Z2 and rep.cokernel.is_trivial and not rep.verified

    def test_isomorphism_is_verified(self):
        rep = lim(Tower.periodic(times(-1))).compare(GroupMap.identity(Z), "id",
                                                     "isomorphism", "not an isomorphism")
        assert rep.verified and rep.detail == "isomorphism"
        assert rep.to_json() == {"name": "id", "source": "Z", "target": "Z",
                                 "matrix": {"rows": 1, "cols": 1, "entries": [[1]]},
                                 "verified": True, "detail": "isomorphism"}

    def test_only_an_exact_lim_takes_a_comparison(self):
        z2free = PresentedGroup(2, ())
        upper = GroupMap(z2free, z2free, IntMatrix.from_rows([[1, 1], [0, 2]]))
        outcomes = [lim1(Tower.periodic(GroupMap.identity(Z))), lim1(Tower.periodic(times(3))),
                    lim_higher(Tower.periodic(times(3)), 2),
                    colim(Telescope.periodic(GroupMap.identity(Z))),
                    colim(Telescope.periodic(times(2))), lim(Tower.periodic(upper))]
        assert [o.kind for o in outcomes] == ["zero", "nonzero-uncountable", "zero",
                                              "exact", "symbolic", "unknown"]
        for out in outcomes:
            with pytest.raises(ValueError):
                out.compare(GroupMap.identity(Z))

    def test_comparison_into_another_stage_rejected(self):
        out = lim(Tower.periodic(GroupMap.identity(Z)))
        for f in (GroupMap.identity(Z2), GroupMap(Z, Z2, IntMatrix.from_rows([[1]]))):
            with pytest.raises(ValueError):
                out.compare(f)


class TestColim:
    def test_finite_telescope_is_last_stage(self):
        rng = seeded(34)
        for _ in range(40):
            t = random_finite_telescope(rng)
            out = colim(t)
            assert out.kind in ("exact", "zero")
            assert out.group == t.stages[-1]
            # injections compose correctly: inj[k] = inj[k+1] o map[k]
            for k in range(len(t.maps)):
                assert out.injections[k + 1] @ t.maps[k] == out.injections[k]

    def test_dyadic_telescope_symbolic(self):
        out = colim(Telescope.periodic(times(2)))
        assert out.kind == "symbolic"
        assert out.description == "Z[1/2]"
        assert out.group is None

    def test_finite_group_telescope_collapses(self):
        out = colim(Telescope.periodic(times(2, Z4)))
        assert out.group is not None and out.group.is_trivial

    def test_injective_tail_exact(self):
        out = colim(Telescope.periodic(GroupMap.identity(Z4)))
        assert out.group == Z4

    def test_mixed_torsion_telescope(self):
        # Z/8 --x2--> Z/8 periodic: kernel chain stabilizes, quotient Z/2
        out = colim(Telescope.periodic(times(2, Z8)))
        assert out.kind == "zero" or out.group is not None


class TestHomExtTowers:
    def test_hom_tower_of_dyadic(self):
        tower, homs = hom_tower(Telescope.periodic(times(2)), Z)
        assert tower.stages[0] == Z
        assert tower.tail is not None
        assert tower.tail.matrix.data == ((2,),)
        out = lim(tower)
        assert out.describe() == "0"  # Hom(Z[1/2], Z) = 0

    def test_hom_into_colim_finite(self):
        t = Telescope((Z4, Z8), (GroupMap(Z4, Z8, IntMatrix.from_rows([[2]])),),
                      None)
        rep = hom_into_colim_check(t, Z8)
        assert rep.verified

    def test_hom_into_colim_identity_tail(self):
        rep = hom_into_colim_check(Telescope.periodic(GroupMap.identity(Z)), Z4)
        assert rep.verified

    def test_ext_tower_stages(self):
        tower, exts = ext_tower(Telescope.periodic(times(2)), Z)
        assert tower.stages[0].is_trivial  # Ext(Z, Z) = 0
        assert all(g == exts[k].group for k, g in enumerate(tower.stages))
        t2 = Telescope.periodic(times(2, Z4))
        tower2, exts2 = ext_tower(t2, Z)
        assert tower2.stages[0] == Z4  # Ext(Z/4, Z) = Z/4


class TestSixTerm:
    def test_random_finite_telescopes_iso(self):
        rng = seeded(35)
        for _ in range(50):
            t = random_finite_telescope(rng)
            rep = six_term_check(t, Z8)
            assert rep.iso is not None and rep.iso.verified

    def test_dyadic_classification(self):
        rep = six_term_check(Telescope.periodic(times(2)), Z)
        assert rep.lim1_hom.kind == "nonzero-uncountable"
        assert rep.ext_colim.kind == "nonzero-uncountable"
        assert rep.lim_ext.describe() == "0"
        assert rep.lim2_hom.describe() == "0"

    def test_finite_coefficients_mittag_leffler(self):
        rep = six_term_check(Telescope.periodic(times(2)), Z4)
        # Hom(Z, Z/4) tower has finite stages: lim1 vanishes
        assert rep.lim1_hom.describe() == "0"
        assert rep.ext_colim.describe() == "0"


def test_ext_tower_of_dyadic_vanishes():
    tower, _ = ext_tower(Telescope.periodic(times(2)), Z)
    assert lim(tower).describe() == "0"
