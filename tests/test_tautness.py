import json
import re

import pytest

from tauthom.groups import GroupMap, PresentedGroup
from tauthom.limits import (NONZERO_UNCOUNTABLE, UNKNOWN, ZERO, Telescope,
                            Tower)
from tauthom.matrices import IntMatrix
from tauthom.tautness import (BY_CLASSIFICATION, FAILED, NOT_CHECKABLE,
                              THEORY_TAGS, VERIFIED, InconsistentData,
                              LimNotExact, NeighborhoodTower, SubspaceData,
                              comparison_into_limit, four_term_sequence,
                              milnor_sequence, reports_consistent,
                              solenoid_tower, tautness_preset,
                              tautness_sequence, trivially_taut_tower)

Z = PresentedGroup(1, ())
Z2 = PresentedGroup(0, (2,))
Z4 = PresentedGroup(0, (4,))
TRIVIAL = PresentedGroup(0, ())


def unrolled_solenoid(p, prefix_stages):
    """The winding tower with the periodic tail unrolled into an explicit
    prefix; classifications must not depend on how far it is unrolled."""
    times_p = GroupMap(Z, Z, IntMatrix.from_rows([[p]]))
    ident = GroupMap.identity(Z)
    k = prefix_stages
    homology = {
        0: Tower((Z,) * k, (ident,) * (k - 1), ident),
        1: Tower((Z,) * k, (times_p,) * (k - 1), times_p),
    }
    cohomology = {
        0: Telescope((Z,) * k, (ident,) * (k - 1), ident),
        1: Telescope((Z,) * k, (times_p,) * (k - 1), times_p),
    }
    return NeighborhoodTower(homology, cohomology)


def unresolved_limit_data(with_subspace):
    """Degree 0 is the Z^2 tail [[2, 1], [0, 2]], whose lim stays unknown;
    degree 1 is the constant tower Z, Mittag-Leffler, so lim1 H_1 = 0. The
    cohomology matches every stage; the optional subspace group is 0."""
    z2free = PresentedGroup(2, ())
    jordan = IntMatrix.from_rows([[2, 1], [0, 2]])
    homology = {0: Tower.periodic(GroupMap(z2free, z2free, jordan)),
                1: Tower.periodic(GroupMap.identity(Z))}
    cohomology = {0: Telescope.periodic(GroupMap(z2free, z2free, jordan.transpose())),
                  1: Telescope.periodic(GroupMap.identity(Z))}
    subspace = {}
    if with_subspace:
        zero_in = GroupMap(TRIVIAL, z2free, IntMatrix.zeros(2, 0))
        subspace[0] = SubspaceData(TRIVIAL, (zero_in,))
    return NeighborhoodTower(homology, cohomology, subspace)


SEQUENCE_BUILDERS = pytest.mark.parametrize(
    "build", [milnor_sequence, lambda d, n: tautness_sequence(d, n, Z),
              lambda d, n: four_term_sequence(d, n, Z)],
    ids=["milnor", "tautness", "four-term"])


class TestNeighborhoodTower:
    def test_zero_defaults_for_missing_degrees(self):
        data = solenoid_tower(2)
        assert data.homology_tower(7).stages == (TRIVIAL,)
        assert data.cohomology_telescope(7).stages == (TRIVIAL,)

    def test_subspace_needs_a_tower(self):
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        with pytest.raises(InconsistentData):
            NeighborhoodTower({}, subspace={3: sub})

    def test_map_count_must_match_stages(self):
        tower = Tower((Z, Z), (GroupMap.identity(Z),), None)
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        with pytest.raises(InconsistentData):
            NeighborhoodTower({0: tower}, subspace={0: sub})

    def test_comparisons_must_commute(self):
        double = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
        tower = Tower((Z, Z), (double,), None)
        ident = GroupMap.identity(Z)
        with pytest.raises(InconsistentData):
            NeighborhoodTower({0: tower},
                              subspace={0: SubspaceData(Z, (ident, ident))})

    def test_tail_comparison_must_be_stationary(self):
        double = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
        tower = Tower.periodic(double)
        with pytest.raises(InconsistentData):
            NeighborhoodTower({0: tower},
                              subspace={0: SubspaceData(Z, (GroupMap.identity(Z),))})

    @pytest.mark.parametrize("degree", ["0", 1.0, True])
    def test_degrees_must_be_ints(self, degree):
        tower = Tower.periodic(GroupMap.identity(Z))
        telescope = Telescope.periodic(GroupMap.identity(Z))
        with pytest.raises(ValueError, match="integers"):
            NeighborhoodTower({degree: tower})
        with pytest.raises(ValueError, match="integers"):
            NeighborhoodTower({0: tower}, cohomology={degree: telescope})

    @pytest.mark.parametrize("family", ["homology", "cohomology", "A"])
    @pytest.mark.parametrize("key", ["0_0", "\u0661", " 0", "+0", "0.0", ""])
    def test_json_degree_keys_are_ascii_integers(self, family, key):
        # int() reads all of these keys except "0.0" and ""
        tower = Tower.periodic(GroupMap.identity(Z)).to_json()
        obj = {"homology": {"0": tower}}
        obj[family] = {key: {}}
        with pytest.raises(ValueError, match=re.escape("got %r" % key)):
            NeighborhoodTower.from_json(obj)

    @pytest.mark.parametrize("family", ["homology", "cohomology", "A"])
    @pytest.mark.parametrize("key", ["01", "-0", "-01", "00"])
    def test_json_degree_keys_are_canonical(self, family, key):
        # "01" beside "1" would name the same degree, and the later key would win
        tower = Tower.periodic(GroupMap.identity(Z)).to_json()
        obj = {"homology": {"0": tower, "1": tower}}
        obj[family] = dict(obj.get(family, {}), **{key: {}})
        with pytest.raises(ValueError, match=re.escape("got %r" % key)):
            NeighborhoodTower.from_json(obj)

    @pytest.mark.parametrize("family", [None, "homology", "cohomology", "A"])
    def test_json_needs_objects(self, family):
        obj = [] if family is None else {family: []}
        with pytest.raises(ValueError, match="must be a JSON object, got list"):
            NeighborhoodTower.from_json(obj)

    def test_json_negative_and_multidigit_degrees(self):
        tower = Tower.periodic(GroupMap.identity(Z)).to_json()
        data = NeighborhoodTower.from_json({"homology": {"-1": tower, "10": tower}})
        assert sorted(data.homology) == [-1, 10]

    def test_json_round_trip_without_subspace(self):
        data = solenoid_tower(3, reduced=True)
        back = NeighborhoodTower.from_json(json.loads(json.dumps(data.to_json())))
        assert back.to_json() == data.to_json()

    def test_json_round_trip_with_subspace(self):
        data = trivially_taut_tower()
        back = NeighborhoodTower.from_json(json.loads(json.dumps(data.to_json())))
        assert back.to_json() == data.to_json()
        assert back.subspace[1].group == Z2


class TestComparisonIntoLimit:
    def test_constant_system_is_isomorphism(self):
        data = trivially_taut_tower()
        rep = comparison_into_limit(data, 1)
        assert rep.target == Z2
        assert rep.kernel.is_trivial and rep.cokernel.is_trivial

    def test_requires_subspace_data(self):
        with pytest.raises(ValueError):
            comparison_into_limit(solenoid_tower(2), 0)

    def test_unresolved_limit_is_reported(self):
        z2free = PresentedGroup(2, ())
        jordan = GroupMap(z2free, z2free, IntMatrix.from_rows([[2, 1], [0, 2]]))
        zero_in = GroupMap(TRIVIAL, z2free, IntMatrix.zeros(2, 0))
        data = NeighborhoodTower({0: Tower.periodic(jordan)},
                                 subspace={0: SubspaceData(TRIVIAL, (zero_in,))})
        with pytest.raises(LimNotExact):
            comparison_into_limit(data, 0)


class TestMilnorSequence:
    def test_solenoid_reduced_degree_zero(self):
        rep = milnor_sequence(solenoid_tower(2, reduced=True), 0)
        assert rep.terms[0].outcome.kind == NONZERO_UNCOUNTABLE
        assert rep.terms[1].outcome.kind == NONZERO_UNCOUNTABLE
        assert rep.terms[1].outcome.describe() == "nonzero (uncountable)"
        assert rep.terms[2].outcome.kind == ZERO
        assert all(j.verdict == BY_CLASSIFICATION for j in rep.junctions)
        assert not rep.failed

    def test_solenoid_unreduced_keeps_the_limit(self):
        rep = milnor_sequence(solenoid_tower(2), 0)
        assert rep.terms[2].outcome.group == Z
        assert rep.terms[1].outcome.kind == NONZERO_UNCOUNTABLE

    def test_degree_one_vanishes(self):
        rep = milnor_sequence(solenoid_tower(5), 1)
        assert rep.terms[1].outcome.kind == ZERO
        assert not rep.failed

    def test_theory_tags(self):
        data = solenoid_tower(2)
        for tag in THEORY_TAGS:
            assert milnor_sequence(data, 1, theory=tag).name == "milnor[%s]" % tag
        with pytest.raises(ValueError):
            milnor_sequence(data, 1, theory="Cech")

    def test_supplied_contradiction_fails_without_raising(self):
        # a finitely generated subspace group against an uncountable lim1:
        # the milnor report flags the junction instead of raising
        data = solenoid_tower(2)
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        bad = NeighborhoodTower(data.homology, data.cohomology, {0: sub})
        rep = milnor_sequence(bad, 0)
        assert rep.failed
        assert rep.junctions[0].verdict == FAILED


class TestTautnessSequence:
    def test_needs_cohomology(self):
        data = NeighborhoodTower(solenoid_tower(2).homology)
        with pytest.raises(ValueError):
            tautness_sequence(data, 0, Z)

    def test_solenoid_degree_one_is_exactly_zero(self):
        for p in (2, 3, 5):
            rep = tautness_sequence(solenoid_tower(p), 1, Z)
            assert rep.terms[1].outcome.kind == ZERO
            assert rep.terms[0].outcome.kind == ZERO
            assert rep.terms[2].outcome.kind == ZERO
            assert not rep.failed

    def test_solenoid_reduced_degree_zero_uncountable(self):
        rep = tautness_sequence(solenoid_tower(2, reduced=True), 0, Z)
        assert rep.terms[1].outcome.kind == NONZERO_UNCOUNTABLE
        assert rep.junctions[0].verdict == BY_CLASSIFICATION

    def test_transfinite_junction_recorded(self):
        rep = tautness_sequence(solenoid_tower(2), 0, Z)
        assert rep.junctions[-1].verdict == NOT_CHECKABLE
        assert "i >= 2" in rep.junctions[-1].label

    def test_trivially_taut_all_verified(self):
        data = trivially_taut_tower()
        for n in (0, 1, 2):
            rep = tautness_sequence(data, n, Z)
            assert rep.junctions[0].verdict == VERIFIED
            assert rep.junctions[1].verdict == VERIFIED
            assert not rep.failed

    def test_unrolling_does_not_change_verdicts(self):
        reference = tautness_sequence(solenoid_tower(2), 0, Z)
        for k in (2, 3, 5):
            rep = tautness_sequence(unrolled_solenoid(2, k), 0, Z)
            assert [t.outcome.kind for t in rep.terms] == \
                [t.outcome.kind for t in reference.terms]
            assert [j.verdict for j in rep.junctions] == \
                [j.verdict for j in reference.junctions]

    def test_stage_mismatch_detected(self):
        data = solenoid_tower(2)
        bad_coh = dict(data.cohomology)
        bad_coh[2] = Telescope.periodic(GroupMap.identity(Z2))
        bad = NeighborhoodTower(data.homology, bad_coh)
        with pytest.raises(InconsistentData) as e:
            tautness_sequence(bad, 1, Z)
        assert "Ext + Hom" in str(e.value)

    def test_lim1_crosscheck_detects_disagreement(self):
        # stage groups agree everywhere, but the degree-2 homology maps
        # wind while the degree-2 cohomology stays constant
        data = solenoid_tower(2)
        double = GroupMap(Z, Z, IntMatrix.from_rows([[2]]))
        homology = dict(data.homology)
        homology[2] = Tower.periodic(double)
        cohomology = dict(data.cohomology)
        cohomology[2] = Telescope.periodic(GroupMap.identity(Z))
        bad = NeighborhoodTower(homology, cohomology)
        with pytest.raises(InconsistentData) as e:
            tautness_sequence(bad, 1, Z)
        assert "lim1" in str(e.value)
        with pytest.raises(InconsistentData) as e:
            four_term_sequence(bad, 1, Z)
        assert "lim1" in str(e.value)

    def test_supplied_contradiction_raises(self):
        data = solenoid_tower(2)
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        bad = NeighborhoodTower(data.homology, data.cohomology, {0: sub})
        with pytest.raises(InconsistentData):
            tautness_sequence(bad, 0, Z)


class TestFourTermSequence:
    def test_needs_cohomology(self):
        data = NeighborhoodTower(solenoid_tower(2).homology)
        with pytest.raises(ValueError):
            four_term_sequence(data, 0, Z)

    def test_solenoid_shape(self):
        rep = four_term_sequence(solenoid_tower(2), 0, Z)
        assert len(rep.terms) == 4
        assert rep.terms[0].outcome.kind == NONZERO_UNCOUNTABLE
        assert rep.terms[3].outcome.kind == ZERO
        assert rep.junctions[-1].verdict == VERIFIED
        assert "lim2" in rep.junctions[-1].label

    def test_trivially_taut_verified(self):
        data = trivially_taut_tower()
        rep = four_term_sequence(data, 0, Z)
        assert rep.junctions[0].verdict == VERIFIED
        assert rep.junctions[1].verdict == VERIFIED
        assert not rep.failed

    def test_agrees_with_tautness_sequence(self):
        for preset, degrees in ((solenoid_tower(2), (0, 1)),
                                (solenoid_tower(2, reduced=True), (0,)),
                                (trivially_taut_tower(), (0, 1, 2))):
            for n in degrees:
                a = tautness_sequence(preset, n, Z)
                b = four_term_sequence(preset, n, Z)
                assert reports_consistent(a, b)


class TestReportsConsistent:
    def test_conflicting_middles_detected(self):
        data = solenoid_tower(2)
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        with_sub = NeighborhoodTower(data.homology, data.cohomology, {0: sub})
        a = milnor_sequence(data, 0)
        b = milnor_sequence(with_sub, 0)
        assert not reports_consistent(a, b)

    def test_verdict_conflict_detected(self):
        data = solenoid_tower(2)
        sub = SubspaceData(Z, (GroupMap.identity(Z),))
        with_sub = NeighborhoodTower(data.homology, data.cohomology, {0: sub})
        ok = milnor_sequence(with_sub, 1)
        bad = milnor_sequence(with_sub, 0)
        assert bad.failed and not ok.failed

    def test_self_consistency(self):
        rep = milnor_sequence(solenoid_tower(3), 0)
        assert reports_consistent(rep, rep)


class TestReportRendering:
    def test_text_layout(self):
        rep = tautness_sequence(solenoid_tower(2, reduced=True), 0, Z)
        text = rep.text()
        lines = text.splitlines()
        assert lines[0].startswith("0 -> ") and lines[0].endswith(" -> 0")
        assert "H_0(A)" in lines[0]
        assert "nonzero (uncountable)" in lines[1]
        assert sum(1 for ln in lines if ln.startswith("junction")) == \
            len(rep.junctions)
        assert any(ln.startswith("note:") for ln in lines)

    def test_json_shape(self):
        rep = four_term_sequence(trivially_taut_tower(), 1, Z)
        obj = json.loads(json.dumps(rep.to_json()))
        assert obj["name"] == "four-term"
        assert obj["failed"] is False
        assert len(obj["terms"]) == 4
        assert obj["terms"][1]["outcome"]["value"] == "Z/2"


class TestPresets:
    def test_preset_dispatch(self):
        assert tautness_preset("solenoid:2").to_json() == solenoid_tower(2).to_json()
        assert tautness_preset("solenoid:3", reduced=True).to_json() == \
            solenoid_tower(3, reduced=True).to_json()
        assert tautness_preset("trivial-taut").subspace[0].group == Z

    def test_preset_errors(self):
        with pytest.raises(ValueError):
            tautness_preset("solenoid:1")
        with pytest.raises(ValueError):
            tautness_preset("lens-space")


class TestUnresolvedLimit:
    """Junctions at H_n(A) when lim H_n stays unknown and lim1 H_{n+1} = 0."""

    @SEQUENCE_BUILDERS
    def test_unknown_middle_is_not_checkable(self, build):
        rep = build(unresolved_limit_data(False), 0)
        assert rep.terms[0].outcome.kind == ZERO
        assert [rep.terms[k].outcome.kind for k in (1, 2)] == [UNKNOWN, UNKNOWN]
        assert rep.terms[1].outcome.describe() == "unknown"
        assert rep.terms[2].outcome.describe() == "unknown"
        for j in rep.junctions[:2]:
            assert (j.verdict, j.reason) == \
                (NOT_CHECKABLE, "ends of the sequence did not both resolve")
        assert not rep.failed
        assert "unknown" in rep.text().splitlines()[1]

    @SEQUENCE_BUILDERS
    def test_subspace_against_unknown_limit_is_not_checkable(self, build):
        rep = build(unresolved_limit_data(True), 0)
        assert rep.terms[1].outcome.kind == ZERO
        assert rep.terms[2].outcome.kind == UNKNOWN
        for j in rep.junctions[:2]:
            assert (j.verdict, j.reason) == (NOT_CHECKABLE, "lim did not resolve exactly")
        assert not rep.failed
