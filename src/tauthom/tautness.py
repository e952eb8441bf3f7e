"""Verification harness for neighborhood-tower exact sequences.

A NeighborhoodTower packages, degree by degree, the homology groups of a
decreasing system of neighborhoods (a Tower, with G already applied), the
integral compactly-supported cohomology of the same system (a Telescope),
and optionally the homology of the closed subspace itself together with
comparison maps into every stage.

Three sequence builders run over this data:

  tautness_sequence  the countable collapse of the infinite tautness
                     sequence: all derived limits above the first vanish,
                     leaving 0 -> lim1 H_{n+1} -> H_n(A) -> lim H_n -> 0,
                     cross-checked stage by stage against the cohomology
                     data through the split coefficient sequence;
  four_term_sequence the same extension expressed through the cohomology:
                     0 -> lim1 Hom(H^{n+1}, G) -> H_n(A) -> lim H_n
                     -> lim2 Hom -> 0 (the lim2 term is certified zero);
  milnor_sequence    the bare homology extension with a theory tag; no
                     cohomology needed.

All three render one classification of the extension per degree (the
tautness and four-term reports share one). Its two H_n(A) junctions, like
``comparison_into_limit``, read the kernel and cokernel of
``LimOutcome.compare`` on the supplied map into the last stage.

Every junction carries a verdict: Verified (maps constructed and exactness
checked in integer arithmetic), VerifiedByClassification (terms pinned by
certified limit classifications, e.g. an uncountable lim1), NotCheckable
(an unresolved classification, or a junction of the infinite sequence
beyond desk scale), or Failed. Verdicts never claim more than the
certificates support; supplied subspace homology that contradicts the
classification raises InconsistentData rather than being resolved silently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .groups import ExtGroup, GroupMap, HomGroup, PresentedGroup, _functor
from .limits import (EXACT, NONZERO_UNCOUNTABLE, UNKNOWN, ZERO, LimOutcome,
                     Telescope, Tower, _outcome, hom_tower, lim, lim1, lim_higher)
from .matrices import IntMatrix, _json_degrees, _json_object

VERIFIED = "Verified"
BY_CLASSIFICATION = "VerifiedByClassification"
NOT_CHECKABLE = "NotCheckable"
FAILED = "Failed"

THEORY_TAGS = ("Massey", "Kolmogoroff", "Milnor", "Steenrod")


class LimNotExact(ValueError):
    """The limit needed for a comparison map did not resolve exactly."""


class InconsistentData(ValueError):
    """The supplied tower data contradicts itself."""


_TRIVIAL = PresentedGroup(0, ())


def _zero_tower():
    return Tower((_TRIVIAL,), (), GroupMap.identity(_TRIVIAL))


def _zero_telescope():
    return Telescope((_TRIVIAL,), (), GroupMap.identity(_TRIVIAL))


@dataclass(frozen=True)
class SubspaceData:
    """Homology of the closed subspace in one degree, with its comparison
    map into every prefix stage of the neighborhood tower."""

    group: PresentedGroup
    maps: tuple

    def to_json(self):
        return {"group": self.group.to_json(),
                "maps": [m.matrix.to_json() for m in self.maps]}


class NeighborhoodTower:
    """Per-degree homology Towers, optional per-degree integral cohomology
    Telescopes, optional per-degree subspace homology with comparison maps.

    Comparison maps must commute with the connecting maps (and be fixed by
    the tail endomorphism when one is present); degrees absent from a
    family are treated as the zero system. Degrees must be ints.
    """

    def __init__(self, homology, cohomology=None, subspace=None):
        self.homology, self.cohomology, self.subspace = (
            dict(family or {}) for family in (homology, cohomology, subspace))
        for n in (*self.homology, *self.cohomology, *self.subspace):
            if type(n) is not int:
                raise ValueError("tower degrees must be integers, got %r" % (n,))
        for n, sub in self.subspace.items():
            tower = self.homology.get(n)
            if tower is None:
                raise InconsistentData("subspace data at degree %d has no homology tower" % n)
            if len(sub.maps) != len(tower.stages):
                raise InconsistentData("degree %d: %d comparison maps for %d stages"
                                       % (n, len(sub.maps), len(tower.stages)))
            for k, f in enumerate(sub.maps):
                if f.source != sub.group or f.target != tower.stages[k]:
                    raise InconsistentData("degree %d: comparison map %d has wrong "
                                           "source or target" % (n, k))
            for k in range(len(tower.stages) - 1):
                if tower.maps[k] @ sub.maps[k + 1] != sub.maps[k]:
                    raise InconsistentData("degree %d: comparison maps do not commute "
                                           "with the connecting map into stage %d" % (n, k + 1))
            if tower.tail is not None and tower.tail @ sub.maps[-1] != sub.maps[-1]:
                raise InconsistentData("degree %d: comparison into the tail stage is "
                                       "not stationary under the tail map" % n)

    def homology_tower(self, n):
        return self.homology.get(n, _zero_tower())

    def cohomology_telescope(self, n):
        return self.cohomology.get(n, _zero_telescope())

    @property
    def has_cohomology(self):
        return bool(self.cohomology)

    def to_json(self):
        obj = {"homology": {str(n): t.to_json() for n, t in sorted(self.homology.items())}}
        if self.cohomology:
            obj["cohomology"] = {str(n): t.to_json()
                                 for n, t in sorted(self.cohomology.items())}
        if self.subspace:
            obj["A"] = {str(n): s.to_json() for n, s in sorted(self.subspace.items())}
        return obj

    @classmethod
    def from_json(cls, obj):
        obj = _json_object(obj, "neighborhood tower")

        def family(key):
            return _json_degrees(obj.get(key, {}), key)

        homology = {n: Tower.from_json(t) for n, t in family("homology")}
        cohomology = {n: Telescope.from_json(t) for n, t in family("cohomology")}
        subspace = {}
        for n, s in family("A"):
            s = _json_object(s, "A")
            group = PresentedGroup.from_json(s["group"])
            tower = homology.get(n)
            if tower is None:
                raise InconsistentData("subspace data at degree %d has no homology tower" % n)
            mats = [IntMatrix.from_json(m) for m in s.get("maps", [])]
            if len(mats) != len(tower.stages):
                raise InconsistentData("degree %d: %d comparison maps for %d stages"
                                       % (n, len(mats), len(tower.stages)))
            maps = tuple(GroupMap(group, tower.stages[k], mats[k])
                         for k in range(len(mats)))
            subspace[n] = SubspaceData(group, maps)
        return cls(homology, cohomology, subspace)


def comparison_into_limit(tower_data, n):
    """The natural map from the degree-n subspace homology into lim of the
    degree-n homology tower, as an IsoReport with its kernel and cokernel.
    Raises LimNotExact when the limit resists exact computation."""
    sub = tower_data.subspace.get(n)
    if sub is None:
        raise ValueError("no subspace homology at degree %d" % n)
    tower = tower_data.homology_tower(n)
    outcome = lim(tower)
    if not outcome.is_exact:
        raise LimNotExact("lim of the degree-%d tower is %s" % (n, outcome.kind))
    return outcome.compare(sub.maps[-1], "H_%d(A) -> lim H_%d(N)" % (n, n),
                           "kernel and cokernel trivial", "not an isomorphism")


@dataclass(frozen=True)
class Term:
    label: str
    outcome: LimOutcome

    def to_json(self):
        return {"label": self.label, "outcome": self.outcome.to_json()}


@dataclass(frozen=True)
class Junction:
    label: str
    verdict: str
    reason: str

    def to_json(self):
        return {"label": self.label, "verdict": self.verdict, "reason": self.reason}


@dataclass(frozen=True)
class SequenceReport:
    """An exact sequence with classified terms and per-junction verdicts."""

    name: str
    degree: int
    terms: tuple
    junctions: tuple
    notes: tuple = ()

    @property
    def failed(self):
        return any(j.verdict == FAILED for j in self.junctions)

    def text(self):
        """Aligned two-row diagram plus one line per junction."""
        labels = ["0"] + [t.label for t in self.terms] + ["0"]
        values = [""] + [t.outcome.describe() for t in self.terms] + [""]
        cells = [max(len(a), len(b)) for a, b in zip(labels, values)]
        top = " -> ".join(lab.center(w) for lab, w in zip(labels, cells))
        bottom = "    ".join(val.center(w) for val, w in zip(values, cells))
        lines = [top, bottom.rstrip()]
        for j in self.junctions:
            lines.append("junction %-28s %s%s"
                         % (j.label + ":", j.verdict,
                            " (%s)" % j.reason if j.reason else ""))
        for note in self.notes:
            lines.append("note: %s" % note)
        return "\n".join(lines)

    def to_json(self):
        return {"name": self.name, "degree": self.degree,
                "terms": [t.to_json() for t in self.terms],
                "junctions": [j.to_json() for j in self.junctions],
                "notes": list(self.notes), "failed": self.failed}


def _stage_uct_consistency(tower_data, n, coefficients):
    """Per-stage split coefficient check: each homology stage must match
    Ext of the next cohomology stage plus Hom of the current one."""
    tower = tower_data.homology_tower(n)
    coh_n = tower_data.cohomology_telescope(n)
    coh_n1 = tower_data.cohomology_telescope(n + 1)
    stages = min(len(tower.stages), len(coh_n.stages), len(coh_n1.stages))
    for k in range(stages):
        expected = _functor(ExtGroup, coh_n1.stages[k], coefficients).group.direct_sum(
            _functor(HomGroup, coh_n.stages[k], coefficients).group)
        if expected != tower.stages[k]:
            raise InconsistentData(
                "degree %d stage %d: homology %s, but the cohomology data gives "
                "Ext + Hom = %s" % (n, k, tower.stages[k], expected))


def _extension(name, tower_data, n, coefficients=None):
    """Classify 0 -> lim1 H_{n+1} -> H_n(A) -> lim H_n -> 0 and its two
    junctions at H_n(A) once; return that report, and with coefficients
    also the Hom tower of H^{n+1} and its lim1.

    With coefficients the homology stages of degrees n and n+1 are first
    checked against the cohomology, and lim1 H_{n+1} against lim1 of the
    Hom tower (the Ext towers consist of finite groups and contribute
    nothing; lim1 only ever classifies, so agreeing kinds mean agreeing
    terms). Supplied subspace homology that meets an uncountable lim1 then
    raises InconsistentData; without coefficients that junction reads Failed.
    """
    homtw = hom_l1 = None
    if coefficients is not None:
        _stage_uct_consistency(tower_data, n, coefficients)
        _stage_uct_consistency(tower_data, n + 1, coefficients)
    l1 = lim1(tower_data.homology_tower(n + 1))
    if coefficients is not None:
        homtw, _ = hom_tower(tower_data.cohomology_telescope(n + 1), coefficients)
        hom_l1 = lim1(homtw)
        if l1.kind != hom_l1.kind:
            raise InconsistentData(
                "lim1 of the degree-%d homology tower is %s, but lim1 Hom of the "
                "degree-%d cohomology is %s" % (n + 1, l1.kind, n + 1, hom_l1.kind))
    l = lim(tower_data.homology_tower(n))
    supplied = tower_data.subspace.get(n)
    if supplied is not None:
        middle = _outcome(supplied.group, "supplied subspace homology")
    elif l1.kind == ZERO and l.is_exact:
        middle = LimOutcome(l.kind, l.group,
                            "lim1 vanishes, so the middle term is the limit itself")
    elif l1.kind == NONZERO_UNCOUNTABLE:
        middle = LimOutcome(NONZERO_UNCOUNTABLE, None,
                            "contains an uncountable lim1 subgroup")
    else:
        middle = LimOutcome(UNKNOWN, None, "ends of the sequence did not both resolve")
    if supplied is not None and l.is_exact:
        comp = l.compare(supplied.maps[-1])
        if l1.kind == ZERO:
            into = (VERIFIED if comp.kernel.is_trivial else FAILED,
                    "kernel %s vs vanishing lim1" % comp.kernel)
        else:
            msg = ("finitely generated subspace homology cannot contain an "
                   "uncountable lim1 subgroup")
            if coefficients is not None:
                raise InconsistentData(msg)
            into = (FAILED, msg)
        onto = (VERIFIED if comp.cokernel.is_trivial else FAILED, "cokernel %s" % comp.cokernel)
    elif supplied is not None:
        into = onto = (NOT_CHECKABLE, "lim did not resolve exactly")
    elif middle.kind == UNKNOWN:
        into = onto = (NOT_CHECKABLE, middle.certificate)
    else:
        into = onto = (BY_CLASSIFICATION, "middle term classified from the certified ends")
    label_a = "H_%d(A)" % n
    terms = (Term("lim1 H_%d(N)" % (n + 1), l1), Term(label_a, middle),
             Term("lim H_%d(N)" % n, l))
    junctions = (Junction("ker(%s -> lim)" % label_a, *into),
                 Junction("%s -> lim surjective" % label_a, *onto))
    return SequenceReport(name, n, terms, junctions), homtw, hom_l1


def _tautness_reports(tower_data, n, coefficients):
    """The tautness and four-term reports at degree n, from one extension."""
    if not tower_data.has_cohomology:
        raise ValueError("tautness sequence needs the cohomology telescopes")
    ext, homtw, hom_l1 = _extension("tautness", tower_data, n, coefficients)
    l2 = lim_higher(tower_data.homology_tower(n + 1), 2)
    notes = ("lim^i H_{n+1} terms vanish for i >= 2 (countable tower): %s" % l2.certificate,
             "junctions of the uncollapsed infinite sequence at i >= 2 are beyond desk scale")
    beyond = Junction("i >= 2 junctions", NOT_CHECKABLE, "transfinite part of the sequence")
    taut = replace(ext, junctions=ext.junctions + (beyond,), notes=notes)
    hom = "Hom(H^%d(N), G)" % (n + 1)
    terms = ((Term("lim1 " + hom, hom_l1),) + ext.terms[1:]
             + (Term("lim2 " + hom, lim_higher(homtw, 2)),))
    vanishing = Junction("lim H_%d(N) -> lim2" % n, VERIFIED, "lim2 of a countable tower vanishes")
    four = replace(ext, name="four-term", terms=terms, junctions=ext.junctions + (vanishing,))
    return taut, four


def tautness_sequence(tower_data, n, coefficients):
    """The countable collapse of the infinite tautness sequence at degree n.

    All derived limits of order two and higher vanish for countable towers,
    so the sequence shrinks to 0 -> lim1 H_{n+1} -> H_n(A) -> lim H_n -> 0;
    the shape of the infinite sequence is recorded as NotCheckable
    junctions. Requires cohomology telescopes, which are cross-checked
    against every homology stage through the split coefficient sequence.
    """
    return _tautness_reports(tower_data, n, coefficients)[0]


def four_term_sequence(tower_data, n, coefficients):
    """0 -> lim1 Hom(H^{n+1}(N), G) -> H_n(A) -> lim H_n(N) -> lim2 Hom -> 0
    with the lim2 term certified zero for countable towers."""
    if not tower_data.has_cohomology:
        raise ValueError("the four-term sequence needs the cohomology telescopes")
    return _tautness_reports(tower_data, n, coefficients)[1]


def milnor_sequence(tower_data, n, theory="Milnor"):
    """The homology extension 0 -> lim1 H_{n+1} -> H_n(A) -> lim H_n -> 0.

    ``theory`` only labels the report: on their respective categories the
    tagged theories agree, so the same tower data serves each of them.
    """
    if theory not in THEORY_TAGS:
        raise ValueError("theory tag must be one of %s" % (THEORY_TAGS,))
    return _extension("milnor[%s]" % theory, tower_data, n)[0]


def reports_consistent(a, b):
    """Junction-by-junction agreement of two reports on the same extension:
    matching term classifications and no verdict conflicts."""
    for ta, tb in zip(a.terms[:3], b.terms[:3]):
        if ta.outcome.kind != tb.outcome.kind:
            return False
        if ta.outcome.kind in (EXACT, ZERO) and ta.outcome.group != tb.outcome.group:
            return False
    va = [j.verdict for j in a.junctions[:2]]
    vb = [j.verdict for j in b.junctions[:2]]
    for x, y in zip(va, vb):
        if FAILED in (x, y) and x != y:
            return False
    return True


# -- presets -------------------------------------------------------------------


def solenoid_tower(p, reduced=False):
    """Neighborhood data of the p-adic solenoid: solid tori with winding
    maps of degree p. First homology is (Z, times p) as a pure tail; the
    degree-0 tower is constant Z, or zero when reduced homology is asked
    for; integral cohomology carries the dual telescope (Z, times p)."""
    zz = PresentedGroup(1, ())
    times_p = GroupMap(zz, zz, IntMatrix.from_rows([[int(p)]]))
    h1 = Tower.periodic(times_p)
    h0 = _zero_tower() if reduced else Tower.periodic(GroupMap.identity(zz))
    homology = {0: h0, 1: h1, 2: _zero_tower()}
    c1 = Telescope.periodic(times_p)
    c0 = _zero_telescope() if reduced else Telescope.periodic(GroupMap.identity(zz))
    cohomology = {0: c0, 1: c1, 2: _zero_telescope()}
    return NeighborhoodTower(homology, cohomology)


def trivially_taut_tower(stages=3):
    """A constant finite system with identity comparisons: the homology of
    a closed surface-like stage repeated, where every sequence collapses to
    a verified isomorphism."""
    zz = PresentedGroup(1, ())
    z2 = PresentedGroup(0, (2,))
    homology = {}
    cohomology = {}
    subspace = {}
    for n, g in ((0, zz), (1, z2), (2, _TRIVIAL)):
        ident = tuple(GroupMap.identity(g) for _ in range(stages))
        homology[n] = Tower((g,) * stages, ident[1:], None)
        subspace[n] = SubspaceData(g, ident)
    for n, g in ((0, zz), (1, _TRIVIAL), (2, z2), (3, _TRIVIAL)):
        maps = tuple(GroupMap.identity(g) for _ in range(stages - 1))
        cohomology[n] = Telescope((g,) * stages, maps, None)
    return NeighborhoodTower(homology, cohomology, subspace)


def tautness_preset(name, reduced=False):
    """Resolve preset names: solenoid:p (p >= 2) or trivial-taut."""
    if name.startswith("solenoid:"):
        p = int(name.split(":", 1)[1])
        if p < 2:
            raise ValueError("solenoid winding degree must be at least 2")
        return solenoid_tower(p, reduced)
    if name == "trivial-taut":
        return trivially_taut_tower()
    raise ValueError("unknown tautness preset %r" % name)
