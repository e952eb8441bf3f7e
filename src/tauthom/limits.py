"""Towers (inverse sequences) and telescopes (direct sequences) of
finitely generated abelian groups, with exact or certified-classified
derived limits.

A tower or telescope is a finite prefix of groups and connecting maps,
optionally continued forever by an endomorphism of the last prefix group;
the two differ only in the direction of their maps. Whether a tail's
image or kernel chain stabilizes is decided by comparing the canonical
(Hermite) bases of its lattices, step by step up to a bound computed from
the stage group. ``lim`` is a subgroup of the last prefix stage (the whole
stage, the stable image of the tail, or the unit part of a diagonal free
tail) or unknown; ``lim1`` is zero (Mittag-Leffler) or nonzero-uncountable;
lim^i vanishes for i >= 2; ``colim`` is exact, or symbolic when certified not
finitely generated. Each answer is one LimOutcome with a certificate naming
the criterion that fired. ``LimOutcome.compare`` maps a comparison into the
last prefix stage onto an exact lim and reports its kernel and cokernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import (ExtGroup, GroupMap, HomGroup, PresentedGroup, Subquotient, _cokernel,
                     _functor, _preimage, cokernel, kernel, kernel_lattice)
from .matrices import (IntMatrix, _json_list, _json_object, column_basis, hstack,
                       smith_normal_form)


class MalformedTower(ValueError):
    """Stage/map shapes of a tower or telescope do not line up."""


class NotComparable(ValueError):
    """The requested comparison needs a finitely generated colimit."""


@dataclass(frozen=True)
class _Sequence:
    """Prefix ``stages`` with connecting ``maps``, optionally continued
    eventually periodically by a ``tail`` endomorphism of the last stage.
    Subclasses fix the direction of the maps through ``inverse``."""

    stages: tuple
    maps: tuple = ()
    tail: GroupMap | None = None

    inverse = False

    @classmethod
    def _ends(cls, k):
        """Prefix indices (source, target) of maps[k]."""
        return (k + 1, k) if cls.inverse else (k, k + 1)

    def __post_init__(self):
        if not self.stages:
            raise MalformedTower("a %s needs at least one stage" % type(self).__name__.lower())
        if len(self.maps) != len(self.stages) - 1:
            raise MalformedTower("expected %d connecting maps, got %d"
                                 % (len(self.stages) - 1, len(self.maps)))
        for k, f in enumerate(self.maps):
            s, t = self._ends(k)
            if f.source != self.stages[s] or f.target != self.stages[t]:
                raise MalformedTower("map %d does not connect stage %d to stage %d"
                                     % (k, s + 1, t + 1))
        if self.tail is not None and (self.tail.source != self.stages[-1]
                                      or self.tail.target != self.stages[-1]):
            raise MalformedTower("tail must be an endomorphism of the last prefix stage")

    @classmethod
    def periodic(cls, endo):
        return cls((endo.source,), (), endo)

    def to_json(self):
        obj = {"prefix": {"groups": [g.to_json() for g in self.stages],
                          "maps": [f.matrix.to_json() for f in self.maps]}}
        if self.tail is not None:
            obj["tail"] = {"group": self.stages[-1].to_json(),
                           "endo": self.tail.matrix.to_json()}
        return obj

    @classmethod
    def from_json(cls, obj):
        obj = _json_object(obj, cls.__name__.lower())
        prefix = _json_object(obj.get("prefix", {"groups": [], "maps": []}), "prefix")
        groups = [PresentedGroup.from_json(g)
                  for g in _json_list(prefix.get("groups", []), "prefix groups")]
        mats = [IntMatrix.from_json(m) for m in _json_list(prefix.get("maps", []), "prefix maps")]
        tail_obj = obj.get("tail")
        if tail_obj is not None:
            tail_obj = _json_object(tail_obj, "tail")
        if not groups:
            if tail_obj is None:
                raise MalformedTower("need a prefix or a tail")
            groups = [PresentedGroup.from_json(tail_obj["group"])]
        if len(mats) != len(groups) - 1:
            raise MalformedTower("expected %d prefix maps, got %d" % (len(groups) - 1, len(mats)))
        maps = []
        for k, mat in enumerate(mats):
            s, t = cls._ends(k)
            maps.append(GroupMap(groups[s], groups[t], mat))
        tail = None
        if tail_obj is not None:
            tail_group = PresentedGroup.from_json(tail_obj["group"])
            if tail_group != groups[-1]:
                raise MalformedTower("tail group %s differs from the last prefix group %s"
                                     % (tail_group, groups[-1]))
            tail = GroupMap(groups[-1], groups[-1], IntMatrix.from_json(tail_obj["endo"]))
        return cls(tuple(groups), tuple(maps), tail)


class Tower(_Sequence):
    """Inverse sequence A_1 <- A_2 <- ...; maps[k] sends stage k+2 to stage
    k+1 (0-indexed: stages[k+1] -> stages[k]). A ``tail`` endomorphism of
    the last prefix group continues the sequence eventually periodically."""

    inverse = True


class Telescope(_Sequence):
    """Direct sequence A_1 -> A_2 -> ...; maps[k]: stages[k] -> stages[k+1],
    optionally continued by a ``tail`` endomorphism of the last stage."""


# -- outcomes ---------------------------------------------------------------

EXACT = "exact"
ZERO = "zero"
NONZERO_UNCOUNTABLE = "nonzero-uncountable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class LimOutcome:
    """Result of a derived-limit or colimit computation.

    kind is one of "exact" (``group`` computed exactly), "zero",
    "nonzero-uncountable", "unknown" or, for a colimit certified not
    finitely generated, "symbolic", named by ``description``; ``certificate``
    states the criterion that produced the classification. An exact colimit
    carries the universal maps from the prefix stages in ``injections`` (the
    last one doubling as the map from the tail stage). An exact lim keeps
    its last prefix stage and its Subquotient there for ``compare``.
    """

    kind: str
    group: PresentedGroup | None
    certificate: str
    description: str | None = None
    injections: tuple = ()
    _stable: tuple | None = field(default=None, compare=False, repr=False)

    def describe(self):
        if self.kind == ZERO:
            return "0"
        if self.kind == EXACT:
            return self.group.describe()
        if self.kind == NONZERO_UNCOUNTABLE:
            return "nonzero (uncountable)"
        if self.kind == "symbolic":
            return self.description
        return "unknown"

    @property
    def is_exact(self):
        return self.kind in (EXACT, ZERO)

    def to_json(self):
        obj = {"kind": self.kind, "value": self.describe(), "certificate": self.certificate}
        if self.group is not None:
            obj["group"] = self.group.to_json()
        return obj

    def compare(self, f, name="", ok="", failed=""):
        """A comparison ``f`` into the last prefix stage of an exactly
        computed lim, compatible with the tower, as a map onto the limit,
        reported with its kernel and cokernel and with ``ok`` or ``failed``
        as its detail. Raises ValueError for any other outcome or target."""
        if self._stable is None:
            raise ValueError("only an exactly computed lim takes a comparison map")
        stage, sq = self._stable
        if f.target != stage:
            raise ValueError("comparison must land in the last prefix stage")
        nat = GroupMap(f.source, self.group, sq.coords_matrix(f.matrix))
        ker, coker = kernel(nat)[0], cokernel(nat)[0]
        return IsoReport(name, nat, ker, coker,
                         ok if ker.is_trivial and coker.is_trivial else failed)


def _outcome(group, certificate, stable=None):
    kind = ZERO if group.is_trivial else EXACT
    return LimOutcome(kind, group, certificate, _stable=stable)


def _stable_outcome(stage, lattice, certificate):
    """lim as the subgroup of ``stage`` spanned by ``lattice``."""
    sq = Subquotient(lattice, stage.relation_matrix())
    return _outcome(sq.group, certificate, (stage, sq))


def _chain_bound(A):
    """Steps within which, for an endomorphism f of A = Z^r + T, the image
    chain f^k(A) stabilizes if it ever does and the kernel chain ker f^k
    always does: r + Omega(|T|) <= r + sum(floor(log2 d)) over the orders d.
    An image chain stable from s splits A = ker f^s (+) f^s(A) with f
    nilpotent on ker f^s, whose images lose rank or properly divide their
    finite order (a divisor of |T|) at each strict step. The quotients
    ker f^{k+1}/ker f^k inject into one another: those of positive rank add
    up to at most r, and the finite ones multiply to the order of a finite
    subgroup of A/ker f^j = f^j(A), a divisor of |T|."""
    return A.free_rank + sum(d.bit_length() - 1 for d in A.torsion)


def _stable_lattice(start, step, bound):
    """Follow the chain L_{k+1} = step(L_k) of canonical (Hermite) bases
    from ``start`` for at most ``bound`` + 1 steps. Returns (stable basis,
    steps taken), or (last basis, None) when it still moves at the end."""
    current = start
    for steps in range(bound + 1):
        nxt = step(current)
        if nxt == current:
            return current, steps
        current = nxt
    return current, None


def _image_chain(endo):
    """The image chain endo^k(A) + relations, as ``_stable_lattice`` returns
    it; a chain still descending past ``_chain_bound`` never stabilizes."""
    A = endo.source
    rel = A.relation_matrix()
    return _stable_lattice(IntMatrix.identity(A.n_gens),
                           lambda L: column_basis(hstack(endo.matrix * L, rel)),
                           _chain_bound(A))


def _diagonal_tail(endo):
    """If the tail acts on a free group and diagonalizes (literally, or by
    the conjugating pair of its Smith form), return (diag entries, basis
    columns for the +-1 part); else None."""
    A = endo.source
    if A.torsion or A.free_rank == 0:
        return None
    F = endo.matrix
    if F.is_diagonal():
        diag = [F.data[i][i] for i in range(A.free_rank)]
        unit_cols = [[int(i == j) for i in range(A.free_rank)]
                     for j in range(A.free_rank) if abs(diag[j]) == 1]
        return diag, IntMatrix.from_columns(unit_cols, A.free_rank)
    s = smith_normal_form(F)
    if (s.v * s.u).is_identity():
        # F = Uinv * D * U: conjugate to a diagonal matrix
        diag = list(s.diagonal)
        cols = [s.uinv.column(j) for j in range(A.free_rank) if abs(diag[j]) == 1]
        return diag, IntMatrix.from_columns(cols, A.free_rank)
    return None


def lim(tower):
    """Inverse limit of a tower, as a subgroup of its last prefix stage.

    A finite tower's limit is its last stage. Periodic tails are resolved
    by image-chain stabilization (the restriction of the tail to its stable
    image is an automorphism, so the limit is that stable subgroup) or,
    when the chain never stabilizes, by a diagonal classification over a
    free stage; any other tail leaves the limit unknown.
    """
    A = tower.stages[-1]
    if tower.tail is None:
        return _stable_outcome(A, IntMatrix.identity(A.n_gens),
                               "finite tower: the limit is the last of its %d stages"
                               % len(tower.stages))
    stable, steps = _image_chain(tower.tail)
    if steps is not None:
        return _stable_outcome(A, stable,
                               "image chain of the tail stabilizes after %d steps; the tail "
                               "restricts to an automorphism of the stable subgroup" % steps)
    diag = _diagonal_tail(tower.tail)
    if diag is not None:
        entries, unit_basis = diag
        return _stable_outcome(A, unit_basis,
                               "tail diagonalizes over a free stage with entries %s; |d|>=2 "
                               "summands have intersection of images zero, +-1 summands "
                               "contribute Z" % (entries,))
    return LimOutcome(UNKNOWN, None,
                      "image chain of the tail never stabilizes and the tail does not "
                      "diagonalize")


def lim1(tower):
    """First derived limit, decided: Zero when the tower is Mittag-Leffler
    (the tail's image chain stabilizes), NonzeroUncountable otherwise, as
    for every tower of countable groups that is not Mittag-Leffler."""
    if tower.tail is None:
        return LimOutcome(ZERO, PresentedGroup(0, ()),
                          "finite tower is Mittag-Leffler: images stabilize at the last stage")
    _, steps = _image_chain(tower.tail)
    if steps is not None:
        return LimOutcome(ZERO, PresentedGroup(0, ()),
                          "Mittag-Leffler: the image chain of the tail stabilizes after %d steps"
                          % steps)
    A = tower.stages[-1]
    return LimOutcome(
        NONZERO_UNCOUNTABLE, None,
        "images of the tail still descend strictly at step %d, by which an image chain on "
        "%s that stabilizes has stopped; Mittag-Leffler fails, and the first derived limit "
        "of a tower of countable groups that is not Mittag-Leffler is uncountable"
        % (_chain_bound(A), A.describe()))


def lim_higher(tower, i):
    """lim^i for i >= 2 vanishes for every countable tower of abelian groups."""
    if i < 2:
        raise ValueError("lim_higher handles i >= 2; use lim or lim1")
    return LimOutcome(ZERO, PresentedGroup(0, ()),
                      "lim^%d of a countable tower of abelian groups vanishes" % i)


# -- colimits ---------------------------------------------------------------


def _prefix_composites_to_last(maps, stages):
    comps = [None] * len(stages)
    comps[-1] = GroupMap.identity(stages[-1])
    for k in range(len(stages) - 2, -1, -1):
        comps[k] = comps[k + 1] @ maps[k]
    return comps


def colim(telescope):
    """Direct limit of a telescope, exact whenever it is finitely generated.

    With a periodic tail f the kernels ker(f^k) stabilize within
    ``_chain_bound`` steps; modding them out
    leaves an injective induced endomorphism. If that endomorphism is also
    surjective the colimit is the quotient itself; otherwise the colimit is
    a strictly increasing union, certified not finitely generated and
    described symbolically.

    A finitely generated colimit is always of kind ``exact``, even when it is
    trivial (``lim`` and ``lim1`` report a trivial answer as ``zero``), and
    carries its ``injections``; any other is ``symbolic``, named in
    ``description`` (Z[1/d] summands when the induced endomorphism is diagonal).
    """
    stages, maps = telescope.stages, telescope.maps
    if telescope.tail is None:
        comps = _prefix_composites_to_last(maps, stages)
        return LimOutcome(EXACT, stages[-1],
                          "finite telescope: the last stage with the composite maps into it",
                          injections=tuple(comps))
    A = stages[-1]
    f = telescope.tail
    # f is well defined, so its kernel lattice and every preimage hold the relations
    bound = _chain_bound(A)
    current, steps = _stable_lattice(column_basis(kernel_lattice(f.matrix, A.orders)),
                                     lambda L: column_basis(_preimage(f.matrix, L)), bound)
    if steps is None:
        raise AssertionError("kernel chain of the tail on %s still grows past the bound of "
                             "%d steps" % (A.describe(), bound))
    abar, lifts, proj = _cokernel(smith_normal_form(current))
    fbar = GroupMap(abar, abar, proj * (f.matrix * lifts))
    coker_group, _ = cokernel(fbar)
    if coker_group.is_trivial:
        proj = GroupMap(A, abar, proj)
        comps = _prefix_composites_to_last(maps, stages)
        injections = tuple(proj @ c for c in comps)
        return LimOutcome(
            EXACT, abar,
            "kernel chain stabilizes after %d steps; the induced endomorphism of the "
            "quotient is an automorphism" % steps, injections=injections)
    return LimOutcome(
        "symbolic", None,
        "kernel chain stabilizes after %d steps but the induced injective endomorphism "
        "has cokernel %s; the colimit is a strictly increasing union, hence not finitely "
        "generated" % (steps, coker_group.describe()),
        _symbolic_description(abar, fbar))


def _symbolic_description(abar, fbar):
    if not abar.torsion and fbar.matrix.is_diagonal():
        parts = []
        for i in range(abar.free_rank):
            d = fbar.matrix.data[i][i]
            parts.append("Z" if abs(d) == 1 else "Z[1/%d]" % abs(d))
        if parts:
            return " + ".join(parts)
    return "colim(%s, injective endomorphism)" % abar.describe()


# -- functor towers ---------------------------------------------------------


def _functor_tower(functor, telescope, coefficients):
    """Apply a contravariant functor (HomGroup or ExtGroup) stagewise; a
    telescope becomes a tower. Returns the tower and the stage objects."""
    values = [_functor(functor, g, coefficients) for g in telescope.stages]
    maps = [values[k + 1].pullback(f, values[k]) for k, f in enumerate(telescope.maps)]
    tail = None
    if telescope.tail is not None:
        tail = values[-1].pullback(telescope.tail, values[-1])
    return Tower(tuple(v.group for v in values), tuple(maps), tail), values


def hom_tower(telescope, coefficients):
    """Apply Hom(-, G) stagewise; a telescope becomes a tower."""
    return _functor_tower(HomGroup, telescope, coefficients)


def ext_tower(telescope, coefficients):
    """Apply Ext(-, G) stagewise; a telescope becomes a tower."""
    return _functor_tower(ExtGroup, telescope, coefficients)


# -- comparison and six-term reports ----------------------------------------


@dataclass(frozen=True)
class IsoReport:
    """A comparison map with its kernel and cokernel; it is verified as an
    isomorphism when both are trivial."""

    name: str
    map: GroupMap
    kernel: PresentedGroup
    cokernel: PresentedGroup
    detail: str

    @property
    def source(self):
        return self.map.source

    @property
    def target(self):
        return self.map.target

    @property
    def verified(self):
        return self.kernel.is_trivial and self.cokernel.is_trivial

    def to_json(self):
        return {"name": self.name, "source": self.source.describe(),
                "target": self.target.describe(), "matrix": self.map.matrix.to_json(),
                "verified": self.verified, "detail": self.detail}


def hom_into_colim_check(telescope, coefficients):
    """Construct Hom(colim, G) -> lim Hom(stages, G) and verify it is an
    isomorphism. Raises NotComparable when the colimit is not finitely
    generated; when it is, the tail's image chain stabilizes on a direct
    summand, so the Hom tower is Mittag-Leffler and its limit exact."""
    co = colim(telescope)
    if co.kind != EXACT:
        raise NotComparable("colimit is %s; Hom comparison needs a finitely generated colimit"
                            % co.kind)
    tower, homs = hom_tower(telescope, coefficients)
    hom_colim = _functor(HomGroup, co.group, coefficients)
    return lim(tower).compare(hom_colim.pullback(co.injections[-1], homs[-1]),
                              "Hom(colim, G) -> lim Hom",
                              "kernel and cokernel of the comparison are trivial",
                              "comparison map is not an isomorphism")


@dataclass(frozen=True)
class SixTermReport:
    """The limit sequence
    0 -> lim1 Hom(A_k, G) -> Ext(colim A_k, G) -> lim Ext(A_k, G) -> lim2 Hom(A_k, G) -> 0
    with each term classified, and the middle map verified exactly whenever
    the colimit is finitely generated."""

    lim1_hom: LimOutcome
    ext_colim: LimOutcome
    lim_ext: LimOutcome
    lim2_hom: LimOutcome
    iso: IsoReport | None
    notes: tuple

    def to_json(self):
        return {"lim1_hom": self.lim1_hom.to_json(), "ext_colim": self.ext_colim.to_json(),
                "lim_ext": self.lim_ext.to_json(), "lim2_hom": self.lim2_hom.to_json(),
                "iso": None if self.iso is None else self.iso.to_json(),
                "notes": list(self.notes)}


def six_term_check(telescope, coefficients):
    homtw, _homs = hom_tower(telescope, coefficients)
    exttw, exts = ext_tower(telescope, coefficients)
    l1h = lim1(homtw)
    le = lim(exttw)
    l2h = lim_higher(homtw, 2)
    co = colim(telescope)
    notes = []
    iso = None
    if co.kind == EXACT:
        ext_co = _functor(ExtGroup, co.group, coefficients)
        # the Ext tower consists of finite groups, so its limit is exact
        iso = le.compare(ext_co.pullback(co.injections[-1], exts[-1]),
                         "Ext(colim, G) -> lim Ext", "kernel and cokernel trivial",
                         "not an isomorphism")
        ext_colim = _outcome(ext_co.group,
                             "colimit is finitely generated; Ext computed directly")
        if l1h.kind != ZERO:
            notes.append("lim1 Hom is %s yet Ext(colim) is finitely generated; "
                         "sequence cannot be exact" % l1h.kind)
    else:
        if l1h.kind == ZERO:
            ext_colim = LimOutcome(
                le.kind, le.group,
                "lim1 Hom vanishes and lim2 Hom vanishes, so Ext(colim, G) = lim Ext exactly")
        else:
            ext_colim = LimOutcome(
                NONZERO_UNCOUNTABLE, None,
                "Ext(colim, G) contains lim1 Hom as a subgroup, and lim1 Hom is uncountable")
        notes.append("colimit is %s (%s)" % (co.kind, co.describe()))
    return SixTermReport(l1h, ext_colim, le, l2h, iso, tuple(notes))

