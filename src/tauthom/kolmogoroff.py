"""Set-function homology on finite closure models.

A finite closure model is an atom set together with the combinatorial
record of which atom closures intersect (an abstract simplicial complex on
the atoms: the model IS its intersection pattern). Chains of degree n are
G-valued functions on (n+1)-tuples of blocks of a partition, subject to

  additivity      f(E' u E'', ...) = f(E', ...) + f(E'', ...) for disjoint
                  E', E'' (values on unions are derived by summation),
  alternation     permuting arguments multiplies by the sign, and a tuple
                  with a repeated argument evaluates to zero,
  disjointness    f vanishes on tuples whose closures have empty common
                  intersection.

Every model is compact, so U = the union of all blocks is an admissible
open bounded set and the boundary operator is total,
Delta f(E_0,...,E_{n-1}) = f(U, E_0,...,E_{n-1}). The repeated-argument
clause then gives Delta Delta f = f(U, U, ...) = 0.

The homology of this chain complex is computed once, by ``homology_groups``
on boundary matrices obtained by evaluating Delta on generator chains.
Each matrix is first checked entry for entry against the simplicial
boundary (x) G of the nerve of the partition: on these finite models the
comparison map of Kolmogoroff with Massey homology is the identity on
generators. The first difference raises PipelineMismatch with its degree,
simplex and generator. Dense boundary matrices are built on demand
(``boundary_matrix``, refinement maps, the nerve report).

Chains the package builds itself, the one-generator chains behind the
boundary matrices and every boundary chain, skip re-validation; chains
constructed by a caller are still validated. One-generator chains are
evaluated face by face, with no boundary chain built, on a nerve kept on
the model, so queries over several coefficient groups share it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (CertificateFailure, FreeComplex, homology_groups,
                        uct_certificates)
from .groups import PresentedGroup
from .limits import colim
from .matrices import IntMatrix, _json_object, _product_equals, _SparseMatrix


class NotACover(ValueError):
    """The union of the given sets is not the whole atom set."""


class NotARefinement(ValueError):
    """The allegedly finer partition does not refine the coarser one."""


class BlockMismatch(ValueError):
    """A set is not a union of blocks of the chain's partition."""


class PipelineMismatch(AssertionError):
    """Delta of a one-generator chain differs from the nerve boundary (x) G.

    The witness: ``degree`` and ``simplex`` name the chain's nerve simplex
    (None for a column index outside the nerve), ``generator`` the
    coefficient generator, and ``expected`` and ``found`` the boundary
    columns as {degree n-1 coordinate: entry}.
    """

    def __init__(self, degree, simplex, generator, expected, found):
        self.degree, self.simplex, self.generator = degree, simplex, generator
        self.expected, self.found = expected, found
        super().__init__("degree %d: Delta of generator %d on simplex %s gives column %s, "
                         "the nerve boundary gives %s"
                         % (degree, generator, simplex, dict(sorted(found.items())),
                            dict(sorted(expected.items()))))


class ConditionViolated(ValueError):
    """A telescope map is not a disjoint-support sum of basis elements.

    ``map_index`` is the offending prefix map index (or "tail");
    ``witness`` pinpoints the entry or the shared basis row.
    """

    def __init__(self, map_index, witness):
        self.map_index = map_index
        self.witness = witness
        super().__init__("map %s violates the disjoint-support basis condition: %s"
                         % (map_index, witness))


def _atom(x, what="atoms"):
    """x itself when it is an int; bools, floats and strings raise
    ValueError rather than being coerced into another model or chain."""
    if type(x) is not int:
        raise ValueError("%s must be integers, got %r" % (what, x))
    return x


class FiniteModel:
    """Atoms 0..atoms-1 plus the downward-closed family of atom subsets
    with commonly intersecting closures. Every singleton is present (each
    atom meets its own closure). ``_nerves`` keeps the NerveComplex of each
    partition a query has used (``_nerve``); equality and hashing ignore it."""

    __slots__ = ("atoms", "simplices", "maximal", "_nerves")

    def __init__(self, atoms, faces):
        atoms = _atom(atoms)
        if atoms <= 0:
            raise ValueError("a model needs at least one atom")
        self.atoms = atoms
        closed = set()
        for face in faces:
            face = frozenset(_atom(a) for a in face)
            if not face:
                continue
            if min(face) < 0 or max(face) >= atoms:
                raise ValueError("face %s mentions an atom outside 0..%d"
                                 % (sorted(face), atoms - 1))
            closed.update(frozenset(sub) for r in range(1, len(face) + 1)
                          for sub in itertools.combinations(sorted(face), r))
        closed.update(frozenset((a,)) for a in range(atoms))
        self.simplices = frozenset(closed)
        # a face is maximal unless it is another face minus one atom
        covered = {t - {a} for t in closed for a in t}
        self.maximal = tuple(sorted(tuple(sorted(s)) for s in closed - covered))
        self._nerves = {}

    @property
    def dimension(self):
        return max(len(s) for s in self.simplices) - 1

    def __eq__(self, other):
        return (isinstance(other, FiniteModel) and self.atoms == other.atoms
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((self.atoms, self.simplices))

    def __repr__(self):
        return "FiniteModel(atoms=%d, maximal=%r)" % (self.atoms, list(self.maximal))

    def to_json(self):
        return {"atoms": self.atoms, "nerve": [list(s) for s in self.maximal]}

    @classmethod
    def from_json(cls, obj):
        obj = _json_object(obj, "model")
        return cls(obj["atoms"], obj.get("nerve", []))


class Partition:
    """Pairwise disjoint nonempty atom blocks. Blocks are canonically
    ordered by smallest member, so nerve vertex order is deterministic."""

    __slots__ = ("blocks", "block_of")

    def __init__(self, blocks):
        cleaned = []
        for block in blocks:
            block = tuple(sorted(_atom(a) for a in block))
            if not block:
                raise ValueError("empty block")
            if len(set(block)) != len(block):
                raise ValueError("block %r repeats an atom" % (block,))
            cleaned.append(block)
        cleaned.sort(key=lambda b: b[0])
        block_of = {}
        for i, block in enumerate(cleaned):
            for a in block:
                if a in block_of:
                    raise ValueError("atom %d appears in two blocks" % a)
                block_of[a] = i
        self.blocks = tuple(cleaned)
        self.block_of = block_of

    @classmethod
    def singletons(cls, atoms):
        return cls([(a,) for a in range(atoms)])

    def covers(self, atoms):
        return set(self.block_of) == set(range(atoms))

    def refines(self, other):
        """Every block of self is contained in a single block of other."""
        for block in self.blocks:
            targets = {other.block_of.get(a) for a in block}
            if len(targets) != 1 or None in targets:
                return False
        return True

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "Partition(%r)" % (list(self.blocks),)

    def to_json(self):
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, obj):
        return cls(obj)


def mosaic(sets):
    """Disjointify a finite system of atom sets.

    Returns the nonempty signature classes: atoms grouped by exactly which
    input sets contain them. The pieces are pairwise disjoint, cover the
    union, and every input set is the disjoint union of the pieces inside
    it. Deterministic order by smallest atom.
    """
    sets = [frozenset(_atom(a) for a in s) for s in sets]
    signature = {}
    for a in sorted(set().union(*sets) if sets else ()):
        sig = frozenset(i for i, s in enumerate(sets) if a in s)
        if sig:
            signature.setdefault(sig, []).append(a)
    pieces = sorted((tuple(v) for v in signature.values()), key=lambda p: p[0])
    return tuple(pieces)


def regularize(cover, atoms):
    """Disjointify a cover in input order: O1, O2 minus O1, ...; empty
    residues are dropped. Raises NotACover when the union misses an atom."""
    covered = set()
    blocks = []
    for s in cover:
        s = set(_atom(a) for a in s)
        residue = tuple(sorted(s - covered))
        if residue:
            blocks.append(residue)
            covered.update(residue)
    if covered != set(range(atoms)):
        raise NotACover("cover misses atoms %s" % sorted(set(range(atoms)) - covered))
    return Partition(blocks)


def _sort_with_sign(tup):
    """Sort a tuple, tracking permutation sign; None when entries repeat."""
    items = list(tup)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return None, 0
    return tuple(items), sign


class NerveComplex:
    """The nerve of a partition of a model: blocks are vertices, and
    distinct blocks B_0..B_n span a simplex when atoms a_i in B_i exist
    whose closures share a point. Simplices per dimension are sorted
    lexicographically; the integral simplicial chain complex is exposed as
    a FreeComplex."""

    __slots__ = ("model", "partition", "simplices", "index", "chain")

    def __init__(self, model, partition):
        if not partition.covers(model.atoms):
            raise ValueError("partition does not cover the model's atoms")
        self.model = model
        self.partition = partition
        nerve_sets = {frozenset(partition.block_of[a] for a in s)
                      for s in model.simplices}
        by_dim = {}
        for s in nerve_sets:
            by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
        dim = max(by_dim)
        self.simplices = tuple(tuple(sorted(by_dim.get(d, ()))) for d in range(dim + 1))
        self.index = tuple({s: i for i, s in enumerate(level)} for level in self.simplices)
        diffs = {}
        for n, lower, level in zip(range(1, dim + 1), self.index, self.simplices[1:]):
            diffs[n] = _SparseMatrix(len(lower), len(level), {
                j: {lower[s[:i] + s[i + 1:]]: (-1) ** i for i in range(n + 1)}
                for j, s in enumerate(level)})
        self.chain = FreeComplex("chain", 0, dim,
                                 [len(level) for level in self.simplices], diffs)

    @property
    def dimension(self):
        return len(self.simplices) - 1

    def count(self, n):
        if 0 <= n <= self.dimension:
            return len(self.simplices[n])
        return 0

    def boundary_matrix(self, n):
        """A dense view built afresh, so a nerve kept on its model holds none."""
        return self.chain._sparse(n).dense()

    def cochain_complex(self):
        """Integral simplicial cochains: transposed sparse boundaries."""
        return FreeComplex("cochain", 0, self.dimension, self.chain.ranks,
                           {n - 1: d.transpose() for n, d in self.chain.diffs.items()})

    def __eq__(self, other):
        return (isinstance(other, NerveComplex) and self.model == other.model
                and self.partition == other.partition)

    def __repr__(self):
        return "NerveComplex(%d blocks, counts=%r)" % (
            len(self.partition), [self.count(n) for n in range(self.dimension + 1)])


def _nerve(model, partition):
    """The nerve of (model, partition), kept on the model: it has no G in it."""
    nerve = model._nerves.get(partition)
    if nerve is None:
        nerve = model._nerves[partition] = NerveComplex(model, partition)
    return nerve


class KolmogoroffChain:
    """A degree-n set function on a partitioned model with values in G.

    Values are stored sparsely on strictly increasing block tuples lying on
    the nerve; every other evaluation is derived (sign under permutation,
    zero on repeats and off the nerve, summation over block decompositions
    for non-block sets), so the three chain axioms hold by construction.
    The constructor checks and reduces every key and value; chains the
    package builds itself (generator chains, boundaries) are wrapped by
    ``_trusted`` instead.
    """

    __slots__ = ("nerve", "degree", "coefficients", "values")

    def __init__(self, nerve, degree, coefficients, values):
        self.nerve = nerve
        self.degree = degree
        self.coefficients = coefficients
        cleaned = {}
        for tup, vec in values.items():
            tup = tuple(_atom(b, "blocks") for b in tup)
            if (len(tup) != degree + 1 or len(set(tup)) != len(tup)
                    or tuple(sorted(tup)) != tup):
                raise ValueError("keys must be strictly increasing %d-tuples"
                                 % (degree + 1,))
            vec = coefficients.reduce(tuple(_atom(v, "chain values") for v in vec))
            if not any(vec):
                continue
            if not (0 <= degree <= nerve.dimension and tup in nerve.index[degree]):
                raise ValueError("tuple %r is not on the nerve; a chain must "
                                 "vanish there" % (tup,))
            cleaned[tup] = vec
        self.values = cleaned

    @classmethod
    def _trusted(cls, nerve, degree, coefficients, values):
        """Wrap a value dict built here, unchecked: its keys are strictly
        increasing degree-n simplices of the nerve and its values reduced,
        nonzero coefficient vectors."""
        chain = object.__new__(cls)
        chain.nerve, chain.degree, chain.coefficients = nerve, degree, coefficients
        chain.values = values
        return chain

    def evaluate_blocks(self, blocks):
        """Value on an arbitrary tuple of block indices: the stored reduced
        vector of the sorted tuple, negated and reduced again when sorting
        is an odd permutation."""
        s, sign = _sort_with_sign(tuple(blocks))
        vec = self.values.get(s)
        if vec is None:
            return (0,) * self.coefficients.n_gens
        if sign > 0:
            return vec
        return tuple(-x % d if d else -x for x, d in zip(vec, self.coefficients.orders))

    def _block_union(self, atom_set):
        atoms = set(_atom(a) for a in atom_set)
        blocks = sorted({self.nerve.partition.block_of[a] for a in atoms
                         if a in self.nerve.partition.block_of})
        covered = set()
        for b in blocks:
            covered.update(self.nerve.partition.blocks[b])
        if covered != atoms:
            raise BlockMismatch("%s is not a union of partition blocks" % sorted(atoms))
        return blocks

    def evaluate_sets(self, sets):
        """Value on a tuple of atom sets, each a union of partition blocks,
        by additivity: sum over all tuples of constituent blocks."""
        decomposed = [self._block_union(s) for s in sets]
        g = self.coefficients.n_gens
        total = (0,) * g
        for combo in itertools.product(*decomposed):
            v = self.evaluate_blocks(combo)
            total = tuple(a + b for a, b in zip(total, v))
        return self.coefficients.reduce(total)

    def boundary(self):
        """The boundary chain: evaluate against the whole space in front,
        Delta f(E_0,...,E_{n-1}) = f(U, E_0,...,E_{n-1}), decomposing U
        into partition blocks.

        Any admissible U gives the same result: it contains the star of each
        face, and a block outside that star contributes 0 by the
        disjointness axiom. As f(b, tau)
        vanishes unless (b,) + tau sorts to a key of ``values``, only those
        keys' faces tau and the block b each one omits are summed. A degree-0
        chain has the zero degree -1 chain as its boundary (homology in degree
        0 is unreduced), which has none.
        """
        n = self.degree
        if n < 0:
            raise ValueError("no boundary below degree 0")
        if n == 0:
            return KolmogoroffChain._trusted(self.nerve, -1, self.coefficients, {})
        sums = {}
        for s in self.values:
            for i, b in enumerate(s):
                tau = s[:i] + s[i + 1:]
                v = self.evaluate_blocks((b,) + tau)
                total = sums.get(tau)
                sums[tau] = v if total is None else tuple(x + y for x, y in zip(total, v))
        orders = self.coefficients.orders
        out = {}
        for tau in sorted(sums):
            total = tuple(x % d if d else x for x, d in zip(sums[tau], orders))
            if any(total):
                out[tau] = total
        return KolmogoroffChain._trusted(self.nerve, n - 1, self.coefficients, out)

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        return (isinstance(other, KolmogoroffChain) and self.degree == other.degree
                and self.nerve == other.nerve and self.values == other.values
                and self.coefficients == other.coefficients)

    def __repr__(self):
        return "KolmogoroffChain(degree=%d, values=%r)" % (self.degree, self.values)


def random_chain(rng, nerve, degree, coefficients, bound=9):
    """Uniform random values on every nerve simplex of the degree."""
    values = {s: tuple(rng.randrange(-bound, bound + 1) for _ in range(coefficients.n_gens))
              for s in nerve.simplices[degree]}
    return KolmogoroffChain(nerve, degree, coefficients, values)


# -- homology -----------------------------------------------------------------


def _generator_boundary_matrix(nerve, n, coefficients):
    """Sparse columns: Delta evaluated on each one-generator chain of
    degree n, expressed in the degree n-1 coordinate layout. The chain f
    with value e_j on s is evaluated face by face: Delta f is f(b, tau) on
    the face tau of s omitting b and 0 off the faces. The faces are
    distinct, so each entry is one reduced evaluation with nothing to sum;
    the pairs (b, tau) and tau's row are taken once per simplex, rows ascending."""
    g = coefficients.n_gens
    lower = nerve.index[n - 1] if 0 <= n - 1 <= nerve.dimension else {}
    units = [tuple(int(i == j) for i in range(g)) for j in range(g)]
    columns = {}
    for k, s in enumerate(nerve.simplices[n] if 1 <= n <= nerve.dimension else ()):
        faces = [(s[i:i + 1] + s[:i] + s[i + 1:], lower[s[:i] + s[i + 1:]] * g)
                 for i in reversed(range(len(s)))]
        for j, unit in enumerate(units):
            chain = KolmogoroffChain._trusted(nerve, n, coefficients, {s: unit})
            col = {row + i: x for blocks, row in faces
                   for i, x in enumerate(chain.evaluate_blocks(blocks)) if x}
            if col:
                columns[k * g + j] = col
    return _SparseMatrix(len(lower) * g, nerve.count(n) * g, columns)


def _check_boundary_identity(nerve, n, coefficients, found):
    """Raise PipelineMismatch unless ``found``, the degree-n generator
    boundary matrix, equals ``nerve.chain.diffs[n].blockwise(g)`` column for
    column, each entry of the latter reduced modulo the order of its
    G-coordinate (orders are at least 2, so no entry +-1 reduces to zero).
    A missing or an extra column is a difference; entries of ``found`` are
    compared as they are, unreduced."""
    g, orders = coefficients.n_gens, coefficients.orders
    expected = nerve.chain.diffs[n].blockwise(g).columns
    if any(orders):
        expected = {j: {i: x % orders[i % g] if orders[i % g] else x for i, x in col.items()}
                    for j, col in expected.items()}
    if found.columns == expected:
        return
    j = min(j for j in expected.keys() | found.columns.keys()
            if expected.get(j) != found.columns.get(j))
    k = j // g
    simplex = nerve.simplices[n][k] if 0 <= k < nerve.count(n) else None
    raise PipelineMismatch(n, simplex, j % g, expected.get(j, {}), found.columns.get(j, {}))


def kolmogoroff_homology(model, partition, coefficients):
    """Graded homology of the set-function chain complex.

    Computed from boundary matrices assembled by evaluating Delta on
    generator chains, each first checked entry for entry against the
    nerve's simplicial boundary (x) G (``_check_boundary_identity``), then
    unit-reduced and read off in one ``homology_groups`` run.
    """
    nerve = _nerve(model, partition)
    dim = nerve.dimension
    mats = {}
    for n in range(1, dim + 1):
        mats[n] = _generator_boundary_matrix(nerve, n, coefficients)
        _check_boundary_identity(nerve, n, coefficients, mats[n])
    return homology_groups(mats, {n: coefficients.orders * nerve.count(n)
                                  for n in range(dim + 1)})


# -- refinements -------------------------------------------------------------


class RefinementMap:
    """The simplicial map between nerves induced by a partition refinement:
    each fine block goes to the coarse block containing it. Chain matrices
    push simplices forward with orientation signs (degenerate images drop
    to zero); cochain matrices are their transposes. The matrices commute
    with the boundary operators, which is checked at construction by
    ``matrices._product_equals``."""

    __slots__ = ("fine", "coarse", "vertex_map", "_chain")

    def __init__(self, fine, coarse):
        if fine.model != coarse.model:
            raise NotARefinement("nerves live on different models")
        if not fine.partition.refines(coarse.partition):
            raise NotARefinement("partition %r does not refine %r"
                                 % (fine.partition.blocks, coarse.partition.blocks))
        self.fine = fine
        self.coarse = coarse
        self.vertex_map = tuple(coarse.partition.block_of[block[0]]
                                for block in fine.partition.blocks)
        self._chain = {n: self._build_chain_matrix(n) for n in range(fine.dimension + 1)}
        for n in range(1, fine.dimension + 1):
            right = self.chain_matrix(n - 1) * self.fine.boundary_matrix(n)
            if not _product_equals(self.coarse.boundary_matrix(n), self._chain[n], right):
                raise AssertionError("refinement chain map fails to commute with "
                                     "the boundary at degree %d" % n)

    def _build_chain_matrix(self, n):
        columns = {}
        for j, s in enumerate(self.fine.simplices[n]):
            image, sign = _sort_with_sign(tuple(self.vertex_map[b] for b in s))
            if image is not None:
                columns[j] = {self.coarse.index[n][image]: sign}
        return _SparseMatrix(self.coarse.count(n), self.fine.count(n), columns).dense()

    def chain_matrix(self, n):
        if n in self._chain:
            return self._chain[n]
        return IntMatrix.zeros(self.coarse.count(n), self.fine.count(n))

    def cochain_matrix(self, n):
        """Pullback on integral cochains, from the coarse nerve to the fine."""
        return self.chain_matrix(n).transpose()


# -- free colimit certificates -----------------------------------------------


@dataclass(frozen=True)
class FreeBasisCertificate:
    """Outcome of the disjoint-support freeness check on a telescope of
    free groups: the colimit is free, and when it is finitely generated an
    explicit basis (columns, in the coordinates of the named stage) is
    produced."""

    group: PresentedGroup | None
    basis: IntMatrix | None
    stage: str
    notes: str

    def to_json(self):
        return {"group": None if self.group is None else self.group.to_json(),
                "basis": None if self.basis is None else self.basis.to_json(),
                "stage": self.stage, "notes": self.notes}


def _check_disjoint_support(mat, map_index):
    used = {}
    for j, col in sorted(_SparseMatrix.of(mat).columns.items()):
        for i, e in col.items():
            if abs(e) != 1:
                raise ConditionViolated(
                    map_index, "entry %d at row %d, column %d is not a signed basis "
                               "element" % (e, i, j))
            if i in used:
                raise ConditionViolated(
                    map_index, "basis row %d is shared by columns %d and %d"
                               % (i, used[i], j))
            used[i] = j


def free_colimit_basis(telescope):
    """Certify that a telescope of free groups has a free colimit.

    Every map must send each basis element to a signed sum of distinct
    basis elements, with supports disjoint across the source basis; maps
    violating this are rejected with a witness. For a finite telescope the
    colimit is the last stage with its own basis; with a periodic tail the
    kernel chain is stabilized first and the basis lives on the stable
    quotient (still free, because the stable kernel of an integer matrix
    acting on a free group is a saturated sublattice).
    """
    for k, g in enumerate(telescope.stages):
        if g.torsion:
            raise ValueError("stage %d is not free: %s" % (k, g))
    for k, f in enumerate(telescope.maps):
        _check_disjoint_support(f.matrix, k)
    if telescope.tail is not None:
        _check_disjoint_support(telescope.tail.matrix, "tail")
    outcome = colim(telescope)
    if outcome.kind == "exact":
        group = outcome.group
        if group.torsion:
            raise AssertionError("colimit of free stages with saturated kernels "
                                 "acquired torsion: %s" % group)
        basis = IntMatrix.identity(group.free_rank)
        stage = "last prefix stage" if telescope.tail is None else \
            "stable quotient of the tail stage"
        return FreeBasisCertificate(group, basis, stage,
                                    "free of rank %d" % group.free_rank)
    return FreeBasisCertificate(
        None, None, "none",
        "colimit is a strictly increasing union of free groups along "
        "disjoint-support maps, hence free but not finitely generated (%s)"
        % outcome.description)


# -- set-function universal coefficients -------------------------------------


def kolmogoroff_uct_check(model, partitions, coefficients):
    """Universal-coefficient certificates for set-function homology.

    ``partitions`` is a refinement chain, coarsest first. Per degree, the
    integral cochain groups of the nerves form a telescope along refinement
    pullbacks. Each pullback must pass the disjoint-support check of
    ``free_colimit_basis``, so the colimit is free on the basis of the finest
    stage; the cochain complex on that basis is then run through
    the split short exact sequence
    0 -> Ext(H^{n+1}, G) -> H_n -> Hom(H^n, G) -> 0, and each middle term
    is required to match kolmogoroff_homology of the finest partition.
    """
    nerves = [_nerve(model, p) for p in partitions]
    for k in range(len(nerves) - 1):
        if not nerves[k + 1].partition.refines(nerves[k].partition):
            raise NotARefinement("partition %d does not refine partition %d"
                                 % (k + 1, k))
    maps = [RefinementMap(nerves[k + 1], nerves[k]) for k in range(len(nerves) - 1)]
    finest = nerves[-1]
    for n in range(max(nv.dimension for nv in nerves) + 1):
        for k, f in enumerate(maps):
            _check_disjoint_support(f.cochain_matrix(n), k)
    cofree = finest.cochain_complex()
    certs = uct_certificates(cofree, coefficients)
    khom = kolmogoroff_homology(model, finest.partition, coefficients)
    for n, cert in certs.items():
        expected = khom.get(n, PresentedGroup(0, ()))
        if cert.middle != expected:
            raise CertificateFailure(
                "degree %d: universal-coefficient middle term %s does not match "
                "set-function homology %s" % (n, cert.middle, expected))
    return certs


# -- presets ------------------------------------------------------------------


def arc_circle(n):
    """n arcs covering a circle, consecutive closures meeting: a cycle."""
    if n < 3:
        raise ValueError("a circle model needs at least 3 arcs")
    return FiniteModel(n, [(i, (i + 1) % n) for i in range(n)])


def octahedron():
    """Boundary of the octahedron: 6 vertices in opposite pairs, 8 faces."""
    faces = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return FiniteModel(6, faces)


def projective_plane():
    """Minimal 6-vertex triangulation of the projective plane (10 faces)."""
    faces = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
             (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]
    return FiniteModel(6, faces)


def model_preset(name):
    """Resolve preset names: arc-circle:n, octahedron, rp2-6vertex."""
    if name.startswith("arc-circle:"):
        return arc_circle(int(name.split(":", 1)[1]))
    if name == "octahedron":
        return octahedron()
    if name == "rp2-6vertex":
        return projective_plane()
    raise ValueError("unknown model preset %r" % name)
