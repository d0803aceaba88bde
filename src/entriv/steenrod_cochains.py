"""Finite simplicial sets, normalized mod-2 cochains and cup-i products.

Simplices are kept in Eilenberg-Zilber normal form: every simplex is a
strictly decreasing degeneracy word applied to a nondegenerate one, and the
face/degeneracy operators are computed through the simplicial identities.
Cochains are functions on nondegenerate simplices (normalized cochains) with
F_2 coefficients, stored as support sets.

The cup-i product is the interval formula: evaluate on an n-simplex by
summing, over cut sequences 0 <= a_0 < ... < a_i <= n, the product of the
first cochain on the union of the even intervals and the second on the odd
intervals (consecutive intervals share their endpoint).  This is one of
several conventions that agree on cohomology but not on cochains; tests pin
exact cochain-level outputs so a formula change cannot slip through.

The two faces a cut reads depend only on the model, so each SimplicialSet
builds, on first use per (n, i, |x|, |y|), a table of the nondegenerate
(even face, odd face) pairs of every n-simplex and keeps it for its
lifetime; a product then only tests supports.  A table holds at most one
pair per (simplex, cut), the cuts a single product runs through anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core_algebra import ChainComplex, GradedAbelianGroup, homology

NormalSimplex = tuple  # (degeneracy word, strictly decreasing, base name)


@dataclass(frozen=True)
class SimplicialSet:
    simplices: tuple  # sorted ((dim, (name, ...)), ...), nondegenerate only
    faces: tuple  # sorted ((name, ((target, word), ...)), ...) for dim >= 1

    def __post_init__(self):
        object.__setattr__(self, "_dim_of", {})
        object.__setattr__(self, "_faces_of", dict(self.faces))
        # (n, i, |x|, |y|) -> cut-face table of cup_i, built on first use
        object.__setattr__(self, "_cut_tables", {})
        for dim, names in self.simplices:
            for name in names:
                self._dim_of[name] = dim
        self._validate()

    @staticmethod
    def create(simplices: dict, faces: dict) -> "SimplicialSet":
        simp = tuple(sorted((int(d), tuple(names)) for d, names in simplices.items()))
        fc = tuple(sorted((name, tuple((t, tuple(w)) for t, w in lst))
                          for name, lst in faces.items()))
        return SimplicialSet(simp, fc)

    def _validate(self):
        for dim, names in self.simplices:
            for name in names:
                if dim == 0:
                    if name in self._faces_of:
                        raise ValueError("vertices have no faces")
                    continue
                lst = self._faces_of.get(name)
                if lst is None or len(lst) != dim + 1:
                    raise ValueError(f"simplex {name} needs {dim + 1} faces")
                for target, word in lst:
                    if target not in self._dim_of:
                        raise ValueError(f"face target {target} does not exist")
                    if self._dim_of[target] + len(word) != dim - 1:
                        raise ValueError(f"face of {name} has wrong dimension")
                    if any(word[i] <= word[i + 1] for i in range(len(word) - 1)):
                        raise ValueError("degeneracy words must strictly decrease")
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j
        for dim, names in self.simplices:
            if dim < 2:
                continue
            for name in names:
                top = ((), name)
                for j in range(dim + 1):
                    for i in range(j):
                        if self.face(self.face(top, j), i) != self.face(self.face(top, i), j - 1):
                            raise ValueError(f"simplicial identity fails on {name} (i={i}, j={j})")

    def names(self, dim: int) -> tuple:
        for d, names in self.simplices:
            if d == dim:
                return names
        return ()

    def top_dimension(self) -> int:
        return max(d for d, _ in self.simplices)

    # -- normal-form operators ---------------------------------------------

    def face(self, ns: NormalSimplex, i: int) -> NormalSimplex:
        """d_i in normal form, using d_i s_j = s_{j-1} d_i (i < j), = id
        (i in {j, j+1}), = s_j d_{i-1} (i > j + 1)."""
        word, base = ns
        if not word:
            dim = self._dim_of[base]
            if not 0 <= i <= dim:
                raise ValueError("face index out of range")
            target, tail = self._faces_of[base][i]
            result = (tail, target)
            return result
        j = word[0]
        rest = (word[1:], base)
        if i < j:
            inner = self.face(rest, i)
            return self.degeneracy(inner, j - 1)
        if i in (j, j + 1):
            return rest
        inner = self.face(rest, i - 1)
        return self.degeneracy(inner, j)

    def degeneracy(self, ns: NormalSimplex, i: int) -> NormalSimplex:
        """s_i in normal form, using s_i s_j = s_{j+1} s_i for i <= j."""
        word, base = ns
        out = list(word)
        k = 0
        while k < len(out) and i <= out[k]:
            out[k] += 1
            k += 1
        out.insert(k, i)
        return (tuple(out), base)

    def vertex_subface(self, name: str, subset: tuple) -> NormalSimplex:
        """The face of a nondegenerate simplex spanned by a vertex subset,
        obtained by removing the complementary indices from the top."""
        dim = self._dim_of[name]
        ns: NormalSimplex = ((), name)
        for i in range(dim, -1, -1):
            if i not in subset:
                ns = self.face(ns, i)
        return ns

    # -- chains -------------------------------------------------------------

    def chain_complex(self) -> ChainComplex:
        """Normalized cellular chains over Z (degenerate faces dropped)."""
        ranks = {}
        index = {}
        for d, names in self.simplices:
            ranks[d] = len(names)
            for i, name in enumerate(names):
                index[name] = i
        diffs = {}
        for d, names in self.simplices:
            if d == 0 or d - 1 not in ranks:
                continue
            mat = [[0] * len(names) for _ in range(ranks[d - 1])]
            for col, name in enumerate(names):
                for i in range(d + 1):
                    word, target = self.face(((), name), i)
                    if not word:  # degenerate faces vanish in normalized chains
                        mat[index[target]][col] += (-1) ** i
            diffs[d] = mat
        return ChainComplex.create(ranks, diffs)

    def homology(self, coefficients="Z") -> GradedAbelianGroup:
        return homology(self.chain_complex(), coefficients)


def sphere_model(n: int) -> SimplicialSet:
    """One vertex and one nondegenerate n-simplex, every face collapsed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    word = tuple(range(n - 2, -1, -1))  # s_{n-2} ... s_0 applied to the vertex
    return SimplicialSet.create(
        {0: ["v"], n: ["t"]},
        {"t": [("v", word) for _ in range(n + 1)]})


def rp2_model() -> SimplicialSet:
    """The 6-vertex triangulation of the real projective plane, ordered."""
    triangles = ["125", "126", "134", "136", "145", "235", "234", "246", "356", "456"]
    edges = sorted({"".join(sorted((t[i], t[j]))) for t in triangles
                    for i, j in combinations(range(3), 2)})
    faces = {}
    for e in edges:
        faces[e] = [(e[1], ()), (e[0], ())]  # d_0 drops the first vertex
    for t in triangles:
        v0, v1, v2 = t
        faces[t] = [(v1 + v2, ()), (v0 + v2, ()), (v0 + v1, ())]
    return SimplicialSet.create(
        {0: [str(i) for i in range(1, 7)], 1: edges, 2: sorted(triangles)}, faces)


# ---------------------------------------------------------------------------
# cochains


@dataclass(frozen=True)
class Cochain:
    degree: int
    support: frozenset  # names of nondegenerate simplices of that degree

    @staticmethod
    def create(degree: int, names) -> "Cochain":
        return Cochain(degree, frozenset(names))

    def __call__(self, name: str) -> int:
        return 1 if name in self.support else 0

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Cochain(self.degree, self.support ^ other.support)

    def is_zero(self) -> bool:
        return not self.support


def zero_cochain(degree: int) -> Cochain:
    return Cochain(degree, frozenset())


def coboundary(sset: SimplicialSet, x: Cochain) -> Cochain:
    support = set()
    for name in sset.names(x.degree + 1):
        total = 0
        for target, word in sset._faces_of[name]:  # d_0 ... d_(|x|+1) of name
            if not word and target in x.support:
                total ^= 1
        if total:
            support.add(name)
    return Cochain(x.degree + 1, frozenset(support))


def cup_i(sset: SimplicialSet, x: Cochain, y: Cochain, i: int) -> Cochain:
    """The degree |x|+|y|-i cochain of the interval-overlap formula."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i > min(x.degree, y.degree):
        raise ValueError("i exceeds a cochain degree")
    n = x.degree + y.degree - i
    xs, ys = x.support, y.support
    support = set()
    for name, pairs in _cut_faces(sset, n, i, x.degree, y.degree):
        total = 0
        for even, odd in pairs:  # the second cochain is read only where the first is 1
            if even in xs and odd in ys:
                total ^= 1
        if total:
            support.add(name)
    return Cochain(n, frozenset(support))


def _cut_faces(sset: SimplicialSet, n: int, i: int, p: int, q: int) -> tuple:
    """(name, ((even base, odd base), ...)) for each n-simplex with a cut
    whose even and odd faces are both nondegenerate, one pair per such cut.
    A normalized cochain vanishes on a degenerate face, so no other cut can
    count.  Built once per model and key; a degree with no simplices
    enumerates no cuts."""
    key = (n, i, p, q)
    table = sset._cut_tables.get(key)
    if table is not None:
        return table
    names = sset.names(n)
    blocks = _cut_blocks(n, i, p, q) if names else ()
    subsets = {subset for block in blocks for subset in block}
    table = []
    for name in names:
        bases = {}  # vertex subset -> base name, or None when degenerate
        for subset in subsets:
            word, target = sset.vertex_subface(name, subset)
            bases[subset] = None if word else target
        pairs = tuple((bases[evens], bases[odds]) for evens, odds in blocks
                      if bases[evens] is not None and bases[odds] is not None)
        if pairs:
            table.append((name, pairs))
    table = sset._cut_tables[key] = tuple(table)
    return table


def _cut_blocks(n: int, i: int, p: int, q: int) -> tuple:
    """(even vertices, odd vertices) of every cut sequence 0 <= a_0 < ... <
    a_i <= n whose even intervals span p + 1 vertices and odd ones q + 1."""
    blocks = []
    for cuts in combinations(range(n + 1), i + 1):
        evens, odds = set(), set()
        prev = 0
        for idx, a in enumerate(cuts):
            block = range(prev, a + 1)
            (evens if idx % 2 == 0 else odds).update(block)
            prev = a
        (evens if (i + 1) % 2 == 0 else odds).update(range(prev, n + 1))
        if len(evens) == p + 1 and len(odds) == q + 1:
            blocks.append((tuple(sorted(evens)), tuple(sorted(odds))))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# mod-2 cohomology and Steenrod squares


def _gf2_echelon(rows, order: dict) -> tuple:
    """Forward elimination over F_2 of (support set, tag set) pairs.

    Each row in turn is cleared at its least element (by `order`) with the
    pivot row kept there, until it is empty or its least element is new; the
    tag set takes the same additions, so it names the input rows the result
    sums.  Returns (pivots, kernel): least element -> (row, tag) for the rows
    kept, and the tags of the rows that reduced to zero, in input order.
    """
    pivots: dict = {}
    kernel = []
    for vec, tag in rows:
        row, tag = set(vec), set(tag)
        while row:
            lead = min(row, key=order.__getitem__)
            if lead not in pivots:
                pivots[lead] = (row, tag)
                break
            pivot_row, pivot_tag = pivots[lead]
            row ^= pivot_row
            tag ^= pivot_tag
        else:
            kernel.append(tag)
    return pivots, kernel


@dataclass(frozen=True)
class CohomologyClass:
    degree: int
    representative: tuple  # canonical support after reduction mod coboundaries

    def is_zero(self) -> bool:
        return not self.representative


def cohomology_class(sset: SimplicialSet, x: Cochain) -> CohomologyClass:
    """Reduce a cocycle modulo coboundaries to a canonical representative."""
    if not coboundary(sset, x).is_zero():
        raise ValueError("not a cocycle")
    order = {name: k for k, name in enumerate(sset.names(x.degree))}
    pivots, _ = _gf2_echelon(
        ((coboundary(sset, Cochain.create(x.degree - 1, [nm])).support, ())
         for nm in sset.names(x.degree - 1)), order)
    # a pivot row holds only elements after its lead, so one pass in ascending
    # lead order leaves the unique representative that meets no lead
    row = set(x.support)
    for lead in sorted(pivots, key=order.__getitem__):
        if lead in row:
            row ^= pivots[lead][0]
    return CohomologyClass(x.degree, tuple(sorted(row, key=order.__getitem__)))


def h_dim(sset: SimplicialSet, degree: int) -> int:
    comp = sset.homology("F2").component(degree)
    return comp[0]


def cocycle_basis(sset: SimplicialSet, degree: int) -> list:
    """A basis of ker(delta) in degree d, as Cochains (kernel of the
    coboundary matrix over F_2)."""
    above = {nm: k for k, nm in enumerate(sset.names(degree + 1))}
    _, kernel = _gf2_echelon(
        ((coboundary(sset, Cochain.create(degree, [nm])).support, (nm,))
         for nm in sset.names(degree)), above)
    return [Cochain.create(degree, combo) for combo in kernel]


def nontrivial_class_representative(sset: SimplicialSet, degree: int) -> Cochain | None:
    """Some cocycle with nonzero class, if the group is nonzero."""
    for x in cocycle_basis(sset, degree):
        if not cohomology_class(sset, x).is_zero():
            return x
    return None


def sq(sset: SimplicialSet, k: int, x: Cochain) -> CohomologyClass:
    """Class of x cup_(|x|-k) x; Sq^0 is the identity, Sq^k = 0 above the degree."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not coboundary(sset, x).is_zero():
        raise ValueError("Steenrod squares act on cocycles")
    if k > x.degree:
        return CohomologyClass(x.degree + k, ())
    z = cup_i(sset, x, x, x.degree - k)
    return cohomology_class(sset, z)


@dataclass(frozen=True)
class TrivialityWitness:
    n: int
    cochain_side_is_identity: bool
    square_zero_side_value: int
    not_trivial: bool

    def to_json(self):
        return {"n": self.n,
                "sq0_on_cochains_is_identity": self.cochain_side_is_identity,
                "sq0_on_square_zero_algebra": self.square_zero_side_value,
                "cochains_not_trivial_as_one_level_higher_algebra": self.not_trivial}


def triviality_witness(n: int) -> TrivialityWitness:
    """Sq^0 acts as the identity on the top class of the n-sphere model, while
    on a square-zero algebra with the same homotopy the operation is forced to
    vanish; the two values differ, so the cochain algebra is not equivalent to
    the square-zero one at the next structure level."""
    from .hochschild import GradedUnitalAlgebra

    model = sphere_model(n)
    gen = Cochain.create(n, ["t"])
    sq0 = sq(model, 0, gen)
    identity_holds = (h_dim(model, n) == 1
                      and sq0 == cohomology_class(model, gen)
                      and not sq0.is_zero())

    algebra = GradedUnitalAlgebra.square_zero("F2", n)
    x_idx = algebra.basis.index("x")
    square = algebra.mult_entry(x_idx, x_idx)  # empty: the ideal squares to zero
    square_zero_value = 0 if not square else 1

    return TrivialityWitness(n, identity_holds, square_zero_value,
                             identity_holds and square_zero_value == 0)
