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

A model keeps what its faces determine in one dict of tables, each built on
first use: per degree, the simplex names, against which every cochain that
coboundary or cup_i reads is checked, and the signed, normalized incidence,
which chains, coboundaries and the F_2 elimination (kept per degree too)
read; per coefficients, the homology of the chains; per (n, i, |x|, |y|),
the nondegenerate (even, odd) face pair of each cut.  A cochain whose
support names anything but a simplex of its degree is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core_algebra import ChainComplex, GradedAbelianGroup, echelon_mod_p, homology

NormalSimplex = tuple  # (degeneracy word, strictly decreasing, base name)


@dataclass(frozen=True)
class SimplicialSet:
    simplices: tuple  # sorted ((dim, (name, ...)), ...), nondegenerate only
    faces: tuple  # sorted ((name, ((target, word), ...)), ...) for dim >= 1

    def __post_init__(self):
        object.__setattr__(self, "_dim_of", {})
        object.__setattr__(self, "_faces_of", dict(self.faces))
        # ("names" | "incidence" | "echelon", d), ("homology", coefficients)
        # or ("cuts", n, i, |x|, |y|) -> table
        object.__setattr__(self, "_tables", {})
        for dim, names in self.simplices:
            for name in names:
                if name in self._dim_of:
                    raise ValueError(f"simplex {name} is listed twice")
                self._dim_of[name] = dim
        self._validate()

    @staticmethod
    def create(simplices: dict, faces: dict) -> "SimplicialSet":
        simp = tuple(sorted((int(d), tuple(names)) for d, names in simplices.items()))
        fc = tuple(sorted((name, tuple((t, tuple(w)) for t, w in lst))
                          for name, lst in faces.items()))
        return SimplicialSet(simp, fc)

    def _validate(self):
        for name in self._faces_of:
            if name not in self._dim_of:
                raise ValueError(f"faces given for {name}, which is not a simplex")
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

    def incidence(self, d: int) -> dict:
        """d-simplex -> {(d+1)-simplex tau: sum of (-1)^i over the faces d_i tau
        it is}; degenerate faces count 0 (normalized), zero entries are
        dropped.  The model keeps the dicts: read them, do not modify them."""
        table = self._tables.get(("incidence", d))
        if table is None:
            table = self._tables[("incidence", d)] = {name: {} for name in self.names(d)}
            for tau in self.names(d + 1):
                for i, (target, word) in enumerate(self._faces_of.get(tau, ())):
                    if not word:
                        row = table[target]
                        row[tau] = row.get(tau, 0) + (-1) ** i
                        if not row[tau]:
                            del row[tau]
        return table

    def chain_complex(self) -> ChainComplex:
        """Normalized chains over Z: d_d is the incidence of degree d - 1, one
        row {column: entry} per (d-1)-simplex."""
        ranks = {d: len(names) for d, names in self.simplices}
        column = {tau: j for _, names in self.simplices for j, tau in enumerate(names)}
        diffs = {d: [{column[tau]: e for tau, e in row.items()}
                     for row in self.incidence(d - 1).values()]
                 for d, _ in self.simplices if d - 1 in ranks}
        return ChainComplex.create(ranks, diffs)

    def homology(self, coefficients="Z") -> GradedAbelianGroup:
        """Homology of the normalized chains, computed once per coefficients."""
        key = ("homology", coefficients)
        if key not in self._tables:
            self._tables[key] = homology(self.chain_complex(), coefficients)
        return self._tables[key]


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


def _check_support(sset: SimplicialSet, x: Cochain) -> None:
    """Raise ValueError unless every name in x's support is a simplex of x's
    degree: one subset test against the degree's names, kept by the model."""
    names = sset._tables.get(("names", x.degree))
    if names is None:
        names = sset._tables[("names", x.degree)] = frozenset(sset.names(x.degree))
    if not x.support <= names:
        stray = min(x.support - names, key=str)
        raise ValueError(f"cochain support {stray!r} is not a {x.degree}-simplex")


def coboundary(sset: SimplicialSet, x: Cochain) -> Cochain:
    """The XOR of the odd entries of the incidence rows in x's support."""
    _check_support(sset, x)
    rows = sset.incidence(x.degree)
    odd = set()
    for name in x.support:
        for tau, c in rows[name].items():
            if c % 2:
                if tau in odd:
                    odd.remove(tau)
                else:
                    odd.add(tau)
    return Cochain(x.degree + 1, frozenset(odd))


def cup_i(sset: SimplicialSet, x: Cochain, y: Cochain, i: int) -> Cochain:
    """The degree |x|+|y|-i cochain of the interval-overlap formula."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i > min(x.degree, y.degree):
        raise ValueError("i exceeds a cochain degree")
    _check_support(sset, x)
    _check_support(sset, y)
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
    key = ("cuts", n, i, p, q)
    if key in sset._tables:
        return sset._tables[key]
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
    table = sset._tables[key] = tuple(table)
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


def _echelon(sset: SimplicialSet, degree: int) -> tuple:
    """echelon_mod_p of the incidence rows mod 2, each tagged with its simplex."""
    key = ("echelon", degree)
    if key not in sset._tables:
        column = {tau: k for k, tau in enumerate(sset.names(degree + 1))}
        rows = [({column[tau]: 1 for tau, c in row.items() if c % 2}, {name: 1})
                for name, row in sset.incidence(degree).items()]
        sset._tables[key] = echelon_mod_p(rows, 2)
    return sset._tables[key]


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
    pivots, _ = _echelon(sset, x.degree - 1)
    # a pivot row holds only indices after its lead, so one pass in ascending
    # lead order leaves the unique representative that meets no lead
    names = sset.names(x.degree)
    row = {k for k, nm in enumerate(names) if nm in x.support}
    for lead in sorted(pivots):
        if lead in row:
            row.symmetric_difference_update(pivots[lead][0])
    return CohomologyClass(x.degree, tuple(names[k] for k in sorted(row)))


def h_dim(sset: SimplicialSet, degree: int) -> int:
    """dim H_d(X; F_2) of the chain complex: a route apart from the cochain
    eliminations that cohomology_class reads, which triviality_witness crosses."""
    return sset.homology("F2").component(degree)[0]


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
