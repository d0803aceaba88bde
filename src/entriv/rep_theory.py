"""Finite-dimensional representations of symmetric groups on labelled bases.

Signed-permutation actions, characters and restriction to wreath subgroups.
Representations over Q are compared through characters: Q[Sigma_n] is
semisimple, so character equality is isomorphism and no intertwiner search
is needed.

A signed permutation of the basis e_0, ..., e_{dim-1} is read as a
permutation of 2*dim points: +e_j is point 2j and -e_j is point 2j+1, so
g(e_j) = s e_k sends 2j to 2k (s = 1) or 2k+1 (s = -1), and 2j+1 to the other
point of that pair, x ^ 1.  The module stores, per generator, the images of
the plus points 2j (its `plus` tables) and the doubled table of all 2*dim
points.  This map from signed permutations to permutations of 2*dim points is
an injective homomorphism, so relations hold in one form exactly when they
hold in the other, and composing needs no sign arithmetic: the plus points of
g then h are h's doubled table gathered at g's plus points, one C-level call
(`perms.gather`).  Every doubled table, and so every composite of them,
commutes with x -> x ^ 1, so two composites agree on all 2*dim points
exactly when they agree on the dim plus points: relations are checked and
actions are folded on plus points only.  The (image index, sign) pairs of
`gens_perm` are a view read off the plus tables on first use.

Modules read from pairs (`SignedPermModule(n, dim, gens_perm=...)`, and so
every file) are checked in full: bijection, signs, and the involution,
commutation and braid relations.  `_from_plus` takes plus tables built by
this package and checks the relations only: its doubled form commutes with
x -> x ^ 1 by construction, and an involution of the 2*dim points is a
bijection, so the bijection and sign checks could add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from math import factorial
from operator import eq

from . import perms

MAX_RANK = 10  # group elements are permutation words; desk scale


def _doubled(plus) -> list:
    """The permutation of 2*dim points whose even points go to `plus`."""
    out = list(plus) * 2
    out[0::2] = plus
    out[1::2] = [x ^ 1 for x in plus]  # -e_j goes to the other point
    return out


@dataclass(frozen=True, init=False)
class SignedPermModule:
    """A Sigma_n-module given by the action of the adjacent transpositions.

    `plus[i][j]` is the point that generator i sends +e_j to, 2k for +e_k and
    2k+1 for -e_k; `gens_perm` reads the same tables as (image index, sign)
    pairs.  The relations are checked on construction, on the plus points of
    the doubled form of the module docstring, which is kept per generator.
    """

    n: int
    dim: int
    plus: tuple
    _doubled: tuple = field(repr=False, compare=False)  # all 2*dim points, per generator

    def __init__(self, n: int, dim: int, gens_perm: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", dim)
        self.__post_init__(gens_perm=gens_perm)

    @classmethod
    def _from_plus(cls, n: int, dim: int, plus: tuple, check: bool = True):
        """A module from plus tables built by this package (a tuple of tuples
        of points); `check=False` is for tables whose relations are already
        proven, as in `twist_by_sign`."""
        m = cls.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "dim", dim)
        m.__post_init__(plus=plus, check=check)
        return m

    def __post_init__(self, gens_perm=None, plus=None, check=True):
        if self.n < 1:
            raise ValueError("symmetric group rank must be >= 1")
        if self.n > MAX_RANK:
            raise ValueError(f"rank capped at {MAX_RANK}")
        tables = gens_perm if plus is None else plus
        if len(tables) != self.n - 1:
            raise ValueError("one signed permutation per adjacent transposition")
        if plus is None:  # pairs from a caller or a file: every check
            plus, doubled = [], []
            for g in gens_perm:  # at n = 1 there is none, and no data bounds dim
                p = tuple([j + j + (s == -1) for j, s in g])
                d = _doubled(p)
                if sorted(d) != list(range(2 * self.dim)):
                    raise ValueError("signed permutation is not a bijection")
                if {s for _, s in g} - {1, -1}:
                    raise ValueError("signs must be +-1")
                plus.append(p)
                doubled.append(d)
            plus = tuple(plus)
        else:
            doubled = [_doubled(p) for p in plus]
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "_doubled", tuple(doubled))
        if plus and check:  # at n = 1 there is no relation, and dim may be huge
            self._check_relations()

    def _check_relations(self):
        """Involution, commutation and braid relations, each decided on the
        dim plus points: both sides of a relation commute with x -> x ^ 1,
        so they agree on all 2*dim points exactly when they agree there."""
        plus, doubled = self.plus, self._doubled
        takes = [perms.gather(p) for p in plus]  # x -> x o g at the plus points
        evens = tuple(range(0, 2 * self.dim, 2))
        for i, g in enumerate(doubled):
            if takes[i](g) != evens:
                raise ValueError(f"generator {i} is not an involution")
            for j in range(i + 2, len(doubled)):
                if takes[i](doubled[j]) != takes[j](g):
                    raise ValueError(f"generators {i},{j} do not commute")
            if i + 1 < len(doubled):
                h = doubled[i + 1]
                if perms.gather(takes[i](h))(g) != perms.gather(takes[i + 1](g))(h):
                    raise ValueError(f"braid relation fails at {i}")

    @cached_property
    def gens_perm(self) -> tuple:
        """Per generator, (image index, sign) of each basis vector."""
        return tuple(tuple([(x >> 1, -1 if x & 1 else 1) for x in p]) for p in self.plus)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial(n, dim=1):
        return SignedPermModule(n, dim,
                                gens_perm=tuple(tuple((j, 1) for j in range(dim))
                                                for _ in range(n - 1)))

    # -- action ------------------------------------------------------------

    def act_plus(self, perm: tuple) -> tuple:
        """act_signed(perm) as the point each +e_j goes to: the plus points
        carried through the generators of `perms.adjacent_word(perm)`, first
        letter first."""
        word = perms.adjacent_word(perm)
        if not word:
            return tuple(range(0, 2 * self.dim, 2))
        out, doubled = self.plus[word[0]], self._doubled
        for i in word[1:]:
            out = perms.gather(out)(doubled[i])
        return out

    def act_signed(self, perm: tuple):
        """Signed basis map of an arbitrary permutation: per basis vector,
        (image index, sign).

        The word w = `perms.adjacent_word(perm)` is applied with g[w[0]]
        first, so this is an anti-homomorphism for `perms.compose`:
        act_signed(compose(p, q)) is act_signed(p) followed by act_signed(q).
        """
        return tuple([(x >> 1, -1 if x & 1 else 1) for x in self.act_plus(perm)])

    def trace(self, perm: tuple):
        """Fixed basis vectors of perm count +1, negated ones -1."""
        plus = self.act_plus(perm)
        return (sum(map(eq, plus, range(0, 2 * self.dim, 2)))
                - sum(map(eq, plus, range(1, 2 * self.dim, 2))))

    def twist_by_sign(self, power: int = 1):
        """Tensor with the sign representation to the given power.

        Each doubled generator g becomes N g, where N is the negation
        x -> x ^ 1 of the 2*dim points, so the plus tables are XORed with 1.
        N is an involution commuting with every doubled generator, so
        (N g)^2 = g^2, (N g)(N h) = g h and (N g)(N h)(N g) = N g h g: each
        relation holds for the twisted generators exactly when it holds for
        these, which were checked when this module was built, and the
        relations are not checked again.
        """
        if power % 2 == 0:
            return self
        return SignedPermModule._from_plus(
            self.n, self.dim, tuple(tuple([x ^ 1 for x in p]) for p in self.plus),
            check=False)

    def to_json(self):
        return {"n": self.n, "dim": self.dim,
                "generators": [[[j, s] for j, s in g] for g in self.gens_perm]}

    @staticmethod
    def from_json(data):
        gens = tuple(tuple((j, s) for j, s in g) for g in data["generators"])
        for value in (data["n"], data["dim"], *(x for g in gens for pair in g for x in pair)):
            if type(value) is not int:
                raise ValueError(f"module entry {value!r} is not an integer")
        if data["dim"] < 0:
            raise ValueError(f"module dimension {data['dim']} is negative")
        return SignedPermModule(data["n"], data["dim"], gens_perm=gens)


@dataclass(frozen=True)
class CharacterVector:
    n: int
    values: tuple  # ((partition, value), ...) over partitions of n in lex order

    def value(self, partition):
        for part, v in self.values:
            if part == tuple(partition):
                return v
        raise KeyError(partition)

    @property
    def dim(self):
        return self.value((1,) * self.n)


def character(m: SignedPermModule) -> CharacterVector:
    """Trace of one representative per conjugacy class (classes = partitions)."""
    values = []
    for part in perms.partitions(m.n):
        rep = perms.class_representative(part)
        values.append((part, m.trace(rep)))
    return CharacterVector(m.n, tuple(values))


def trivial_multiplicity(m: SignedPermModule):
    """<chi_m, chi_triv> = (1/n!) sum_g chi_m(g), exactly over Q."""
    total = sum(perms.class_size(part) * v for part, v in character(m).values)
    mult, rest = divmod(total, factorial(m.n))
    if rest:
        raise AssertionError("trivial multiplicity is not an integer")
    return mult


# ---------------------------------------------------------------------------
# wreath subgroups


def wreath_elements(a: int, b: int):
    """All block-preserving permutations of {0..ab-1} (blocks of size b)."""
    base = list(iter_permutations(range(b)))
    for sigma in iter_permutations(range(a)):
        for taus in iter_product(base, repeat=a):
            g = [0] * (a * b)
            for i in range(a):
                for j in range(b):
                    g[i * b + j] = sigma[i] * b + taus[i][j]
            yield tuple(g)


def _block_perm(g, a, b):
    return tuple(g[i * b] // b for i in range(a))


def _wreath_generators(a, b):
    gens = []
    n = a * b
    for i in range(a):  # adjacent transpositions inside each block
        for j in range(b - 1):
            p = list(range(n))
            p[i * b + j], p[i * b + j + 1] = p[i * b + j + 1], p[i * b + j]
            gens.append(tuple(p))
    for i in range(a - 1):  # swap adjacent blocks wholesale
        p = list(range(n))
        for j in range(b):
            p[i * b + j], p[(i + 1) * b + j] = p[(i + 1) * b + j], p[i * b + j]
        gens.append(tuple(p))
    return gens


@dataclass(frozen=True)
class WreathReport:
    a: int
    b: int
    dim_total: int
    dim_pullback: int
    dim_tensor: int
    classes: tuple  # (representative, class size, chi_total, chi_pullback, chi_tensor)
    passed: bool


def wreath_decomposition_check(a: int, b: int) -> WreathReport:
    """Character identity rho_{ab}|_{Sigma_b wr Sigma_a} = rho_a o q + R^a (x) rho_b.

    Verified pointwise on every element of the block-preserving subgroup of
    Sigma_{ab}; the three character values of an element g are computed from
    fixed-point counts of g, of its block permutation, and of its restriction
    to fixed blocks.
    """
    if a < 1 or b < 1:
        raise ValueError("a, b must be >= 1")
    n = a * b

    def chars(g):
        chi = perms.fixed_points(g) - 1
        sigma = _block_perm(g, a, b)
        chi_q = perms.fixed_points(sigma) - 1
        chi_t = 0
        for i in range(a):
            if sigma[i] == i:
                fixed = sum(1 for j in range(b) if g[i * b + j] == i * b + j)
                chi_t += fixed - 1
        return chi, chi_q, chi_t

    elements = list(wreath_elements(a, b))
    passed = all(c == cq + ct for c, cq, ct in map(chars, elements))

    gens = _wreath_generators(a, b)
    inv_gens = [perms.inverse(g) for g in gens]
    seen = set()
    classes = []
    for g in elements:
        if g in seen:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for h, hinv in zip(gens, inv_gens):
                y = perms.compose(h, perms.compose(x, hinv))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        chi, chi_q, chi_t = chars(g)
        classes.append((g, len(orbit), chi, chi_q, chi_t))
    if sum(size for _, size, *_ in classes) != factorial(a) * factorial(b) ** a:
        raise AssertionError("conjugacy classes do not exhaust the wreath subgroup")

    return WreathReport(a, b, n - 1, a - 1, a * (b - 1), tuple(classes), passed)
