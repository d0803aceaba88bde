"""Finite-dimensional representations of symmetric groups on labelled bases.

Signed-permutation actions, characters, restriction to wreath subgroups, and
freeness of the underlying basis action.  Representations over Q are
compared through characters: Q[Sigma_n] is semisimple, so character
equality is isomorphism and no intertwiner search is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from math import factorial

from . import perms

MAX_RANK = 10  # group elements are permutation words; desk scale


def _compose_signed(f, g):
    """(f o g) on signed basis maps: first g, then f."""
    return tuple([f[j] if s == 1 else (f[j][0], -f[j][1]) for j, s in g])


@dataclass(frozen=True)
class SignedPermModule:
    """A Sigma_n-module given by the action of the adjacent transpositions.

    `gens_perm` holds, per generator, a tuple of (image index, sign) for the
    basis vectors; it is checked against the involution, commutation and
    braid relations on construction.
    """

    n: int
    dim: int
    gens_perm: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("symmetric group rank must be >= 1")
        if self.n > MAX_RANK:
            raise ValueError(f"rank capped at {MAX_RANK}")
        if len(self.gens_perm) != self.n - 1:
            raise ValueError("one signed permutation per adjacent transposition")
        for g in self.gens_perm:
            if sorted([j for j, _ in g]) != list(range(self.dim)):
                raise ValueError("signed permutation is not a bijection")
            if {s for _, s in g} - {1, -1}:
                raise ValueError("signs must be +-1")
        if self.gens_perm:  # at n = 1 no relation to check, and no data bounds dim
            self._check_relations()

    def _check_relations(self):
        gens, mul = self.gens_perm, _compose_signed
        one = tuple((j, 1) for j in range(self.dim))
        for i, g in enumerate(gens):
            if mul(g, g) != one:
                raise ValueError(f"generator {i} is not an involution")
            for j in range(i + 2, len(gens)):
                if mul(g, gens[j]) != mul(gens[j], g):
                    raise ValueError(f"generators {i},{j} do not commute")
            if i + 1 < len(gens):
                h = gens[i + 1]
                if mul(mul(g, h), g) != mul(mul(h, g), h):
                    raise ValueError(f"braid relation fails at {i}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial(n, dim=1):
        return SignedPermModule(n, dim,
                                gens_perm=tuple(tuple((j, 1) for j in range(dim))
                                                for _ in range(n - 1)))

    # -- action ------------------------------------------------------------

    def act_signed(self, perm: tuple):
        """Signed basis map of an arbitrary permutation."""
        out = tuple((j, 1) for j in range(self.dim))
        for i in perms.adjacent_word(perm):
            out = _compose_signed(self.gens_perm[i], out)
        return out

    def trace(self, perm: tuple):
        return sum(s for j, (img, s) in enumerate(self.act_signed(perm)) if img == j)

    def twist_by_sign(self, power: int = 1):
        """Tensor with the sign representation to the given power."""
        if power % 2 == 0:
            return self
        return SignedPermModule(self.n, self.dim,
                                gens_perm=tuple(tuple((j, -s) for j, s in g)
                                                for g in self.gens_perm))

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


def is_sigma_free(m: SignedPermModule) -> bool:
    """True iff the Sigma_n-set of basis lines has trivial stabilizers."""
    if m.dim == 0:
        return True
    gens = [[j for j, _ in g] for g in m.gens_perm]
    order = factorial(m.n)
    seen = [False] * m.dim
    for start in range(m.dim):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        if len(orbit) != order:
            return False
        for x in orbit:
            seen[x] = True
    return True


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


def wreath_decomposition_check(a: int, b: int, t_size: int | None = None) -> WreathReport:
    """Character identity rho_{ab}|_{Sigma_b wr Sigma_a} = rho_a o q + R^a (x) rho_b.

    Verified pointwise on every element of the block-preserving subgroup of
    Sigma_{ab}; the three character values of an element g are computed from
    fixed-point counts of g, of its block permutation, and of its restriction
    to fixed blocks.
    """
    if a < 1 or b < 1:
        raise ValueError("a, b must be >= 1")
    if t_size is not None and t_size != a * b:
        raise ValueError(f"a*b = {a * b} does not match declared t_size {t_size}")
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
