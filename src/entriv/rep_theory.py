"""Finite-dimensional representations of symmetric groups on labelled bases.

Monomial (signed-permutation) actions and exact rational matrix actions,
characters, the reduced standard representation, restriction to wreath
subgroups, and freeness of the underlying basis action.  Representations
over Q are compared through characters: Q[Sigma_n] is semisimple, so
character equality is isomorphism and no intertwiner search is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from math import factorial

from . import perms

MAX_RANK = 10  # group elements are permutation words; desk scale


def _matmul(a, b):
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


def _mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _identity_mat(dim):
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def _compose_signed(f, g):
    """(f o g) on signed basis maps: first g, then f."""
    return tuple([f[j] if s == 1 else (f[j][0], -f[j][1]) for j, s in g])


@dataclass(frozen=True)
class SignedPermModule:
    """A Sigma_n-module given by the action of the adjacent transpositions.

    Exactly one of `gens_perm` (per generator, a tuple of (image index, sign))
    and `gens_mat` (per generator, an exact rational matrix whose columns are
    the images of the basis vectors) is set; both are checked against the
    involution, commutation and braid relations on construction.
    """

    n: int
    dim: int
    gens_perm: tuple | None = None
    gens_mat: tuple | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("symmetric group rank must be >= 1")
        if self.n > MAX_RANK:
            raise ValueError(f"rank capped at {MAX_RANK}")
        ngen = self.n - 1
        if (self.gens_perm is None) == (self.gens_mat is None) and ngen > 0:
            raise ValueError("exactly one action encoding required")
        if self.gens_perm is not None:
            if len(self.gens_perm) != ngen:
                raise ValueError("one signed permutation per adjacent transposition")
            for g in self.gens_perm:
                if sorted([j for j, _ in g]) != list(range(self.dim)):
                    raise ValueError("signed permutation is not a bijection")
                if {s for _, s in g} - {1, -1}:
                    raise ValueError("signs must be +-1")
            if ngen:  # at n = 1 no relation to check, and no data bounds dim
                self._check_relations(self.gens_perm, _compose_signed,
                                      tuple((j, 1) for j in range(self.dim)))
        if self.gens_mat is not None:
            if len(self.gens_mat) != ngen:
                raise ValueError("one matrix per adjacent transposition")
            for m in self.gens_mat:
                if len(m) != self.dim or any(len(row) != self.dim for row in m):
                    raise ValueError("matrix shape mismatch")
            if ngen:
                self._check_relations(self.gens_mat, _matmul, _identity_mat(self.dim))

    def _check_relations(self, gens, mul, one):
        eq = _mat_eq if self.gens_mat is not None else (lambda a, b: a == b)
        for i, g in enumerate(gens):
            if not eq(mul(g, g), one):
                raise ValueError(f"generator {i} is not an involution")
            for j in range(i + 2, len(gens)):
                if not eq(mul(g, gens[j]), mul(gens[j], g)):
                    raise ValueError(f"generators {i},{j} do not commute")
            if i + 1 < len(gens):
                h = gens[i + 1]
                if not eq(mul(mul(g, h), g), mul(mul(h, g), h)):
                    raise ValueError(f"braid relation fails at {i}")

    @property
    def monomial(self) -> bool:
        return self.gens_mat is None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial(n, dim=1):
        return SignedPermModule(n, dim,
                                gens_perm=tuple(tuple((j, 1) for j in range(dim))
                                                for _ in range(n - 1)))

    @staticmethod
    def sign_rep(n):
        return SignedPermModule(n, 1, gens_perm=tuple(((0, -1),) for _ in range(n - 1)))

    @staticmethod
    def regular(n):
        basis = sorted(iter_permutations(range(n)))
        index = {g: i for i, g in enumerate(basis)}
        gens = []
        for i in range(n - 1):
            s = perms.adjacent(n, i)
            gens.append(tuple((index[perms.compose(s, g)], 1) for g in basis))
        return SignedPermModule(n, len(basis), gens_perm=tuple(gens))

    @staticmethod
    def zero(n):
        return SignedPermModule(n, 0, gens_perm=tuple(() for _ in range(n - 1)))

    # -- action ------------------------------------------------------------

    def act_signed(self, perm: tuple):
        """Signed basis map of an arbitrary permutation (monomial modules)."""
        if not self.monomial:
            raise ValueError("matrix-action module has no signed basis map")
        out = tuple((j, 1) for j in range(self.dim))
        for i in perms.adjacent_word(perm):
            out = _compose_signed(self.gens_perm[i], out)
        return out

    def act_matrix(self, perm: tuple):
        """Matrix of an arbitrary permutation (matrix-action modules)."""
        out = _identity_mat(self.dim)
        for i in perms.adjacent_word(perm):
            out = _matmul(self.gens_mat[i], out)
        return out

    def trace(self, perm: tuple):
        if self.monomial:
            return sum(s for j, (img, s) in enumerate(self.act_signed(perm)) if img == j)
        m = self.act_matrix(perm)
        return sum(m[i][i] for i in range(self.dim))

    def twist_by_sign(self, power: int = 1):
        """Tensor with the sign representation to the given power."""
        if power % 2 == 0:
            return self
        if self.monomial:
            return SignedPermModule(self.n, self.dim,
                                    gens_perm=tuple(tuple((j, -s) for j, s in g)
                                                    for g in self.gens_perm))
        return SignedPermModule(self.n, self.dim,
                                gens_mat=tuple(tuple(tuple(-e for e in row) for row in m)
                                               for m in self.gens_mat))

    def to_json(self):
        if not self.monomial:
            raise ValueError("only monomial modules serialise to JSON")
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

    def to_json(self):
        return {"n": self.n,
                "values": [["+".join(map(str, part)), str(v)] for part, v in self.values]}


def character(m: SignedPermModule) -> CharacterVector:
    """Trace of one representative per conjugacy class (classes = partitions)."""
    values = []
    for part in perms.partitions(m.n):
        rep = perms.class_representative(part)
        values.append((part, m.trace(rep)))
    return CharacterVector(m.n, tuple(values))


def rho(t_size: int) -> SignedPermModule:
    """Reduced standard representation R[T]/Delta in the basis v_i = e_i - e_{i+1}."""
    if t_size < 1:
        raise ValueError("t_size must be >= 1")
    if t_size == 1:
        return SignedPermModule.zero(1)
    if t_size == 2:
        return SignedPermModule.sign_rep(2)
    dim = t_size - 1
    gens = []
    for j in range(t_size - 1):
        cols = []
        for i in range(dim):
            col = [0] * dim
            if i == j:
                col[i] = -1
            elif i == j - 1:
                col[i] = 1
                col[j] = 1
            elif i == j + 1:
                col[i] = 1
                col[j] = 1
            else:
                col[i] = 1
            cols.append(col)
        mat = tuple(tuple(Fraction(cols[c][r]) for c in range(dim)) for r in range(dim))
        gens.append(mat)
    return SignedPermModule(t_size, dim, gens_mat=tuple(gens))


def trivial_multiplicity(m: SignedPermModule):
    """<chi_m, chi_triv> = (1/n!) sum_g chi_m(g), exactly over Q."""
    total = sum(perms.class_size(part) * v for part, v in character(m).values)
    mult, rest = divmod(total, factorial(m.n))
    if rest:
        raise AssertionError("trivial multiplicity is not an integer")
    return mult


def is_sigma_free(m: SignedPermModule) -> bool:
    """True iff the Sigma_n-set of basis lines has trivial stabilizers."""
    if not m.monomial:
        raise ValueError("freeness test is defined for monomial modules only")
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

    def to_json(self):
        return {"a": self.a, "b": self.b,
                "dims": {"restricted": self.dim_total,
                         "pullback": self.dim_pullback,
                         "tensor": self.dim_tensor},
                "classes": [{"representative": list(rep), "size": size,
                             "restricted": chi, "pullback": chi_q, "tensor": chi_t}
                            for rep, size, chi, chi_q, chi_t in self.classes],
                "pass": self.passed}


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
