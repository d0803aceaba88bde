"""Hochschild homology of graded square-zero extensions R[x]/x^2, |x| = -n.

Two independent code paths: the normalized cyclic bar complex (the oracle,
works for any finite graded-commutative algebra) and the small 2-periodic
resolution over the tensor square, with generators y = x(x)1 and z = 1(x)x.
The periodic differentials: for even n the steps alternate y-z and y+z; for
odd n the element y-z squares to zero in the Koszul-signed tensor square and
is used at every step (the alternating choice is not even a complex there).
The right action of a tensor u(x)v on a is (-1)^(|v||a|) u*a*v; this is the
single sign convention the resolution path depends on.

Internal degrees: a bar word a_0 (x) ... (x) a_s sits in the sum of its
degrees; the resolution generator in homological degree s sits in -n*s.

An algebra builds one product table, products[i][j] = e_i * e_j normalized
(mod p over F_p), and every product reads it: the unit, associativity and
commutativity checks, multiply, mult_entry, the tensor square and the bar
differential.  The bar route's memory guard bounds, from dim, the reduced
dimension r and smax alone, the words W_s = dim * r^s plus the cells
W_s * W_(s-1) of the dense blocks it fills, for s <= smax + 1, and refuses
before building anything when that exceeds BAR_BASIS_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import RepeatedKeyError
from .core_algebra import ChainComplex, GradedAbelianGroup, homology, ring_prime

# the bar route's words plus the cells of its dense differential blocks
BAR_BASIS_CAP = 200_000


@dataclass(frozen=True)
class GradedUnitalAlgebra:
    ring: str  # "Z", "Q" or "F<p>"
    basis: tuple  # names
    degrees: tuple
    unit: int  # index of the unit basis element
    mult: tuple  # mult[i][j] = tuple of (index, coefficient)

    def __post_init__(self):
        # validates the label; _normalize reads the prime for every vector
        object.__setattr__(self, "_prime", ring_prime(self.ring))
        dim = len(self.basis)
        if len(self.degrees) != dim or len(self.mult) != dim:
            raise ValueError("basis/degree/table sizes disagree")
        if self.degrees[self.unit] != 0:
            raise ValueError("unit must sit in degree 0")
        products = []  # products[i][j] is e_i * e_j, normalized: every product reads it
        for i in range(dim):
            if len(self.mult[i]) != dim:
                raise ValueError("multiplication table is not square")
            products.append([])
            for j in range(dim):
                vec: dict[int, object] = {}
                for k, c in self.mult[i][j]:
                    if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                        raise ValueError("multiplication is not graded")
                    vec[k] = vec.get(k, 0) + c
                products[i].append(self._normalize(vec))
        object.__setattr__(self, "products", products)
        for i in range(dim):
            if products[self.unit][i] != {i: 1} or products[i][self.unit] != {i: 1}:
                raise ValueError("unit axiom fails")
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = self.multiply(products[i][j], {k: 1})
                    if lhs != self.multiply({i: 1}, products[j][k]):
                        raise ValueError(f"associativity fails at ({i},{j},{k})")
                sign = -1 if (self.degrees[i] * self.degrees[j]) % 2 else 1
                rhs = {t: sign * c for t, c in products[j][i].items()}
                if products[i][j] != self._normalize(rhs):
                    raise ValueError(f"graded commutativity fails at ({i},{j})")

    def _normalize(self, vec):
        p = self._prime
        out = {}
        for k, c in vec.items():
            if p is not None:
                c = c % p
            if c:
                out[k] = c
        return out

    @property
    def dim(self):
        return len(self.basis)

    def mult_entry(self, i: int, j: int) -> tuple:
        """Product of basis elements i, j as (index, coeff) terms, normalized."""
        return tuple(sorted(self.products[i][j].items()))

    def multiply(self, vec_a: dict, vec_b: dict) -> dict:
        out: dict[int, object] = {}
        for i, c in vec_a.items():
            row = self.products[i]
            for j, d in vec_b.items():
                for k, e in row[j].items():
                    out[k] = out.get(k, 0) + c * d * e
        return self._normalize(out)

    @staticmethod
    def square_zero(ring: str, n: int) -> "GradedUnitalAlgebra":
        """R[x]/x^2 with |x| = -n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return GradedUnitalAlgebra(
            ring, ("1", "x"), (0, -n), 0,
            ((((0, 1),), ((1, 1),)), (((1, 1),), ())))

    @staticmethod
    def base_ring(ring: str) -> "GradedUnitalAlgebra":
        return GradedUnitalAlgebra(ring, ("1",), (0,), 0, ((((0, 1),),),))

    def tensor_square(self) -> "GradedUnitalAlgebra":
        """A (x) A with the Koszul multiplication (a(x)b)(c(x)d) =
        (-1)^(|b||c|) ac (x) bd."""
        dim = self.dim
        names = tuple(f"{self.basis[i]}(x){self.basis[j]}"
                      for i in range(dim) for j in range(dim))
        degrees = tuple(self.degrees[i] + self.degrees[j]
                        for i in range(dim) for j in range(dim))
        unit = self.unit * dim + self.unit
        table = []
        for i in range(dim):
            for j in range(dim):
                row = []
                for k in range(dim):
                    for l in range(dim):
                        sign = -1 if (self.degrees[j] * self.degrees[k]) % 2 else 1
                        # the pairs (u, v) are distinct, so no index repeats
                        row.append(tuple(sorted(
                            (u * dim + v, sign * c * d)
                            for u, c in self.products[i][k].items()
                            for v, d in self.products[j][l].items())))
                table.append(tuple(row))
        return GradedUnitalAlgebra(self.ring, names, degrees, unit, tuple(table))


# ---------------------------------------------------------------------------
# bigraded output


@dataclass(frozen=True)
class BigradedGroup:
    entries: tuple  # sorted (((s, t), (free, torsion)), ...)

    @staticmethod
    def create(data: dict) -> "BigradedGroup":
        out = []
        for (s, t), (free, torsion) in data.items():
            if free or torsion:
                out.append(((s, t), (free, tuple(torsion))))
        return BigradedGroup(tuple(sorted(out)))

    def group_at(self, s: int, t: int):
        for (ss, tt), val in self.entries:
            if (ss, tt) == (s, t):
                return val
        return (0, ())

    def to_json(self):
        return {f"{s},{t}": {"free": free, "torsion": list(torsion)}
                for (s, t), (free, torsion) in self.entries}

    @staticmethod
    def from_json(data) -> "BigradedGroup":
        """Inverse of to_json; a malformed table raises ValueError, and every
        number must be a JSON integer."""
        if not isinstance(data, dict):
            raise ValueError("a bigraded table is a JSON object keyed \"s,t\"")
        out = {}
        for key, val in data.items():
            try:
                s, t = (int(part) for part in key.split(","))
                free, torsion = val["free"], tuple(val["torsion"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed bigraded entry {key!r}: {exc!r}") from exc
            for value in (free, *torsion):
                if type(value) is not int:  # not isinstance: a bool is not read as 0 or 1
                    raise ValueError(f"table entry {value!r} at {key} is not an integer")
            if (s, t) in out:
                raise RepeatedKeyError(f"bidegree key {key!r} repeats bidegree {s},{t}")
            out[(s, t)] = (free, torsion)
        return BigradedGroup.create(out)


def _homology_by_internal_degree(ring: str, smax: int, degrees: dict,
                                 columns: dict) -> BigradedGroup:
    """HH_(s, t) for s <= smax of a complex that preserves internal degree.

    degrees[s][i] is the internal degree of basis element i of C_s, for
    s = 0 .. smax + 1; columns[s][j] maps row -> coefficient of the
    differential C_s -> C_(s-1) on basis element j.  Each internal degree t
    is a separate chain complex.
    """
    by_degree = []  # by_degree[s][t]: the basis elements of C_s in internal degree t
    for s in range(smax + 2):
        groups: dict[int, list] = {}
        for i, d in enumerate(degrees[s]):
            groups.setdefault(d, []).append(i)
        by_degree.append(groups)
    result = {}
    for t in sorted({t for s in range(smax + 1) for t in by_degree[s]}):
        idx = {s: by_degree[s].get(t, []) for s in range(smax + 2)}
        ranks = {s: len(basis) for s, basis in idx.items() if basis}
        mats = {}
        for s in range(1, smax + 2):
            if not idx[s] or not idx[s - 1]:
                continue
            rowpos = {r: a for a, r in enumerate(idx[s - 1])}
            rows = [[0] * len(idx[s]) for _ in idx[s - 1]]
            for b, col in enumerate(idx[s]):
                for r, c in columns[s][col].items():
                    rows[rowpos[r]][b] = c
            mats[s] = rows
        h = homology(ChainComplex.create(ranks, mats), ring)
        for s, free, torsion in h.components:
            if s <= smax:
                result[(s, t)] = (free, torsion)
    return BigradedGroup.create(result)


# ---------------------------------------------------------------------------
# path one: the normalized bar complex


def bar_hochschild(algebra: GradedUnitalAlgebra, smax: int) -> BigradedGroup:
    """Homology of the normalized cyclic bar complex A (x) Abar^(x)s."""
    if smax < 0:
        raise ValueError("smax must be >= 0")
    reduced = [i for i in range(algebra.dim) if i != algebra.unit]
    # W_s = dim * r^s words in degree s, and the blocks that
    # _homology_by_internal_degree fills hold at most W_s * W_(s-1) cells
    size = width = algebra.dim
    for _ in range(smax + 1):
        size += width * len(reduced) * (1 + width)
        width *= len(reduced)
        if size > BAR_BASIS_CAP:
            raise ValueError("bar basis would exceed the configured cap")

    def basis(s):
        words = [()]
        for _ in range(s):
            words = [w + (i,) for w in words for i in reduced]
        return [(a0,) + w for a0 in range(algebra.dim) for w in words]

    bases = {s: basis(s) for s in range(smax + 2)}
    degrees = {s: [sum(algebra.degrees[i] for i in word) for word in bases[s]]
               for s in bases}

    def differential(s):
        """The columns of b: C_s -> C_{s-1}, each a dict row -> coeff."""
        rows = {w: r for r, w in enumerate(bases[s - 1])}
        products = algebra.products
        columns = []
        for word in bases[s]:
            entries: dict[int, object] = {}
            degs = [algebra.degrees[i] for i in word]
            for i in range(s):
                sign = -1 if i % 2 else 1
                for k, c in products[word[i]][word[i + 1]].items():
                    if i > 0 and k == algebra.unit:
                        continue  # normalized: inner units vanish
                    r = rows[word[:i] + (k,) + word[i + 2:]]
                    entries[r] = entries.get(r, 0) + sign * c
            # cyclic face: move the last letter to the front
            koszul = -1 if (degs[-1] * sum(degs[:-1])) % 2 else 1
            sign = (-1 if s % 2 else 1) * koszul
            for k, c in products[word[-1]][word[0]].items():
                r = rows[(k,) + word[1:-1]]
                entries[r] = entries.get(r, 0) + sign * c
            columns.append(entries)
        return columns

    columns = {s: differential(s) for s in range(1, smax + 2)}
    return _homology_by_internal_degree(algebra.ring, smax, degrees, columns)


# ---------------------------------------------------------------------------
# path two: the small periodic resolution


def small_resolution_hh(ring: str, n: int, smax: int) -> BigradedGroup:
    """Hochschild homology of R[x]/x^2 from the 2-periodic resolution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if smax < 0:
        raise ValueError("smax must be >= 0")
    algebra = GradedUnitalAlgebra.square_zero(ring, n)
    env = algebra.tensor_square()
    dim = algebra.dim
    y = {1 * dim + 0: 1}  # x (x) 1
    z = {0 * dim + 1: 1}  # 1 (x) x

    def w_elem(s: int) -> dict:
        """y - z at every step for odd n; y - z and y + z alternately for even n."""
        sign = -1 if n % 2 == 1 or s % 2 == 1 else 1
        out = dict(y)
        for k, c in z.items():
            out[k] = out.get(k, 0) + sign * c
        return env._normalize(out)

    # consecutive differentials must compose to zero in the tensor square
    for s in range(1, smax + 3):
        if env.multiply(w_elem(s + 1), w_elem(s)):
            raise AssertionError("periodic resolution elements do not compose to zero")

    def action_matrix(w: dict):
        """a |-> sum c_(u,v) (-1)^(|v||a|) u a v on the basis of A."""
        cols = []
        for a_idx in range(dim):
            col: dict[int, object] = {}
            for uv, c in w.items():
                u, v = divmod(uv, dim)
                sign = -1 if (algebra.degrees[v] * algebra.degrees[a_idx]) % 2 else 1
                left = algebra.multiply({u: 1}, {a_idx: 1})
                full = algebra.multiply(left, {v: 1})
                for k, e in full.items():
                    col[k] = col.get(k, 0) + sign * c * e
            cols.append(algebra._normalize(col))
        return cols  # cols[a_idx] : dict row -> coeff

    mats_by_s = {s: action_matrix(w_elem(s)) for s in range(1, smax + 2)}
    # the generator in homological degree s sits in internal degree -n*s
    degrees = {s: [d - n * s for d in algebra.degrees] for s in range(smax + 2)}
    return _homology_by_internal_degree(ring, smax, degrees, mats_by_s)


# ---------------------------------------------------------------------------
# free-loop-space regrading


@dataclass(frozen=True)
class LoopSpaceTable:
    n: int
    ring: str
    smax: int
    complete_through: int  # cohomological degrees <= this are complete
    rows: tuple  # sorted ((cohomological degree, (free, torsion)), ...)

    def markdown(self) -> str:
        lines = ["| degree | group |", "|---|---|"]
        for d, (free, torsion) in self.rows:
            terms = []
            if free == 1:
                terms.append("Z" if self.ring == "Z" else self.ring)
            elif free > 1:
                terms.append(f"{'Z' if self.ring == 'Z' else self.ring}^{free}")
            terms.extend(f"Z/{q}" for q in torsion)
            lines.append(f"| {d} | {' + '.join(terms) if terms else '0'} |")
        return "\n".join(lines)


def loop_space_table(n: int, ring: str, smax: int) -> LoopSpaceTable:
    """Regrade HH_(s, t) as cohomology in degree -t - s (the documented degree
    dictionary); requires n >= 2."""
    if n < 2:
        raise ValueError("the free-loop regrading requires n >= 2")
    hh = small_resolution_hh(ring, n, smax)
    sums: dict[int, tuple] = {}
    for (s, t), (free, torsion) in hh.entries:
        total, orders = sums.get(-t - s, (0, ()))
        sums[-t - s] = (total + free, orders + tuple(torsion))
    group = GradedAbelianGroup.create(sums)
    rows = tuple((d, group.component(d)) for d in sorted(sums))
    return LoopSpaceTable(n, ring, smax, (n - 1) * smax, rows)
