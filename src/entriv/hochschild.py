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
Each route hands its degrees and differential columns to one assembly,
which groups the basis by (t, s) in a single pass and builds one chain
complex per internal degree t over the s where t has cells.

Word numbering: with the r reduced letters (every basis element but the
unit) ranked 0 .. r-1, the bar word (a_0; w_1 .. w_s) of degree s is number
a_0 * r^s + sum rank(w_i) * r^(s-i).  The words of degree s extend those of
degree s - 1 by one letter, and each face finds its row by this mixed-radix
arithmetic.  The resolution uses one element of the tensor square per
parity of s (one for odd n), so it builds one action matrix per distinct
element and checks w(s+1) w(s) = 0 once per distinct consecutive pair.

An algebra builds one product table, products[i][j] = e_i * e_j normalized
(mod p over F_p), and every product reads it: the unit, associativity and
commutativity checks, mult_entry, the bar differential, and the resolution's
Koszul-signed products of its elements and its action matrices.  The bar
route's memory guard bounds, from dim, the reduced dimension r and smax
alone, the words W_s = dim * r^s plus W_s * W_(s-1), which bounds the fill
that eliminating one block of the differential C_s -> C_(s-1) can reach, for
s <= smax + 1, and refuses before building anything when that exceeds
BAR_BASIS_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import RepeatedKeyError
from .core_algebra import ChainComplex, GradedAbelianGroup, homology, ring_prime

# the bar route's words plus the cells that eliminating its differential blocks can fill
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
            row_i = products[i]
            for j in range(dim):
                for k in range(dim):
                    # (e_i e_j) e_k and e_i (e_j e_k), read off the table's rows
                    lhs: dict[int, object] = {}
                    for m, c in row_i[j].items():
                        for q, e in products[m][k].items():
                            lhs[q] = lhs.get(q, 0) + c * e
                    rhs: dict[int, object] = {}
                    for m, c in products[j][k].items():
                        for q, e in row_i[m].items():
                            rhs[q] = rhs.get(q, 0) + c * e
                    if self._normalize(lhs) != self._normalize(rhs):
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

    @staticmethod
    def square_zero(ring: str, n: int) -> "GradedUnitalAlgebra":
        """R[x]/x^2 with |x| = -n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return GradedUnitalAlgebra(
            ring, ("1", "x"), (0, -n), 0,
            ((((0, 1),), ((1, 1),)), (((1, 1),), ())))


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
    is a separate chain complex.  One pass over the degrees groups the basis
    into cells[t][s], the elements of C_s in internal degree t, and records
    each element's place in its cell; each t with a cell in some s <= smax
    then builds its complex only over the s where it has cells.
    """
    cells: dict[int, dict] = {}  # cells[t][s]: the basis elements of C_s in internal degree t
    place = []  # place[s][i]: the position of element i of C_s in its cell
    for s in range(smax + 2):
        place.append([])
        for i, t in enumerate(degrees[s]):
            cell = cells.setdefault(t, {}).setdefault(s, [])
            place[s].append(len(cell))
            cell.append(i)
    result = {}
    for t in sorted(cells):
        by_s = cells[t]
        if min(by_s) > smax:
            continue
        mats = {}
        for s, idx in by_s.items():
            below = by_s.get(s - 1)
            if below is None:
                continue
            rows = [{} for _ in below]
            for b, col in enumerate(idx):
                for r, c in columns[s][col].items():
                    if degrees[s - 1][r] != t:
                        raise AssertionError("differential does not preserve internal degree")
                    rows[place[s - 1][r]][b] = c
            mats[s] = rows
        ranks = {s: len(idx) for s, idx in by_s.items()}
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
    # W_s = dim * r^s words in degree s; eliminating one block of the
    # differential C_s -> C_(s-1) fills at most W_s * W_(s-1) cells
    size = width = algebra.dim
    for _ in range(smax + 1):
        size += width * len(reduced) * (1 + width)
        width *= len(reduced)
        if size > BAR_BASIS_CAP:
            raise ValueError("bar basis would exceed the configured cap")

    r = len(reduced)
    rank = {letter: q for q, letter in enumerate(reduced)}
    power = [r ** e for e in range(smax + 2)]
    products, deg, unit = algebra.products, algebra.degrees, algebra.unit
    # inner[u][v]: the terms of e_u e_v that survive in a bar word, (rank, coefficient)
    inner = [[tuple((rank[k], c) for k, c in products[u][v].items() if k != unit)
              for v in range(algebra.dim)] for u in range(algebra.dim)]

    def differential(s, tails, tail_degrees):
        """The columns of b: C_s -> C_{s-1}, each a dict row -> coeff."""
        columns = []
        lead = power[s - 1]  # the row of (a_0; v) is a_0 * lead + (the number of v)
        for a0 in range(algebra.dim):
            for num, (tail, tail_deg) in enumerate(zip(tails, tail_degrees)):
                entries: dict[int, object] = {}
                # a_0 w_1: drop w_1's digit, the leading one
                for k, c in products[a0][tail[0]].items():
                    row = k * lead + num % lead
                    entries[row] = entries.get(row, 0) + c
                # w_i w_(i+1), 0 < i < s: two digits merge into one
                for i in range(1, s):
                    terms = inner[tail[i - 1]][tail[i]]
                    if not terms:
                        continue
                    sign = -1 if i % 2 else 1
                    high, low = num // power[s - i + 1], num % power[s - i - 1]
                    base = a0 * lead + high * power[s - i] + low
                    for q, c in terms:
                        row = base + q * power[s - i - 1]
                        entries[row] = entries.get(row, 0) + sign * c
                # cyclic face: move the last letter to the front
                last = deg[tail[-1]]
                koszul = -1 if (last * (deg[a0] + tail_deg - last)) % 2 else 1
                sign = (-1 if s % 2 else 1) * koszul
                for k, c in products[tail[-1]][a0].items():
                    row = k * lead + num // r
                    entries[row] = entries.get(row, 0) + sign * c
                columns.append(entries)
        return columns

    # the tails w_1 .. w_s of degree s, the last letter varying fastest
    tails, tail_degrees = [()], [0]
    degrees, columns = {}, {}
    for s in range(smax + 2):
        if s:
            tails = [w + (i,) for w in tails for i in reduced]
            tail_degrees = [d + deg[i] for d in tail_degrees for i in reduced]
            columns[s] = differential(s, tails, tail_degrees)
        degrees[s] = [deg[a0] + d for a0 in range(algebra.dim) for d in tail_degrees]
    return _homology_by_internal_degree(algebra.ring, smax, degrees, columns)


# ---------------------------------------------------------------------------
# path two: the small periodic resolution


def _tensor_product(algebra: GradedUnitalAlgebra, w: dict, w2: dict) -> dict:
    """w * w2 in A (x) A, each keyed by i * dim + j for e_i (x) e_j, with the
    Koszul multiplication (a(x)b)(c(x)d) = (-1)^(|b||c|) ac (x) bd."""
    dim, deg, products = algebra.dim, algebra.degrees, algebra.products
    out: dict[int, object] = {}
    for ij, c in w.items():
        i, j = divmod(ij, dim)
        for kl, d in w2.items():
            k, l = divmod(kl, dim)
            sign = -1 if (deg[j] * deg[k]) % 2 else 1
            for u, e in products[i][k].items():
                for v, f in products[j][l].items():
                    out[u * dim + v] = out.get(u * dim + v, 0) + sign * c * d * e * f
    return algebra._normalize(out)


def small_resolution_hh(ring: str, n: int, smax: int) -> BigradedGroup:
    """Hochschild homology of R[x]/x^2 from the 2-periodic resolution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if smax < 0:
        raise ValueError("smax must be >= 0")
    algebra = GradedUnitalAlgebra.square_zero(ring, n)
    dim = algebra.dim
    y = {1 * dim + 0: 1}  # x (x) 1
    z = {0 * dim + 1: 1}  # 1 (x) x

    def phase(s: int) -> int:
        """Which element step s uses: y - z (phase 1) at every step for odd n;
        y - z and y + z (phase 0) alternately for even n."""
        return 1 if n % 2 else s % 2

    elements = {}
    for key in {phase(1), phase(2)}:
        out = dict(y)
        for k, c in z.items():
            out[k] = out.get(k, 0) + (-1 if key else 1) * c
        elements[key] = algebra._normalize(out)

    # consecutive differentials must compose to zero in the tensor square;
    # the steps are 2-periodic, so s = 1, 2 give every consecutive pair
    for later, earlier in {(phase(s + 1), phase(s)) for s in (1, 2)}:
        if _tensor_product(algebra, elements[later], elements[earlier]):
            raise AssertionError("periodic resolution elements do not compose to zero")

    def action_matrix(w: dict):
        """a |-> sum c_(u,v) (-1)^(|v||a|) u a v on the basis of A."""
        cols = []
        for a_idx in range(dim):
            col: dict[int, object] = {}
            for uv, c in w.items():
                u, v = divmod(uv, dim)
                sign = -1 if (algebra.degrees[v] * algebra.degrees[a_idx]) % 2 else 1
                for m, d in algebra.products[u][a_idx].items():
                    for k, e in algebra.products[m][v].items():
                        col[k] = col.get(k, 0) + sign * c * d * e
            cols.append(algebra._normalize(col))
        return cols  # cols[a_idx] : dict row -> coeff

    actions = {key: action_matrix(w) for key, w in elements.items()}
    mats_by_s = {s: actions[phase(s)] for s in range(1, smax + 2)}
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
