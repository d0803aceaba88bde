"""Exact linear algebra over Z and F_p.

Smith normal form with unimodular transforms, chain complexes over Z,
homology with Z / Q / F_p coefficients, and minimal models over hereditary
base rings (every bounded complex splits as a sum of its homology,
presented degreewise by free resolutions).  Every reducer, and every
differential of a ChainComplex, holds a matrix as sparse rows: tuples of
(column, entry) pairs, nonzero entries only, columns increasing.  IntMatrix
is the dense form at the boundary.

One kernel computes the Smith diagonal.  It pivots on unit entries of
sparse rows first, then takes the unit-free residual through alternating
row and column Hermite forms, so every pivot, and so every diagonal entry,
stays within Hadamard's bound H of the input.  `smith_normal_form` carries
L and R through it, and they stay within H^2 on every input measured (its
docstring has the bounds).  `smith_diagonal`, and homology over Z on a
differential's rows, run the same steps with empty transform rows, so the
diagonal comes from the steps that `SmithNormalForm.verify` certifies; the
tests cross it with sympy's Smith form and a gcd-of-minors oracle.

One kernel eliminates over F_p, `echelon_mod_p`, on sparse rows with tags:
`rank_mod_p` is its pivot count, and steenrod_cochains reads mod-2 cocycle
bases and class representatives off its kernel tags and pivot rows.

All arithmetic is arbitrary-precision: the transforms of a dense 20 x 20
matrix with entries in [-3, 12] already reach 162 bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from . import integer_keys

Ring = str  # "Z", "Q" or "F<p>" for a prime p


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the primes 2..37 as witnesses: exact for
    n < 3.18 * 10^23, so for every 64-bit value; above that a strong
    probable-prime test."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ring_prime(ring: Ring) -> int | None:
    """The prime of an F_p ring label, None for Z and Q."""
    if ring in ("Z", "Q"):
        return None
    if ring.startswith("F") and ring[1:].isdigit():
        p = int(ring[1:])
        if is_prime(p):
            return p
    raise ValueError(f"unknown coefficient ring {ring!r}")


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major tuple of tuples of int

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            for e in row:
                if type(e) is not int:  # not isinstance: a bool is not read as 0 or 1
                    raise ValueError(f"matrix entry {e!r} is not an integer")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = tuple(map(tuple, rows))
        ncols = len(rows[0]) if rows else 0
        return IntMatrix(len(rows), ncols, rows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append(tuple(
                sum(row[k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def det(self) -> int:
        """Fraction-free (Bareiss) determinant; square matrices only."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        rank, sign, last_pivot = _bareiss(self.to_lists(), self.cols)
        return sign * last_pivot if rank == self.rows else 0

    def to_lists(self):
        return [list(row) for row in self.entries]


def _sparse(m: IntMatrix) -> tuple:
    """The rows of m as tuples of (column, entry) pairs, nonzero entries only."""
    return tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in m.entries)


def _dense(rows, ncols: int) -> list:
    """The ncols-column row lists of sparse rows."""
    return [[entries.get(j, 0) for j in range(ncols)] for entries in map(dict, rows)]


def product_is_zero(a, b) -> bool:
    """a * b == 0 over Z, for IntMatrix a and b or for sparse rows: row by
    row, multiplying only nonzero entries and stopping at the first nonzero
    row of the product."""
    if isinstance(a, IntMatrix):
        if a.cols != b.rows:
            raise ValueError("shape mismatch in product")
        square = a is b  # a square reuses the rows read off b
        b = _sparse(b)
        a = b if square else _sparse(a)
    for row in a:
        product: dict = {}
        for k, v in row:
            for j, w in b[k]:
                product[j] = product.get(j, 0) + v * w
        if any(product.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithNormalForm:
    diagonal: tuple
    left: IntMatrix
    right: IntMatrix

    def verify(self, m: IntMatrix) -> bool:
        want = [((i, d),) if d else () for i, d in enumerate(self.diagonal)]
        if _sparse(self.left.mul(m).mul(self.right)) != tuple(want + [()] * (m.rows - len(want))):
            return False
        for i in range(len(self.diagonal) - 1):
            a, b = self.diagonal[i], self.diagonal[i + 1]
            if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
                return False
        return abs(self.left.det()) == 1 and abs(self.right.det()) == 1


def smith_normal_form(m: IntMatrix) -> SmithNormalForm:
    """L*m*R = diag(d_1, ..., d_k) with d_1 | d_2 | ..., d_i >= 0 and L, R unimodular.

    Phase 1 keeps the rows of m as dicts of nonzero entries and, while any
    entry is +-1, pivots on a unit: the first (least column) unit of the
    shortest row that holds one, the earliest such row on a tie.  Row steps
    clear the pivot column, column steps clear the pivot row, and the pivot
    is one diagonal 1.  Phase 2 takes the unit-free residual to Smith form
    by alternating row and column Hermite forms (Kannan and Bachem, SIAM J.
    Comput. 1979; see _hermite), puts the diagonal in divisibility order by
    2x2 gcd/lcm steps, and reduces the rows of L (columns of R) that meet
    the diagonal modulo a Hermite basis of the others, which span the left
    (right) kernel of m.

    Bounds.  Let H = prod_j max(1, ceil |m_j|) over the columns m_j of m;
    by Hadamard's inequality every minor of m is at most H.
    - After phase 1 every entry of the working matrix, of L and of R is 0,
      +-1 or +- a minor of m, since every pivot so far is a unit: at most H.
    - Every minor of the residual is +- a minor of m.  So each pivot of
      each Hermite form is at most H: the pivots of the first multiply to a
      gcd of r x r minors of the residual (r its rank), those of every later
      one to d_1 ... d_r.  Each Hermite form leaves the entries above a
      pivot in [0, pivot), and from the second on every nonzero column (or
      row) holds a pivot, so every entry lies in [0, H].
    - L and R: no a priori bound is proven for phase 2.  Measured over
      thousands of matrices up to 12 x 12 of every shape and density, dense
      n x n ones up to n = 64 and sheared diagonals of side 32, every entry
      is at most H^2, the largest at 1.74 times the bit length of H; the
      tests hold their inputs to H^2.  Without the kernel reduction
      non-square inputs reached 2.35 times the bit length of H.
    """
    left, right = _identity_rows(m.rows), _identity_rows(m.cols)  # R by columns
    diagonal = _smith(_sparse(m), m.cols, left, right)
    return SmithNormalForm(diagonal,
                           _computed(m.rows, m.rows, tuple(map(tuple, left))),
                           _computed(m.cols, m.cols, tuple(zip(*right))))


def smith_diagonal(m: IntMatrix) -> tuple:
    """The diagonal of smith_normal_form(m): the same steps, with empty
    transform rows, so that no step has a transform to carry."""
    return _smith(_sparse(m), m.cols, [()] * m.rows, [()] * m.cols)


def _smith(sparse: tuple, ncols: int, left: list, right: list) -> tuple:
    """The Smith diagonal of the ncols-column matrix of `sparse` rows by
    smith_normal_form's steps.  Each row step is applied to the rows of
    `left` and each column step to `right` (held by columns), which end as
    L and R in diagonal order."""
    rows = [(i, dict(r)) for i, r in enumerate(sparse) if r]
    pivot_rows, pivot_cols = [], []
    while rows:
        shortest = ncols + 1  # the pivot's row length; `at` and `c` its position and column
        for k, (_, row) in enumerate(rows):
            if len(row) < shortest:
                for j, e in row.items():
                    if (e == 1 or e == -1) and (len(row) < shortest or j < c):
                        shortest, at, c = len(row), k, j
                if shortest == 1:
                    break
        if shortest > ncols:
            break
        i, pivot = rows.pop(at)
        unit = pivot.pop(c)
        top = left[i]
        for r, row in rows:  # row r -= f * row i clears column c
            f = row.pop(c, 0) * unit
            if f:
                for j, e in pivot.items():
                    x = row.get(j, 0) - f * e
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                left[r] = _minus(left[r], f, top)
        source = right[c]
        for j, e in pivot.items():  # column j -= e * unit * column c clears row i
            right[j] = _minus(right[j], e * unit, source)
        if unit == -1:
            left[i] = [-x for x in top]
        pivot_rows.append(i)
        pivot_cols.append(c)
        rows = [(r, row) for r, row in rows if row]
    # L's rows and R's columns in diagonal order: the pivots, the residual,
    # then the rest; phase 2 changes only the residual's block
    res_cols = sorted({j for _, row in rows for j in row})
    _to_front(left, pivot_rows + [i for i, _ in rows])
    _to_front(right, pivot_cols + res_cols)
    diagonal = [1] * len(pivot_rows)
    if rows:
        residual = [[row.get(j, 0) for j in res_cols] for _, row in rows]
        diagonal += _residual_smith(residual, left, right, len(pivot_rows))
    diagonal += [0] * (min(len(sparse), ncols) - len(diagonal))
    return tuple(diagonal)


def _computed(rows: int, cols: int, entries: tuple) -> IntMatrix:
    """An IntMatrix of entries this module computed, which are ints of the
    right shape already: IntMatrix's per-entry check is for outside input."""
    out = object.__new__(IntMatrix)
    object.__setattr__(out, "rows", rows)
    object.__setattr__(out, "cols", cols)
    object.__setattr__(out, "entries", entries)
    return out


def _identity_rows(n: int) -> list:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _to_front(t: list, first: list) -> None:
    """Move the rows `first` of t to its front, the others after them in
    their order; rows that carry nothing (smith_diagonal's) stay put."""
    if not t or not t[0]:
        return
    seen = set(first)
    t[:] = [t[i] for i in first] + [row for i, row in enumerate(t) if i not in seen]


def _residual_smith(a: list, left: list, right: list, offset: int) -> list:
    """Reduce the dense matrix a (row lists) to Smith form; return its diagonal.

    Row i of a stands for row offset + i of L (`left`) and column j for
    column offset + j of R (`right`, held by columns): every row operation
    is applied to the first, every column operation to the second.  Row and
    column Hermite forms alternate until a is diagonal; each pass that
    leaves it not diagonal makes a leading pivot a proper divisor of what it
    was, so the passes end.  2x2 gcd/lcm steps then give the divisibility
    chain, and the rows of L (columns of R) that meet the diagonal are
    reduced modulo those that do not, a basis of the left (right) kernel.
    """
    while not _is_diagonal(a):
        _hermite(a, left, offset)
        if _is_diagonal(a):
            break
        at = [list(col) for col in zip(*a)]
        _hermite(at, right, offset)
        a = [list(row) for row in zip(*at)]
    diag = [a[i][i] for i in range(min(len(a), len(a[0])))]
    # a Hermite form leaves the diagonal nonnegative; on a residual that was
    # diagonal from the start, the row Hermite form would only negate rows
    for i, d in enumerate(diag):
        if d < 0:
            diag[i] = -d
            left[offset + i] = [-x for x in left[offset + i]]
    rank = len(diag) - diag.count(0)
    if any(diag[i + 1] % diag[i] for i in range(rank - 1)):  # not yet a chain
        for i in range(rank):
            for j in range(i + 1, rank):
                x, y = diag[i], diag[j]
                if y % x == 0:
                    continue
                # diag(x, y) -> diag(g, lcm) with L = [[s, u], [-y/g, x/g]] and
                # R = [[1, -u y/g], [1, s x/g]], where s x + u y = g
                g, s, u = _bezout(x, y)
                yg, xg = y // g, x // g
                li, lj = offset + i, offset + j
                left[li], left[lj] = _mix(left[li], left[lj], s, u, -yg, xg)
                right[li], right[lj] = _mix(right[li], right[lj], 1, 1, -u * yg, s * xg)
                diag[i], diag[j] = g, x * yg
    _reduce_by_kernel(left, offset, rank, len(a))
    _reduce_by_kernel(right, offset, rank, len(a[0]))
    return diag


def _hermite(a: list, t: list, offset: int) -> None:
    """Row Hermite form of a (row lists, changed in place): echelon form,
    positive pivots, every entry above a pivot in [0, pivot), zero rows
    last.  Each row operation on rows of a is also applied to the rows of
    t that stand for them, t[offset + i] for a[i].

    The rows join the form one at a time (Kannan and Bachem): a row's
    leading entry is cleared against the pivot in its column, by
    subtraction when the pivot divides it and by a 2x2 Bezout step
    otherwise, until it leads in a column without a pivot or vanishes.  A
    new or changed pivot row is reduced at once, so no entry of the form
    outgrows its pivots while later rows join.
    """
    ncols = len(a[0])
    rows, trows, cols = [], [], []  # the form so far, its transform rows, pivot columns
    zeros = []  # transform rows of the rows that vanished
    for i, v in enumerate(a):
        tv = t[offset + i]
        k = 0
        while True:
            lead = next(filter(None, v), 0)
            if not lead:
                zeros.append(tv)
                break
            c = v.index(lead)  # every entry before the first nonzero one is 0
            k = bisect_left(cols, c, k)
            joined = k == len(cols) or cols[k] != c
            if joined:  # v leads in a column without a pivot: a new pivot row
                if v[c] < 0:
                    v, tv = [-x for x in v], [-x for x in tv]
                rows.insert(k, v)
                trows.insert(k, tv)
                cols.insert(k, c)
            else:
                top, ttop, p, e = rows[k], trows[k], rows[k][c], v[c]
                if e % p == 0:
                    q = e // p
                    v, tv = _minus(v, q, top), _minus(tv, q, ttop)
                    continue
                # (pivot row, v) <- (s pivot row + u v, (p v - e pivot row) / g)
                g, s, u = _bezout(p, e)
                eg, pg = e // g, p // g
                rows[k], v = _mix(top, v, s, u, -eg, pg)
                trows[k], tv = _mix(ttop, tv, s, u, -eg, pg)
            # reduce the rows above modulo pivot row k, then every row that
            # changed (row k too) modulo the pivots after it; the others
            # were reduced before and are unchanged
            changed = [k]
            for j in range(k, len(cols)):
                cj = cols[j]
                top, ttop, pj = rows[j], trows[j], rows[j][cj]
                for r in (range(k) if j == k else changed):
                    q = rows[r][cj] // pj
                    if q:
                        rows[r] = _minus(rows[r], q, top)
                        trows[r] = _minus(trows[r], q, ttop)
                        if j == k:
                            changed.append(r)
            if joined:
                break
    a[:] = rows + [[0] * ncols for _ in zeros]
    t[offset:offset + len(a)] = trows + zeros


def _reduce_by_kernel(t: list, offset: int, rank: int, size: int) -> None:
    """Put rows offset + rank .. offset + size - 1 of t, a kernel basis, in
    Hermite form and reduce rows offset .. offset + rank - 1 modulo them."""
    kernel = t[offset + rank:offset + size]
    if not kernel or not kernel[0]:  # no kernel, or no transform (smith_diagonal)
        return
    _hermite(kernel, [()] * len(kernel), 0)  # no transform to track
    t[offset + rank:offset + size] = kernel
    for row_k in kernel:
        c = next(j for j, e in enumerate(row_k) if e)
        p = row_k[c]
        for i in range(offset, offset + rank):
            q = t[i][c] // p
            if q:
                t[i] = _minus(t[i], q, row_k)


def _minus(v, q: int, w) -> list:
    """The row v - q w.  Empty rows stay empty: smith_diagonal's transform
    rows carry nothing, so no step on them costs a pass over a row."""
    return [x - q * y for x, y in zip(v, w)] if v else v


def _mix(x, y, a: int, b: int, c: int, d: int) -> tuple:
    """The rows (a x + b y, c x + d y) of a 2x2 step; empty rows stay empty."""
    if not x:
        return x, y
    return [a * p + b * q for p, q in zip(x, y)], [c * p + d * q for p, q in zip(x, y)]


def _is_diagonal(a: list) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def _bezout(a: int, b: int) -> tuple:
    """(g, s, u) with s a + u b = g = gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return (a, s0, u0) if a > 0 else (-a, -s0, -u0)


def rank_z(m: IntMatrix) -> int:
    return sum(1 for d in smith_diagonal(m) if d != 0)


def rank_q(m: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    return _bareiss(m.to_lists(), m.cols)[0]


def _bareiss(a: list, ncols: int) -> tuple:
    """(rank, sign of the row swaps, last pivot) of fraction-free elimination
    of the ncols-column matrix of row lists a, which it changes.

    Each column's pivot is its first nonzero entry at or below the current
    row.  Every division by the previous pivot is exact, so entries stay
    minors of a; on a square matrix of full rank the last pivot is
    sign * det(a).  Only the entries right of the pivot column are updated:
    no later step reads the others.
    """
    nrows = len(a)
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        for pivot_row in range(rank, nrows):
            if a[pivot_row][col]:
                break
        else:
            continue
        if pivot_row != rank:
            a[rank], a[pivot_row] = a[pivot_row], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[col]
        for i in range(rank + 1, nrows):
            row = a[i]
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev


def echelon_mod_p(rows, p: int) -> tuple:
    """Forward elimination over F_p of (row, tag) pairs, each a dict from an
    index to a nonzero coefficient mod p.  Each row in turn is cleared at its
    least index by the pivot kept there, until it is empty or its lead is
    new; the tag takes the same operations, so it names the input rows the
    result combines.  Returns (pivots, kernel): lead -> (row, tag) for the
    rows kept, scaled to lead with 1, and the tags of the rows that reduced
    to zero, in input order."""
    pivots: dict = {}
    kernel = []
    for row, tag in rows:
        row, tag = dict(row), dict(tag)
        while row:
            lead = min(row)
            c = row[lead]
            if lead not in pivots:
                inv = pow(c, -1, p)
                pivots[lead] = ({i: v * inv % p for i, v in row.items()},
                                {t: v * inv % p for t, v in tag.items()})
                break
            for vec, other in zip((row, tag), pivots[lead]):  # vec -= c * other
                for i, v in other.items():
                    vec[i] = (vec.get(i, 0) - c * v) % p
                    if not vec[i]:
                        del vec[i]
        else:
            kernel.append(tag)
    return pivots, kernel


def rank_mod_p(m, p: int) -> int:
    """Rank over F_p of an IntMatrix or of sparse rows (a differential of a
    ChainComplex): the pivot count of echelon_mod_p on its rows."""
    sparse = _sparse(m) if isinstance(m, IntMatrix) else m
    rows = (({j: r for j, e in row if (r := e % p)}, {}) for row in sparse)
    return len(echelon_mod_p(rows, p)[0])


# ---------------------------------------------------------------------------
# graded abelian groups


def invariant_factors(orders) -> tuple:
    """Normalise a multiset of cyclic orders (>= 2) to the chain d_1 | d_2 | ...,
    using Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) on every pair (no factoring)."""
    if orders and min(orders) < 2:
        raise ValueError("torsion orders must be >= 2")
    return tuple(d for d in _divisibility_chain(orders) if d > 1)


def _divisibility_chain(values) -> list:
    """The positive integers `values`, as many of them, put in the chain
    d_1 | d_2 | ... by Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) on every pair."""
    chain = list(values)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return chain


@dataclass(frozen=True)
class GradedAbelianGroup:
    components: tuple  # sorted tuple of (degree, free_rank, torsion_chain)

    @staticmethod
    def create(data: dict) -> "GradedAbelianGroup":
        comps = []
        for deg, (free, torsion) in data.items():
            chain = invariant_factors(torsion)
            if free or chain:
                comps.append((int(deg), int(free), chain))
        return GradedAbelianGroup(tuple(sorted(comps)))

    def component(self, degree: int):
        for deg, free, torsion in self.components:
            if deg == degree:
                return free, torsion
        return 0, ()

    def degrees(self):
        return [deg for deg, _, _ in self.components]

    def to_json(self) -> dict:
        return {str(deg): {"free": free, "torsion": list(torsion)}
                for deg, free, torsion in self.components}


# ---------------------------------------------------------------------------
# chain complexes and homology


@dataclass(frozen=True)
class ChainComplex:
    ranks: tuple  # sorted tuple of (degree, rank > 0)
    differentials: tuple  # sorted tuple of (degree n, sparse rows of d_n : C_n -> C_{n-1})

    @staticmethod
    def create(ranks: dict, differentials: dict) -> "ChainComplex":
        """A differential is an IntMatrix, dense rows, or rows {column: entry}
        as this package's complexes hand them over; a zero one is left out.
        Each distinct input object is read once, however many degrees it fills."""
        kept, degrees = {}, set()
        for key, r in ranks.items():
            if type(r) is not int:
                raise ValueError(f"rank {r!r} in degree {key} is not an integer")
            if r < 0:
                raise ValueError(f"rank {r} in degree {key} is negative")
            n = int(key)
            degrees.add(n)
            if r:
                kept[n] = r
        if len(degrees) < len(ranks):
            integer_keys(ranks, "degree")  # raises RepeatedKeyError naming both keys
        ranks = kept
        diffs, read = {}, {}  # read: id of an input object -> _read_differential of it
        for n, mat in integer_keys(differentials, "degree").items():
            if id(mat) not in read:
                read[id(mat)] = _read_differential(mat)
            if read[id(mat)] is None:
                continue
            rows, ncols, exact = read[id(mat)]
            shape = ranks.get(n - 1, 0), ranks.get(n, 0)
            if len(rows) != shape[0] or ncols > shape[1] or exact and ncols != shape[1]:
                raise ValueError(f"differential d_{n} has shape {len(rows)}x{ncols}, "
                                 f"expected {shape[0]}x{shape[1]}")
            diffs[n] = rows
        for n, rows in diffs.items():
            nxt = diffs.get(n + 1)
            if nxt is not None and not product_is_zero(rows, nxt):
                raise ValueError(f"d_{n} o d_{n + 1} is nonzero")
        return ChainComplex(tuple(sorted(ranks.items())), tuple(sorted(diffs.items())))

    def degrees(self):
        return [deg for deg, _ in self.ranks]

    def to_json(self) -> dict:
        ranks = dict(self.ranks)
        return {"ranks": {str(n): r for n, r in self.ranks},
                "differentials": {str(n): _dense(rows, ranks[n])
                                  for n, rows in self.differentials}}

    @staticmethod
    def from_json(data) -> "ChainComplex":
        """Inverse of to_json; a malformed document raises ValueError."""
        ranks = data.get("ranks") if isinstance(data, dict) else None
        diffs = data.get("differentials", {}) if isinstance(data, dict) else None
        if not isinstance(ranks, dict) or not isinstance(diffs, dict) or not all(
                isinstance(mat, list) and all(isinstance(row, list) for row in mat)
                for mat in diffs.values()):
            raise ValueError('a chain complex is a JSON object: "ranks" maps degrees to '
                             'ranks and "differentials" maps degrees to lists of rows')
        return ChainComplex.create(ranks, diffs)


def _read_differential(mat):
    """(sparse rows, columns, exact) of a differential given to create, None
    for a zero one: an IntMatrix or dense rows (checked as IntMatrix checks
    them) have exactly their columns, rows {column: entry} at least those."""
    if not isinstance(mat, IntMatrix):
        if mat and isinstance(mat[0], dict):
            rows, width = [], 0
            for row in mat:
                kept = []
                for j, e in row.items():
                    if type(j) is not int or j < 0:
                        raise ValueError(f"matrix column {j!r} is not a nonnegative integer")
                    if type(e) is not int:
                        raise ValueError(f"matrix entry {e!r} is not an integer")
                    if e:
                        kept.append((j, e))
                        width = max(width, j + 1)
                kept.sort()
                rows.append(tuple(kept))
            return (tuple(rows), width, False) if width else None
        mat = IntMatrix.from_rows(mat)
    rows = _sparse(mat)
    return (rows, mat.cols, True) if any(rows) else None


def homology(c: ChainComplex, coefficients: Ring = "Z") -> GradedAbelianGroup:
    """H_n = ker d_n / im d_{n+1}.

    Each distinct nonzero differential is reduced once per call from its
    rows, however many degrees it appears in: to its Smith diagonal over Z
    (rank and torsion orders), by fraction-free elimination over Q and by
    elimination mod p over F_p (rank); an absent differential has rank 0.
    """
    p = ring_prime(coefficients)
    ranks = dict(c.ranks)
    reduced = {}  # n -> (rank of d_n, torsion of coker d_n over Z)
    by_rows = {}  # the same reduction for every differential with these rows
    for n, rows in c.differentials:
        if rows not in by_rows:
            if p is not None:
                by_rows[rows] = (rank_mod_p(rows, p), ())
            elif coefficients == "Q":
                by_rows[rows] = (_bareiss(_dense(rows, ranks[n]), ranks[n])[0], ())
            else:
                diag = [d for d in _smith(rows, ranks[n], [()] * len(rows), [()] * ranks[n])
                        if d != 0]
                by_rows[rows] = (len(diag), tuple(d for d in diag if d > 1))
        reduced[n] = by_rows[rows]
    components = []
    absent = (0, ())
    for n, dim in c.ranks:
        r_out = reduced.get(n, absent)[0]
        r_in, torsion = reduced.get(n + 1, absent)
        free = dim - r_out - r_in
        if free < 0:
            raise AssertionError("negative homology rank: complex invalid")
        if free or torsion:
            components.append((n, free, torsion))
    # c.ranks is sorted by degree, and the torsion orders read off a Smith
    # diagonal already form a divisibility chain: nothing is left to normalise
    return GradedAbelianGroup(tuple(components))


def elementary_complex(free_at: dict, torsion_at: dict) -> ChainComplex:
    """The sum of one Z in degree n per free generator of H_n and one
    two-term piece Z --d--> Z in degrees (n+1, n) per torsion order d of H_n.

    free_at maps a degree to a free rank, torsion_at to a list of orders
    (not necessarily a divisibility chain).  The basis of degree n is the
    free part of H_n, then the torsion targets of H_n, then the torsion
    sources of H_{n-1}.
    """
    def rank(n):
        return free_at.get(n, 0) + len(torsion_at.get(n, ())) + len(torsion_at.get(n - 1, ()))

    ranks = {n: rank(n) for n in {*free_at, *torsion_at, *(n + 1 for n in torsion_at)}}
    diffs = {}
    for n, orders in torsion_at.items():  # d_{n+1}: the sources of H_n's torsion onto its targets
        target = free_at.get(n, 0)
        source = free_at.get(n + 1, 0) + len(torsion_at.get(n + 1, ()))
        diffs[n + 1] = rows = [{} for _ in range(ranks[n])]
        for i, d in enumerate(orders):
            rows[target + i][source + i] = d
    return ChainComplex.create(ranks, diffs)


def formality_splitting(c: ChainComplex):
    """Minimal model of a bounded complex over Z.

    The degree-n homology contributes its free rank in degree n with zero
    differential, and one two-term piece Z --d--> Z in degrees (n+1, n) per
    torsion order d.  Returns (minimal, certified) where certified records
    that the minimal model has the same homology as the input; over a
    hereditary ring this always holds.
    """
    return split_homology(homology(c, "Z"))


def split_homology(h: GradedAbelianGroup):
    """(minimal, certified) of `formality_splitting` for a complex whose
    integral homology h the caller already holds."""
    minimal = elementary_complex({deg: free for deg, free, _ in h.components},
                                 {deg: torsion for deg, _, torsion in h.components})
    return minimal, homology(minimal, "Z") == h
