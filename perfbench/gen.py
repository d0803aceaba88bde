"""Seeded inputs and independent reference answers for the benchmark.

Everything here is the benchmark's own code: inputs are drawn from
`random.Random(seed)` and the reference answers are computed without calling
the program, so a defect in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

from entriv.core_algebra import ChainComplex, IntMatrix
from entriv.rep_theory import SignedPermModule
from entriv.steenrod_cochains import SimplicialSet
from entriv.sym_seq import SymSeq


# ---------------------------------------------------------------------------
# symmetric sequences


def _adjacent(n: int, i: int) -> list:
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return p


def _perm_module(n: int, twist: bool) -> SignedPermModule:
    sign = -1 if twist else 1
    gens = tuple(tuple((j, sign) for j in _adjacent(n, i)) for i in range(n - 1))
    return SignedPermModule(n, n, gens_perm=gens)


def _regular(n: int) -> SignedPermModule:
    basis = sorted(permutations(range(n)))
    index = {g: k for k, g in enumerate(basis)}
    gens = []
    for i in range(n - 1):
        s = _adjacent(n, i)
        gens.append(tuple((index[tuple(s[x] for x in g)], 1) for g in basis))
    return SignedPermModule(n, len(basis), gens_perm=tuple(gens))


def _direct_sum(mods: list) -> SignedPermModule:
    n = mods[0].n
    gens = []
    for i in range(n - 1):
        table, offset = [], 0
        for m in mods:
            table.extend((j + offset, s) for j, s in m.gens_perm[i])
            offset += m.dim
        gens.append(tuple(table))
    return SignedPermModule(n, sum(m.dim for m in mods), gens_perm=tuple(gens))


_KINDS = ("trivial", "sign", "natural", "twisted", "regular")


def _module_dim(kind: str, n: int) -> int:
    return {"trivial": 1, "sign": 1, "natural": n, "twisted": n,
            "regular": math.factorial(n)}[kind]


def _module(kind: str, n: int) -> SignedPermModule:
    if kind in ("trivial", "sign"):
        s = 1 if kind == "trivial" else -1
        return SignedPermModule(n, 1, gens_perm=tuple(((0, s),) for _ in range(n - 1)))
    if kind == "regular":
        return _regular(n)
    return _perm_module(n, kind == "twisted")


def random_spec(rng: random.Random, truncation: int) -> dict:
    """A random sparse sequence as {arity: {degree: [summand kinds]}}: arities
    above 1 are dropped with probability 1/3, each kept one has one or two
    degrees in [-2, 2], and each piece is a sum of one or two of trivial,
    sign, natural, sign-twisted natural (n >= 2) and regular (n <= 3)."""
    spec = {}
    for arity in range(1, truncation + 1):
        if arity > 1 and rng.randrange(3) == 0:
            continue
        kinds = _KINDS[:2] + (_KINDS[2:4] if arity >= 2 else ()) \
            + (_KINDS[4:] if arity <= 3 else ())
        spec[arity] = {rng.randint(-2, 2): [rng.choice(kinds) for _ in range(rng.randint(1, 2))]
                       for _ in range(rng.randint(1, 2))}
    return spec


def spec_dims(spec: dict) -> dict:
    return {a: {d: sum(_module_dim(k, a) for k in kinds) for d, kinds in by_degree.items()}
            for a, by_degree in spec.items()}


def build_symseq(spec: dict, truncation: int) -> SymSeq:
    return SymSeq.create(truncation, {
        a: {d: _direct_sum([_module(k, a) for k in kinds]) for d, kinds in by_degree.items()}
        for a, by_degree in spec.items()})


def _block_shapes(n: int) -> dict:
    """{block sizes in decreasing order: number of set partitions of range(n)
    with those block sizes}, by enumerating every set partition."""
    shapes: dict = {}

    def grow(i, blocks):
        if i == n:
            key = tuple(sorted((len(b) for b in blocks), reverse=True))
            shapes[key] = shapes.get(key, 0) + 1
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return shapes


_SHAPES = {n: _block_shapes(n) for n in range(1, 7)}


def compose_dims(a: dict, b: dict, truncation: int) -> dict:
    """{arity: {degree: dim}} of A o B: over all set partitions of the inputs,
    the degree convolution of A(number of blocks) with B(size) per block."""
    out = {}
    for n in range(1, truncation + 1):
        dims: dict = {}
        for sizes, count in _SHAPES[n].items():
            factors = [a.get(len(sizes))] + [b.get(size) for size in sizes]
            if any(not f for f in factors):
                continue
            conv = {0: count}
            for f in factors:
                nxt: dict = {}
                for d1, m1 in conv.items():
                    for d2, m2 in f.items():
                        nxt[d1 + d2] = nxt.get(d1 + d2, 0) + m1 * m2
                conv = nxt
            for d, m in conv.items():
                dims[d] = dims.get(d, 0) + m
        dims = {d: m for d, m in dims.items() if m}
        if dims:
            out[n] = dims
    return out


def total(dims: dict) -> int:
    return sum(sum(by_degree.values()) for by_degree in dims.values())


# ---------------------------------------------------------------------------
# chain complexes with homology known by construction


def invariant_chain(orders) -> tuple:
    """Smith diagonal d_1 | d_2 | ... of diag(orders), orders >= 1, by gcd/lcm
    exchange; units are kept (they are diagonal entries equal to 1)."""
    diag = sorted(orders)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag)


def _shears(rng: random.Random, size: int, count: int) -> list:
    """`count` elementary shears (i, j, q), each adding q times basis vector
    j to basis vector i, i != j; their product U is unimodular."""
    out = []
    while len(out) < count:
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            out.append((i, j, rng.choice((-2, -1, 1, 2))))
    return out


class KnownComplex:
    """Direct sum of elementary pieces (free generators, Z --1--> Z and
    Z --d--> Z), packed two basis slots per block, then changed by a basis
    change U_k in every degree: d_k becomes U_(k-1) d_k U_k^-1, so the complex,
    its homology and the Smith form of each differential stay known.  U_k is
    a product of size/4 random elementary shears over the whole degree, then
    a relabelling, so the differentials fill in (up to 6 nonzeros a row at
    side 32) and the Smith forms' L and R grow entries of up to 230 bits.
    Sheared diagonals stall at about size/2 shears a side for side 16 and at
    size shears for side 32 (see workloads.CLIFF_PROBES); size/4 stays below
    that: on a 2-vCPU Xeon VM under CPython 3.11, 1200 seeds of sides 8, 16
    and 32 all verified, the slowest side-32 Smith-form item in 72 ms.
    """

    def __init__(self, rng: random.Random, size: int, top: int = 3):
        self.size = size
        self.top = top
        blocks = size // 2
        degrees = range(top + 1)
        dense = {k: [[0] * size for _ in range(size)] for k in range(1, top + 1)}
        self.free = {k: 0 for k in degrees}
        self.torsion = {k: [] for k in degrees}
        self.orders = {k: [] for k in range(1, top + 1)}  # nonzero pieces of d_k
        for blk in range(blocks):
            sources = 0  # slots of degree k that map down to degree k-1
            for k in degrees:
                targets = 0
                for _ in range(2 - sources):
                    if k < top and rng.randrange(3):
                        targets += 1
                    else:
                        self.free[k] += 1
                labels = [rng.choice((1, 1, 2, 3, 4, 6, 9, 12)) for _ in range(targets)]
                for d in labels:
                    if d > 1:
                        self.torsion[k].append(d)
                # d_(k+1) sends the first slots of the block in degree k+1 to
                # its last slots in degree k
                for t, d in enumerate(labels):
                    dense[k + 1][2 * blk + 2 - targets + t][2 * blk + t] = d
                    self.orders[k + 1].append(d)
                sources = targets
        shears = {k: _shears(rng, size, size // 4) for k in degrees}
        for k, m in dense.items():
            for i, j, q in shears[k - 1]:  # U_(k-1) d_k: row_i += q row_j
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            for i, j, q in shears[k]:  # d_k U_k^-1: column_j -= q column_i
                for row in m:
                    row[j] -= q * row[i]
        perm = {k: list(range(size)) for k in degrees}
        for k in degrees:
            rng.shuffle(perm[k])
        self.diffs = {k: IntMatrix.from_rows(
            [[dense[k][perm[k - 1][i]][perm[k][j]] for j in range(size)] for i in range(size)])
            for k in range(1, top + 1)}
        self.complex = ChainComplex.create({k: size for k in degrees}, self.diffs)

    def smith_diagonal(self, k: int) -> tuple:
        return invariant_chain(self.orders[k]) + (0,) * (self.size - len(self.orders[k]))

    def homology(self, ring: str) -> dict:
        """{degree: (free, torsion chain)} over Z, Q or F_p."""
        out = {}
        for k in range(self.top + 1):
            if ring == "Z":
                free = self.free[k]
                tors = tuple(d for d in invariant_chain(self.torsion[k]) if d > 1)
            elif ring == "Q":
                free, tors = self.free[k], ()
            else:
                p = int(ring[1:])
                # Z --d--> Z with p | d leaves F_p in both of its degrees
                free = self.free[k] + sum(1 for d in self.torsion[k] if d % p == 0) \
                    + sum(1 for d in self.torsion.get(k - 1, []) if d % p == 0)
                tors = ()
            if free or tors:
                out[k] = (free, tors)
        return out


def group_of(h) -> dict:
    """{degree: (free, torsion)} of a GradedAbelianGroup."""
    return {deg: (free, tuple(tors)) for deg, free, tors in h.components}


def sheared_diagonal(seed: int, size: int, shears: int) -> IntMatrix:
    """A diagonal of entries in 1..6 multiplied on each side by up to `shears`
    elementary shears (add -2..2 times one row or column to another): a
    Smith-form input whose diagonal is known."""
    rng = random.Random(seed)
    diag = [rng.randint(1, 6) for _ in range(size)]
    m = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
    for side in (0, 1):
        for _ in range(shears):
            i, j = rng.randrange(size), rng.randrange(size)
            if i == j:
                continue
            q = rng.choice((-2, -1, 1, 2))
            if side == 0:
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            else:
                for row in m:
                    row[i] += q * row[j]
    return IntMatrix.from_rows(m)


def sheared_diagonal_smith(seed: int, size: int) -> tuple:
    rng = random.Random(seed)
    return invariant_chain([rng.randint(1, 6) for _ in range(size)])


def stunted_homology(a: int, b: int) -> dict:
    """H_j of cells a..b with d_j = 2 for even j, from kernels and images."""
    out = {}
    for j in range(a, b + 1):
        kernel = j == a or j % 2 != 0
        hit = j + 1 <= b and (j + 1) % 2 == 0
        if kernel:
            out[j] = (0, (2,)) if hit else (1, ())
    return out


# ---------------------------------------------------------------------------
# configurations and cochains


def section(points) -> tuple:
    """Mean-centred coordinates, axis by axis."""
    t = len(points)
    comps = []
    for axis in range(len(points[0])):
        coords = [pt[axis] for pt in points]
        mean = sum(coords, Fraction(0)) / t
        comps.append(tuple(x - mean for x in coords))
    return tuple(comps)


def random_points(rng: random.Random, m: int, t: int) -> tuple:
    while True:
        pts = tuple(tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 1000))
                          for _ in range(m)) for _ in range(t))
        if len(set(pts)) == t:
            return pts


def simplex_boundary(n: int) -> SimplicialSet:
    """The boundary of the (n+1)-simplex, a triangulated n-sphere; simplices
    are named by their ordered vertex strings and d_i drops vertex i."""
    verts = "0123456789"[: n + 2]
    simplices, faces = {}, {}
    for k in range(n + 1):
        names = ["".join(c) for c in combinations(verts, k + 1)]
        simplices[k] = names
        if k:
            for nm in names:
                faces[nm] = [(nm[:i] + nm[i + 1:], ()) for i in range(k + 1)]
    return SimplicialSet.create(simplices, faces)

