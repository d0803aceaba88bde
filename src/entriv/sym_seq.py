"""Arity-truncated symmetric sequences in graded Sigma_n-modules.

The composition product is computed orbitwise: for each Sigma_n-orbit of set
partitions E of {1..n} the summand is the module induced from the stabilizer
G_E acting diagonally on A(blocks) tensor the blockwise B's, with degrees
adding.  Koszul signs funnel through `koszul_sign`: transposing factors of
degrees d, d' costs (-1)^(d*d').  This convention is a choice; consumers
comparing against a different sign convention must conjugate by per-degree
signs.

Induced modules are materialized on explicit coset bases; the arity at which
this is allowed is capped (memory control at desk scale).  The kernel works on
integers.  Basis elements are ordered by orbit, coset, A-label and tensor label
(in mixed radix), and numbered arithmetically: one coset's block of elements
holds the same count of each total degree, so an element's position in its
degree is that degree's start, plus its coset times the count, plus its rank
in the block.  The combinatorics of each orbit's cosets are computed once per
process.  The coset sigma_F G_E of a partition F of E's shape moves under g to
the coset of F' = gF, and the h in G_E that the move carries is read off F and
F': where g(F_i[r]) sits in F' gives h's block permutation and within-block
maps, and no permutation is composed or inverted.  A generator's image of a
whole coset block is then one gather, by a table that depends on h alone,
from the points of the target block.  Within one `compose` call the signed
action of each permutation on A- and B-labels and each h's gather are
computed once.  The tables that depend on no input are built once per
process, on first use: `_coset_moves` and `_stabilizer_moves` (the moves
with each distinct h numbered) per orbit representative, `_koszul_bit` per
block permutation pi and parity pattern, and `_shape_counts` per n.

Signed permutations are kept in the plus-point form of `rep_theory`: a
basis vector's image is the point 2k (+e_k) or 2k+1 (-e_k).  The labels'
actions come from `SignedPermModule.act_plus`, which carries the plus points
through the generators of `perms.adjacent_word`, first letter applied first;
so act_plus(p o q) is act_plus(p) followed by act_plus(q).  A basis element's
image under a generator is 2 * (its position) plus one sign bit, the XOR of
its A-label, blockwise B-label and Koszul sign bits, so no sign is multiplied
and no (index, sign) pair is built.  The product's generator tables are built
in that form and handed to `SignedPermModule._from_plus`, which checks every
relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import factorial
from operator import xor

from . import MAX_MATERIALIZED_ARITY, integer_keys, perms
from .rep_theory import SignedPermModule, character, trivial_multiplicity


# ---------------------------------------------------------------------------
# set partitions and their orbits


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple:
    """All set partitions of {0..n-1}, blocks ordered by (-size, min)."""
    if n == 0:
        return ((),)
    out = []

    def grow(i, blocks):
        if i == n:
            out.append(_canonical_blocks([tuple(b) for b in blocks]))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return tuple(out)


def _canonical_blocks(blocks):
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: (-len(b), b[0])))


def apply_perm_to_partition(g: tuple, blocks: tuple) -> tuple:
    return _canonical_blocks([tuple(g[x] for x in block) for block in blocks])


@dataclass(frozen=True)
class PartitionOrbit:
    representative: tuple  # canonical blocks, sizes descending and consecutive
    stabilizer_order: int
    block_sizes: tuple

    @property
    def orbit_size(self) -> int:
        return factorial(sum(self.block_sizes)) // self.stabilizer_order


@lru_cache(maxsize=None)
def partition_orbits(n: int) -> tuple:
    """One orbit per multiset of block sizes, i.e. per partition of the integer n."""
    orbits = []
    for sizes in perms.partitions(n):
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(tuple(range(start, start + s)))
            start += s
        mult: dict[int, int] = {}
        for s in sizes:
            mult[s] = mult.get(s, 0) + 1
        stab = 1
        for s, m in mult.items():
            stab *= factorial(s) ** m * factorial(m)
        orbits.append(PartitionOrbit(tuple(blocks), stab, sizes))
    return tuple(orbits)


def orbit_partitions(n: int, sizes: tuple) -> tuple:
    return tuple(bl for bl in set_partitions(n)
                 if tuple(len(b) for b in bl) == tuple(sizes))


def koszul_sign(pi: tuple, degrees: tuple) -> int:
    """Sign of permuting graded tensor factors: factor i moves to slot pi[i]."""
    s = 1
    for i in range(len(pi)):
        for j in range(i + 1, len(pi)):
            if pi[i] > pi[j] and (degrees[i] * degrees[j]) % 2 != 0:
                s = -s
    return s


# ---------------------------------------------------------------------------
# symmetric sequences


@dataclass(frozen=True)
class SymSeq:
    truncation: int
    components: tuple  # sorted ((arity, ((degree, SignedPermModule), ...)), ...)
    _index: dict = field(init=False, repr=False, compare=False)  # arity -> {degree: module}

    def __post_init__(self):
        object.__setattr__(self, "_index", {a: dict(by_degree) for a, by_degree in self.components})

    @staticmethod
    def create(truncation: int, data: dict) -> "SymSeq":
        comps = []
        for arity, by_degree in data.items():
            arity = int(arity)
            if arity < 1:
                raise ValueError("symmetric sequences here are non-unital: arity >= 1")
            if arity > truncation:
                raise ValueError("component beyond declared truncation")
            kept = []
            for degree, module in by_degree.items():
                if module.dim == 0:
                    continue
                if module.n != arity:
                    raise ValueError("module rank does not match its arity")
                kept.append((int(degree), module))
            if kept:
                comps.append((arity, tuple(sorted(kept, key=lambda kv: kv[0]))))
        return SymSeq(truncation, tuple(sorted(comps)))

    def arities(self):
        return [a for a, _ in self.components]

    def degrees(self, arity: int):
        return list(self._index.get(arity, ()))

    def module(self, arity: int, degree: int) -> SignedPermModule | None:
        by_degree = self._index.get(arity)
        return by_degree.get(degree) if by_degree else None

    def dimension(self, arity: int, degree: int) -> int:
        m = self.module(arity, degree)
        return m.dim if m else 0

    def to_json(self):
        return {"truncation": self.truncation,
                "components": {str(a): {str(d): m.to_json() for d, m in by_degree}
                               for a, by_degree in self.components}}

    @staticmethod
    def from_json(data):
        """Inverse of to_json; a malformed document raises ValueError."""
        try:
            comps = {a: {d: SignedPermModule.from_json(m)
                         for d, m in integer_keys(by_deg, "degree").items()}
                     for a, by_deg in integer_keys(data["components"], "arity").items()}
            truncation = data["truncation"]
        except KeyError as exc:
            raise ValueError(f"sequence JSON lacks the key {exc}") from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed sequence JSON: {exc}") from exc
        if type(truncation) is not int:
            raise ValueError(f"truncation {truncation!r} is not an integer")
        return SymSeq.create(truncation, comps)


# ---------------------------------------------------------------------------
# composition product


def compose(a_seq: SymSeq, b_seq: SymSeq, truncation: int) -> SymSeq:
    """Composition product A o B up to the given arity truncation."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if truncation > a_seq.truncation or truncation > b_seq.truncation:
        raise ValueError("truncation exceeds the inputs' stored arities")
    if truncation > MAX_MATERIALIZED_ARITY:
        raise ValueError(f"arity {truncation} exceeds the materialization cap "
                         f"{MAX_MATERIALIZED_ARITY}")

    a_labels, b_labels = _LabelActions(a_seq), _LabelActions(b_seq)
    out: dict[int, dict[int, SignedPermModule]] = {}
    for n in range(1, truncation + 1):
        built = _compose_arity(a_labels, b_labels, n)
        if built:
            out[n] = built
    return SymSeq.create(truncation, out)


class _LabelActions:
    """The labels of one sequence's arity-m piece, (degree, index) in degree
    order and numbered 0, 1, ..., with each permutation's signed action on
    them built once per call from `act_plus`."""

    def __init__(self, seq: SymSeq):
        self.seq = seq
        self._degrees: dict[int, list] = {}
        self._maps: dict[tuple, list] = {}

    def label_degrees(self, arity: int) -> list:
        """Degree of each label."""
        got = self._degrees.get(arity)
        if got is None:
            got = [d for d in self.seq.degrees(arity)
                   for _ in range(self.seq.dimension(arity, d))]
            self._degrees[arity] = got
        return got

    def action(self, arity: int, perm: tuple) -> list:
        """Per label, the point its plus point goes to under perm: twice the
        image label, plus 1 if the image is negated."""
        key = (arity, perm)
        got = self._maps.get(key)
        if got is None:
            got = []
            for d in self.seq.degrees(arity):
                shift = 2 * len(got)
                got += [shift + x for x in self.seq.module(arity, d).act_plus(perm)]
            self._maps[key] = got
        return got


def _compose_arity(a_labels: _LabelActions, b_labels: _LabelActions, n: int) -> dict:
    """Arity-n piece of A o B.  Basis elements are ordered orbit by orbit,
    then coset, A-label and tensor label; a coset block is the n_a * n_t
    elements (A-label a, tensor x) of one coset c.  Within a total degree D
    the block's elements are consecutive, so element (c, a, x) of an orbit
    sits at position start_D + c * count_D + (its rank among the block's
    degree-D elements), start_D counting the degree-D elements of earlier
    orbits.  Each generator's image of a block is one gather from the plus
    points of the target block, listed degree by degree, and each degree's
    run of it is appended to that degree's table."""
    sizes: dict[int, int] = {}  # total degree -> elements numbered so far
    images = [{} for _ in range(n - 1)]  # per generator, degree -> image plus points

    for orbit in partition_orbits(n):
        k = len(orbit.block_sizes)
        a_deg = a_labels.label_degrees(k)
        block_deg = [b_labels.label_degrees(size) for size in orbit.block_sizes]
        if not a_deg or not all(block_deg):
            continue

        # tensor labels: one label per block, the first block most significant
        stride = [1] * k
        for i in range(k - 2, -1, -1):
            stride[i] = stride[i + 1] * len(block_deg[i + 1])
        tensor_deg = [0]
        parities = [()]
        for degs in block_deg:
            tensor_deg = [t + d for t in tensor_deg for d in degs]
            parities = [p + (d % 2,) for p in parities for d in degs]
        n_t = len(tensor_deg)

        # a coset block listed degree by degree: order[q] is the element
        # a * n_t + x at place q, and rank2[a * n_t + x] is 2q
        degree = [da + dt for da in a_deg for dt in tensor_deg]
        order = sorted(range(len(degree)), key=degree.__getitem__)
        rank2 = [0] * len(order)
        for q, i in enumerate(order):
            rank2[i] = 2 * q
        counts: dict[int, int] = {}  # degree -> elements per block, ascending
        for i in order:
            counts[degree[i]] = counts.get(degree[i], 0) + 1
        runs, starts, lo = [], {}, 0  # runs: (degree, first place, end place)
        for d, count in counts.items():
            runs.append((d, lo, lo + count))
            lo += count
            starts[d] = sizes.get(d, 0)
            sizes[d] = starts[d] + orbit.orbit_size * count
        if not images:
            continue

        # per coset, the plus and minus points of its block in place order
        points = [list(chain.from_iterable(
            range(2 * (starts[d] + c * count), 2 * (starts[d] + (c + 1) * count))
            for d, count in counts.items())) for c in range(orbit.orbit_size)]
        patterns: dict[tuple, int] = {}  # parity pattern -> its number
        pattern_of = [patterns.setdefault(p, len(patterns)) for p in parities]
        identity = tuple(range(k))

        def gather_of(pi, within):
            """The gather of a block's image under h = (pi, within), read off
            the target block's points.  Per tensor label, the plus point of
            its image carries the blockwise B-sign bits and the Koszul sign
            bit of moving block i to slot pi[i], XORed; the A-sign bit is
            folded into each index."""
            t = [0]
            for i, size in enumerate(orbit.block_sizes):
                step = 2 * stride[pi[i]]
                t = [(x ^ (y & 1)) + (y >> 1) * step
                     for x in t for y in b_labels.action(size, within[i])]
            if pi != identity:
                kos = [_koszul_bit(pi, p) for p in patterns]
                t = list(map(xor, t, map(kos.__getitem__, pattern_of)))
            flat = [rank2[(ap >> 1) * n_t + (y >> 1)] + ((ap ^ y) & 1)
                    for ap in a_labels.action(k, pi) for y in t]
            return perms.gather(perms.gather(order)(flat))

        hs, moves = _stabilizer_moves(orbit.representative)
        takes = [gather_of(pi, within) for pi, within in hs]
        for image, moves_t in zip(images, moves):
            bound = [(image.setdefault(d, []), lo, hi) for d, lo, hi in runs]
            for c2, h in moves_t:
                out = takes[h](points[c2])
                for run, lo, hi in bound:
                    run += out[lo:hi]

    return {d: SignedPermModule._from_plus(n, size, tuple(tuple(image[d]) for image in images))
            for d, size in sizes.items()}


@lru_cache(maxsize=None)
def _stabilizer_moves(rep: tuple) -> tuple:
    """`_coset_moves(rep)` indexed: (the distinct h = (pi, within) of its
    moves, in order of first use; per generator and coset, (index of the
    target coset, index of h))."""
    hs: dict[tuple, int] = {}
    moves = tuple(tuple((c2, hs.setdefault((pi, within), len(hs))) for c2, pi, within in row)
                  for row in _coset_moves(rep))
    return tuple(hs), moves


@lru_cache(maxsize=None)
def _koszul_bit(pi: tuple, parities: tuple) -> int:
    """1 when `koszul_sign(pi, parities)` is -1, else 0; with k blocks
    there are at most k! * 2^k keys."""
    return int(koszul_sign(pi, parities) == -1)


@lru_cache(maxsize=None)
def _coset_moves(rep: tuple) -> tuple:
    """Per adjacent transposition g = s_t and per coset sigma_F G_E of the
    orbit of the partition E = rep, listed as `orbit_partitions` lists the
    partitions F: (index of the coset of F' = gF, block permutation pi,
    within-block maps) of h = sigma_{gF}^-1 g sigma_F in G_E, so that
    g . (sigma_F (x) v) = sigma_{gF} (x) (h . v).  sigma_F sends the r-th
    element of block i of E to the r-th element F_i[r] of block i of F, so h
    is read off F and F' directly: g(F_i[r]) is element within[i][r] of
    block pi[i] of F'."""
    n = sum(len(b) for b in rep)
    cosets = orbit_partitions(n, tuple(len(b) for b in rep))
    coset_index = {blocks: c for c, blocks in enumerate(cosets)}
    moves = []
    for t in range(n - 1):
        g = perms.adjacent(n, t)
        row = []
        for blocks in cosets:
            moved = apply_perm_to_partition(g, blocks)
            slot = {x: (j, r) for j, block in enumerate(moved) for r, x in enumerate(block)}
            images = [[slot[g[x]] for x in block] for block in blocks]
            row.append((coset_index[moved], tuple(img[0][0] for img in images),
                        tuple(tuple(r for _, r in img) for img in images)))
        moves.append(tuple(row))
    return tuple(moves)


def compose_dimensions_raw(a_seq: SymSeq, b_seq: SymSeq, n: int) -> dict:
    """Degreewise dimension of (A o B)(n) by summation over set partitions,
    the independent bookkeeping oracle.  It shares `set_partitions` with the
    product route: the partitions of each block-size shape are counted over
    that enumeration, once per n, and each shape costs one degree
    convolution.  It reads no orbit representative, stabilizer order,
    coset or label action."""
    a_dims, b_dims = ({m: {d: seq.dimension(m, d) for d in seq.degrees(m)}
                       for m in range(n + 1)} for seq in (a_seq, b_seq))
    dims: dict[int, int] = {}
    for shape, count in _shape_counts(n):
        parts = [a_dims[len(shape)], *(b_dims[size] for size in shape)]
        if not all(parts):
            continue
        conv = {0: count}
        for factor in parts:
            nxt: dict[int, int] = {}
            for d1, m1 in conv.items():
                for d2, m2 in factor.items():
                    nxt[d1 + d2] = nxt.get(d1 + d2, 0) + m1 * m2
            conv = nxt
        for d, m in conv.items():
            dims[d] = dims.get(d, 0) + m
    return {d: m for d, m in dims.items() if m}


@lru_cache(maxsize=None)
def _shape_counts(n: int) -> tuple:
    """(block sizes, number of set partitions of {0..n-1} with those sizes),
    counted over `set_partitions(n)`, shapes in order of first appearance."""
    counts: dict[tuple, int] = {}
    for blocks in set_partitions(n):
        shape = tuple(map(len, blocks))
        counts[shape] = counts.get(shape, 0) + 1
    return tuple(counts.items())


# ---------------------------------------------------------------------------
# operadic suspension


def suspend(a_seq: SymSeq, k: int) -> SymSeq:
    """k-fold operadic (de)suspension at homology level: arity-n pieces shift
    by k(n-1) in degree and twist by the k-th power of the sign character."""
    if k == 0:
        return a_seq
    data: dict[int, dict[int, SignedPermModule]] = {}
    for arity, by_degree in a_seq.components:
        shifted = {}
        for degree, module in by_degree:
            shifted[degree + k * (arity - 1)] = module.twist_by_sign(k)
        data[arity] = shifted
    return SymSeq.create(a_seq.truncation, data)


# ---------------------------------------------------------------------------
# rational free-functor pieces and reports


def free_piece_rational(a_seq: SymSeq, generator_degree: int, arity: int) -> list:
    """Rational homology of the arity-n homogeneous piece on one generator of
    degree d: coinvariants multiplicities of A(n) twisted by the Koszul sign
    action on the n-th tensor power of a degree-d sphere class."""
    out = []
    for d_int in a_seq.degrees(arity):
        twisted = a_seq.module(arity, d_int).twist_by_sign(generator_degree)
        out.append((d_int + arity * generator_degree, trivial_multiplicity(twisted)))
    return sorted(out)


@dataclass(frozen=True)
class MonoidalityReport:
    truncation: int
    entries: tuple  # (arity, degree, dim_lhs, dim_rhs, chars_equal)
    passed: bool


def monoidality_report(a_seq: SymSeq, b_seq: SymSeq, truncation: int) -> MonoidalityReport:
    """Compare suspend(A o B, 1) with suspend(A,1) o suspend(B,1), degreewise
    and characterwise; the two sides go through independent code paths."""
    lhs = suspend(compose(a_seq, b_seq, truncation), 1)
    rhs = compose(suspend(a_seq, 1), suspend(b_seq, 1), truncation)
    entries = []
    for n in range(1, truncation + 1):
        for d in sorted(set(lhs.degrees(n)) | set(rhs.degrees(n))):
            dl, dr = lhs.dimension(n, d), rhs.dimension(n, d)
            # SymSeq.create keeps no zero-dimensional module, so equal
            # dimensions here are nonzero and both modules exist
            chars_equal = dl == dr and (character(lhs.module(n, d)).values
                                        == character(rhs.module(n, d)).values)
            entries.append((n, d, dl, dr, chars_equal))
    return MonoidalityReport(truncation, tuple(entries), all(e[4] for e in entries))


def graded_characters(seq: SymSeq, arity: int) -> dict:
    """degree -> CharacterVector for one arity; the comparison currency for
    associativity checks."""
    out = {}
    for d in seq.degrees(arity):
        out[d] = character(seq.module(arity, d))
    return out
