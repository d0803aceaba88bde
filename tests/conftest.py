"""Shared randomized-input builders for the test suite.

Random monomial modules are assembled from primitives (trivial, sign, the
natural permutation action, regular) and direct sums, so every generated
action satisfies the symmetric-group relations by construction.  Random
chain complexes are elementary complexes of random graded groups, sheared
by unimodular basis changes, so d o d = 0 and the homology stays known.
The last helpers read what only tests ask for: the monoidal unit sequence,
one entry of a bigraded table, and F_2 cocycle bases and a cocycle with a
nonzero class.
"""

import hashlib
from itertools import permutations

from entriv import perms
from entriv.core_algebra import ChainComplex, IntMatrix, elementary_complex
from entriv.hochschild import BigradedGroup
from entriv.rep_theory import SignedPermModule, character
from entriv.rng import CounterRng
from entriv.steenrod_cochains import Cochain, SimplicialSet, _echelon, cohomology_class
from entriv.sym_seq import SymSeq


def sign_rep(n: int) -> SignedPermModule:
    """The sign character: every adjacent transposition acts by -1."""
    return SignedPermModule(n, 1, gens_perm=tuple(((0, -1),) for _ in range(n - 1)))


def regular(n: int) -> SignedPermModule:
    """Left multiplication on the n! permutations of range(n)."""
    basis = sorted(permutations(range(n)))
    index = {g: i for i, g in enumerate(basis)}
    gens = []
    for i in range(n - 1):
        s = perms.adjacent(n, i)
        gens.append(tuple((index[perms.compose(s, g)], 1) for g in basis))
    return SignedPermModule(n, len(basis), gens_perm=tuple(gens))


def perm_module(n: int, sign_twist: bool = False) -> SignedPermModule:
    """Natural action on n points, optionally twisted by the sign character."""
    gens = []
    for i in range(n - 1):
        s = perms.adjacent(n, i)
        gens.append(tuple((s[j], -1 if sign_twist else 1) for j in range(n)))
    return SignedPermModule(n, n, gens_perm=tuple(gens))


def direct_sum_modules(mods) -> SignedPermModule:
    n = mods[0].n
    dim = sum(m.dim for m in mods)
    gens = []
    for i in range(n - 1):
        table = []
        offset = 0
        for m in mods:
            for j, s in m.gens_perm[i]:
                table.append((j + offset, s))
            offset += m.dim
        gens.append(tuple(table))
    return SignedPermModule(n, dim, gens_perm=tuple(gens))


def random_monomial_module(rng: CounterRng, n: int, max_summands: int = 2) -> SignedPermModule:
    choices = [SignedPermModule.trivial(n), sign_rep(n)]
    if n >= 2:
        choices.append(perm_module(n))
        choices.append(perm_module(n, sign_twist=True))
    if n <= 3:
        choices.append(regular(n))
    mods = [rng.choice(choices) for _ in range(rng.randint(1, max_summands))]
    return direct_sum_modules(mods)


def random_symseq(rng: CounterRng, truncation: int = 4, degree_span: int = 2,
                  ensure_arity_one: bool = False) -> SymSeq:
    data = {}
    for arity in range(1, truncation + 1):
        if arity > 1 and rng.below(3) == 0:
            continue  # sparse sequences exercise missing-component paths
        by_degree = {}
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(-degree_span, degree_span)
            by_degree[d] = random_monomial_module(rng, arity)
        data[arity] = by_degree
    if ensure_arity_one and 1 not in data:
        data[1] = {0: SignedPermModule.trivial(1)}
    if not data:
        data[1] = {0: SignedPermModule.trivial(1)}
    return SymSeq.create(truncation, data)


def action_digest(modules, max_rank: int = 5) -> str:
    """sha256 over each module's character values and, up to max_rank, its
    act_signed(p) for every p in S_n in lexicographic order."""
    h = hashlib.sha256()
    for m in modules:
        if m.n <= max_rank:
            for p in permutations(range(m.n)):
                h.update(repr(m.act_signed(p)).encode())
        h.update(repr(character(m).values).encode())
    return h.hexdigest()


def is_zero_matrix(m: IntMatrix) -> bool:
    return not any(map(any, m.entries))


def random_unimodular(n: int, rng, ops: int = 6, bound: int = 2) -> tuple:
    """(u, u^-1) for u a product of elementary shears and swaps.

    Each row operation on u is matched by the inverse column operation on
    u^-1, so u * u^-1 = 1 stays true throughout and no draw is spent on it.
    """
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(ops):
        i = rng.below(n)
        j = rng.below(n)
        if i == j:
            continue
        if rng.below(4) == 0:
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            q = rng.sign() * rng.randint(1, bound)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            for row in inv:
                row[j] -= q * row[i]
    return IntMatrix.from_rows(m), IntMatrix.from_rows(inv)


def random_differentials(rng, max_degree: int = 3, max_rank: int = 6,
                         entry_bound: int = 9) -> tuple:
    """(ranks, {degree: IntMatrix}) of a bounded complex with d o d = 0 and
    small entries, every differential nonzero.

    An elementary_complex of a random graded group, sheared by a few
    elementary basis changes in each degree, redrawn until every rank and
    entry stays within its bound.
    """
    while True:
        free_at, torsion_at = {}, {}
        for deg in range(max_degree + 1):
            free_at[deg] = rng.below(3)
            torsion_at[deg] = [rng.randint(2, 6) for _ in range(rng.below(3))] \
                if deg < max_degree else []
        cx = elementary_complex(free_at, torsion_at)
        if any(r > max_rank for _, r in cx.ranks):
            continue
        # basis changes: d_n -> U_{n-1} d_n U_n^{-1}
        us = {deg: random_unimodular(rank, rng, ops=3, bound=1) for deg, rank in cx.ranks}
        dense = cx.to_json()["differentials"]
        diffs = {deg: us[deg - 1][0].mul(IntMatrix.from_rows(dense[str(deg)])).mul(us[deg][1])
                 for deg, _ in cx.differentials}
        if all(abs(e) <= entry_bound for m in diffs.values() for row in m.entries for e in row):
            return dict(cx.ranks), diffs


def random_chain_complex(rng, max_degree: int = 3, max_rank: int = 6,
                         entry_bound: int = 9) -> ChainComplex:
    """The ChainComplex of random_differentials."""
    return ChainComplex.create(*random_differentials(rng, max_degree, max_rank, entry_bound))


def unit_seq(truncation: int = 1) -> SymSeq:
    """The monoidal unit: a one-dimensional piece in arity 1, degree 0."""
    return SymSeq.create(truncation, {1: {0: SignedPermModule.trivial(1)}})


def group_at(table: BigradedGroup, s: int, t: int) -> tuple:
    """(free, torsion) of a bigraded table at (s, t); (0, ()) where it is empty."""
    return dict(table.entries).get((s, t), (0, ()))


def cocycle_basis(sset: SimplicialSet, degree: int) -> list:
    """A basis of ker(delta) in degree d, as Cochains: the kernel rows of the
    model's F_2 elimination of the coboundary."""
    return [Cochain.create(degree, tag) for tag in _echelon(sset, degree)[1]]


def nontrivial_class_representative(sset: SimplicialSet, degree: int) -> Cochain | None:
    """Some cocycle with nonzero class, if the group is nonzero."""
    for x in cocycle_basis(sset, degree):
        if not cohomology_class(sset, x).is_zero():
            return x
    return None
