"""Shared randomized-input builders for the test suite.

Random monomial modules are assembled from primitives (trivial, sign, the
natural permutation action, regular) and direct sums, so every generated
action satisfies the symmetric-group relations by construction.
"""

import hashlib
from itertools import permutations

from entriv import perms
from entriv.rep_theory import SignedPermModule, character
from entriv.rng import CounterRng
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
