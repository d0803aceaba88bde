import re
from itertools import permutations
from math import factorial
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (action_digest, direct_sum_modules, perm_module, random_monomial_module,
                      regular, sign_rep)
from entriv import perms
from entriv.rep_theory import (SignedPermModule, character, trivial_multiplicity,
                               wreath_decomposition_check)
from entriv.rng import CounterRng


class TestPermWords:
    @settings(max_examples=80, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_word_recomposes(self, p):
        p = tuple(p)
        word = perms.adjacent_word(p)
        # the word lists leftmost factor first: fold as p = s_{w0} o ... o s_{wk}
        acc = tuple(range(5))
        for i in word:
            acc = perms.compose(acc, perms.adjacent(5, i))
        assert acc == p

    def test_class_data(self):
        assert perms.partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
        assert sum(perms.class_size(part) for part in perms.partitions(5)) == factorial(5)
        rep = perms.class_representative((3, 1))
        assert rep == (1, 2, 0, 3)


class TestCharacter:
    def test_trivial(self):
        values = character(SignedPermModule.trivial(3)).values
        assert all(v == 1 for _, v in values)

    def test_regular_sigma2(self):
        values = dict(character(regular(2)).values)
        assert values[(1, 1)] == 2 and values[(2,)] == 0

    def test_identity_value_is_dimension(self):
        m = perm_module(4)
        assert character(m).dim == 4

    def test_class_function(self):
        rng = CounterRng(23)
        m = random_monomial_module(rng, 4)
        for _ in range(20):
            g = rng.permutation(4)
            h = rng.permutation(4)
            conj = perms.compose(h, perms.compose(g, perms.inverse(h)))
            assert m.trace(g) == m.trace(conj)

    def test_relation_validation_rejects_garbage(self):
        swap, still = ((1, 1), (0, 1)), ((0, 1), (1, 1))
        cases = [  # one module per failure, each breaking only that check
            (2, 2, (((1, 1), (0, -1)),), "generator 0 is not an involution"),
            (4, 3, (((1, 1), (0, 1), (2, 1)), ((0, 1), (1, 1), (2, 1)),
                    ((0, 1), (2, 1), (1, 1))), "generators 0,2 do not commute"),
            (3, 2, (swap, still), "braid relation fails at 0"),
            (2, 1, (((0, 2),),), "signs must be +-1"),
            (2, 1, (((0, 0),),), "signs must be +-1"),
            (2, 2, (((0, 1), (0, -1)),), "signed permutation is not a bijection"),
            (2, 2, (((0, 1), (2, 1)),), "signed permutation is not a bijection"),
            (2, 2, (((0, 1),),), "signed permutation is not a bijection"),
        ]
        for n, dim, gens, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                SignedPermModule(n, dim, gens_perm=gens)

    def test_dimension_zero(self):
        m = SignedPermModule(3, 0, gens_perm=((), ()))
        assert m.act_signed((2, 0, 1)) == ()
        assert all(v == 0 for _, v in character(m).values)
        assert m.twist_by_sign().dim == 0


def _signed_compose(f, g):
    """f o g on signed basis maps: first g, then f."""
    return tuple((f[j][0], s * f[j][1]) for j, s in g)


class TestAction:
    def test_golden(self):
        # every map and character of the builders' modules; a changed fold
        # order or sign rule moves it
        mods = [build(n) for n in range(1, 6)
                for build in (regular, perm_module, lambda k: perm_module(k, sign_twist=True))]
        rng = CounterRng(41)
        mods += [random_monomial_module(rng, n, max_summands=3)
                 for n in range(1, 6) for _ in range(4)]
        assert action_digest(mods) == \
            "4bbbfb24ac7e7a5ee711220d96b296b70839f653f42fa9a23176b9fed2ff533b"

    @pytest.mark.parametrize("build", [regular, lambda n: perm_module(n, sign_twist=True),
                                       lambda n: random_monomial_module(CounterRng(5), n, 3)])
    def test_anti_homomorphism(self, build):
        # g[w_0] acts first, so the product p o q acts as act(q) o act(p)
        m = build(4)
        elements = list(permutations(range(4)))
        act = {p: m.act_signed(p) for p in elements}
        for p in elements:
            for q in elements:
                assert act[perms.compose(p, q)] == _signed_compose(act[q], act[p])


class TestWreath:
    @pytest.mark.parametrize("a,b", [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])
    def test_decomposition(self, a, b):
        report = wreath_decomposition_check(a, b)
        assert report.passed
        assert report.dim_total == report.dim_pullback + report.dim_tensor

    def test_two_by_two_details(self):
        report = wreath_decomposition_check(2, 2)
        assert (report.dim_total, report.dim_pullback, report.dim_tensor) == (3, 1, 2)
        assert sum(size for _, size, *_ in report.classes) == 8


class TestTrivialMultiplicity:
    def test_values(self):
        assert trivial_multiplicity(SignedPermModule.trivial(3)) == 1
        assert trivial_multiplicity(sign_rep(2)) == 0
        assert trivial_multiplicity(regular(3)) == 1

    def test_free_multiplicity(self):
        for n in (2, 3):
            m = regular(n)
            assert m.dim == factorial(n)
            assert trivial_multiplicity(m) == m.dim // factorial(n)

    def test_direct_sum_additive(self):
        rng = CounterRng(31)
        for _ in range(10):
            a = random_monomial_module(rng, 3)
            b = random_monomial_module(rng, 3)
            assert (trivial_multiplicity(direct_sum_modules([a, b]))
                    == trivial_multiplicity(a) + trivial_multiplicity(b))


class TestSerialization:
    def test_round_trip(self):
        m = perm_module(3, sign_twist=True)
        assert SignedPermModule.from_json(m.to_json()) == m


def _full_length_check(dim, plus):
    """The relation check on all 2*dim points: each generator's doubled
    table, composed as x -> x o g by one itemgetter over all its points.  The
    message of the first relation that fails, or None."""
    doubled = [tuple(y for x in p for y in (x, x ^ 1)) for p in plus]
    after = [itemgetter(*d) for d in doubled]
    one = tuple(range(2 * dim))
    for i, g in enumerate(doubled):
        if after[i](g) != one:
            return f"generator {i} is not an involution"
        for j in range(i + 2, len(doubled)):
            if after[j](g) != after[i](doubled[j]):
                return f"generators {i},{j} do not commute"
        if i + 1 < len(doubled):
            h = doubled[i + 1]
            if after[i](after[i + 1](g)) != after[i + 1](after[i](h)):
                return f"braid relation fails at {i}"
    return None


def _plus_point_check(n, dim, plus):
    """The message with which `_from_plus` rejects the tables, or None."""
    try:
        SignedPermModule._from_plus(n, dim, plus)
    except ValueError as exc:
        return str(exc)
    return None


def _corrupt(m, kind, i, a, b):
    """m's plus tables with generator i corrupted: entries a and b swapped,
    the sign bit of entry a flipped, or (kind "braid") replaced by the
    identity, an involution commuting with everything that breaks a braid
    relation with any neighbour that moves a point."""
    plus = [list(p) for p in m.plus]
    if kind == "swap":
        plus[i][a], plus[i][b] = plus[i][b], plus[i][a]
    elif kind == "sign":
        plus[i][a] ^= 1
    elif kind == "braid":
        plus[i] = list(range(0, 2 * m.dim, 2))
    return tuple(map(tuple, plus))


def _fold_pairs(m, perm):
    """Per basis vector, (image index, sign) under perm: the generators of
    `perms.adjacent_word(perm)` applied to gens_perm pairs one letter at a
    time, first letter first."""
    images = [(j, 1) for j in range(m.dim)]
    for i in perms.adjacent_word(perm):
        images = [(m.gens_perm[i][k][0], s * m.gens_perm[i][k][1]) for k, s in images]
    return images


class TestPlusTables:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 5),
           st.sampled_from(["none", "swap", "sign", "braid"]), st.data())
    def test_plus_point_check_matches_the_full_length_check(self, seed, n, kind, data):
        m = random_monomial_module(CounterRng(seed), n, max_summands=3)
        i = data.draw(st.integers(0, n - 2))
        a = data.draw(st.integers(0, m.dim - 1))
        b = data.draw(st.integers(0, m.dim - 1))
        plus = _corrupt(m, kind, i, a, b)
        got = _plus_point_check(n, m.dim, plus)
        assert got == _full_length_check(m.dim, plus)
        if kind == "none":
            assert got is None

    @pytest.mark.parametrize("kind, message", [
        ("swap", "generator 0 is not an involution"),
        ("sign", "generator 0 is not an involution"),
        ("braid", "braid relation fails at 0"),
    ])
    def test_each_corruption_is_caught(self, kind, message):
        # the natural action on 4 points, generator 0 corrupted at entries 0, 3
        plus = _corrupt(perm_module(4), kind, 0, 0, 3)
        assert _plus_point_check(4, 4, plus) == _full_length_check(4, plus) == message

    @pytest.mark.parametrize("n", range(1, 6))
    def test_act_plus_and_trace_match_a_fold_of_pairs(self, n):
        rng = CounterRng(53 + n)
        mods = [random_monomial_module(rng, n, max_summands=3) for _ in range(3)]
        mods += [perm_module(n, sign_twist=True)] + ([regular(n)] if n <= 4 else [])
        for m in mods:
            for p in permutations(range(n)):
                pairs = _fold_pairs(m, p)
                assert m.act_plus(p) == tuple(2 * k + (s == -1) for k, s in pairs)
                assert m.trace(p) == sum(s for j, (k, s) in enumerate(pairs) if k == j)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 5))
    def test_twist_matches_the_checked_constructor(self, seed, n):
        # the twist skips the relation check; the same tables built from
        # pairs through the public constructor pass every check and are equal
        m = random_monomial_module(CounterRng(seed), n, max_summands=3)
        negated = tuple(tuple((j, -s) for j, s in g) for g in m.gens_perm)
        assert m.twist_by_sign() == SignedPermModule(m.n, m.dim, gens_perm=negated)
        assert m.twist_by_sign().twist_by_sign() == m

    @pytest.mark.parametrize("n, dim, plus, message", [
        (2, 2, ((2, 1),), "generator 0 is not an involution"),
        (4, 3, ((2, 0, 4), (0, 2, 4), (0, 4, 2)), "generators 0,2 do not commute"),
        (3, 2, ((2, 0), (0, 2)), "braid relation fails at 0"),
    ])
    def test_plus_tables_are_checked(self, n, dim, plus, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SignedPermModule._from_plus(n, dim, plus)

    def test_pairs_are_a_view_of_the_plus_tables(self):
        m = perm_module(3, sign_twist=True)
        assert m.plus == ((3, 1, 5), (1, 5, 3))
        assert m.gens_perm == (((1, -1), (0, -1), (2, -1)), ((0, -1), (2, -1), (1, -1)))
        assert SignedPermModule._from_plus(m.n, m.dim, m.plus) == m
