import re
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (action_digest, direct_sum_modules, perm_module, random_monomial_module,
                      regular, sign_rep)
from entriv import perms
from entriv.rep_theory import (SignedPermModule, character, is_sigma_free, trivial_multiplicity,
                               wreath_decomposition_check)
from entriv.rng import CounterRng


class TestPermWords:
    @settings(max_examples=80, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_word_recomposes(self, p):
        p = tuple(p)
        word = perms.adjacent_word(p)
        # the word lists leftmost factor first: fold as p = s_{w0} o ... o s_{wk}
        acc = perms.identity(5)
        for i in word:
            acc = perms.compose(acc, perms.adjacent(5, i))
        assert acc == p

    def test_class_data(self):
        assert perms.partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
        assert sum(perms.class_size(part) for part in perms.partitions(5)) == factorial(5)
        rep = perms.class_representative((3, 1))
        assert perms.cycle_type(rep) == (3, 1)


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

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wreath_decomposition_check(2, 3, t_size=5)


class TestFreeness:
    def test_regular_is_free(self):
        assert is_sigma_free(regular(3))

    def test_trivial_is_not(self):
        assert not is_sigma_free(SignedPermModule.trivial(2))

    def test_associative_arity_component(self):
        # the orderings of three letters with the place-permutation action
        assert is_sigma_free(regular(3))
        assert regular(3).dim == 6

    def test_free_multiplicity(self):
        for n in (2, 3):
            m = regular(n)
            assert trivial_multiplicity(m) == m.dim // factorial(n)


class TestTrivialMultiplicity:
    def test_values(self):
        assert trivial_multiplicity(SignedPermModule.trivial(3)) == 1
        assert trivial_multiplicity(sign_rep(2)) == 0
        assert trivial_multiplicity(regular(3)) == 1

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


class TestPlusTables:
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
