from math import comb

import pytest

from conftest import is_zero_matrix
from entriv.core_algebra import homology
from entriv.stunted_ktheory import (StuntedCellComplex, adams_theta, binom_mod2,
                                    ku_ses, nilpotence_witness, stunted_integral_homology,
                                    stunted_sq, torsion_exponent)


def binom_mod2_oracle(j, k):
    """Independent binomial oracle: reflection C(-m, k) = (-1)^k C(m+k-1, k)."""
    if j >= 0:
        return comb(j, k) % 2
    return comb(-j + k - 1, k) % 2


class TestBinomial:
    def test_against_oracle(self):
        for j in range(-12, 13):
            for k in range(0, 12):
                assert binom_mod2(j, k) == binom_mod2_oracle(j, k), (j, k)

    def test_minus_one_row(self):
        assert all(binom_mod2(-1, k) == 1 for k in range(10))


class TestStuntedSq:
    def test_sq1_moore(self):
        mat = stunted_sq(-1, 0, 1)
        assert mat.to_lists() == [[0, 1], [0, 0]]

    def test_sq1_kills_even(self):
        mat = stunted_sq(0, 6, 1)
        for j in range(0, 7, 2):
            assert all(e == 0 for e in mat.entries[j])

    def test_sq2_range(self):
        mat = stunted_sq(2, 5, 2)
        assert mat.entries[0][2] == 1  # x^2 -> x^4
        assert mat.entries[1][3] == 1  # x^3 -> x^5
        assert mat.entries[2][2] == 0

    def test_sq1_squares_to_zero(self):
        for a, b in ((-6, 3), (-1, 0), (2, 9)):
            m = stunted_sq(a, b, 1)
            assert is_zero_matrix(m.mul(m))


class TestStuntedHomology:
    def test_moore_orientation(self):
        # the two-cell range [-1, 0] is the desuspended mod-2 Moore spectrum:
        # its only reduced integral homology is Z/2 in degree -1
        h = stunted_integral_homology(-1, 0)
        assert h.component(-1) == (0, (2,))
        assert h.component(0) == (0, ())

    def test_single_cell(self):
        assert stunted_integral_homology(3, 3).component(3) == (1, ())

    def test_shifted_projective_plane(self):
        h = stunted_integral_homology(1, 2)
        assert h.component(1) == (0, (2,)) and h.component(2) == (0, ())

    def test_classic_range(self):
        h = stunted_integral_homology(0, 4)
        assert h.component(0) == (1, ())
        assert h.component(1) == (0, (2,))
        assert h.component(2) == (0, ())
        assert h.component(3) == (0, (2,))

    def test_mod2_sees_every_cell(self):
        for a, b in ((-5, -1), (-3, 2), (0, 5)):
            h = homology(StuntedCellComplex(a, b).chain_complex(), "F2")
            for d in range(a, b + 1):
                assert h.component(d) == (1, ())


class TestKuSes:
    def test_p2_n3(self):
        triple, cert = ku_ses(2, 3)
        assert triple.k == 1
        assert (triple.middle, triple.right) == ("Z + Z/2", "Z/4")
        assert cert.presentation.to_lists() == [[2, 0], [1, 2]]
        assert tuple(cert.snf_diagonal) == (1, 4)
        assert cert.passed

    def test_p2_n2(self):
        triple, cert = ku_ses(2, 2)
        assert triple.k == 0 and triple.right == "Z/2"
        assert cert.passed

    def test_p3_n5(self):
        triple, cert = ku_ses(3, 5)
        assert triple.k == 2 and triple.right == "Z/27"
        assert cert.passed

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ku_ses(2, 1)

    def test_exponent_parity(self):
        ks = [torsion_exponent(n) for n in range(2, 13)]
        assert ks == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        for prev, nxt, n in zip(ks, ks[1:], range(3, 13)):
            assert (nxt - prev == 1) == (n % 2 == 1)

    def test_order_ratio(self):
        for p in (2, 3, 5):
            for n in range(2, 13):
                triple, _ = ku_ses(p, n)
                assert p ** (triple.k + 1) // p ** triple.k == p


class TestWitness:
    def test_case_split(self):
        for p in (2, 3, 5):
            assert not nilpotence_witness(p, 1).detected
            w2 = nilpotence_witness(p, 2)
            assert not w2.detected and w2.case == "positive-stem"
            for n in range(3, 13):
                w = nilpotence_witness(p, n)
                assert w.detected and w.case == "k1-detected"
                assert f"k={torsion_exponent(n)}" in w.reason

    def test_n3_mentions_the_lift(self):
        assert "lift of a generator" in nilpotence_witness(5, 3).reason


class TestTheta:
    def test_table(self):
        for p in (2, 3, 5):
            for n in range(1, 11):
                assert adams_theta(n, p) == p ** (n - 1)

    def test_recovers_psi(self):
        for p in (2, 3, 5):
            for n in range(1, 11):
                assert adams_theta(n, p) * p == p ** n
