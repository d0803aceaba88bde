from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entriv import euler_section
from entriv.euler_section import (Configuration, equivariance_test,
                                  nullhomotopy_certificate, random_configuration,
                                  section_eval)
from entriv.rng import CounterRng

rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=20)


class TestSectionEval:
    def test_worked_example(self):
        c = Configuration.from_rational([[0, 0], [1, 0], [0, 1]])
        value = section_eval(c)
        third = Fraction(1, 3)
        assert value.components[0] == (-third, 2 * third, -third)
        assert value.components[1] == (-third, -third, 2 * third)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            section_eval(Configuration.from_rational([[1, 2]]))

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError):
            Configuration.from_rational([[1, 2], [1, 2]])

    def test_components_sum_to_zero_and_value_nonzero(self):
        rng = CounterRng(3)
        for _ in range(100):
            cfg = random_configuration(rng, rng.randint(1, 3), rng.randint(2, 5))
            value = section_eval(cfg)
            assert all(sum(comp) == 0 for comp in value.components)
            assert not value.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(rationals, rationals), min_size=2, max_size=5,
                    unique=True),
           rationals)
    def test_translation_invariance(self, pts, shift):
        c = Configuration.from_rational(pts)
        shifted = Configuration.from_rational([(x + shift, y) for x, y in pts])
        a = section_eval(c)
        b = section_eval(shifted)
        assert a.components == b.components

    def test_near_coincident_exact(self):
        eps = Fraction(1, 10 ** 12)
        c = Configuration.from_rational([[0, 0], [eps, 0]])
        value = section_eval(c)
        assert not value.is_zero()
        assert value.components[0] == (-eps / 2, eps / 2)


class TestEquivariance:
    def test_identity(self):
        c = Configuration.from_rational([[0, 0], [1, 0], [0, 1]])
        assert equivariance_test(c, (0, 1, 2)).equal

    def test_transposition_moves_coordinates(self):
        c = Configuration.from_rational([[0, 0], [1, 0], [0, 1]])
        report = equivariance_test(c, (1, 0, 2))
        assert report.equal
        third = Fraction(1, 3)
        assert report.lhs[0] == (2 * third, -third, -third)

    def test_full_symmetric_group_small(self):
        rng = CounterRng(9)
        for t in (2, 3, 4, 5):
            cfg = random_configuration(rng, 2, t)
            for sigma in permutations(range(t)):
                assert equivariance_test(cfg, sigma).equal

    def test_random_sample_at_six(self):
        rng = CounterRng(10)
        cfg = random_configuration(rng, 3, 6)
        for _ in range(30):
            assert equivariance_test(cfg, rng.permutation(6)).equal


class TestCertificate:
    def test_minimal_case(self):
        cert = nullhomotopy_certificate(1, 2, samples=100, seed=1)
        assert cert.passed and cert.copies_of_reduced_rep == 1

    def test_examples(self):
        assert nullhomotopy_certificate(2, 3, samples=300, seed=5).passed
        assert nullhomotopy_certificate(3, 4, samples=300, seed=6).passed

    def test_deterministic(self):
        a = nullhomotopy_certificate(2, 4, samples=50, seed=33)
        b = nullhomotopy_certificate(2, 4, samples=50, seed=33)
        assert a == b

    def test_float_mode(self):
        cert = nullhomotopy_certificate(2, 3, samples=100, seed=2, exact=False)
        assert cert.passed

    def test_vanishing_sample_is_counted(self, monkeypatch):
        # distinct beyond the float tolerance, yet mean-centred to within it
        degenerate = Configuration(((0.0,), (1.5e-12,)), exact=False)
        assert section_eval(degenerate).is_zero()
        monkeypatch.setattr(euler_section, "random_configuration",
                            lambda rng, m, t_size, exact=True: degenerate)
        cert = nullhomotopy_certificate(1, 2, samples=3, seed=0, exact=False)
        assert cert.failures == 3 and not cert.passed
        assert cert.to_json()["pass"] is False
