import hashlib
import json
import math
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entriv import euler_section
from entriv.euler_section import (Configuration, SectionValue, equivariance_test,
                                  nullhomotopy_certificate, random_configuration,
                                  section_eval)
from entriv.rng import CounterRng

rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=20)


def norm_squared(value: SectionValue) -> Fraction:
    """The squared Euclidean norm of a section value, from its Fractions."""
    return sum((x * x for comp in value.components for x in comp), Fraction(0))


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

    def test_coincidence_among_many_points_is_found_fast(self):
        points = [[Fraction(k, 7), Fraction(-k, 3)] for k in range(2999)]
        points.append(points[0])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="points 0 and 2999 coincide"):
            Configuration.from_rational(points)
        assert time.perf_counter() - start < 1.0

    def test_late_coincidence_and_many_distinct_points_are_fast(self):
        points = [[Fraction(k, 7), Fraction(-k, 3)] for k in range(3000)]
        start = time.perf_counter()
        assert Configuration.from_rational(points).size == 3000
        with pytest.raises(ValueError, match="points 2998 and 2999 coincide"):
            Configuration.from_rational(points[:-1] + [points[-2]])
        assert time.perf_counter() - start < 1.0

    def test_coincidence_names_the_first_pair(self):
        a, b = [1, 2], [3, 4]
        with pytest.raises(ValueError, match="points 0 and 3 coincide"):
            Configuration.from_rational([a, b, b, a])

    @pytest.mark.parametrize("bad", (0.1, True, "1"))
    def test_rejects_coordinates_not_int_or_fraction(self, bad):
        # the first bad coordinate is named, not the float 0.5 after it
        with pytest.raises(ValueError, match=f"coordinate 1 of point 1 is {bad!r}, not an int"):
            Configuration(((0, Fraction(1, 2)), (3, bad), (0.5, 0.25)))
        # from_rational reads its input through Fraction
        assert Configuration.from_rational([[0, 0], [1, 2]]).points == ((0, 0), (1, 2))

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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_values_agree_with_their_fractions(self, data):
        m, t = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 6))
        # few denominators, so that they repeat; one axis may be constant
        coordinate = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 6]))
        axes = [data.draw(st.lists(coordinate, min_size=t, max_size=t)) for _ in range(m)]
        if m > 1 and data.draw(st.booleans()):
            axes[data.draw(st.integers(0, m - 1))] = [Fraction(-5, 3)] * t
        points = list(zip(*axes))
        assume(len(set(points)) == t)
        cfg = Configuration(tuple(points))
        sigma = tuple(data.draw(st.permutations(range(t))))
        report = equivariance_test(cfg, sigma)
        assert report.equal and report.lhs == report.rhs
        value, moved = section_eval(cfg), section_eval(cfg.permuted(sigma))
        assert (value == moved) == (value.components == moved.components)
        assert value.components == tuple(tuple(x - sum(xs) / t for x in xs) for xs in axes)
        # the same Fractions over a scale k times too large reduce to value
        k = data.draw(st.integers(2, 30))
        scales = [k * math.lcm(*[x.denominator for x in comp]) for comp in value.components]
        rebuilt = SectionValue.reduced(
            [([int(x * scale) for x in comp], scale)
             for comp, scale in zip(value.components, scales)])
        assert rebuilt == value and rebuilt.components == value.components

    def test_a_centring_that_rotates_is_caught(self, monkeypatch):
        # both sides run through _centred; one that rotates its output does
        # not commute with relabelling, and some sigma must show it
        centred = euler_section._centred

        def rotated(nums):
            out = centred(nums)
            return out[1:] + out[:1]

        monkeypatch.setattr(euler_section, "_centred", rotated)
        cfg = Configuration.from_rational([[0, 0], [1, 0], [0, 1]])
        verdicts = [equivariance_test(cfg, s).equal for s in permutations(range(3))]
        assert verdicts[0] and not all(verdicts)

    @pytest.mark.parametrize("sigma", [(0, 0, 1), (1, 0), (0, 1, 2, 3)])
    def test_relabelling_must_permute_the_points(self, sigma):
        cfg = Configuration.from_rational([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="is not a permutation of range"):
            cfg.permuted(sigma)


class TestCertificate:
    def test_minimal_case(self):
        cert = nullhomotopy_certificate(1, 2, samples=100, seed=1)
        assert cert.passed and cert.copies_of_reduced_rep == 1

    def test_no_samples_certify_nothing(self):
        cert = nullhomotopy_certificate(2, 3, samples=0, seed=1)
        assert cert.failures == 0 and not cert.min_norm_squared_positive
        assert not cert.passed

    def test_examples(self):
        assert nullhomotopy_certificate(2, 3, samples=300, seed=5).passed
        assert nullhomotopy_certificate(3, 4, samples=300, seed=6).passed

    def test_deterministic(self):
        a = nullhomotopy_certificate(2, 4, samples=50, seed=33)
        b = nullhomotopy_certificate(2, 4, samples=50, seed=33)
        assert a == b

    def test_draws_give_up_on_a_crowded_float_grid(self):
        # 300 points on one axis of 2001 grid values all but surely clash
        with pytest.raises(ValueError, match="no 300 distinct points in 100 draws"):
            random_configuration(CounterRng(0), 1, 300, grid=True)
        assert random_configuration(CounterRng(0), 2, 300, grid=True).size == 300

    def test_float_mode(self):
        cert = nullhomotopy_certificate(2, 3, samples=100, seed=2, grid=True)
        assert cert.passed

    def test_vanishing_sample_is_counted(self, monkeypatch):
        zero = SectionValue.reduced([((0, 0), 7)])
        assert zero == SectionValue(((0, 0),), (1,))
        assert zero.is_zero() and norm_squared(zero) == 0
        # the certificate centres on integers; a centring that returns zeros
        # must count every sample as a failure and make the norms non-positive
        monkeypatch.setattr(euler_section, "_centred", lambda nums: [0] * len(nums))
        cert = nullhomotopy_certificate(1, 2, samples=3, seed=0)
        assert cert.failures == 3 and not cert.min_norm_squared_positive
        assert not cert.passed and cert.to_json()["pass"] is False

    def test_one_vanishing_axis_is_not_a_failure(self, monkeypatch):
        # a sample vanishes only when every axis does; zero out the first of
        # the two axes of each sample and the certificate must still pass
        centred, calls = euler_section._centred, []

        def first_axis_zero(nums):
            calls.append(None)
            out = centred(nums)
            return [0] * len(out) if len(calls) % 2 else out

        monkeypatch.setattr(euler_section, "_centred", first_axis_zero)
        cert = nullhomotopy_certificate(2, 3, samples=4, seed=0)
        assert len(calls) == 8 and cert.failures == 0 and cert.passed


def _fraction_oracle(m, t, samples, seed, grid):
    """(failures, every norm positive, draws used) from plain Fraction means
    x - sum(xs)/t of random_configuration's points."""
    rng = CounterRng(seed)
    failures, positive = 0, samples > 0
    for _ in range(samples):
        points = random_configuration(rng, m, t, grid=grid).points
        values = [x - sum(xs) / t for xs in zip(*points) for x in xs]
        if all(x == 0 for x in values):
            failures += 1
        if sum(x * x for x in values) <= 0:
            positive = False
    return failures, positive, rng._counter


def _oracle_cases() -> list:
    rng = CounterRng(2024)
    cases = [(rng.randint(1, 4), rng.randint(2, 7), rng.randint(0, 999), bool(rng.below(2)))
             for _ in range(12)]
    # one axis of 2001 grid values: 40 or 80 points clash often, so whole
    # configurations are redrawn
    return cases + [(1, 40, seed, True) for seed in (0, 1)] + [(1, 80, 5, True)]


class TestCertificateOracle:
    @pytest.mark.parametrize("m, t, seed, grid", _oracle_cases())
    def test_integer_kernel_matches_fraction_means(self, monkeypatch, m, t, seed, grid):
        samples = 8
        failures, positive, draws = _fraction_oracle(m, t, samples, seed, grid)
        made = []

        class Recording(CounterRng):  # keeps the certificate's generator
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(euler_section, "CounterRng", Recording)
        cert = nullhomotopy_certificate(m, t, samples=samples, seed=seed, grid=grid)
        assert (cert.failures, cert.min_norm_squared_positive) == (failures, positive)
        assert made[0]._counter == draws
        if t >= 40:
            assert draws > samples * t * m * 2  # a numerator and a denominator per coordinate

    def test_both_routes_give_up_alike(self):
        with pytest.raises(ValueError, match="no 300 distinct points in 100 draws"):
            nullhomotopy_certificate(1, 300, samples=1, seed=0, grid=True)
        with pytest.raises(ValueError, match="no 300 distinct points in 100 draws"):
            _fraction_oracle(1, 300, 1, 0, True)


def _section_digest(m, t, seed):
    """sha256 of seeded section values, their norms and a certificate, and
    whether that certificate passed."""
    rng = CounterRng(seed)
    rows = []
    for _ in range(5):
        value = section_eval(random_configuration(rng, m, t))
        rows.append([[str(x) for x in comp] for comp in value.components])
        rows.append(str(norm_squared(value)))
    cert = nullhomotopy_certificate(m, t, samples=20, seed=seed)
    rows.append(cert.to_json())
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest(), cert.passed


class TestSectionGolden:
    """Pinned section values: the exact kernel must give the same Fractions."""

    @pytest.mark.parametrize("m, t, seed, passed, digest", [
        (1, 2, 0, True,
         "b1c8c91a323fbe3acb27928d7c92716ac62514206cfbeb065d301a291b1a8bf8"),
        (2, 3, 5, True,
         "2a580b29021813fb15d07defb60affd7b04f0e14fa4cb6f389c8cb72bdbffbbc"),
        (3, 4, 11, True,
         "be1e8231cf1398817e43a1416aa0dcd9a848fcf11565400390d88ec5fe86abd7"),
        (2, 7, 3, True,
         "bb280f41edefcfa3f33c827e0d7c8d06d438c8550eda9f0dcffc98cdff2a5d58"),
    ])
    def test_values(self, m, t, seed, passed, digest):
        assert _section_digest(m, t, seed) == (digest, passed)
