"""The explicit nowhere-vanishing equivariant section over configuration spaces.

For a configuration of |T| >= 2 pairwise distinct points in R^m, taking the
i-th coordinate of every point and subtracting the mean gives m vectors in
the reduced standard representation (each sums to zero).  Distinct points
cannot agree in every coordinate, so the concatenated value is never zero,
and the construction visibly commutes with relabelling the points.

Arithmetic is exact throughout: coincidence is equality, and a value
vanishes only when every component is exactly zero.  Each axis is put over
the lcm L of its denominators, and centring runs on the integer numerators
a_i as t a_i - sum(a), which is t L times the centred coordinate.  The
sampled certificate never leaves the integers: it draws the numerators,
checks distinctness by hashing them, and reads its verdict from the centred
numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rng import CounterRng

# configurations drawn before random_configuration gives up; grid=True points
# lie on 2001 integers per axis, so many points on one axis always clash
MAX_DRAWS = 100


def _first_equal_pair(points) -> tuple:
    """The lexicographically first (i, j), i < j, of equal points."""
    first: dict = {}
    pairs = []
    for j, pt in enumerate(map(tuple, points)):
        i = first.setdefault(pt, j)
        if i != j:
            pairs.append((i, j))
    return min(pairs)


def _common_numerators(values) -> tuple:
    """Integers a_i and L with values[i] = a_i / L, L the lcm of the denominators."""
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*[d for _, d in ratios])
    return [a * (den // d) for a, d in ratios], den


def _centred(nums: list) -> list:
    """t a_i - sum(a) for the numerators a_i / L of one axis: t L times the
    mean-centred coordinates.  They sum to zero, which is checked."""
    t, total = len(nums), sum(nums)
    out = [t * a - total for a in nums]
    if sum(out) != 0:
        raise ValueError("component does not sum to zero")
    return out


@dataclass(frozen=True)
class Configuration:
    points: tuple  # |T| tuples of m Fraction coordinates

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("empty configuration")
        m = len(self.points[0])
        if any(len(pt) != m for pt in self.points):
            raise ValueError("points of mixed dimension")
        # coincidence is equality, found by hashing in O(|T|)
        if len(set(map(tuple, self.points))) < len(self.points):
            i, j = _first_equal_pair(self.points)
            raise ValueError(f"points {i} and {j} coincide")

    @property
    def m(self) -> int:
        return len(self.points[0])

    @cached_property
    def section(self) -> "SectionValue":
        """section_eval of this configuration, computed once."""
        return section_eval(self)

    @property
    def size(self) -> int:
        return len(self.points)

    @staticmethod
    def from_rational(rows) -> "Configuration":
        return Configuration(tuple(tuple(Fraction(x) for x in pt) for pt in rows))

    def permuted(self, sigma: tuple) -> "Configuration":
        """Point i moves to slot sigma[i]."""
        pts = [None] * self.size
        for i, pt in enumerate(self.points):
            pts[sigma[i]] = pt
        return Configuration(tuple(pts))


@dataclass(frozen=True)
class SectionValue:
    components: tuple  # m tuples, each of length |T|, each summing to zero

    def is_zero(self) -> bool:
        return all(x == 0 for comp in self.components for x in comp)

    def norm_squared(self) -> Fraction:
        nums, den = _common_numerators([x for comp in self.components for x in comp])
        return Fraction(sum(a * a for a in nums), den * den)

    def permuted(self, sigma: tuple) -> "SectionValue":
        comps = []
        for comp in self.components:
            out = [None] * len(comp)
            for i, x in enumerate(comp):
                out[sigma[i]] = x
            comps.append(tuple(out))
        return SectionValue(tuple(comps))


def section_eval(c: Configuration) -> SectionValue:
    """Coordinatewise mean-centering; rejects configurations of fewer than two
    points (the construction concerns point sets of cardinality at least two).
    A vanishing value is returned, not raised, so that callers can count it."""
    if c.size < 2:
        raise ValueError("configuration must contain at least two points")
    t = c.size
    comps = []
    for axis in range(c.m):
        # x_i - mean = (t a_i - sum a) / (t L) with x_i = a_i / L
        nums, den = _common_numerators([pt[axis] for pt in c.points])
        comps.append(tuple(Fraction(x, t * den) for x in _centred(nums)))
    return SectionValue(tuple(comps))


@dataclass(frozen=True)
class EquivarianceReport:
    sigma: tuple
    equal: bool
    lhs: tuple
    rhs: tuple


def equivariance_test(c: Configuration, sigma: tuple) -> EquivarianceReport:
    """section(sigma . c) == sigma . section(c), compared exactly."""
    lhs = section_eval(c.permuted(sigma))
    rhs = c.section.permuted(sigma)
    return EquivarianceReport(sigma, lhs.components == rhs.components,
                              lhs.components, rhs.components)


@dataclass(frozen=True)
class SectionCertificate:
    m: int
    t_size: int
    samples: int
    seed: int
    failures: int
    min_norm_squared_positive: bool
    copies_of_reduced_rep: int
    scaling_family: str
    forgetful_note: str

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.min_norm_squared_positive

    def to_json(self):
        return {"m": self.m, "t": self.t_size, "samples": self.samples,
                "seed": self.seed, "failures": self.failures,
                "min_norm_squared_positive": self.min_norm_squared_positive,
                "copies_of_reduced_rep": self.copies_of_reduced_rep,
                "scaling_family": self.scaling_family,
                "forgetful_precomposition": self.forgetful_note,
                "pass": self.passed}


def _draw_axes(rng: CounterRng, m: int, t_size: int, grid: bool) -> tuple:
    """t_size distinct points drawn in one rng.randints call, as rng.fraction
    would draw them (numerator, then denominator; point by point, axis by
    axis), returned per axis over the lcm L of that axis's denominators:
    (axes, dens), point i being (axes[0][i] / dens[0], ...,
    axes[m-1][i] / dens[m-1]).  A coincidence redraws the whole
    configuration, at most MAX_DRAWS times."""
    max_num, max_den = (1000, 1) if grid else (10 ** 6, 1000)
    bounds = [(-max_num, max_num), (1, max_den)] * (m * t_size)
    for _ in range(MAX_DRAWS):
        draws = rng.randints(bounds)
        nums, denominators = draws[0::2], draws[1::2]  # point-major, m per point
        axes, dens = [], []
        for axis in range(m):
            column = denominators[axis::m]
            den = math.lcm(*column)
            axes.append([a * (den // b) for a, b in zip(nums[axis::m], column)])
            dens.append(den)
        # over a common L per axis, points are equal iff their numerators are;
        # a coincidence is rare, unless the grid is small beside t_size
        if len(set(zip(*axes))) == t_size:
            return axes, dens
    raise ValueError(f"no {t_size} distinct points in {MAX_DRAWS} draws")


def random_configuration(rng: CounterRng, m: int, t_size: int,
                         grid: bool = False) -> Configuration:
    """Points with coordinates a/b, |a| <= 10^6 and 1 <= b <= 1000, or on the
    coarse grid of integers in [-1000, 1000] when grid is set."""
    axes, dens = _draw_axes(rng, m, t_size, grid)
    return Configuration(tuple(tuple(Fraction(a, den) for a, den in zip(pt, dens))
                               for pt in zip(*axes)))


def nullhomotopy_certificate(m: int, t_size: int = 2, samples: int = 1000,
                             seed: int = 0, grid: bool = False) -> SectionCertificate:
    """Sampled nonvanishing report: as many section copies as the ambient
    dimension suffice, the homotopy being scalar inflation of the section.

    Each sample is the section of random_configuration's draw, kept as
    integers: axis k's centred numerators c are t L_k times its components,
    so the squared norm is the sum over axes of sum(c^2) / (t L_k)^2.  That
    is positive iff some c is nonzero, so the minimum norm is positive iff
    no sample failed (and there was a sample)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if t_size < 2:
        raise ValueError("t_size must be >= 2")
    rng = CounterRng(seed)
    failures = 0
    for _ in range(samples):
        axes, _ = _draw_axes(rng, m, t_size, grid)
        # a list, not a generator: every axis is centred and its sum checked
        if not any([any(_centred(nums)) for nums in axes]):
            failures += 1
    return SectionCertificate(
        m, t_size, samples, seed, failures, samples > 0 and failures == 0,
        copies_of_reduced_rep=m,
        scaling_family="t * f for t in [0, infinity]",
        forgetful_note="sections for subsets pull back along forgetting points")
