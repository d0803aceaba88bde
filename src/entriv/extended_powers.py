"""Mod-p homology of shifted extended powers of sphere spectra.

Bases are indexed by single Dyer-Lashof operations on the fundamental class,
at every prime (Cohen-Lada-May, LNM 533): after the n-fold shift, Q^s sits in
degree 2s(p-1) and bQ^s (the Bockstein partner) in degree 2s(p-1)-1, with
admissibility 2s >= -n resp. 2s > -n for the widest family on a (-n)-sphere.
The truncated families are the s <= 0 and s <= -1 ranges, so the admissible
s of one kind always form an interval, and degrees are counted from it.

At p = 2 the two degree formulas give exactly one class per degree: the cells
of a stunted real projective spectrum RP[a..b].  Classes are labelled by
their cell there, `p2_stunted_model` is the RP range `extpow` prints, and
`p2_cell_class_agreement` checks it against the classes and against the
computed F_2 homology of the stunted cell complex.

Cofinite families are represented by admissibility intervals plus a reporting
window.  All maps here are monomial (class-to-class); kernels, images and
degreewise additivity are checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core_algebra import ChainComplex, elementary_complex, homology, is_prime
from .stunted_ktheory import StuntedCellComplex, binom_mod2

FAMILIES = ("einf", "en+1", "en-1", "e2", "e1")
FINITE_FAMILIES = ("en+1", "en-1", "e2", "e1")
_TOP_S = {"einf": math.inf, "en+1": 0, "en-1": -1}  # the cut above each family


@dataclass(frozen=True)
class DLClass:
    kind: str  # "Q" or "bQ"
    s: int
    prime: int

    def __post_init__(self):
        if self.kind not in ("Q", "bQ"):
            raise ValueError("kind must be Q or bQ")

    @property
    def degree(self) -> int:
        base = 2 * self.s * (self.prime - 1)
        return base if self.kind == "Q" else base - 1

    @staticmethod
    def of_degree(p: int, degree: int) -> "DLClass":
        """The class in a degree that holds one: Q^s in 2s(p-1), bQ^s in 2s(p-1)-1."""
        span = 2 * (p - 1)
        return DLClass("Q" if degree % span == 0 else "bQ", -(-degree // span), p)

    def label(self) -> str:
        if self.prime == 2:
            return f"cell_{self.degree}"
        return f"{'b' if self.kind == 'bQ' else ''}Q^{self.s}"


def _s_intervals(family: str, n: int) -> tuple:
    """The admissible s of Q and of bQ as closed intervals (lo, hi), empty when
    lo > hi: 2s >= -n for Q and 2s > -n for bQ, cut above per family."""
    if family == "e1":
        return (0, 0), (1, 0)
    if family == "e2":
        n, family = 1, "en+1"  # the two-cell family lives on the (-1)-sphere
    if family not in _TOP_S:
        raise ValueError(f"unknown family {family!r}")
    top = _TOP_S[family]
    return (-(n // 2), top), (-((n - 1) // 2), top)


def _admissible(family: str, n: int, kind: str, s: int) -> bool:
    lo, hi = _s_intervals(family, n)[kind == "bQ"]
    return lo <= s <= hi


def _within(a: tuple, b: tuple) -> bool:
    """Interval a lies inside interval b; an empty a lies inside every b."""
    return a[0] > a[1] or (b[0] <= a[0] and a[1] <= b[1])


def _low_range(intervals: tuple) -> list:
    """The part s <= -1 of each interval: the classes the maps of the square kill."""
    return [(lo, min(hi, -1)) for lo, hi in intervals]


def _class_degrees(p: int, intervals: tuple, window: tuple) -> list:
    """Sorted degrees in the window of the classes whose s lies in the
    intervals: Q^s sits in degree span*s and bQ^s in span*s - 1, so the two
    never share a degree."""
    span = 2 * (p - 1)
    lo, hi = window
    out = []
    for (s_lo, s_hi), drop in zip(intervals, (0, 1)):
        first, last = -((-lo - drop) // span), (hi + drop) // span  # s in the window
        if first < s_lo:
            first = s_lo
        if last > s_hi:
            last = s_hi
        out += range(span * first - drop, span * last - drop + 1, span)
    out.sort()
    return out


def _validate(p: int, n: int, family: str, window: tuple):
    if not is_prime(p):
        raise ValueError("p must be a prime")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 0 or (n < 1 and family in ("en+1", "en-1")):
        raise ValueError("n must be >= 1 for the truncated families")
    if window[0] > window[1]:
        raise ValueError("window bounds inverted")


@dataclass(frozen=True)
class DLBasis:
    prime: int
    family: str
    n: int
    window: tuple  # (lo, hi) used for reporting
    classes: tuple  # DLClass within the window, sorted by degree
    cofinite: bool

    def degrees(self) -> dict:
        return {c.degree: 1 for c in self.classes}  # one class per degree

    def to_json(self):
        return {"prime": self.prime, "family": self.family, "n": self.n,
                "window": list(self.window), "cofinite": self.cofinite,
                "classes": [{"label": c.label(), "kind": c.kind, "s": c.s,
                             "degree": c.degree} for c in self.classes]}


def dl_basis(p: int, n: int, family: str, degree_window: tuple) -> DLBasis:
    """Basis classes of one family, restricted to a bounded degree window."""
    _validate(p, n, family, degree_window)
    degrees = _class_degrees(p, _s_intervals(family, n), degree_window)
    classes = tuple(DLClass.of_degree(p, d) for d in degrees)
    return DLBasis(p, family, n, tuple(degree_window), classes, family == "einf")


def full_finite_basis(p: int, n: int, family: str) -> DLBasis:
    """A finite family enumerated completely (window large enough by range)."""
    if family not in FINITE_FAMILIES:
        raise ValueError(f"family {family!r} is cofinite")
    lo = -(n + 2) * (p - 1) * 2 - 2
    return dl_basis(p, n, family, (lo, 1))


def family_degree_counts(p: int, n: int, family: str, window: tuple) -> dict:
    """degree -> dimension of H_* over F_p for one family, in the window."""
    _validate(p, n, family, window)
    return dict.fromkeys(_class_degrees(p, _s_intervals(family, n), window), 1)


def default_window(p: int, n: int) -> tuple:
    span = 2 * (p - 1)
    lo = -span * (n // 2 + 2) - 2
    hi = span * 3 + 2
    return (lo, hi)


# ---------------------------------------------------------------------------
# p = 2: stunted real projective ranges


@dataclass(frozen=True)
class StuntedModel:
    bottom: int
    top: int | None  # None encodes an infinite top

    def __post_init__(self):
        # top = bottom - 1 is the empty range, as for en-1 at n = 1
        if self.top is not None and self.top < self.bottom - 1:
            raise ValueError("inverted stunted range")

    def cells(self, window: tuple) -> list:
        lo, hi = window
        top = hi if self.top is None else min(self.top, hi)
        return [d for d in range(max(self.bottom, lo), top + 1)]

    def label(self) -> str:
        top = "inf" if self.top is None else str(self.top)
        return f"RP[{self.bottom}..{top}]"


def p2_stunted_model(n: int, family: str) -> StuntedModel:
    """The stunted real projective model of one family at p = 2."""
    if family == "en-1":
        if n < 1:
            raise ValueError("n must be >= 1")
        return StuntedModel(-n, -2)
    if family == "en+1":
        if n < 1:
            raise ValueError("n must be >= 1")
        return StuntedModel(-n, 0)
    if family == "einf":
        if n < 0:
            raise ValueError("n must be >= 0")
        return StuntedModel(-n, None)
    if family == "e2":
        return StuntedModel(-1, 0)
    if family == "e1":
        return StuntedModel(0, 0)
    raise ValueError(f"no stunted model for family {family!r}")


def p2_cell_class_agreement(n: int, family: str, window: tuple) -> bool:
    """Three routes to the p = 2 basis in a window: the cells of the stunted
    model, the degrees of the admissible classes, and the F_2 homology of the
    stunted cell complex on those cells (one class in every cell's degree)."""
    cells = p2_stunted_model(n, family).cells(window)
    classes = [c.degree for c in dl_basis(2, n, family, window).classes]
    computed = []
    if cells:
        h = homology(StuntedCellComplex(cells[0], cells[-1]).chain_complex(), "F2")
        computed = [d for d, free, _ in h.components if free == 1]
    return cells == classes == computed


# ---------------------------------------------------------------------------
# the two short exact sequences


@dataclass(frozen=True)
class SesReport:
    prime: int
    n: int
    which: str
    window: tuple
    table: tuple  # (degree, dim_left, dim_middle, dim_right)
    first_map_injective: bool
    kernel_matches_image: bool
    surjective: bool
    additive: bool

    @property
    def passed(self) -> bool:
        return (self.first_map_injective and self.kernel_matches_image
                and self.surjective and self.additive)

    def to_json(self):
        return {"prime": self.prime, "n": self.n, "which": self.which,
                "window": list(self.window),
                "degrees": {str(d): {"A": a, "B": b, "C": c} for d, a, b, c in self.table},
                "first_map_injective": self.first_map_injective,
                "kernel_matches_image": self.kernel_matches_image,
                "surjective_onto_quotient": self.surjective,
                "dimension_additive": self.additive,
                "pass": self.passed}


def verify_ses(p: int, n: int, which: str, window: tuple | None = None) -> SesReport:
    """Degreewise exactness of one of the two extended-power sequences.

    which = "first":  en-1 family -> en+1 family -> two-cell family,
    which = "second": en-1 family -> widest family -> widest family on the
    (-1)-sphere.  The first map is the inclusion of the low range, the second
    kills it and matches the remaining classes one-to-one.
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    if n < 1:
        raise ValueError("n must be >= 1")
    if window is None:
        window = default_window(p, n)
    middle_family = "en+1" if which == "first" else "einf"
    right_family = "e2" if which == "first" else "einf"
    _validate(p, n, "en-1", window)
    left = _s_intervals("en-1", n)
    middle = _s_intervals(middle_family, n)
    right = _s_intervals(right_family, 1)
    injective = kernel_ok = surjective = True
    for a, (lo, hi), c, kernel in zip(left, middle, right, _low_range(middle)):  # Q, bQ
        injective = injective and _within(a, (lo, hi))
        kernel_ok = kernel_ok and _within(kernel, a) and _within(a, kernel)
        # the classes with s >= 0 map one-to-one to the (-1)-sphere family
        surjective = surjective and _within(c, (max(lo, 0), hi))

    # a degree holds at most one class of a family: every dimension is 0 or 1
    in_a, in_b, in_c = (set(_class_degrees(p, iv, window)) for iv in (left, middle, right))
    table = [(d, 1 if d in in_a else 0, 1 if d in in_b else 0, 1 if d in in_c else 0)
             for d in sorted(in_a | in_b | in_c)]
    additive = all(b == a + c for _, a, b, c in table)
    return SesReport(p, n, which, window, tuple(table),
                     injective, kernel_ok, surjective, additive)


@dataclass(frozen=True)
class PushoutReport:
    prime: int
    n: int
    window: tuple
    kernel_truncated: tuple  # degree multiset of ker(en+1 -> e2)
    kernel_wide: tuple  # degree multiset of ker(einf -> einf on S^-1)
    euler_zero: bool
    kernels_equal: bool

    @property
    def passed(self) -> bool:
        return self.kernels_equal and self.euler_zero

    def to_json(self):
        return {"prime": self.prime, "n": self.n, "window": list(self.window),
                "kernel_of_truncated_map": list(self.kernel_truncated),
                "kernel_of_wide_map": list(self.kernel_wide),
                "euler_characteristic_vanishes": self.euler_zero,
                "kernels_equal": self.kernels_equal, "pass": self.passed}


def pushout_rank_check(p: int, n: int, window: tuple | None = None) -> PushoutReport:
    """The two vertical maps of the square have equal degreewise kernels (the
    low-range classes), and the four corners have vanishing alternating sum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if window is None:
        window = default_window(p, n)
    _validate(p, n, "en+1", window)
    truncated, wide = _s_intervals("en+1", n), _s_intervals("einf", n)
    corners = [_class_degrees(p, iv, window) for iv in
               (truncated, wide, _s_intervals("e2", 1), _s_intervals("einf", 1))]
    # the alternating sum of the corners vanishes in every degree exactly when
    # the two diagonals of the square have the same degree multiset
    euler_zero = sorted(corners[0] + corners[3]) == sorted(corners[1] + corners[2])
    low = (min(window[0], -(n + 2) * 2 * (p - 1)), window[1])  # all of the low range
    ker1 = _class_degrees(p, _low_range(truncated), low)
    ker2 = _class_degrees(p, _low_range(wide), low)
    return PushoutReport(p, n, window, tuple(ker1), tuple(ker2),
                         euler_zero, tuple(ker1) == tuple(ker2))


# ---------------------------------------------------------------------------
# Moore spectrum and transfer identifications


@dataclass(frozen=True)
class MooreReport:
    prime: int
    basis: tuple  # (label, degree)
    bockstein_pairs: tuple
    top_cell_map: tuple  # (label, image) with image "1" or "0"
    homology_mod_p_degrees: tuple
    homology_integral: dict
    passed: bool

    def to_json(self):
        return {"prime": self.prime,
                "basis": [{"label": lab, "degree": d} for lab, d in self.basis],
                "bockstein": [list(pair) for pair in self.bockstein_pairs],
                "projection_to_top_cell": {lab: img for lab, img in self.top_cell_map},
                "mod_p_homology_degrees": list(self.homology_mod_p_degrees),
                "integral_homology": self.homology_integral,
                "pass": self.passed}


def moore_complex(p: int) -> ChainComplex:
    """Two cells in degrees -1, 0 with boundary multiplication by p."""
    return elementary_complex({}, {-1: (p,)})


def moore_identification(p: int) -> MooreReport:
    """The two-cell family is the mod-p Moore spectrum on the (-1)-sphere and
    the wrong-way map to the one-cell family is projection to the top cell."""
    cx = moore_complex(p)
    h_mod_p = homology(cx, f"F{p}")
    h_int = homology(cx, "Z")
    mod_p_degrees = tuple(h_mod_p.degrees())

    b = full_finite_basis(p, 1, "e2")
    basis = tuple((c.label(), c.degree) for c in b.classes)
    ok = {(c.kind, c.s) for c in b.classes} == {("Q", 0), ("bQ", 0)}
    if p == 2:
        sq1 = binom_mod2(-1, 1)  # the Bockstein is Sq^1, which links the two cells
        pairs = ((basis[0][0], basis[1][0]),) if sq1 == 1 else ()
        ok = ok and sq1 == 1
    else:
        pairs = (("Q^0", "bQ^0"),)

    top_map = tuple((lab, "1" if deg == 0 else "0") for lab, deg in basis)
    ok = ok and mod_p_degrees == (-1, 0)
    ok = ok and sorted(d for _, d in basis) == list(mod_p_degrees)
    return MooreReport(p, basis, pairs, top_map, mod_p_degrees, h_int.to_json(), ok)


@dataclass(frozen=True)
class TransferReport:
    prime: int
    window: tuple
    difference: tuple  # (label, degree) of classes in the middle term only
    degreewise_ok: bool

    @property
    def passed(self) -> bool:
        return self.degreewise_ok and len(self.difference) == 1 \
            and self.difference[0][1] == -1

    def to_json(self):
        return {"prime": self.prime, "window": list(self.window),
                "difference": [{"label": lab, "degree": d} for lab, d in self.difference],
                "degreewise_consistent": self.degreewise_ok, "pass": self.passed}


def transfer_cofiber_check(p: int, window: tuple) -> TransferReport:
    """The widest family on the (-1)-sphere and on the 0-sphere differ by one
    class in degree -1, the cofiber datum of the transfer sequence."""
    mid = family_degree_counts(p, 1, "einf", window).keys()
    right = family_degree_counts(p, 0, "einf", window).keys()
    extra = sorted(mid - right)
    diff = [(DLClass.of_degree(p, d).label(), d) for d in extra]
    # one class per degree, so the labels agree wherever both families have one
    degreewise_ok = right <= mid and extra == ([-1] if window[0] <= -1 <= window[1] else [])
    return TransferReport(p, window, tuple(diff), degreewise_ok)


def bockstein_pairing_consistent(p: int, n: int, family: str) -> bool:
    """bQ^s is admissible exactly when the strict inequality 2s > -n holds
    alongside Q^s's weak one (computed per family; the same at every p)."""
    for s in range(-(n + 3), 4):
        q_ok = _admissible(family, n, "Q", s)
        b_ok = _admissible(family, n, "bQ", s)
        if family == "e1":
            if b_ok:
                return False
            continue
        eff_n = 1 if family == "e2" else n
        if q_ok and 2 * s > -eff_n and not b_ok:
            return False
        if b_ok and not (2 * s > -eff_n):
            return False
        if b_ok and not q_ok:
            return False
    return True
