"""Mod-p homology of shifted extended powers of sphere spectra.

Bases are indexed by single Dyer-Lashof operations on the fundamental class:
after the n-fold shift, Q^s sits in degree 2s(p-1) and bQ^s (the Bockstein
partner) in degree 2s(p-1)-1, with admissibility 2s >= -n resp. 2s > -n for
the widest family on a (-n)-sphere.  The truncated families are the s <= 0
and s <= -1 ranges.  At p = 2 the same objects are encoded by stunted real
projective spectra with one cell per degree; the cell encoding is primary
and the degree-s class encoding is kept as a cross-check.

Cofinite families are represented by admissibility predicates plus a
reporting window.  All maps here are monomial (class-to-class); kernels,
images and degreewise additivity are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core_algebra import ChainComplex, GradedAbelianGroup, homology, is_prime
from .stunted_ktheory import binom_mod2

FAMILIES = ("einf", "en+1", "en-1", "e2", "e1")
FINITE_FAMILIES = ("en+1", "en-1", "e2", "e1")


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

    def label(self) -> str:
        return f"{'b' if self.kind == 'bQ' else ''}Q^{self.s}"


def _admissible(p: int, family: str, n: int, kind: str, s: int) -> bool:
    if family == "e1":
        return kind == "Q" and s == 0
    if family == "e2":
        n = 1  # the two-cell family lives on the (-1)-sphere
        family = "en+1"
    if kind == "Q":
        ok = 2 * s >= -n
    else:
        ok = 2 * s > -n
    if family == "en+1":
        ok = ok and s <= 0
    elif family == "en-1":
        ok = ok and s <= -1
    elif family != "einf":
        raise ValueError(f"unknown family {family!r}")
    return ok


@dataclass(frozen=True)
class DLBasis:
    prime: int
    family: str
    n: int
    window: tuple  # (lo, hi) used for reporting
    classes: tuple  # DLClass within the window, sorted by degree
    cofinite: bool

    def degrees(self) -> dict:
        out: dict[int, int] = {}
        for c in self.classes:
            out[c.degree] = out.get(c.degree, 0) + 1
        return out

    def to_json(self):
        return {"prime": self.prime, "family": self.family, "n": self.n,
                "window": list(self.window), "cofinite": self.cofinite,
                "classes": [{"label": c.label(), "kind": c.kind, "s": c.s,
                             "degree": c.degree} for c in self.classes]}


def dl_basis(p: int, n: int, family: str, degree_window: tuple) -> DLBasis:
    """Basis classes of one family, restricted to a bounded degree window."""
    if p == 2:
        raise ValueError("p = 2 is handled by the stunted cell model, not dl_basis")
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 0 or (n < 1 and family in ("en+1", "en-1")):
        raise ValueError("n must be >= 1 for the truncated families")
    lo, hi = degree_window
    if lo > hi:
        raise ValueError("window bounds inverted")
    span = 2 * (p - 1)
    classes = []
    for s in range(lo // span - 2, hi // span + 3):
        for kind in ("Q", "bQ"):
            if _admissible(p, family, n, kind, s):
                c = DLClass(kind, s, p)
                if lo <= c.degree <= hi:
                    classes.append(c)
    classes.sort(key=lambda c: (c.degree, c.kind))
    return DLBasis(p, family, n, (lo, hi), tuple(classes), family == "einf")


def full_finite_basis(p: int, n: int, family: str) -> DLBasis:
    """A finite family enumerated completely (window large enough by range)."""
    if family not in FINITE_FAMILIES:
        raise ValueError(f"family {family!r} is cofinite")
    lo = -(n + 2) * (p - 1) * 2 - 2
    return dl_basis(p, n, family, (lo, 1))


# ---------------------------------------------------------------------------
# p = 2: stunted projective models


@dataclass(frozen=True)
class StuntedModel:
    bottom: int
    top: int | None  # None encodes an infinite top

    def __post_init__(self):
        if self.top is not None and self.bottom > self.top:
            raise ValueError("empty stunted range")

    def has_cell(self, d: int) -> bool:
        return d >= self.bottom and (self.top is None or d <= self.top)

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
        if n == 1:
            raise ValueError("the en-1 family is empty at n = 1 (no stunted model)")
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


def _p2_model_or_empty(n: int, family: str) -> StuntedModel | None:
    if family == "en-1" and n == 1:
        return None
    return p2_stunted_model(n, family)


def p2_class_degrees(n: int, family: str, window: tuple) -> list:
    """p = 2 cross-check: degree-s classes, one per admissible s (degree = s)."""
    lo, hi = window
    if family == "e1":
        rng = (0, 0)
    elif family == "e2":
        rng = (-1, 0)
    elif family == "einf":
        rng = (-n, None)
    elif family == "en+1":
        rng = (-n, 0)
    elif family == "en-1":
        rng = (-n, -2)
    else:
        raise ValueError(f"unknown family {family!r}")
    bottom, top = rng
    top = hi if top is None else min(top, hi)
    return [s for s in range(max(bottom, lo), top + 1)]


def family_degree_counts(p: int, n: int, family: str, window: tuple) -> dict:
    """degree -> dimension of H_* over F_p for one family, in the window."""
    if p == 2:
        model = _p2_model_or_empty(n, family)
        if model is None:
            return {}
        return {d: 1 for d in model.cells(window)}
    basis = dl_basis(p, n, family, window)
    return basis.degrees()


def default_window(p: int, n: int) -> tuple:
    span = 2 * (p - 1)
    lo = -span * (n // 2 + 2) - 2
    hi = span * 3 + 2
    return (lo, hi)


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
    right_n = 1

    if p == 2:
        left = _p2_model_or_empty(n, "en-1")
        middle = p2_stunted_model(n, middle_family)
        right = p2_stunted_model(right_n, right_family)
        left_degrees = [] if left is None else left.cells((left.bottom, -2))
        injective = all(middle.has_cell(d) for d in left_degrees)
        kernel_top = -2 if middle.top is None else min(middle.top, -2)
        kernel = list(range(middle.bottom, kernel_top + 1))
        kernel_ok = kernel == left_degrees
        # cells in degree >= -1 survive to the quotient; exactness on the right
        # says those are exactly the right-hand cells
        surjective = right.bottom == max(middle.bottom, -1) and right.top == middle.top
    else:
        left = full_finite_basis(p, n, "en-1")
        injective = all(_admissible(p, middle_family, n, c.kind, c.s) for c in left.classes)
        kernel = sorted((c.kind, c.s) for c in _low_range_classes(p, n, middle_family))
        kernel_ok = kernel == sorted((c.kind, c.s) for c in left.classes)
        # classes with s >= 0 map one-to-one to the (-1)-sphere family; both
        # predicates are identically true for s >= 1, so a finite range decides
        if right_family == "e2":
            right_classes = [(c.kind, c.s) for c in full_finite_basis(p, right_n, "e2").classes]
        else:
            right_classes = [(kind, s) for s in range(0, n + 4) for kind in ("Q", "bQ")
                             if _admissible(p, "einf", right_n, kind, s)]
        surjective = all(s >= 0 and _admissible(p, middle_family, n, kind, s)
                         for kind, s in right_classes)

    counts_left = family_degree_counts(p, n, "en-1", window)
    counts_middle = family_degree_counts(p, n, middle_family, window)
    counts_right = family_degree_counts(p, right_n, right_family, window)
    table = []
    additive = True
    for d in range(window[0], window[1] + 1):
        a = counts_left.get(d, 0)
        b = counts_middle.get(d, 0)
        c = counts_right.get(d, 0)
        if a or b or c:
            table.append((d, a, b, c))
        if b != a + c:
            additive = False
    return SesReport(p, n, which, window, tuple(table),
                     injective, kernel_ok, surjective, additive)


def _low_range_classes(p: int, n: int, family: str) -> list:
    """The finitely many s <= -1 classes of a family (2s >= -n bounds s below)."""
    out = []
    for s in range(-(n // 2 + 2), 0):
        for kind in ("Q", "bQ"):
            if _admissible(p, family, n, kind, s):
                out.append(DLClass(kind, s, p))
    return out


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
    if p == 2:
        ker1 = [d for d in p2_stunted_model(n, "en+1").cells(window) if d <= -2]
        ker2 = [d for d in p2_stunted_model(n, "einf").cells(window) if d <= -2]
    else:
        wide = (min(window[0], -(n + 2) * 2 * (p - 1)), window[1])
        ker1 = sorted(c.degree for c in dl_basis(p, n, "en+1", wide).classes if c.s <= -1)
        ker2 = sorted(c.degree for c in dl_basis(p, n, "einf", wide).classes if c.s <= -1)
    corners = [family_degree_counts(p, n, "en+1", window),
               family_degree_counts(p, n, "einf", window),
               family_degree_counts(p, 1, "e2", window),
               family_degree_counts(p, 1, "einf", window)]
    euler_zero = all(
        corners[0].get(d, 0) - corners[1].get(d, 0) - corners[2].get(d, 0) + corners[3].get(d, 0) == 0
        for d in range(window[0], window[1] + 1))
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
    return ChainComplex.create({-1: 1, 0: 1}, {0: [[p]]})


def moore_identification(p: int) -> MooreReport:
    """The two-cell family is the mod-p Moore spectrum on the (-1)-sphere and
    the wrong-way map to the one-cell family is projection to the top cell."""
    cx = moore_complex(p)
    h_mod_p = homology(cx, f"F{p}")
    h_int = homology(cx, "Z")
    mod_p_degrees = tuple(h_mod_p.degrees())

    if p == 2:
        model = p2_stunted_model(1, "e2")
        basis = tuple((f"cell_{d}", d) for d in model.cells((-1, 0)))
        sq1 = binom_mod2(-1, 1)  # Sq^1 links the two cells
        pairs = ((basis[0][0], basis[1][0]),) if sq1 == 1 else ()
        ok = [model.bottom, model.top] == [-1, 0] and sq1 == 1
    else:
        b = full_finite_basis(p, 1, "e2")
        basis = tuple((c.label(), c.degree) for c in b.classes)
        pairs = (("Q^0", "bQ^0"),)
        ok = {(c.kind, c.s) for c in b.classes} == {("Q", 0), ("bQ", 0)}

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
    if p == 2:
        mid = {d: [f"cell_{d}"] for d in p2_stunted_model(1, "einf").cells(window)}
        right = {d: [f"cell_{d}"] for d in p2_stunted_model(0, "einf").cells(window)}
    else:
        mid_basis = dl_basis(p, 1, "einf", window)
        right_basis = dl_basis(p, 0, "einf", window)
        mid, right = {}, {}
        for c in mid_basis.classes:
            mid.setdefault(c.degree, []).append(c.label())
        for c in right_basis.classes:
            right.setdefault(c.degree, []).append(c.label())
    diff = []
    degreewise_ok = True
    for d in range(window[0], window[1] + 1):
        m = mid.get(d, [])
        r = right.get(d, [])
        extra = [lab for lab in m if lab not in r]
        missing = [lab for lab in r if lab not in m]
        if missing:
            degreewise_ok = False
        diff.extend((lab, d) for lab in extra)
        if len(m) != len(r) + (1 if d == -1 else 0):
            degreewise_ok = False
    return TransferReport(p, window, tuple(diff), degreewise_ok)


def bockstein_pairing_consistent(p: int, n: int, family: str) -> bool:
    """bQ^s is admissible exactly when the strict inequality 2s > -n holds
    alongside Q^s's weak one (computed per family)."""
    if p == 2:
        return True  # cells carry the pairing through Sq^1 instead
    span = 2 * (p - 1)
    for s in range(-(n + 3), 4):
        q_ok = _admissible(p, family, n, "Q", s)
        b_ok = _admissible(p, family, n, "bQ", s)
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


def p2_cell_class_agreement(n: int, family: str, window: tuple) -> bool:
    """Two encodings, one answer: stunted cells vs degree-s classes at p = 2."""
    model = _p2_model_or_empty(n, family)
    cells = [] if model is None else model.cells(window)
    return cells == p2_class_degrees(n, family, window)
