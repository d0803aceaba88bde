"""Stunted projective spectra and the K-theoretic exact sequences.

Cell structure and Steenrod action of stunted real projective spectra, their
integral homology through Smith normal form, the short exact sequences of
complex K-theory groups 0 -> Z -> Z + Z/p^k -> Z/p^(k+1) -> 0 certified by an
explicit cokernel presentation, and the eigenvalue of the theta operation on
Bott classes.

The K-groups themselves are imported as known values (Adams' computation for
projective spaces and its odd-primary analogue); what is certified here is
the exactness of the sequences built out of them.  The generator hit by the
theta class is normalized to the standard one: exactness is invariant under
unit multiples, so nothing is lost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core_algebra import ChainComplex, GradedAbelianGroup, IntMatrix, homology, smith_normal_form


def binom_mod2(j: int, k: int) -> int:
    """C(j, k) mod 2 for any integer j and k >= 0, by the 2-adic Lucas rule.

    Negative j uses the two's-complement digit expansion (all high bits set),
    so C(-1, k) = 1 for every k >= 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return 0 if (k & ~j) else 1


@dataclass(frozen=True)
class StuntedCellComplex:
    """Cells in degrees a..b, boundary alternating 0 / 2: d_j = 2 for even j.

    The parity pattern is the standard one for real projective spectra in
    absolute degrees; its mod-2 reduction vanishes and Sq^1 links cell j-1 to
    cell j exactly when j is even.
    """

    bottom: int
    top: int

    def __post_init__(self):
        if self.bottom > self.top:
            raise ValueError("bottom exceeds top")

    def chain_complex(self) -> ChainComplex:
        ranks = {j: 1 for j in range(self.bottom, self.top + 1)}
        two = ({0: 2},)  # the 1x1 matrix (2); the odd differentials are zero: left out
        diffs = {j: two for j in range(self.bottom + 1, self.top + 1) if j % 2 == 0}
        return ChainComplex.create(ranks, diffs)


def stunted_integral_homology(a: int, b: int) -> GradedAbelianGroup:
    return homology(StuntedCellComplex(a, b).chain_complex(), "Z")


def stunted_sq(a: int, b: int, k: int) -> IntMatrix:
    """Matrix of Sq^k on the mod-2 cohomology of the cell range [a, b].

    Entry (j - a, j + k - a) is C(j, k) mod 2: rows index source cells,
    columns target cells.
    """
    if a > b:
        raise ValueError("a must be <= b")
    size = b - a + 1
    rows = []
    for j in range(a, b + 1):
        row = [0] * size
        if a <= j + k <= b:
            row[j + k - a] = binom_mod2(j, k)
        rows.append(tuple(row))
    return IntMatrix(size, size, tuple(rows))


# ---------------------------------------------------------------------------
# K-theory exact sequences


def torsion_exponent(n: int) -> int:
    """k = (n-2)/2 for even n and (n-1)/2 for odd n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2


@dataclass(frozen=True)
class ExactTriple:
    p: int
    k: int
    map_in: tuple  # (p, generator component of Z/p^k), the second absent for k = 0

    @property
    def left(self) -> str:
        return "Z"

    @property
    def middle(self) -> str:
        return "Z" if self.k == 0 else f"Z + Z/{self.p ** self.k}"

    @property
    def right(self) -> str:
        return f"Z/{self.p ** (self.k + 1)}"


@dataclass(frozen=True)
class KuSesCertificate:
    presentation: IntMatrix
    snf_diagonal: tuple
    snf_left: IntMatrix
    snf_right: IntMatrix
    injective: bool
    cokernel_order: int
    passed: bool

    def to_json(self):
        return {"presentation": self.presentation.to_lists(),
                "snf": {"diagonal": list(self.snf_diagonal),
                        "left": self.snf_left.to_lists(),
                        "right": self.snf_right.to_lists()},
                "first_map_injective": self.injective,
                "cokernel_order": self.cokernel_order,
                "pass": self.passed}


def ku_ses(p: int, n: int):
    """Certify 0 -> Z -> Z + Z/p^k -> Z/p^(k+1) -> 0 for the degree-n case.

    The cokernel of 1 |-> (p, generator) is presented by an integer matrix and
    reduced to Smith form; exactness holds iff it is cyclic of order p^(k+1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    k = torsion_exponent(n)
    if k == 0:
        presentation = IntMatrix.from_rows([[p]])
        triple = ExactTriple(p, 0, (p,))
    else:
        presentation = IntMatrix.from_rows([[p, 0], [1, p ** k]])
        triple = ExactTriple(p, k, (p, 1))
    snf = smith_normal_form(presentation)
    nonunit = [d for d in snf.diagonal if d != 1]
    passed = snf.verify(presentation) and nonunit == [p ** (k + 1)]
    cert = KuSesCertificate(presentation, snf.diagonal, snf.left, snf.right,
                            injective=p != 0, cokernel_order=p ** (k + 1),
                            passed=passed)
    return triple, cert


@dataclass(frozen=True)
class NilpotenceWitness:
    p: int
    n: int
    detected: bool  # True: the class is NOT smash-nilpotent
    case: str  # "vacuous", "positive-stem", "k1-detected"
    reason: str

    def to_json(self):
        return {"prime": self.p, "n": self.n, "not_smash_nilpotent": self.detected,
                "case": self.case, "reason": self.reason}


def nilpotence_witness(p: int, n: int) -> NilpotenceWitness:
    """Detection of the obstruction class by mod-p K-theory.

    True (not smash-nilpotent) iff the torsion exponent k is >= 1, i.e.
    n >= 3: exactness then forces the class to generate Z/p^k, so its mod-p
    reduction is nonzero.  n = 2 yields k = 0 and the class lives in a
    positive stem, where every element is nilpotent (Nishida); n = 1 is
    vacuous since the correction term has no domain.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return NilpotenceWitness(p, n, False, "vacuous",
                                 "the domain of the correction term is trivial")
    k = torsion_exponent(n)
    if k == 0:
        return NilpotenceWitness(
            p, n, False, "positive-stem",
            f"k={k}: no torsion summand; the class sits in the ({2 * p - 3})-stem "
            "and positive-stem elements are nilpotent (Nishida)")
    extra = ""
    if n == 3:
        extra = (f"; for n=3 the class is a lift of a generator of the p-torsion "
                 f"in the ({2 * p - 3})-stem")
    return NilpotenceWitness(
        p, n, True, "k1-detected",
        f"k={k}>=1: exactness of 0->Z->Z+Z/{p ** k}->Z/{p ** (k + 1)}->0 forces the "
        f"torsion component onto a generator of Z/{p ** k}, whose mod-{p} reduction "
        f"is nonzero{extra}")


def adams_theta(n: int, p: int) -> int:
    """Eigenvalue of the theta operation on the n-th Bott power.

    Derived from psi^p acting by p^n and the p-th power vanishing in the
    reduced ring: theta = (p^n - 0) / p = p^(n-1), returned exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    psi_eigenvalue = p ** n
    power_term = 0  # the p-th power of a reduced even class on a sphere
    if (psi_eigenvalue - power_term) % p != 0:
        raise AssertionError("theta eigenvalue is not integral")
    return (psi_eigenvalue - power_term) // p
