import hashlib
import json
import pathlib
import random
import time
from itertools import combinations
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (is_zero_matrix, random_chain_complex, random_differentials,
                      random_unimodular)
from entriv import RepeatedKeyError, core_algebra
from entriv.core_algebra import (ChainComplex, GradedAbelianGroup, IntMatrix,
                                 echelon_mod_p, elementary_complex, formality_splitting, homology,
                                 invariant_factors, is_prime, product_is_zero, rank_mod_p, rank_q,
                                 ring_prime, smith_diagonal, smith_normal_form)
from entriv.rng import CounterRng
from entriv.steenrod_cochains import rp2_model
from entriv.stunted_ktheory import StuntedCellComplex, stunted_integral_homology

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def _product(rows: int, inner: int, cols: int):
    """A * B with A rows x inner and B inner x cols, entries in [-4, 4]."""
    entry = st.integers(-4, 4)
    return st.tuples(
        st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows),
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner),
    ).map(lambda ab: IntMatrix.from_rows(ab[0]).mul(IntMatrix.from_rows(ab[1])).entries)


# products through an inner size of 1-7: rank-deficient whenever the inner
# size is below both outer sizes
small_products = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: _product(*shape))


def minor_gcd_diagonal(m: IntMatrix):
    """Independent oracle: d_1 ... d_k = gcd of k x k minors ratios."""
    diag = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[m.entries[i][j] for j in cols] for i in rows])
                g = gcd(g, sub.det())
        if g == 0:
            diag.extend([0] * (min(m.rows, m.cols) - k + 1))
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]])).diagonal == (1, 1)

    def test_worked_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        snf = smith_normal_form(m)
        # gcd-of-minors oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
        assert snf.diagonal == (2, 4)
        assert snf.verify(m)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.from_rows([[0, 0]] * 3)).diagonal == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_transforms_and_divisibility(self, rows):
        m = IntMatrix.from_rows(rows)
        snf = smith_normal_form(m)
        assert snf.verify(m)
        assert snf.diagonal == minor_gcd_diagonal(m)

    def test_sympy_smith_diagonal_oracle(self):
        import sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = CounterRng(29)
        checked = 0
        for _ in range(40):
            _, mats = random_differentials(rng, max_degree=4)
            for m in mats.values():
                got = sympy_snf(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
                want = tuple(abs(int(got[i, i])) for i in range(min(m.rows, m.cols)))
                assert smith_normal_form(m).diagonal == want
                checked += 1
        assert checked > 20


# the 54 differentials of 30 complexes that random_chain_complex drew from
# CounterRng(2025) at max_degree=5 when the pin was taken, frozen because
# the generator's stream has since changed
PINNED_DIFFERENTIALS = pathlib.Path(__file__).parent / "golden" / "snf_pin_differentials.json"


def pinned_matrices():
    """1500 seeded matrices up to 6x6 (dense, some zeros, mostly zeros) and
    the frozen differentials of 30 random complexes."""
    rng = CounterRng(2024)
    mats = []
    for _ in range(1500):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        zeros = rng.below(3)
        mats.append(IntMatrix.from_rows(
            [[0 if rng.below(4) < zeros + zeros // 2 else rng.randint(-5, 5)
              for _ in range(c)] for _ in range(r)]))
    mats.extend(map(IntMatrix.from_rows, json.loads(PINNED_DIFFERENTIALS.read_text())))
    return mats


# a dense 9x8 matrix (random.Random(0), entries in [-3, 12]) on which an
# elimination that does not reduce modulo its pivots grows entries without
# bound; its Smith diagonal is 1, ..., 1
STALLING_9X8 = [[9, 10, -2, 5, 12, 9, 6, 12], [8, 3, 1, 6, 1, 0, 5, 1],
                [6, 0, -1, 7, 12, 0, 8, 10], [7, 3, 12, 11, 5, -2, -3, -1],
                [9, -3, 12, 7, 4, 7, -1, 3], [4, 4, 1, 11, -1, -1, 7, 12],
                [0, 6, 6, 0, 7, 3, 6, 11], [-1, 9, 7, 4, 6, 2, 3, 2],
                [-2, 5, 12, -1, -1, 1, 1, -2]]


def dense_draws():
    """The 15 9x8 matrices drawn as random.Random(s), s = 0-14, entries in [-3, 12]."""
    draws = []
    for s in range(15):
        rnd = random.Random(s)
        draws.append([[rnd.randint(-3, 12) for _ in range(8)] for _ in range(9)])
    return draws


def sheared_diagonal(seed: int):
    """diag(d_1..d_32), d_i in 1..6, then 32 random shears +-1/+-2 on each
    side, and its Smith diagonal: the divisibility chain of the d_i."""
    rng = CounterRng(seed)
    diag = [rng.randint(1, 6) for _ in range(32)]
    m = [[diag[i] if i == j else 0 for j in range(32)] for i in range(32)]
    for side in range(2):
        for _ in range(32):
            i, j, q = rng.below(32), rng.below(32), rng.sign() * rng.randint(1, 2)
            if i == j:
                continue
            if side == 0:
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            else:
                for row in m:
                    row[i] += q * row[j]
    chain = invariant_factors([d for d in diag if d > 1])
    return m, (1,) * (32 - len(chain)) + chain


def hadamard(m: IntMatrix) -> int:
    """prod_j max(1, ceil |m_j|) over the columns m_j: at least every minor of m."""
    h = 1
    for col in zip(*m.entries):
        square = sum(e * e for e in col)
        if square:
            h *= isqrt(square - 1) + 1
    return h


class TestSmithKernel:
    """smith_normal_form on the inputs where an unreduced elimination stalls:
    each must verify, agree with smith_diagonal, finish within 0.5 s and keep
    every entry of L and R within H^2, H the Hadamard bound of its input."""

    def check(self, rows, want=None):
        m = IntMatrix.from_rows(rows)
        start = time.perf_counter()
        snf = smith_normal_form(m)
        assert time.perf_counter() - start < 0.5
        assert snf.verify(m)
        assert snf.diagonal == smith_diagonal(m)
        if want is not None:
            assert snf.diagonal == want
        bound = hadamard(m) ** 2
        assert all(abs(e) <= bound for t in (snf.left, snf.right)
                   for row in t.entries for e in row)

    def test_the_stalling_9x8_matrix(self):
        self.check(STALLING_9X8, (1,) * 8)

    @pytest.mark.parametrize("seed", range(15))
    def test_dense_9x8_draws(self, seed):
        self.check(dense_draws()[seed])

    @pytest.mark.parametrize("seed", range(10))
    def test_sheared_diagonals_of_side_32(self, seed):
        self.check(*sheared_diagonal(seed))

    def test_ku_ses_transforms(self):
        # the Z + Z/p^k presentation of `ku-ses`: L and R as the reports print them
        for p in (2, 3, 5, 7, 11):
            for k in range(1, 6):
                snf = smith_normal_form(IntMatrix.from_rows([[p, 0], [1, p ** k]]))
                assert snf.diagonal == (1, p ** (k + 1))
                assert snf.left.to_lists() == [[0, 1], [-1, p]]
                assert snf.right.to_lists() == [[1, -p ** k], [0, 1]]
            snf = smith_normal_form(IntMatrix.from_rows([[p]]))
            assert (snf.diagonal, snf.left.to_lists(), snf.right.to_lists()) == ((p,), [[1]], [[1]])


class TestSmithDiagonal:
    def test_diagonals_match_the_golden_pin(self):
        # sha256 of every Smith diagonal, unchanged since the pin was taken;
        # hex digits have no size limit
        mats = pinned_matrices()
        assert len(mats) == 1554
        h = hashlib.sha256()
        for m in mats:
            h.update(repr([format(e, "x") for e in smith_normal_form(m).diagonal]).encode())
        assert h.hexdigest() == \
            "8b71d665c49242b00afa9f93c4e5eb996dadf269b63bb0991e5d1622de87ea07"

    def test_transforms_match_the_golden_pin(self):
        # sha256 of every (diagonal, L, R) of the bounded-transform kernel: L
        # and R are not canonical, so this pin moves whenever the kernel's
        # pivot or reduction order does, while the diagonal pin above may not
        mats = pinned_matrices()
        h = hashlib.sha256()
        for m in mats:
            snf = smith_normal_form(m)
            h.update(repr([[[format(e, "x") for e in row] for row in mat] for mat in
                           ((snf.diagonal,), snf.left.entries, snf.right.entries)]).encode())
        assert h.hexdigest() == \
            "ad0110452eb5d1a5b6716dc3c6aedaa1d757672f9cb3c07403b2e2561f221b38"

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_matches_smith_normal_form_and_rank_q(self, rows):
        m = IntMatrix.from_rows(rows)
        diag = smith_diagonal(m)
        assert diag == smith_normal_form(m).diagonal
        assert rank_q(m) == sum(1 for d in diag if d)

    @settings(max_examples=100, deadline=None)
    @given(small_products)
    def test_matches_smith_normal_form_on_rank_deficient_products(self, rows):
        m = IntMatrix.from_rows(rows)
        assert smith_diagonal(m) == smith_normal_form(m).diagonal

    def test_sympy_oracle(self):
        import sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = CounterRng(53)

        def draw(rows, cols, bound):
            return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                                        for _ in range(rows)])

        dense = [draw(rng.randint(1, 8), rng.randint(1, 8), 9) for _ in range(60)]
        products = []
        for _ in range(40):  # inner sizes up to 7
            r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
            products.append(draw(r, k, 4).mul(draw(k, c, 4)))
        for m in pinned_matrices()[::15] + dense + products:
            got = sympy_snf(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
            want = tuple(abs(int(got[i, i])) for i in range(min(m.rows, m.cols)))
            assert smith_diagonal(m) == want

    def test_rank_q_counts_the_nonzero_diagonal(self):
        rng = CounterRng(37)
        checked = 0
        for _ in range(40):
            for m in random_differentials(rng, max_degree=5)[1].values():
                assert rank_q(m) == sum(1 for d in smith_diagonal(m) if d)
                checked += 1
        assert checked > 40

    def test_sheared_diagonals_of_side_32(self):
        for seed in range(10):
            m, want = sheared_diagonal(seed)
            start = time.perf_counter()
            assert smith_diagonal(IntMatrix.from_rows(m)) == want
            assert time.perf_counter() - start < 0.5

    def test_residues_mod_the_minor_are_chained_before_truncation(self):
        # rank 1 with no unit entry; the minor is 6, and working mod 6 leaves
        # the residues 3 and 2: their chain (1, 6) truncated to the rank reads
        # d_1 = 1, where either residue alone would read 3 or 2
        m = IntMatrix.from_rows([[6, 4], [9, 6]])
        assert smith_diagonal(m) == (1, 0) == smith_normal_form(m).diagonal

    def test_integral_homology_avoids_the_smith_stall(self):
        cx = ChainComplex.create({0: 9, 1: 8}, {1: STALLING_9X8})
        start = time.perf_counter()
        h = homology(cx, "Z")
        diagonal = smith_diagonal(IntMatrix.from_rows(cx.to_json()["differentials"]["1"]))
        assert time.perf_counter() - start < 0.5
        assert h == GradedAbelianGroup.create({0: (1, ())})
        assert diagonal == (1,) * 8

    def test_rational_homology_avoids_the_smith_stall(self):
        cx = ChainComplex.create({0: 9, 1: 8}, {1: STALLING_9X8})
        start = time.perf_counter()
        h = homology(cx, "Q")
        assert time.perf_counter() - start < 0.5
        assert h == GradedAbelianGroup.create({0: (1, ())})

    def test_homology_reads_only_smith_diagonals(self, monkeypatch):
        rng = CounterRng(41)
        complexes = [random_chain_complex(rng, max_degree=5) for _ in range(20)]
        complexes.append(StuntedCellComplex(-50, 50).chain_complex())
        full, diagonal = [], []
        real = core_algebra._smith
        monkeypatch.setattr(core_algebra, "smith_normal_form",
                            lambda m: full.append(m) or smith_normal_form(m))

        def counting(rows, ncols, left, right):
            # empty transform rows: the kernel's steps carry no L or R
            assert not any(left) and not any(right)
            diagonal.append(rows)
            return real(rows, ncols, left, right)

        monkeypatch.setattr(core_algebra, "_smith", counting)
        for cx in complexes:
            distinct = list(dict.fromkeys(m for _, m in cx.differentials))
            for ring in ("Z", "Q", "F2", "F5"):
                diagonal.clear()
                homology(cx, ring)
                assert diagonal == (distinct if ring == "Z" else [])
        assert full == []

    def test_equal_differentials_are_reduced_once(self, monkeypatch):
        cx = StuntedCellComplex(-50, 50).chain_complex()
        assert len(cx.differentials) == 50
        assert {m for _, m in cx.differentials} == {(((0, 2),),)}
        want = stunted_integral_homology(-50, 50)
        calls = []
        for name in ("_smith", "rank_mod_p"):
            real = getattr(core_algebra, name)
            monkeypatch.setattr(core_algebra, name,
                                lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        assert homology(cx, "Z") == want
        assert calls == ["_smith"]
        calls.clear()
        homology(cx, "F2")
        assert calls == ["rank_mod_p"]


class TestRankModP:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_matrices, small_products), st.sampled_from([2, 3, 5]))
    def test_counts_the_smith_invariants_p_does_not_divide(self, rows, p):
        m = IntMatrix.from_rows(rows)
        assert rank_mod_p(m, p) == sum(1 for d in smith_diagonal(m) if d % p)


class TestEchelonModP:
    """echelon_mod_p against an independent oracle: sympy's rank over GF(p),
    and every tag applied to the input rows it names."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_matrices, small_products), st.sampled_from([2, 3, 5, 7]))
    def test_against_sympy_and_the_input_rows(self, rows, p):
        from sympy import GF, ZZ
        from sympy.polys.matrices import DomainMatrix

        rows = [list(row) for row in rows]
        cols = len(rows[0])
        assert rank_mod_p(IntMatrix.from_rows(rows), p) == \
            DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank()

        def combine(tag):  # the sum of the input rows the tag names, mod p
            return [sum(c * rows[i][j] for i, c in tag.items()) % p for j in range(cols)]

        pivots, kernel = echelon_mod_p(
            [({j: e % p for j, e in enumerate(row) if e % p}, {i: 1})
             for i, row in enumerate(rows)], p)
        for tag in kernel:
            assert combine(tag) == [0] * cols
        for lead, (row, tag) in pivots.items():
            assert min(row) == lead and row[lead] == 1
            assert combine(tag) == [row.get(j, 0) for j in range(cols)]
        # row i only takes pivots kept before it, so its tag's last index is i
        tags = [tag for _, tag in pivots.values()] + kernel
        assert sorted(max(tag) for tag in tags) == list(range(len(rows)))


class TestHomology:
    def test_circle(self):
        c = ChainComplex.create({0: 1, 1: 1}, {1: [[0]]})
        h = homology(c, "Z")
        assert h.component(0) == (1, ()) and h.component(1) == (1, ())

    def test_projective_plane_integral(self):
        c = ChainComplex.create({0: 1, 1: 1, 2: 1}, {1: [[0]], 2: [[2]]})
        h = homology(c, "Z")
        assert h.component(0) == (1, ())
        assert h.component(1) == (0, (2,))
        assert h.component(2) == (0, ())

    def test_projective_plane_mod2(self):
        c = ChainComplex.create({0: 1, 1: 1, 2: 1}, {1: [[0]], 2: [[2]]})
        h = homology(c, "F2")
        assert [h.component(d) for d in (0, 1, 2)] == [(1, ())] * 3

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError):
            ChainComplex.create({0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})

    def test_rejects_a_negative_rank(self):
        with pytest.raises(ValueError, match="rank -2 in degree 0 is negative"):
            ChainComplex.create({0: -2, 1: 1, 2: 1}, {1: [], 2: [[2]]})

    @pytest.mark.parametrize("ranks, diffs", [
        ({"0": 1, "00": 2}, {}),
        ({0: 1, "0": 1, 1: 1}, {}),
        ({"0": 1, "1": 1}, {"1": [[2]], " 1": [[3]]}),
    ])
    def test_rejects_repeated_degree_keys(self, ranks, diffs):
        with pytest.raises(RepeatedKeyError, match="both name degree"):
            ChainComplex.create(ranks, diffs)

    def test_zero_ranks_are_dropped(self):
        # elementary_complex emits zero ranks
        cx = ChainComplex.create({0: 0, 1: 1, 2: 0}, {})
        assert cx.ranks == ((1, 1),)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices, st.integers(1, 4), st.data())
    def test_square_zero_check_matches_the_product(self, rows, width, data):
        a = IntMatrix.from_rows(rows)
        b = IntMatrix.from_rows(data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=width, max_size=width),
            min_size=a.cols, max_size=a.cols)))
        assert product_is_zero(a, b) == is_zero_matrix(a.mul(b))

    def test_square_zero_check_sees_cancellation(self):
        a = IntMatrix.from_rows([[1, 1], [2, 2]])
        assert product_is_zero(a, IntMatrix.from_rows([[1], [-1]]))
        assert not product_is_zero(a, IntMatrix.from_rows([[1], [1]]))

    def test_empty_complex(self):
        assert homology(ChainComplex.create({}, {}), "Z") == GradedAbelianGroup(())

    def test_unimodular_inverse(self):
        rng = CounterRng(9)
        for n in range(1, 7):
            for _ in range(20):
                u, inv = random_unimodular(n, rng, 8, 2)
                identity = IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
                assert u.mul(inv) == identity == inv.mul(u)

    def test_basis_change_invariance(self):
        rng = CounterRng(5)
        for _ in range(25):
            ranks, mats = random_differentials(rng)
            cx = ChainComplex.create(ranks, mats)
            h = homology(cx, "Z")
            us, invs = {}, {}
            for d, rank in cx.ranks:
                us[d], invs[d] = random_unimodular(rank, rng, 4, 1)
            diffs = {d: us[d - 1].mul(m).mul(invs[d]) for d, m in mats.items()}
            assert homology(ChainComplex.create(dict(cx.ranks), diffs), "Z") == h

    def test_universal_coefficients(self):
        rng = CounterRng(17)
        for _ in range(25):
            cx = random_chain_complex(rng)
            hz = homology(cx, "Z")
            for p in (2, 3, 5):
                hp = homology(cx, f"F{p}")
                for d in set(cx.degrees()):
                    free, torsion = hz.component(d)
                    _, torsion_below = hz.component(d - 1)
                    expected = (free + sum(1 for t in torsion if t % p == 0)
                                + sum(1 for t in torsion_below if t % p == 0))
                    assert hp.component(d)[0] == expected


    def test_stunted_closed_form(self):
        for a in (-400, -201, -3, 0, 7):
            b = a + 400
            want = {}
            for j in range(a, b + 1):
                if j % 2 == 1 and j < b:
                    want[j] = (0, (2,))
            if a % 2 == 0:
                want[a] = (1, ())
            if b % 2 == 1:
                want[b] = (1, ())
            h = stunted_integral_homology(a, b)
            assert h == GradedAbelianGroup.create(want)

    def test_gaps_and_zero_differentials(self):
        cx = ChainComplex.create({-3: 2, 0: 1, 1: 2, 2: 1, 5: 3},
                                 {1: [[0, 0]], 2: [[2], [4]], 5: []})
        assert dict(cx.ranks) == {-3: 2, 0: 1, 1: 2, 2: 1, 5: 3}
        assert cx.differentials == ((2, (((0, 2),), ((0, 4),))),)
        assert cx.to_json()["differentials"] == {"2": [[2], [4]]}
        assert homology(cx, "Z") == GradedAbelianGroup.create(
            {-3: (2, ()), 0: (1, ()), 1: (1, (2,)), 5: (3, ())})
        assert homology(cx, "Q") == GradedAbelianGroup.create(
            {-3: (2, ()), 0: (1, ()), 1: (1, ()), 5: (3, ())})
        assert homology(cx, "F2") == GradedAbelianGroup.create(
            {-3: (2, ()), 0: (1, ()), 1: (2, ()), 2: (1, ()), 5: (3, ())})

    def test_one_smith_form_per_nonzero_differential(self, monkeypatch):
        # each ring's reducer, called once per distinct differential, on its nonzero rows
        calls = []
        for name in ("_smith", "_bareiss", "rank_mod_p"):
            real = getattr(core_algebra, name)
            monkeypatch.setattr(core_algebra, name, lambda m, *args, real=real, name=name:
                                calls.append((name, m)) or real(m, *args))
        rng = CounterRng(31)
        complexes = [random_chain_complex(rng, max_degree=5) for _ in range(20)]
        complexes.append(StuntedCellComplex(-50, 50).chain_complex())
        for cx in complexes:
            distinct = {rows for _, rows in cx.differentials}
            assert distinct
            for ring, reducer in (("Z", "_smith"), ("Q", "_bareiss"), ("F3", "rank_mod_p")):
                calls.clear()
                homology(cx, ring)
                assert [name for name, _ in calls] == [reducer] * len(distinct)
                assert all(any(map(any, m)) for _, m in calls)


class TestSparseRows:
    """ChainComplex.create on rows {column: entry}, the form in which the
    package's own complexes hand over their differentials."""

    @pytest.mark.parametrize("ranks, rows, error", [
        ({0: 1, 1: 2}, [{2: 1}], "d_1 has shape 1x3, expected 1x2"),  # a column >= rank
        ({0: 2, 1: 1}, [{0: 1}], "d_1 has shape 1x1, expected 2x1"),
        ({0: 1, 1: 1}, [{0: 2.0}], "matrix entry 2.0 is not an integer"),
        ({0: 1, 1: 1}, [{0: True}], "matrix entry True is not an integer"),
        ({0: 1, 1: 1}, [{"0": 2}], "matrix column '0' is not a nonnegative integer"),
        ({0: 1, 1: 1}, [{-1: 2}], "matrix column -1 is not a nonnegative integer"),
    ])
    def test_rejects_bad_rows(self, ranks, rows, error):
        with pytest.raises(ValueError, match=error):
            ChainComplex.create(ranks, {1: rows})

    def test_drops_explicit_zeros(self):
        cx = ChainComplex.create({0: 2, 1: 2}, {1: [{1: 3, 0: 0}, {0: 2}]})
        assert cx.differentials == ((1, (((1, 3),), ((0, 2),))),)
        assert cx.to_json()["differentials"] == {"1": [[0, 3], [2, 0]]}
        # a differential of zeros, of any row count, is left out
        assert ChainComplex.create({0: 2, 1: 2}, {1: [{0: 0}], 2: [{}]}).differentials == ()

    def test_a_repeated_object_lands_in_each_of_its_degrees(self, monkeypatch):
        two = ({0: 2},)
        cx = ChainComplex.create({n: 1 for n in range(5)}, {2: two, 4: two})
        assert cx.differentials == ((2, (((0, 2),),)), (4, (((0, 2),),)))
        # read once, but checked against the shape of every degree it fills
        with pytest.raises(ValueError, match="d_3 has shape 1x1, expected 2x1"):
            ChainComplex.create({0: 1, 1: 1, 2: 2, 3: 1}, {1: two, 3: two})
        reads = []
        real = core_algebra._read_differential
        monkeypatch.setattr(core_algebra, "_read_differential",
                            lambda mat: reads.append(mat) or real(mat))
        assert len(StuntedCellComplex(-50, 50).chain_complex().differentials) == 50
        assert len(reads) == 1

    def test_simplicial_chains_survive_json(self):
        cx = rp2_model().chain_complex()
        assert ChainComplex.from_json(json.loads(json.dumps(cx.to_json()))) == cx


class TestElementaryComplex:
    def test_homology_is_the_presented_group(self):
        rng = CounterRng(43)
        consecutive = 0
        for _ in range(60):
            free_at = {n: rng.below(3) for n in range(-2, 4)}
            torsion_at = {n: [rng.randint(2, 12) for _ in range(rng.below(3))]
                          for n in range(-2, 4)}
            consecutive += any(torsion_at[n] and torsion_at[n + 1] for n in range(-2, 3))
            want = GradedAbelianGroup.create({n: (free_at[n], torsion_at[n]) for n in free_at})
            assert homology(elementary_complex(free_at, torsion_at), "Z") == want
        assert consecutive > 10

    def test_random_complexes_reach_consecutive_torsion(self):
        rng = CounterRng(0)
        groups = [homology(random_chain_complex(rng, max_degree=5), "Z") for _ in range(50)]
        assert any(g.component(n)[1] and g.component(n + 1)[1]
                   for g in groups for n in range(5))


class TestFormality:
    def test_zero_differentials_fixed(self):
        c = ChainComplex.create({0: 2, 3: 1}, {})
        minimal, certified = formality_splitting(c)
        assert certified and minimal == c

    def test_projective_plane(self):
        c = ChainComplex.create({0: 1, 1: 1, 2: 1}, {1: [[0]], 2: [[2]]})
        minimal, certified = formality_splitting(c)
        assert certified
        # free Z in degree 0 plus a two-term piece Z --2--> Z in degrees (2, 1)
        assert minimal.to_json() == {"ranks": {"0": 1, "1": 1, "2": 1},
                                     "differentials": {"2": [[2]]}}

    def test_torsion_free_input_splits_with_zero_differential(self):
        c = ChainComplex.create({0: 2, 1: 2}, {1: [[1, 0], [0, 1]]})
        minimal, certified = formality_splitting(c)
        assert certified and minimal.differentials == ()

    def test_random_complexes_certify(self):
        rng = CounterRng(11)
        for _ in range(50):
            _, certified = formality_splitting(random_chain_complex(rng))
            assert certified


class TestSerialization:
    def test_chain_complex_round_trip(self):
        c = ChainComplex.create({0: 1, 1: 1, 2: 1}, {1: [[0]], 2: [[2]]})
        assert ChainComplex.from_json(json.loads(json.dumps(c.to_json()))) == c

    def test_graded_group_spec_shape(self):
        g = GradedAbelianGroup.create({0: (1, ()), 1: (0, (2,))})
        assert g.to_json() == {"0": {"free": 1, "torsion": []},
                               "1": {"free": 0, "torsion": [2]}}


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(10 ** 4) if is_prime(n)] == \
            [n for n in range(10 ** 4) if trial(n)]

    def test_pseudoprimes_rejected(self):
        # a Carmichael number, and a strong pseudoprime to bases 2, 3, 5 and 7
        assert not is_prime(561)
        assert not is_prime(3215031751)

    def test_ring_labels_need_a_prime(self):
        assert ring_prime("F3") == 3 and ring_prime("Q") is None
        with pytest.raises(ValueError):
            ring_prime("F4")

    def test_large_primes(self):
        assert is_prime(1000000007) and is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
        assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


class TestTorsionNormalization:
    def test_divisibility_chain(self):
        assert invariant_factors((2, 3)) == (6,)
        assert invariant_factors((4, 2, 3)) == (2, 12)
        assert invariant_factors((2, 2)) == (2, 2)
        assert invariant_factors(()) == ()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(2, 60), max_size=5))
    def test_chain_divides_and_preserves_order(self, orders):
        chain = invariant_factors(tuple(orders))
        total = 1
        for t in orders:
            total *= t
        got = 1
        for t in chain:
            got *= t
        assert got == total
        assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(2, 2000), max_size=6))
    def test_chain_matches_prime_power_grouping(self, orders):
        # the chain read off prime by prime from the factored orders
        powers: dict = {}
        for d in orders:
            q = 2
            while d > 1:
                e = 0
                while d % q == 0:
                    d //= q
                    e += 1
                if e:
                    powers.setdefault(q, []).append(q ** e)
                q += 1
        chain = []
        for k in range(max((len(v) for v in powers.values()), default=0)):
            f = 1
            for v in powers.values():
                v.sort(reverse=True)
                f *= v[k] if k < len(v) else 1
            chain.append(f)
        assert invariant_factors(tuple(orders)) == tuple(reversed(chain))

    def test_large_prime_orders_are_fast(self):
        p, q = 2 ** 61 - 1, 2 ** 64 - 59
        start = time.perf_counter()
        assert invariant_factors((p, q, p * p)) == (p, p * p * q)
        assert time.perf_counter() - start < 0.1
