import hashlib
import json
import pathlib

import pytest

from conftest import group_at
from entriv.cli import MAX_SMAX
from entriv.hochschild import (BigradedGroup, GradedUnitalAlgebra, _tensor_product,
                               bar_hochschild, loop_space_table, small_resolution_hh)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "hochschild_s6.json"


def base_ring(ring: str) -> GradedUnitalAlgebra:
    """R itself, concentrated in degree 0: the bar complex has no reduced letters."""
    return GradedUnitalAlgebra(ring, ("1",), (0,), 0, ((((0, 1),),),))


def group_ring_of_z2(ring: str) -> GradedUnitalAlgebra:
    """R[Z/2] on 1, g with |g| = 0 and g^2 = 1."""
    return GradedUnitalAlgebra(ring, ("1", "g"), (0, 0), 0,
                               ((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 1),))))


def two_letters() -> GradedUnitalAlgebra:
    """F2 on 1, a, b with |a| = |b| = -1 and all products of a, b zero."""
    return GradedUnitalAlgebra(
        "F2", ("1", "a", "b"), (0, -1, -1), 0,
        ((((0, 1),), ((1, 1),), ((2, 1),)),
         (((1, 1),), (), ()),
         (((2, 1),), (), ())))


def digest(table: BigradedGroup) -> str:
    return hashlib.sha256(json.dumps(table.to_json(), sort_keys=True).encode()).hexdigest()


class TestAlgebra:
    def test_square_zero_shape(self):
        a = GradedUnitalAlgebra.square_zero("Z", 3)
        assert a.basis == ("1", "x") and a.degrees == (0, -3)
        assert a.mult_entry(1, 1) == ()

    def test_rejects_nonassociative(self):
        with pytest.raises(ValueError):
            GradedUnitalAlgebra("Z", ("1", "x"), (0, -2), 0,
                                ((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 1),))))

    def test_rejects_ungraded_product(self):
        with pytest.raises(ValueError):
            GradedUnitalAlgebra("Z", ("1", "x"), (0, -2), 0,
                                ((((0, 1),), ((1, 1),)), (((1, 1),), ((1, 1),))))

    def test_rejects_broken_unit(self):
        with pytest.raises(ValueError, match="unit axiom fails"):
            GradedUnitalAlgebra("Z", ("1", "x"), (0, -2), 0,
                                ((((0, 1),), ()), ((), ())))

    def test_rejects_noncommutative(self):
        # upper-triangular 2x2 matrices over Z on 1, e = e11, f = e12:
        # associative, unital and graded, but e*f = f while f*e = 0
        with pytest.raises(ValueError, match="graded commutativity fails"):
            GradedUnitalAlgebra("Z", ("1", "e", "f"), (0, 0, 0), 0,
                                ((((0, 1),), ((1, 1),), ((2, 1),)),
                                 (((1, 1),), ((1, 1),), ((2, 1),)),
                                 (((2, 1),), (), ())))

    @pytest.mark.parametrize("ring", ("Z", "Q", "F2", "F3"))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_tensor_square_entries(self, ring, n):
        # every basis product (i(x)j)(k(x)l) in A (x) A against the Koszul formula
        a = GradedUnitalAlgebra.square_zero(ring, n)
        p = int(ring[1:]) if ring.startswith("F") else None

        def normalized(vec):
            return {k: c % p if p else c for k, c in vec.items() if (c % p if p else c)}

        dim = a.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        sign = -1 if (a.degrees[j] * a.degrees[k]) % 2 else 1
                        want = {}
                        for u, c in a.mult_entry(i, k):
                            for v, d in a.mult_entry(j, l):
                                want[u * dim + v] = want.get(u * dim + v, 0) + sign * c * d
                        got = _tensor_product(a, {i * dim + j: 1}, {k * dim + l: 1})
                        assert got == normalized(want)
        for i in range(dim):
            for j in range(dim):
                raw = {}
                for k, c in a.mult[i][j]:
                    raw[k] = raw.get(k, 0) + c
                assert a.mult_entry(i, j) == tuple(sorted(normalized(raw).items()))

    def test_tensor_square_is_valid_and_koszul(self):
        for ring in ("Z", "Q", "F2", "F3"):
            for n in (1, 2, 3, 4):
                a = GradedUnitalAlgebra.square_zero(ring, n)
                dim = a.dim
                basis = [{w: 1} for w in range(dim * dim)]
                degree = [a.degrees[i] + a.degrees[j] for i in range(dim) for j in range(dim)]

                def mul(u, v):
                    return _tensor_product(a, u, v)

                def scaled(sign, vec):
                    return a._normalize({k: sign * c for k, c in vec.items()})

                for u in basis:
                    for v in basis:
                        for w in basis:
                            assert mul(mul(u, v), w) == mul(u, mul(v, w))
                for wu, u in enumerate(basis):
                    for wv, v in enumerate(basis):
                        sign = -1 if (degree[wu] * degree[wv]) % 2 else 1
                        assert mul(v, u) == scaled(sign, mul(u, v))
                y, z = basis[1 * dim + 0], basis[0 * dim + 1]  # x(x)1 and 1(x)x
                assert mul(y, z) == {dim + 1: 1}  # x(x)x
                assert mul(z, y) == scaled(-1 if n % 2 else 1, mul(y, z))


class TestBarComplex:
    def test_base_ring(self):
        for ring in ("Z", "Q", "F2", "F3"):
            table = bar_hochschild(base_ring(ring), 5)
            assert table.entries == ((((0, 0), (1, ()))),)

    def test_hh0_is_the_algebra(self):
        for ring in ("Z", "Q", "F3"):
            for n in (1, 2, 3):
                table = bar_hochschild(GradedUnitalAlgebra.square_zero(ring, n), 3)
                assert group_at(table, 0, 0) == (1, ())
                assert group_at(table, 0, -n) == (1, ())

    def test_memory_guard(self):
        big = GradedUnitalAlgebra(
            "F2", ("1", "a", "b"), (0, -1, -1), 0,
            ((((0, 1),), ((1, 1),), ((2, 1),)),
             (((1, 1),), (), ()),
             (((2, 1),), (), ())))
        with pytest.raises(ValueError):
            bar_hochschild(big, 40)  # 2^41 words, over BAR_BASIS_CAP

    def test_memory_guard_bounds_dense_blocks(self):
        # at smax = 14 the words number under the cap, but one internal-degree
        # block of the differential would be 2^15 x 2^15; the bound on words
        # plus dense cells refuses it before any word is built
        big = GradedUnitalAlgebra(
            "F2", ("1", "a", "b"), (0, -1, -1), 0,
            ((((0, 1),), ((1, 1),), ((2, 1),)),
             (((1, 1),), (), ()),
             (((2, 1),), (), ())))
        for smax in (7, 14, 16):
            with pytest.raises(ValueError, match="exceed the configured cap"):
                bar_hochschild(big, smax)
        assert group_at(bar_hochschild(big, 6), 0, 0) == (1, ())

    @pytest.mark.parametrize("ring", ("Z", "Q", "F2", "F3"))
    def test_memory_guard_admits_every_cli_hh(self, ring):
        # the CLI reaches only square_zero, whose bound is 2 + 6 (smax + 1)
        for n in (1, 2):
            table = bar_hochschild(GradedUnitalAlgebra.square_zero(ring, n), MAX_SMAX)
            assert group_at(table, MAX_SMAX, -n * (MAX_SMAX + 1)) == (1, ())

    def test_odd_n_has_no_differential(self):
        table = bar_hochschild(GradedUnitalAlgebra.square_zero("Z", 3), 5)
        for s in range(6):
            assert group_at(table, s, -3 * s) == (1, ())
            assert group_at(table, s, -3 * (s + 1)) == (1, ())

    def test_even_n_torsion_pattern(self):
        table = bar_hochschild(GradedUnitalAlgebra.square_zero("Z", 2), 6)
        for s in (1, 3, 5):
            assert group_at(table, s, -2 * s) == (1, ())
            assert group_at(table, s, -2 * (s + 1)) == (0, (2,))
        for s in (2, 4, 6):
            assert group_at(table, s, -2 * (s + 1)) == (1, ())
            assert group_at(table, s, -2 * s) == (0, ())

    @pytest.mark.parametrize("ring", ("Z", "F2", "F3", "Q"))
    def test_group_ring_of_z2(self, ring):
        # R[Z/2], |g| = 0, g^2 = 1: the unit reappears inside a bar word, and
        # HH_s = H_s(Z/2; R)^2, one copy per conjugacy class
        algebra = GradedUnitalAlgebra(ring, ("1", "g"), (0, 0), 0,
                                      ((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 1),))))
        smax = 5
        table = bar_hochschild(algebra, smax)
        for s in range(smax + 1):
            if s == 0 or ring == "F2":
                want = (2, ())
            elif ring == "Z" and s % 2:
                want = (0, (2, 2))
            else:
                want = (0, ())
            assert group_at(table, s, 0) == want
        assert all(t == 0 for (_, t), _ in table.entries)


class TestCrossOracle:
    @pytest.mark.parametrize("ring", ("Z", "F2", "F3", "Q"))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_bar_equals_small(self, ring, n):
        bar = bar_hochschild(GradedUnitalAlgebra.square_zero(ring, n), 6)
        small = small_resolution_hh(ring, n, 6)
        assert bar == small

    def test_golden_tables(self):
        golden = json.loads(GOLDEN.read_text())
        for ring in ("Z", "F2", "F3", "Q"):
            for n in (1, 2, 3, 4):
                want = BigradedGroup.from_json(golden[ring][str(n)])
                assert small_resolution_hh(ring, n, 6) == want
                algebra = GradedUnitalAlgebra.square_zero(ring, n)
                assert bar_hochschild(algebra, 6) == want

    def test_base_change_to_q(self):
        for n in (1, 2, 3):
            hz = small_resolution_hh("Z", n, 5)
            hq = small_resolution_hh("Q", n, 5)
            for (s, t), (free, _) in hz.entries:
                assert group_at(hq, s, t)[0] == free
            for (s, t), (free, _) in hq.entries:
                assert group_at(hz, s, t)[0] == free

    def test_universal_coefficients_to_f2(self):
        hz = small_resolution_hh("Z", 2, 5)
        h2 = small_resolution_hh("F2", 2, 5)
        for (s, t), (free, _) in h2.entries:
            z_free, z_tor = group_at(hz, s, t)
            _, below_tor = group_at(hz, s - 1, t)
            two_tor = sum(1 for q in z_tor if q % 2 == 0)
            two_below = sum(1 for q in below_tor if q % 2 == 0)
            assert free == z_free + two_tor + two_below


class TestPinnedTables:
    """sha256 of to_json() with sorted keys, pinned from the routes that
    built every bar word from scratch and found faces through a dict.  The
    group ring and two_letters cover units inside words and words of two
    letters, which square-zero never reaches."""

    SQUARE_ZERO_S36 = {
        ("Z", 1): "2f0a5f1be900345ebb0ad77d707eda230b721a42c316fe5776a28f438a944aa1",
        ("Z", 2): "a8a7c4fe1621cdb028b79678972925250de466775cf346d910bc2dd7caa22aa2",
        ("Z", 3): "a2d8603dbd18f67a3d46fd09bee3a19a918a0fd7d28fc9bc178a9e6e49bd577b",
        ("Z", 4): "82e3bffcfb0d9ac0f4dab4269b5f2fe30eacb2e470a388139e08ebf4c4abdeaf",
        ("Q", 1): "2f0a5f1be900345ebb0ad77d707eda230b721a42c316fe5776a28f438a944aa1",
        ("Q", 2): "e026e9ee06225c4bcc527a76371be4fba632937a3e9bbb24a11baac9b6e50da9",
        ("Q", 3): "a2d8603dbd18f67a3d46fd09bee3a19a918a0fd7d28fc9bc178a9e6e49bd577b",
        ("Q", 4): "76a88a21a8c59350c79de5e6da2a66e81a1e723da3a89d0e908f78b1d5908f47",
        ("F2", 1): "2f0a5f1be900345ebb0ad77d707eda230b721a42c316fe5776a28f438a944aa1",
        ("F2", 2): "b3a1bd533e0942bab20bff34a290aff4d44580b5eb289826115f5c53de07ee24",
        ("F2", 3): "a2d8603dbd18f67a3d46fd09bee3a19a918a0fd7d28fc9bc178a9e6e49bd577b",
        ("F2", 4): "e3ad871e881b8dfb898db20230379ac4a0d85bef079d119b21aad3bb6dc8fd33",
        ("F3", 1): "2f0a5f1be900345ebb0ad77d707eda230b721a42c316fe5776a28f438a944aa1",
        ("F3", 2): "e026e9ee06225c4bcc527a76371be4fba632937a3e9bbb24a11baac9b6e50da9",
        ("F3", 3): "a2d8603dbd18f67a3d46fd09bee3a19a918a0fd7d28fc9bc178a9e6e49bd577b",
        ("F3", 4): "76a88a21a8c59350c79de5e6da2a66e81a1e723da3a89d0e908f78b1d5908f47",
    }
    GROUP_RING_S5 = {
        "Z": "6337f08669f8d838eb034f1f10480f9fbcd4fc5d3c95dfdc529d21dd35b6de6b",
        "Q": "5ee067dcc2feaaadab94614ce2eb6cb9f4ba2e5549e9026a8c659fc7411f18bf",
        "F2": "7fc755d07f83eec807d4d6df223d6b980acac3f4e7e8208bf1dbdf4cec85739c",
        "F3": "5ee067dcc2feaaadab94614ce2eb6cb9f4ba2e5549e9026a8c659fc7411f18bf",
    }
    TWO_LETTERS_S6 = "24d64983dc33eb3b3519980f11831f2dfc8cb0f4b1284e8da9d42e3ebb3de849"

    @pytest.mark.parametrize("ring", ("Z", "Q", "F2", "F3"))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_square_zero_at_smax_36(self, ring, n):
        want = self.SQUARE_ZERO_S36[(ring, n)]
        assert digest(bar_hochschild(GradedUnitalAlgebra.square_zero(ring, n), 36)) == want
        assert digest(small_resolution_hh(ring, n, 36)) == want

    @pytest.mark.parametrize("ring", ("Z", "Q", "F2", "F3"))
    def test_group_ring_of_z2(self, ring):
        assert digest(bar_hochschild(group_ring_of_z2(ring), 5)) == self.GROUP_RING_S5[ring]

    def test_two_letters(self):
        assert digest(bar_hochschild(two_letters(), 6)) == self.TWO_LETTERS_S6


class TestLoopTable:
    def test_low_sphere_rejected(self):
        with pytest.raises(ValueError):
            loop_space_table(1, "Q", 4)

    def test_odd_sphere_rational_ranks(self):
        table = loop_space_table(3, "Q", 8)
        rows = dict(table.rows)
        complete = table.complete_through
        for d in range(0, complete + 1):
            expected = 1 if (d == 0 or d >= 2) else 0
            assert rows.get(d, (0, ()))[0] == expected

    def test_mod2_table_matches_integral_by_uct(self):
        t2 = loop_space_table(2, "F2", 6)
        tz = loop_space_table(2, "Z", 6)
        z_rows = dict(tz.rows)
        for d, (free, _) in t2.rows:
            if d > tz.complete_through - 1:
                continue
            z_free, z_tor = z_rows.get(d, (0, ()))
            _, above_tor = z_rows.get(d + 1, (0, ()))  # cohomological UCT direction
            expect = z_free + sum(1 for q in z_tor if q % 2 == 0) \
                + sum(1 for q in above_tor if q % 2 == 0)
            assert free == expect

    def test_json_round_trip(self):
        table = small_resolution_hh("Z", 2, 4)
        assert BigradedGroup.from_json(json.loads(json.dumps(table.to_json()))) == table
