import json
import pathlib

import pytest

from entriv.cli import MAX_SMAX
from entriv.hochschild import (BigradedGroup, GradedUnitalAlgebra, bar_hochschild,
                               loop_space_table, small_resolution_hh)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "hochschild_s6.json"


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
        a = GradedUnitalAlgebra.square_zero(ring, n)
        env = a.tensor_square()
        p = int(ring[1:]) if ring.startswith("F") else None

        def normalized(vec):
            return tuple(sorted((k, c % p if p else c) for k, c in vec.items()
                                if (c % p if p else c)))

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
                        assert env.mult_entry(i * dim + j, k * dim + l) == normalized(want)
        for alg in (a, env):
            for i in range(alg.dim):
                for j in range(alg.dim):
                    raw = {}
                    for k, c in alg.mult[i][j]:
                        raw[k] = raw.get(k, 0) + c
                    assert alg.mult_entry(i, j) == normalized(raw)

    def test_tensor_square_is_valid_and_koszul(self):
        for n in (1, 2):
            env = GradedUnitalAlgebra.square_zero("Z", n).tensor_square()
            assert env.dim == 4
            y, z = 2, 1  # x(x)1 and 1(x)x
            yz = dict(env.mult[y][z])
            zy = dict(env.mult[z][y])
            sign = -1 if n % 2 else 1
            assert zy == {k: sign * v for k, v in yz.items()}


class TestBarComplex:
    def test_base_ring(self):
        for ring in ("Z", "Q", "F2", "F3"):
            table = bar_hochschild(GradedUnitalAlgebra.base_ring(ring), 5)
            assert table.entries == ((((0, 0), (1, ()))),)

    def test_hh0_is_the_algebra(self):
        for ring in ("Z", "Q", "F3"):
            for n in (1, 2, 3):
                table = bar_hochschild(GradedUnitalAlgebra.square_zero(ring, n), 3)
                assert table.group_at(0, 0) == (1, ())
                assert table.group_at(0, -n) == (1, ())

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
        assert bar_hochschild(big, 6).group_at(0, 0) == (1, ())

    @pytest.mark.parametrize("ring", ("Z", "Q", "F2", "F3"))
    def test_memory_guard_admits_every_cli_hh(self, ring):
        # the CLI reaches only square_zero, whose bound is 2 + 6 (smax + 1)
        for n in (1, 2):
            table = bar_hochschild(GradedUnitalAlgebra.square_zero(ring, n), MAX_SMAX)
            assert table.group_at(MAX_SMAX, -n * (MAX_SMAX + 1)) == (1, ())

    def test_odd_n_has_no_differential(self):
        table = bar_hochschild(GradedUnitalAlgebra.square_zero("Z", 3), 5)
        for s in range(6):
            assert table.group_at(s, -3 * s) == (1, ())
            assert table.group_at(s, -3 * (s + 1)) == (1, ())

    def test_even_n_torsion_pattern(self):
        table = bar_hochschild(GradedUnitalAlgebra.square_zero("Z", 2), 6)
        for s in (1, 3, 5):
            assert table.group_at(s, -2 * s) == (1, ())
            assert table.group_at(s, -2 * (s + 1)) == (0, (2,))
        for s in (2, 4, 6):
            assert table.group_at(s, -2 * (s + 1)) == (1, ())
            assert table.group_at(s, -2 * s) == (0, ())

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
            assert table.group_at(s, 0) == want
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
                assert hq.group_at(s, t)[0] == free
            for (s, t), (free, _) in hq.entries:
                assert hz.group_at(s, t)[0] == free

    def test_universal_coefficients_to_f2(self):
        hz = small_resolution_hh("Z", 2, 5)
        h2 = small_resolution_hh("F2", 2, 5)
        for (s, t), (free, _) in h2.entries:
            z_free, z_tor = hz.group_at(s, t)
            _, below_tor = hz.group_at(s - 1, t)
            two_tor = sum(1 for q in z_tor if q % 2 == 0)
            two_below = sum(1 for q in below_tor if q % 2 == 0)
            assert free == z_free + two_tor + two_below


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
