import hashlib
import json

import pytest

from conftest import action_digest, random_symseq, sign_rep, unit_seq
from entriv import RepeatedKeyError
from entriv.rep_theory import SignedPermModule, character
from entriv.rng import CounterRng
from entriv.sym_seq import (MAX_MATERIALIZED_ARITY, SymSeq, _coset_moves, compose,
                            compose_dimensions_raw, free_piece_rational,
                            graded_characters, koszul_sign, monoidality_report,
                            partition_orbits, set_partitions, suspend)


def trivial_seq(arity, degree=0, truncation=4):
    return SymSeq.create(truncation, {arity: {degree: SignedPermModule.trivial(arity)}})


class TestPartitions:
    def test_bell_numbers(self):
        assert [len(set_partitions(n)) for n in range(6)] == [1, 1, 2, 5, 15, 52]

    def test_orbits_cover(self):
        orbits = partition_orbits(4)
        assert len(orbits) == 5
        assert sum(o.orbit_size for o in orbits) == 15
        for o in orbits:
            assert sum(o.block_sizes) == 4
            assert 24 % o.stabilizer_order == 0

    def test_pairs_of_pairs(self):
        orbit = next(o for o in partition_orbits(4) if o.block_sizes == (2, 2))
        assert orbit.stabilizer_order == 8 and orbit.orbit_size == 3


class TestCompose:
    def test_unit_left(self):
        b = random_symseq(CounterRng(2), truncation=3)
        assert compose(unit_seq(3), b, 3) == b

    def test_unit_right(self):
        a = random_symseq(CounterRng(3), truncation=3)
        assert compose(a, unit_seq(3), 3) == a

    def test_two_blocks_of_two(self):
        ab = compose(trivial_seq(2), trivial_seq(2), 4)
        assert ab.arities() == [4]
        assert ab.degrees(4) == [0]
        assert ab.module(4, 0).dim == 3

    def test_missing_components_yield_nothing(self):
        ab = compose(trivial_seq(2), trivial_seq(2), 3)
        assert ab.arities() == []

    def test_truncation_guards(self):
        a = trivial_seq(2, truncation=2)
        with pytest.raises(ValueError):
            compose(a, a, 4)
        with pytest.raises(ValueError):
            over = MAX_MATERIALIZED_ARITY + 1
            compose(trivial_seq(2, truncation=over), trivial_seq(2, truncation=over), over)

    def test_orbit_vs_raw_dimensions(self):
        rng = CounterRng(7)
        for _ in range(15):
            a = random_symseq(rng)
            b = random_symseq(rng)
            ab = compose(a, b, 4)
            for n in range(1, 5):
                got = {d: ab.module(n, d).dim for d in ab.degrees(n)}
                assert got == compose_dimensions_raw(a, b, n)

    def test_associativity_dimensions_and_characters(self):
        rng = CounterRng(13)
        for _ in range(8):
            a = random_symseq(rng)
            b = random_symseq(rng)
            c = random_symseq(rng)
            left = compose(compose(a, b, 4), c, 4)
            right = compose(a, compose(b, c, 4), 4)
            for n in range(1, 5):
                assert graded_characters(left, n) == graded_characters(right, n)


def _digest(seq: SymSeq) -> str:
    text = json.dumps(seq.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _seeded_pair(seed: int, truncation: int):
    rng = CounterRng(seed)
    return random_symseq(rng, truncation=truncation), random_symseq(rng, truncation=truncation)


class TestComposeGolden:
    """Pinned sha256 of compose(...).to_json(): the basis order and the
    generator tables are part of the output and must not move.  Each product
    has at most 5k basis elements."""

    @pytest.mark.parametrize("seed, truncation, digest", [
        (3, 5, "fc90f4c01e15071ee2b705d7f27968cda97d5f101aa392d8d6bf61c06240f450"),
        (12, 5, "2406731692c0c75c109ceb74c1656b3940eeba79af166174c5d376d6f8590bfc"),
        (19, 5, "6c9d1a67458b4abc73c93c128b462d0583fcce86ddf86d4a03e55ddb1a902024"),
        (1, 6, "b829db9ee26df7cf31f4ed8ce00823d2f35284b4066ae9d6892b125ec6a83ccc"),
        (14, 6, "d136b866248251c69c4e39a4d34103f5576665f7d5addfa3c92f2e7fd64911ed"),
        (26, 6, "4691a31ed2d92dbec0b33a65537fadd1781f1576a275553bfaa63c4b1770a2c7"),
    ])
    def test_random_pairs(self, seed, truncation, digest):
        a, b = _seeded_pair(seed, truncation)
        assert _digest(compose(a, b, truncation)) == digest

    @pytest.mark.parametrize("seed, digest", [
        (0, "357451037c10dc0fc5f32ceaa7fdc3af1fe547681f7529fc50e08c53849de981"),
        (5, "60c1821ff01cc5f510f09c00782f2a3a8510f76225db70cbcd70b74504450e89"),
    ])
    def test_arity_one_products_have_no_generators(self, seed, digest):
        a, b = _seeded_pair(seed, 4)
        ab = compose(a, b, 1)
        assert ab.arities() == [1]
        assert all(m.gens_perm == () for _, m in ab.components[0][1])
        assert _digest(ab) == digest

    @pytest.mark.parametrize("seed, truncation, digest", [
        (3, 5, "3a6d43c3124bd38d695d5ff5112f3b39dc9e2ec252cd4dcb02e7461f47ac39e7"),
        (12, 5, "d33b92f87ac19017115bfbd9b9885f7d7ab8675ca554797acdf9ece3ba1e844f"),
        (19, 5, "3db84810a494bacbd414fac42280ffde51d5258bf16fbc902f3fd860e836c317"),
        (1, 6, "107acdacfe0cef42925f04a2085a5e6e59edce03c33339f01546c0823510e441"),
        (14, 6, "bbc93f9e85a2df11d9400286188ac681499a09504707cfe5b62192b01ee31b71"),
        (26, 6, "bc0c2fafc1af01cb6e8751ea3d4a27817c5b89d2c78df4fc99be13921915e031"),
    ])
    def test_product_actions(self, seed, truncation, digest):
        # act_signed on every permutation up to S_5 and the characters of
        # every piece of the products above
        a, b = _seeded_pair(seed, truncation)
        product = compose(a, b, truncation)
        assert action_digest(m for _, by_degree in product.components
                             for _, m in by_degree) == digest

    def test_coset_moves(self):
        # every (target coset, block permutation, within-block maps) triple
        # of every orbit up to the materialization cap: the products above
        # pin characters at arity 6, which do not fix the action
        moves = [_coset_moves(o.representative)
                 for n in range(1, MAX_MATERIALIZED_ARITY + 1) for o in partition_orbits(n)]
        assert len(moves) == 29
        text = json.dumps(moves, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "17e12e8ce02044542fb50ae6c6e1024775018d78414100cee77a3f60e542defb"

    def test_empty_product(self):
        ab = compose(trivial_seq(2, truncation=3), trivial_seq(2, truncation=3), 3)
        assert ab.components == ()
        assert _digest(ab) == "42163d2e39d270c3d2c61a9ea0b5d94a6e9f9f46ce62e26e46238b6739aecdd6"

    def test_odd_degrees(self):
        odd = SymSeq.create(4, {1: {1: SignedPermModule.trivial(1)},
                                2: {1: sign_rep(2)}})
        assert _digest(compose(odd, odd, 4)) == \
            "3fad63055e412e7220c340caea1db447099f646da2c4d77dbcab9e791a730cc9"


class TestSuspend:
    def test_k_zero_identity(self):
        a = random_symseq(CounterRng(19))
        assert suspend(a, 0) == a

    def test_arity_one_fixed(self):
        a = SymSeq.create(2, {1: {3: SignedPermModule.trivial(1)}})
        for k in (-2, 1, 5):
            assert suspend(a, k).degrees(1) == [3]
            assert suspend(a, k).module(1, 3) == a.module(1, 3)

    def test_round_trip(self):
        a = random_symseq(CounterRng(29))
        assert suspend(suspend(a, 1), -1) == a
        assert suspend(suspend(a, -3), 3) == a

    def test_degree_shift_and_twist(self):
        a = trivial_seq(3, degree=1)
        s = suspend(a, 1)
        assert s.degrees(3) == [3]  # 1 + 1*(3-1)
        assert s.module(3, 3) == SignedPermModule.trivial(3).twist_by_sign(1)


class TestKoszul:
    def test_even_degrees_never_sign(self):
        assert koszul_sign((1, 0), (2, 4)) == 1

    def test_odd_transposition_signs(self):
        assert koszul_sign((1, 0), (1, 1)) == -1
        assert koszul_sign((1, 0), (1, 2)) == 1

    def test_cocycle_property(self):
        # sign of a composite equals the product along the factorization
        from entriv import perms
        rng = CounterRng(37)
        for _ in range(40):
            degs = tuple(rng.randint(-2, 2) for _ in range(4))
            p1 = rng.permutation(4)
            p2 = rng.permutation(4)
            lhs = koszul_sign(perms.compose(p1, p2), degs)
            rhs = koszul_sign(p2, degs) * koszul_sign(p1, tuple(degs[p2.index(i)] for i in range(4)))
            assert lhs == rhs


class TestFreePieces:
    def test_arity_two_even_generator(self):
        a = trivial_seq(2)
        assert free_piece_rational(a, 2, 2) == [(4, 1)]

    def test_arity_two_odd_generator(self):
        a = trivial_seq(2)
        assert free_piece_rational(a, 1, 2) == [(2, 0)]

    def test_arity_one_identity(self):
        a = SymSeq.create(1, {1: {0: SignedPermModule.trivial(1)}})
        for d in (-2, 0, 5):
            assert free_piece_rational(a, d, 1) == [(d, 1)]

    def test_suspension_compatibility(self):
        rng = CounterRng(41)
        for _ in range(10):
            a = random_symseq(rng)
            s = suspend(a, 1)
            for n in range(1, 5):
                if not a.degrees(n):
                    continue
                for d in (-1, 0, 2):
                    shifted = [(deg - 1, mult) for deg, mult in free_piece_rational(a, d + 1, n)]
                    assert free_piece_rational(s, d, n) == shifted


class TestMonoidality:
    def test_unit_with_itself(self):
        assert monoidality_report(unit_seq(2), unit_seq(2), 2).passed

    def test_worked_example(self):
        report = monoidality_report(trivial_seq(2), trivial_seq(2), 4)
        assert report.passed
        assert (4, 3, 3, 3, True) in report.entries

    def test_random_inputs(self):
        rng = CounterRng(43)
        for _ in range(6):
            a = random_symseq(rng)
            b = random_symseq(rng)
            assert monoidality_report(a, b, 4).passed


class TestSerialization:
    def test_round_trip(self):
        a = random_symseq(CounterRng(47))
        assert SymSeq.from_json(json.loads(json.dumps(a.to_json()))) == a

    @pytest.mark.parametrize("arity", ["01", "+1", " 1"])
    def test_rejects_repeated_arity_and_degree_keys(self, arity):
        piece = {"n": 1, "dim": 1, "generators": []}
        for components, what in (({"1": {"0": piece, arity.replace("1", "0"): piece}}, "degree"),
                                 ({"1": {"0": piece}, arity: {"0": piece}}, "arity")):
            with pytest.raises(RepeatedKeyError, match=f"both name {what}"):
                SymSeq.from_json({"truncation": 2, "components": components})

    def test_spec_shape(self):
        a = trivial_seq(2)
        data = a.to_json()
        assert data["truncation"] == 4
        assert data["components"]["2"]["0"]["n"] == 2


class TestPlusTables:
    @pytest.mark.parametrize("seed, truncation", [(3, 5), (12, 5), (1, 6), (14, 6)])
    def test_pieces_pass_the_checked_constructor(self, seed, truncation):
        # products are built as plus tables; their pairs pass every check of
        # the public constructor and give the same module
        a, b = _seeded_pair(seed, truncation)
        for _, by_degree in compose(a, b, truncation).components:
            for _, m in by_degree:
                assert SignedPermModule(m.n, m.dim, gens_perm=m.gens_perm) == m

    def test_plus_tables_and_characters(self):
        # pinned on the products above: each piece's plus tables, the basis
        # order among them, and its characters
        h = hashlib.sha256()
        for seed, truncation in [(3, 5), (12, 5), (1, 6), (14, 6)]:
            a, b = _seeded_pair(seed, truncation)
            for arity, by_degree in compose(a, b, truncation).components:
                for degree, m in by_degree:
                    h.update(repr((arity, degree, m.plus)).encode())
                    h.update(repr(character(m).values).encode())
        assert h.hexdigest() == \
            "120ba4bb8494c6bf119f67f9bb81c1e9e21d1fb2d12311f3ee5e2c75cf549cd4"

    def test_absent_pieces(self):
        a = trivial_seq(2, degree=1)
        assert (a.degrees(3), a.module(3, 1), a.dimension(3, 1)) == ([], None, 0)
        assert (a.degrees(2), a.module(2, 0), a.dimension(2, 0)) == ([1], None, 0)
        assert a.dimension(2, 1) == 1
