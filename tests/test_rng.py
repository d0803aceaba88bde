import hashlib

import pytest

from entriv.rng import CounterRng


@pytest.mark.parametrize("seed, digest", [
    (0, "ccfb07012ac4b7ede2bc3ba5bcf0aa35f4463d11805cbf91466ec46854ecb956"),
    (7, "f725c3839825def69a7f320e49bcf53d149c905cd8aa9b746ddf5cbe67032983"),
    (2 ** 64 + 5, "2c403e47d3cf1ddffdefa2d8b6d41843f6fb2169cd43c515cb452cac97699c1f"),
])
def test_first_draws_are_pinned(seed, digest):
    # sha256 of the first 1000 u64 draws, taken from the from-scratch hash
    # of b"entriv" + seed + counter before the prefix state was reused
    rng = CounterRng(seed)
    draws = [rng.u64() for _ in range(1000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest


def test_generators_do_not_share_state():
    a, b = CounterRng(3), CounterRng(3)
    first = [a.u64() for _ in range(5)]
    assert [b.u64() for _ in range(5)] == first
    assert CounterRng(3).u64() == first[0] != CounterRng(4).u64()


def test_below_takes_every_bound_up_to_two_to_the_64():
    # at n = 2^64 every draw is accepted as it is
    assert CounterRng(9).below(2 ** 64) == CounterRng(9).u64()
    assert CounterRng(9).randint(0, 2 ** 64 - 1) == CounterRng(9).u64()


@pytest.mark.parametrize("draw", [lambda rng: rng.below(2 ** 64 + 1),
                                  lambda rng: rng.randint(0, 2 ** 64),
                                  lambda rng: rng.below(0)])
def test_below_rejects_bounds_it_cannot_draw(draw):
    # over 2^64 the rejection limit would be 0 and no draw would be accepted
    with pytest.raises(ValueError):
        draw(CounterRng(0))
