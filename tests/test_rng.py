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
