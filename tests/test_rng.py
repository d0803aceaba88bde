import hashlib

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

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


# (lo, hi) pairs: narrow ones, the coordinate bounds of the Euler sampler,
# n = 2^63 + 1 (about half of all words are rejected) and n = 2^64
_BOUNDS = st.one_of(
    st.tuples(st.integers(-5, 5), st.integers(0, 9)).map(lambda b: (b[0], b[0] + b[1])),
    st.sampled_from([(-10 ** 6, 10 ** 6), (1, 1000), (-1000, 1000), (1, 1),
                     (0, 2 ** 63), (-(2 ** 63), 0), (0, 2 ** 64 - 1), (7, 2 ** 64 + 6)]))


def _twin(seed, bounds):
    """Values and final counter of successive randint calls."""
    rng = CounterRng(seed)
    return [rng.randint(lo, hi) for lo, hi in bounds], rng._counter


def _from_scratch(seed, bounds, start=0):
    """The stream's definition, hashed word by word: values and final
    counter of rejection sampling for each (lo, hi) in turn."""
    out, counter = [], start
    prefix = b"entriv" + (seed % 2 ** 64).to_bytes(8, "little")
    for lo, hi in bounds:
        n = hi - lo + 1
        while True:
            data = prefix + counter.to_bytes(16, "little")
            word = int.from_bytes(hashlib.sha256(data).digest()[:8], "little")
            counter += 1
            if word < 2 ** 64 - 2 ** 64 % n:
                out.append(lo + word % n)
                break
    return out, counter


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 3), st.lists(_BOUNDS, max_size=40))
def test_randints_matches_successive_randint_calls(seed, skip, bounds):
    rng, twin = CounterRng(seed), CounterRng(seed)
    for _ in range(skip):  # start mid-stream
        rng.u64()
        twin.u64()
    values = rng.randints(bounds)
    assert values == [twin.randint(lo, hi) for lo, hi in bounds]
    assert (values, rng._counter) == _from_scratch(seed, bounds, skip)
    assert twin._counter == rng._counter


def test_randints_rejects_half_the_words_at_two_to_the_63_plus_one():
    bounds = [(0, 2 ** 63)] * 600 + [(0, 2 ** 64 - 1)] * 10
    rng = CounterRng(11)
    assert (rng.randints(bounds), rng._counter) == _twin(11, bounds) == _from_scratch(11, bounds)
    assert rng._counter > 700  # the rejection route ran, about 600 times


@pytest.mark.parametrize("bad", [(0, -1), (5, 4), (0, 2 ** 64), (-1, 2 ** 64 - 1)])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_randints_checks_every_bound_before_drawing(bad, at):
    bounds = [(1, 1000)] * 6
    bounds.insert(at, bad)
    rng = CounterRng(2)
    rng.u64()
    with pytest.raises(ValueError, match="n must be positive and at most 2\\^64"):
        rng.randints(bounds)
    assert rng._counter == 1


def test_shuffle_draws_the_slots_of_a_randint_loop():
    items = list(range(50))
    twin = CounterRng(8)
    expected = list(items)
    for i in range(len(expected) - 1, 0, -1):
        j = twin.randint(0, i)
        expected[i], expected[j] = expected[j], expected[i]
    rng = CounterRng(8)
    assert rng.shuffle(items) == expected and rng._counter == twin._counter
    assert CounterRng(8).permutation(50) == tuple(expected)
