"""Counter-based deterministic randomness.

Draw i of the stream with seed s is the first 8 bytes of
sha256(b"entriv" || s as 8 little-endian bytes || i as 16 little-endian bytes),
read as an unsigned 64-bit integer.  The construction has no hidden state
beyond the counter, so identical (seed, draw index) pairs give identical
values on every platform and Python version.

Every draw goes through one loop, `randints`: a bounded value takes the
first word below its rejection limit.  `u64`, `below` and `randint` are
single-bound calls of it, and callers that know a whole run of bounds in
advance (a configuration's coordinates, a shuffle's slots) pass them at once.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

_word = struct.Struct("<Q").unpack_from  # the first 8 bytes, little-endian


class CounterRng:
    def __init__(self, seed: int):
        # the hash state after the constant prefix; each draw updates a copy
        self._prefix = hashlib.sha256(
            b"entriv" + (int(seed) % (1 << 64)).to_bytes(8, "little"))
        self._counter = 0

    def randints(self, bounds) -> list:
        """One draw uniform in [lo, hi] per (lo, hi) of bounds, in order: the
        values, and the final counter, of successive randint calls.  Every
        bound is checked before any word is drawn, so a bad one raises with
        the counter unmoved.  Each value takes the first word below its
        bound's rejection limit, the largest multiple of hi - lo + 1 not over
        2^64, and is lo plus that word mod hi - lo + 1."""
        plan, limits = [], {}
        for lo, hi in bounds:
            n = hi - lo + 1
            limit = limits.get(n)
            if limit is None:
                if not 0 < n <= 1 << 64:
                    raise ValueError("n must be positive and at most 2^64")
                limit = limits[n] = (1 << 64) - ((1 << 64) % n)
            plan.append((lo, n, limit))
        copy, word, counter, out = self._prefix.copy, _word, self._counter, []
        try:
            for lo, n, limit in plan:
                while True:
                    h = copy()
                    h.update(counter.to_bytes(16, "little"))
                    counter += 1
                    v = word(h.digest())[0]
                    if v < limit:
                        out.append(lo + v % n)
                        break
        finally:
            self._counter = counter
        return out

    def u64(self) -> int:
        return self.randints(((0, (1 << 64) - 1),))[0]

    def below(self, n: int) -> int:
        """Uniform in [0, n) by rejection, for 0 < n <= 2^64."""
        return self.randints(((0, n - 1),))[0]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform in [lo, hi], inclusive."""
        return self.randints(((lo, hi),))[0]

    def sign(self) -> int:
        return 1 if self.below(2) else -1

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> list:
        slots = range(len(items) - 1, 0, -1)
        for i, j in zip(slots, self.randints([(0, i) for i in slots])):
            items[i], items[j] = items[j], items[i]
        return items

    def fraction(self, max_num: int = 1000, max_den: int = 50) -> Fraction:
        return Fraction(self.randint(-max_num, max_num), self.randint(1, max_den))

    def permutation(self, n: int) -> tuple:
        return tuple(self.shuffle(list(range(n))))
