"""Counter-based deterministic randomness.

Draw i of the stream with seed s is the first 8 bytes of
sha256(b"entriv" || s as 8 little-endian bytes || i as 16 little-endian bytes),
read as an unsigned 64-bit integer.  The construction has no hidden state
beyond the counter, so identical (seed, draw index) pairs give identical
values on every platform and Python version.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


class CounterRng:
    def __init__(self, seed: int):
        # the hash state after the constant prefix; each draw updates a copy
        self._prefix = hashlib.sha256(
            b"entriv" + (int(seed) % (1 << 64)).to_bytes(8, "little"))
        self._counter = 0

    def u64(self) -> int:
        h = self._prefix.copy()
        h.update(self._counter.to_bytes(16, "little"))
        self._counter += 1
        return int.from_bytes(h.digest()[:8], "little")

    def below(self, n: int) -> int:
        """Uniform in [0, n) by rejection, for 0 < n <= 2^64."""
        if not 0 < n <= 1 << 64:
            raise ValueError("n must be positive and at most 2^64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform in [lo, hi], inclusive."""
        return lo + self.below(hi - lo + 1)

    def sign(self) -> int:
        return 1 if self.below(2) else -1

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def fraction(self, max_num: int = 1000, max_den: int = 50) -> Fraction:
        return Fraction(self.randint(-max_num, max_num), self.randint(1, max_den))

    def permutation(self, n: int) -> tuple:
        return tuple(self.shuffle(list(range(n))))
