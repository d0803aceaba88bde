"""Permutations of {0, ..., n-1} as tuples (value perm[i] is the image of i),
with partitions-as-class-labels and adjacent-transposition words."""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import itemgetter


def compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def gather(indices):
    """seq -> tuple of seq[i] for i in indices, one C-level call when there
    are two or more (itemgetter of one index returns the item itself)."""
    if len(indices) < 2:
        return lambda seq: tuple([seq[i] for i in indices])
    return itemgetter(*indices)


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def adjacent(n: int, i: int) -> tuple:
    """The transposition s_i swapping i and i+1."""
    if not 0 <= i < n - 1:
        raise ValueError("generator index out of range")
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def fixed_points(p: tuple) -> int:
    return sum(1 for i, v in enumerate(p) if i == v)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """Partitions of n as descending tuples, in ascending lexicographic order."""
    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest
    return tuple(sorted(gen(n, n)))


@lru_cache(maxsize=None)
def class_representative(partition: tuple) -> tuple:
    """Permutation with consecutive cycles of the given lengths."""
    n = sum(partition)
    p = list(range(n))
    start = 0
    for length in partition:
        for k in range(length):
            p[start + k] = start + (k + 1) % length
        start += length
    return tuple(p)


def class_size(partition: tuple) -> int:
    """Size of the conjugacy class with the given cycle type."""
    n = sum(partition)
    z = 1
    mult: dict[int, int] = {}
    for length in partition:
        mult[length] = mult.get(length, 0) + 1
    for length, m in mult.items():
        z *= (length ** m) * factorial(m)
    return factorial(n) // z


@lru_cache(maxsize=1 << 13)  # callers ask for a few hundred words, over and over
def adjacent_word(p: tuple) -> tuple:
    """Generator indices w with p = s_{w[0]} o s_{w[1]} o ... (rightmost applied first)."""
    cur = list(p)
    ops = []
    done = False
    while not done:
        done = True
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                ops.append(i)
                done = False
    return tuple(reversed(ops))
