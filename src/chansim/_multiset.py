"""Multiset bookkeeping for index tuples in [k]^n.

Outcome weights are symmetric in the tuple entries, so every tuple is
represented by its sorted multiset class: weights, state columns and
candidate protocols are all computed once per class.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations_with_replacement
from typing import Iterator


def multiset_classes(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All sorted index multisets of length n over alphabet range(k), lex order."""
    return combinations_with_replacement(range(k), n)


def multiplicity(ms: tuple[int, ...]) -> int:
    """Number of distinct orderings of the multiset ``ms``."""
    counts = Counter(ms)
    out = math.factorial(len(ms))
    for c in counts.values():
        out //= math.factorial(c)
    return out

