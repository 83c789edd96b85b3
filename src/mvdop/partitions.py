"""Partitions as padded tuples: containment, enumeration, box moves.

A partition of ambient length ``r`` is a weakly decreasing tuple of
nonnegative integers, always stored with its trailing zeros so that
``len(m) == r``.  The empty partition of length 3 is ``(0, 0, 0)`` and
serializes as ``"0,0,0"``.  All functions are pure; values are shared
freely between threads.
"""

from __future__ import annotations

from operator import index
from typing import Iterator, Optional

Partition = tuple


def is_partition(m) -> bool:
    """True iff ``m`` is a weakly decreasing tuple of nonnegative integers."""
    # one pass: pad checks every index it is given through here
    prev = m[0] if m else 0
    for a in m:
        if not isinstance(a, int) or a > prev:
            return False
        prev = a
    return prev >= 0


def pad(m, r: int) -> Partition:
    """Canonicalize ``m`` to ambient length ``r``, padding trailing zeros.

    An already canonical tuple is checked and returned as it is.  Raises
    ValueError if ``m`` has a non-integer entry, has more than ``r``
    nonzero parts or is not weakly decreasing.
    """
    if type(m) is tuple and len(m) == r and is_partition(m):
        return m
    try:
        t = tuple(index(a) for a in m)
    except TypeError:
        raise ValueError(f"not a partition: {tuple(m)}") from None
    if len(t) > r:
        if any(t[r:]):
            raise ValueError(f"partition {t} does not fit in ambient length {r}")
        t = t[:r]
    t = t + (0,) * (r - len(t))
    if not is_partition(t):
        raise ValueError(f"not a partition: {t}")
    return t


def weight(m) -> int:
    return sum(m)


def contains(k, m) -> bool:
    """Componentwise containment k_j <= m_j; ambient lengths must agree."""
    if len(k) != len(m):
        raise ValueError(f"ambient length mismatch: {len(k)} vs {len(m)}")
    return all(a <= b for a, b in zip(k, m))


def partitions_of(w: int, r: int) -> Iterator[Partition]:
    """Partitions of exact weight ``w`` into at most ``r`` parts (padded),
    in descending lexicographic order."""

    def gen(rem: int, slots: int, cap: int):
        if rem == 0:
            yield (0,) * slots
            return
        if slots == 0:
            return
        for first in range(min(rem, cap), 0, -1):
            if first * slots < rem:
                break
            for rest in gen(rem - first, slots - 1, first):
                yield (first,) + rest

    yield from gen(w, r, w)


def enumerate_up_to(r: int, max_weight: int) -> list[Partition]:
    """All partitions of weight <= max_weight into <= r parts, ordered by
    (weight, descending lex).  The order is frozen: reports and golden files
    depend on it."""
    if r < 1:
        raise ValueError("ambient length must be >= 1")
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    out: list[Partition] = []
    for w in range(max_weight + 1):
        out.extend(partitions_of(w, r))
    return out


def sub_partitions(m) -> list[Partition]:
    """All partitions k with k ⊆ m, same ambient length, in the
    (weight, descending lex) enumeration order."""
    r = len(m)

    def gen(j: int, cap: int):
        if j == r:
            yield ()
            return
        hi = min(m[j], cap)
        for kj in range(hi, -1, -1):
            for rest in gen(j + 1, kj):
                yield (kj,) + rest

    ks = list(gen(0, m[0] if r else 0))
    ks.sort(key=lambda k: (sum(k), tuple(-a for a in k)))
    return ks


def box_move(m, j: int, direction: int) -> Optional[Partition]:
    """``m`` with one box added (+1) or removed (-1) at row ``j`` (1-based);
    None when the result is not a partition."""
    r = len(m)
    if not 1 <= j <= r:
        raise ValueError(f"row index {j} out of range 1..{r}")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    parts = list(m)
    parts[j - 1] += direction
    t = tuple(parts)
    return t if is_partition(t) else None


def parse_partition(text: str, r: Optional[int] = None) -> Partition:
    """Parse a comma-joined partition string like ``"2,1,0"``; pads to ``r``
    when given."""
    text = text.strip()
    parts = tuple(int(p) for p in text.split(",")) if text else ()
    if r is not None:
        return pad(parts, r)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def format_partition(m) -> str:
    """Serialize with trailing zeros kept: (2, 1, 0) -> "2,1,0"."""
    return ",".join(str(a) for a in m)
