"""Permutations under the weak Bruhat order, via inversion-set calculus.

A permutation of {1..k} is a one-line tuple of the values 1..k, ordered by
containment of its inversion set, held as k bit rows: row a is the
bitmask {b > a : a\\b in x}.  The sets that occur are exactly the
*clopen* ones, and joins/meets are the closure of the union (one Warshall
pass on the rows) and the interior of the intersection.  The permutation
of a clopen set is read straight off the rows: among the values >= a,
value a comes after exactly the popcount of row a.  ``clopen_to_perm``
checks the round trip ``sequence_inversions(k, sigma) == x``, which fails
exactly when x is not clopen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MultilatError


@dataclass(frozen=True)
class InversionSet:
    """A set of pairs a\\b with 1 <= a < b <= size: bit b-1 of rows[a-1]
    is set when a\\b is in the set."""

    size: int
    rows: tuple[int, ...]

    def complement(self) -> "InversionSet":
        k = self.size
        return InversionSet(k, tuple(~r & (1 << k) - (2 << a) for a, r in enumerate(self.rows)))

    def __or__(self, other: "InversionSet") -> "InversionSet":
        return InversionSet(self.size, tuple(r | s for r, s in zip(self.rows, other.rows)))

    def __and__(self, other: "InversionSet") -> "InversionSet":
        return InversionSet(self.size, tuple(r & s for r, s in zip(self.rows, other.rows)))

    def __le__(self, other: "InversionSet") -> bool:
        return all(not r & ~s for r, s in zip(self.rows, other.rows))

    def __str__(self) -> str:
        pairs = [f"{a + 1}\\{b + 1}" for a, r in enumerate(self.rows)
                 for b in range(a + 1, self.size) if r >> b & 1]
        return ";".join(pairs) or "-"


def inv_set(k: int, pairs) -> InversionSet:
    rows = [0] * k
    for a, b in pairs:
        if not 1 <= a < b <= k:
            raise MultilatError(f"bad inversion pair {a}\\{b} for size {k}")
        rows[a - 1] |= 1 << (b - 1)
    return InversionSet(k, tuple(rows))


def sequence_inversions(k: int, values) -> InversionSet:
    """The pairs a < b of the values 1..k, listed once each, with b before a."""
    rows = [0] * k
    seen = 0
    for a in values:
        rows[a - 1] = seen >> a << a
        seen |= 1 << (a - 1)
    return InversionSet(k, tuple(rows))


def closure(x: InversionSet) -> InversionSet:
    """Least superset closed under a\\b, b\\c => a\\c, by one Warshall pass
    over the middle b; x itself if already closed."""
    rows = list(x.rows)
    for b in range(1, x.size - 1):
        row, bit = rows[b], 1 << b
        if row:
            for a in range(b):
                if rows[a] & bit:
                    rows[a] |= row
    closed = tuple(rows)
    return x if closed == x.rows else InversionSet(x.size, closed)


def interior(x: InversionSet) -> InversionSet:
    """Greatest open subset: the complement of the closure of the complement."""
    return closure(x.complement()).complement()


def clopen_sequence(x: InversionSet) -> list[int]:
    """The values 1..k laid out with value a after popcount(row a) of the
    larger ones: the permutation of x in one-line order, if x is clopen."""
    order: list[int] = []
    for a in range(x.size, 0, -1):
        order.insert(x.rows[a - 1].bit_count(), a)
    return order


def clopen_to_perm(x: InversionSet) -> tuple[int, ...]:
    """The unique permutation, in one-line order, whose inversion set is the
    given clopen set; x is clopen exactly when the laid-out values give x back."""
    sigma = tuple(clopen_sequence(x))
    if sequence_inversions(x.size, sigma) != x:
        raise MultilatError(f"not clopen: {x}")
    return sigma


def _check_clopen_args(x: InversionSet, y: InversionSet) -> None:
    """Refuse sets of two sizes, and a set that is not clopen, by the round
    trip of :func:`clopen_to_perm`."""
    if x.size != y.size:
        raise MultilatError(f"size mismatch: {x.size} vs {y.size}")
    clopen_to_perm(x)
    clopen_to_perm(y)


def perm_join(x: InversionSet, y: InversionSet) -> InversionSet:
    """Join in the weak Bruhat order: the closure of the union."""
    _check_clopen_args(x, y)
    return closure(x | y)


def perm_meet(x: InversionSet, y: InversionSet) -> InversionSet:
    """Meet in the weak Bruhat order: the interior of the intersection."""
    _check_clopen_args(x, y)
    return interior(x & y)
