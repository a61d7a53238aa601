"""Permutations under the weak Bruhat order, via inversion-set calculus.

A permutation on {1..k} is ordered by containment of its inversion set.
The inversion sets that occur are exactly the *clopen* subsets of the
k(k-1)/2 possible pairs, and joins/meets are computed by a closure
(resp. interior) operator on these sets.

A clopen set is the inversion set of exactly one permutation, and that
permutation is read straight off the set: value a stands at position
1 + #{b > a : a\\b in x} + #{c < a : c\\a not in x}.  ``clopen_to_perm``
reads the positions and checks the round trip ``inversions(sigma) == x``,
which fails exactly when x is not clopen.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import MultilatError

Pair = tuple[int, int]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..k} in one-line notation: images[i-1] = sigma(i)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise MultilatError(f"not a permutation of 1..{k}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.images)


def identity(k: int) -> Permutation:
    return Permutation(tuple(range(1, k + 1)))


@dataclass(frozen=True)
class InversionSet:
    """A set of pairs a\\b with 1 <= a < b <= size."""

    size: int
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if not 1 <= a < b <= self.size:
                raise MultilatError(f"bad inversion pair {a}\\{b} for size {self.size}")

    def complement(self) -> "InversionSet":
        return InversionSet(self.size, frozenset(all_pairs(self.size)) - self.pairs)

    def __le__(self, other: "InversionSet") -> bool:
        return self.pairs <= other.pairs

    def __str__(self) -> str:
        if not self.pairs:
            return "-"
        return ";".join(f"{a}\\{b}" for a, b in sorted(self.pairs))


def all_pairs(k: int) -> list[Pair]:
    return list(combinations(range(1, k + 1), 2))


def inv_set(k: int, pairs) -> InversionSet:
    return InversionSet(k, frozenset(pairs))


def inversions(sigma: Permutation) -> InversionSet:
    """The disagreements of sigma: pairs a < b with sigma^-1(a) > sigma^-1(b)."""
    pos = sigma.inverse().images
    return inv_set(sigma.size, ((a, b) for a, b in all_pairs(sigma.size)
                                if pos[a - 1] > pos[b - 1]))


def closure(x: InversionSet) -> InversionSet:
    """Least superset closed under a\\b, b\\c => a\\c; x itself if already closed.

    One Warshall pass over the middle b, on bitmask rows succ[a] = {c : a\\c}.
    """
    k = x.size
    succ = [0] * (k + 1)
    for a, c in x.pairs:
        succ[a] |= 1 << c
    before = succ[:]
    for b in range(2, k):
        for a in range(1, b):
            if succ[a] >> b & 1:
                succ[a] |= succ[b]
    if succ == before:
        return x
    return inv_set(k, ((a, c) for a in range(1, k) for c in range(a + 1, k + 1)
                       if succ[a] >> c & 1))


def interior(x: InversionSet) -> InversionSet:
    """Greatest open subset: the complement of the closure of the complement."""
    return closure(x.complement()).complement()


def is_closed(x: InversionSet) -> bool:
    return closure(x) == x


def is_open(x: InversionSet) -> bool:
    """a\\c in x forces a\\b or b\\c in x: the complement is closed."""
    return is_closed(x.complement())


def is_clopen(x: InversionSet) -> bool:
    return is_open(x) and is_closed(x)


def clopen_to_perm(x: InversionSet) -> Permutation:
    """The unique permutation whose inversion set is the given clopen set.

    Value a stands at position a + #{b : a\\b in x} - #{c : c\\a in x};
    the set is clopen exactly when these positions form a permutation
    whose inversion set is x again.
    """
    k = x.size
    position = list(range(1, k + 1))
    for a, b in x.pairs:
        position[a - 1] += 1
        position[b - 1] -= 1
    if sorted(position) == list(range(1, k + 1)):
        sigma = Permutation(tuple(position)).inverse()
        if inversions(sigma) == x:
            return sigma
    raise MultilatError(f"not clopen: {x}")


def _check_clopen_args(x: InversionSet, y: InversionSet) -> None:
    if x.size != y.size:
        raise MultilatError(f"size mismatch: {x.size} vs {y.size}")
    if not is_clopen(x) or not is_clopen(y):
        raise MultilatError("join/meet arguments must be clopen")


def perm_join(x: InversionSet, y: InversionSet) -> InversionSet:
    """Join in the weak Bruhat order: the closure of the union."""
    _check_clopen_args(x, y)
    return closure(inv_set(x.size, x.pairs | y.pairs))


def perm_meet(x: InversionSet, y: InversionSet) -> InversionSet:
    """Meet in the weak Bruhat order: the interior of the intersection."""
    _check_clopen_args(x, y)
    return interior(inv_set(x.size, x.pairs & y.pairs))


def all_perms(k: int):
    """All permutations of {1..k} in lexicographic one-line order."""
    for images in permutations(range(1, k + 1)):
        yield Permutation(images)
