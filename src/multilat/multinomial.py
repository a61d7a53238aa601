"""Multinomial lattices: words with prescribed letter multiplicities.

Elements of L(v) are words over {1..n} in which letter i occurs v[i]
times, ordered by the rewrite a_i a_j -> a_j a_i for i < j.  Numbering
the positions of each letter's occurrences in increasing order embeds
L(v) in the permutations of {1..k} (k = sum of multiplicities), so a word
is ordered by its inversion set, held as bit rows: the join is the
closure of the union and the meet the interior of the intersection,
read straight back to a word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import order, perm_core
from .errors import CapExceeded, MultilatError
from .perm_core import InversionSet

if TYPE_CHECKING:
    from .finite_lattice import FiniteLattice

DEFAULT_K_CAP = 10

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class MultVector:
    """The multiplicity vector v defining L(v)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise MultilatError("multiplicity vector must be non-empty")
        if any(e < 0 for e in self.entries):
            raise MultilatError(f"negative multiplicity in {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def k(self) -> int:
        return sum(self.entries)

    @property
    def dimension(self) -> int:
        return sum(1 for e in self.entries if e > 0)

    def support(self) -> tuple[int, ...]:
        """Letters with positive multiplicity, ascending."""
        return tuple(i for i, e in enumerate(self.entries, start=1) if e > 0)

    def size(self) -> int:
        """Number of elements of L(v): the multinomial coefficient, as the
        product over i of C(v_1 + ... + v_i, v_i), which needs no factorial
        of k (a single letter repeated 10^6 times has one word)."""
        size, places = 1, 0
        for e in self.entries:
            places += e
            size *= math.comb(places, e)
        return size

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def parse_vector(text: str) -> MultVector:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise MultilatError(f"cannot parse multiplicity vector {text!r}") from exc
    return MultVector(entries)


@dataclass(frozen=True)
class PathWord:
    """A word in L(v): letters over {1..n} with the letter counts of v."""

    parent: MultVector
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = [0] * self.parent.n
        for letter in self.letters:
            if not 1 <= letter <= self.parent.n:
                raise MultilatError(f"letter {letter} out of range for v={self.parent}")
            counts[letter - 1] += 1
        if tuple(counts) != self.parent.entries:
            raise MultilatError(
                f"letter counts {tuple(counts)} do not match v={self.parent}"
            )

    def __str__(self) -> str:
        return word_str(self)

    def __lt__(self, other: "PathWord") -> bool:
        return self.letters < other.letters


def word_str(w: PathWord) -> str:
    return _letters_str(w.parent.n, w.letters)


def _letters_str(n: int, letters) -> str:
    if n <= 26:
        return "".join(_ALPHABET[letter - 1] for letter in letters)
    return " ".join(str(letter) for letter in letters)


def parse_word(v: MultVector, text: str) -> PathWord:
    if v.n <= 26:
        letters = []
        for ch in text:
            idx = _ALPHABET.find(ch)
            if idx < 0:
                raise MultilatError(f"bad letter {ch!r} in word {text!r}")
            letters.append(idx + 1)
    else:
        try:
            letters = [int(part) for part in text.split()]
        except ValueError as exc:
            raise MultilatError(f"cannot parse word {text!r}") from exc
    return PathWord(v, tuple(letters))


def bottom(v: MultVector) -> PathWord:
    return PathWord(v, tuple(i for i in range(1, v.n + 1) for _ in range(v.entries[i - 1])))


def top(v: MultVector) -> PathWord:
    return PathWord(v, tuple(i for i in range(v.n, 0, -1) for _ in range(v.entries[i - 1])))


def enumerate_words(v: MultVector):
    """All words of L(v) in lexicographic order, refused above DEFAULT_K_CAP letters."""
    if v.k > DEFAULT_K_CAP:
        raise CapExceeded(f"k={v.k} exceeds enumeration cap {DEFAULT_K_CAP}")
    for letters in _letter_tuples(v):
        yield PathWord(v, letters)


def _letter_tuples(v: MultVector):
    """The letter tuples of the words of L(v) in lexicographic order.

    Each is the next permutation of the one before: swap the last ascent's
    lower letter with the last letter above it, then reverse the suffix.
    """
    word = list(bottom(v).letters)
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


def pi(w: PathWord, l: int, m: int) -> PathWord:
    """Project onto letters l < m, relabelled to the 2-letter alphabet."""
    v = w.parent
    if not 1 <= l < m <= v.n:
        raise MultilatError(f"bad projection indices ({l},{m}) for n={v.n}")
    sub = MultVector((v.entries[l - 1], v.entries[m - 1]))
    return PathWord(sub, tuple(1 if c == l else 2 for c in w.letters if c in (l, m)))


def _leq2(w: PathWord, u: PathWord) -> bool:
    """Pointwise path comparison in a 2-letter lattice."""
    cw = cu = 0
    for lw, lu in zip(w.letters, u.letters):
        cw += lw == 2
        cu += lu == 2
        if cw > cu:
            return False
    return True


def leq(w: PathWord, u: PathWord) -> bool:
    """w <= u iff every 2-letter projection of w is below that of u."""
    if w.parent != u.parent:
        raise MultilatError("cannot compare words with different parents")
    n = w.parent.n
    return all(_leq2(pi(w, l, m), pi(u, l, m)) for l in range(1, n) for m in range(l + 1, n + 1))


def _swaps(x: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The letter tuples one swap of adjacent letters a_i a_j, i < j, above x."""
    return [x[:p] + (x[p + 1], x[p]) + x[p + 2:] for p in range(len(x) - 1) if x[p] < x[p + 1]]


def covers(w: PathWord) -> list[PathWord]:
    """Upper covers: one swap of adjacent letters a_i a_j with i < j."""
    return [PathWord(w.parent, x) for x in _swaps(w.letters)]


def word_inversions(w: PathWord) -> InversionSet:
    """The inversion set of w's letter positions: the i-th occurrence of
    letter l is value i + #{letters < l}, so each fiber increases."""
    v = w.parent
    next_value = list(itertools.accumulate(v.entries, initial=1))
    values = []
    for letter in w.letters:
        values.append(next_value[letter - 1])
        next_value[letter - 1] += 1
    return perm_core.sequence_inversions(v.k, values)


def inversions_word(v: MultVector, x: InversionSet) -> PathWord:
    """The word of L(v) with inversion set x, refused if there is none: the
    letter of value a in the non-decreasing word stands where x lays a out."""
    if x.size == v.k:
        letters = bottom(v).letters
        w = PathWord(v, tuple(letters[a - 1] for a in perm_core.clopen_sequence(x)))
        if word_inversions(w) == x:
            return w
    raise MultilatError(f"inversion set {x} is not that of a word of L({v})")


def _check_same_parent(w: PathWord, u: PathWord) -> None:
    if w.parent != u.parent:
        raise MultilatError("mismatched parents")


def mjoin(w: PathWord, u: PathWord) -> PathWord:
    """The closure of the union of the inversion sets."""
    _check_same_parent(w, u)
    return inversions_word(w.parent, perm_core.closure(word_inversions(w) | word_inversions(u)))


def mmeet(w: PathWord, u: PathWord) -> PathWord:
    """The interior of the intersection of the inversion sets."""
    _check_same_parent(w, u)
    return inversions_word(w.parent, perm_core.interior(word_inversions(w) & word_inversions(u)))


def check_size_cap(v: MultVector) -> None:
    """Refuse to materialize an L(v) above ``order.DEFAULT_SIZE_CAP`` words,
    or with words of more letters, which only a one-word L(v) can have:
    an L(v) of dimension 2 or more has at least k words."""
    size, cap = v.size(), order.DEFAULT_SIZE_CAP
    if size > cap:
        raise CapExceeded(f"|L({v})| = {size} exceeds materialization cap {cap}")
    if v.k > cap:
        raise CapExceeded(f"{v.k} letters exceed materialization cap {cap}")


def check_scan_cap(v: MultVector, n: int) -> None:
    """Refuse an SD_n(meet) scan of L(v) before materializing it, by the
    cap that :meth:`FiniteLattice.sd_holds` applies: the longest chain of
    L(v), bottom to top, has one step per inversion, sum over i < j of
    v_i v_j, and the scan stops at twice that."""
    height = sum(a * b for a, b in itertools.combinations(v.entries, 2))
    order.check_sd_scan_cap(v.size(), min(n, 2 * height))


def to_finite_lattice(v: MultVector) -> FiniteLattice:
    """Materialize L(v) as an explicit lattice with join/meet tables, from
    the covers of :func:`covers` found by index among the letter tuples."""
    from .finite_lattice import FiniteLattice

    check_size_cap(v)
    words = list(_letter_tuples(v))
    index = {w: i for i, w in enumerate(words)}
    cover_pairs = [(i, index[u]) for i, w in enumerate(words) for u in _swaps(w)]
    return FiniteLattice.from_covers(cover_pairs,
                                     labels=[_letters_str(v.n, w) for w in words])
