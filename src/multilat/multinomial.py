"""Multinomial lattices: words with prescribed letter multiplicities.

Elements of L(v) are words over {1..n} in which letter i occurs v[i]
times, ordered by the rewrite a_i a_j -> a_j a_i for i < j.  Numbering
the positions of each letter's occurrences in increasing order embeds
L(v) in the permutations of {1..k} (k = sum of multiplicities), so a word
is ordered by containment of its inversion set, held as bit rows: the
join is the closure of the union and the meet the interior of the
intersection, read straight back to a word.
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

# |L(v)| is named in a refusal up to this size; larger ones are not computed.
_SHOWN_SIZE = 10 ** 18

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_LETTER = {ch: i for i, ch in enumerate(_ALPHABET, start=1)}


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

    def size_up_to(self, bound: int) -> int | None:
        """|L(v)| if it is at most ``bound``, else None, without computing
        a larger size.  Each binomial C(m + k, k) of :meth:`size`, k the
        smaller part, is built up as C(m + 1, 1), C(m + 2, 2), ...: every
        step multiplies by (m + i) / i >= 2, so the walk passes ``bound``
        within about log2(bound) steps, however large the entries."""
        size, places = 1, 0
        for e in self.entries:
            places += e
            k, part = min(e, places - e), 1
            for i in range(1, k + 1):
                part = part * (places - k + i) // i
                if size * part > bound:
                    return None
            size *= part
        return size if size <= bound else None

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
        letters = tuple(map(_LETTER.get, text))
        if None in letters:
            raise MultilatError(f"bad letter {text[letters.index(None)]!r} in word {text!r}")
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
    """All words of L(v) in lexicographic order, refused before the first
    when more than ``order.listing_cap`` words of k letters."""
    cap = order.listing_cap(v.k)
    check_words_cap(v, cap, f"the listing cap of {cap} words of {v.k} letters")
    for letters in _rearrangements(list(bottom(v).letters), tuple):
        yield PathWord(v, letters)


def _rearrangements(word: list, pack):
    """The rearrangements of the ascending list ``word`` in lexicographic
    order, each packed by ``pack`` (``tuple``, or ``"".join`` for letters).

    Each is the next permutation of the one before: swap the last ascent's
    lower letter with the last letter above it, then reverse the suffix.
    """
    while True:
        yield pack(word)
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


def _swaps(x):
    """The letter tuples, or letter strings, one swap of adjacent letters
    a_i a_j, i < j, above x."""
    return [x[:p] + x[p:p + 2][::-1] + x[p + 2:] for p in range(len(x) - 1) if x[p] < x[p + 1]]


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


def _check_same_parent(w, u) -> None:
    """Refuse two words, or two irreducibles, of different L(v)."""
    if w.parent != u.parent:
        raise MultilatError("mismatched parents")


def leq(w: PathWord, u: PathWord) -> bool:
    """w <= u iff the inversion set of w is contained in that of u."""
    _check_same_parent(w, u)
    return word_inversions(w) <= word_inversions(u)


def mjoin(w: PathWord, u: PathWord) -> PathWord:
    """The closure of the union of the inversion sets."""
    _check_same_parent(w, u)
    return inversions_word(w.parent, perm_core.closure(word_inversions(w) | word_inversions(u)))


def mmeet(w: PathWord, u: PathWord) -> PathWord:
    """The interior of the intersection of the inversion sets."""
    _check_same_parent(w, u)
    return inversions_word(w.parent, perm_core.interior(word_inversions(w) & word_inversions(u)))


def check_words_cap(v: MultVector, cap: int, what: str) -> None:
    """Refuse an L(v) of more than ``cap`` words by :meth:`MultVector.size_up_to`,
    naming |L(v)| up to 10^18: "|L(v)| = N exceeds <what>"."""
    size = v.size_up_to(max(cap, _SHOWN_SIZE))
    if size is None or size > cap:
        shown = "" if size is None else f" = {size}"
        raise CapExceeded(f"|L({v})|{shown} exceeds {what}")


def check_size_cap(v: MultVector) -> None:
    """Refuse to materialize an L(v) above ``order.DEFAULT_SIZE_CAP`` words,
    or with words of more letters, which only a one-word L(v) can have:
    an L(v) of dimension 2 or more has at least k words."""
    cap = order.DEFAULT_SIZE_CAP
    check_words_cap(v, cap, f"materialization cap {cap}")
    if v.k > cap:
        raise CapExceeded(f"{v.k} letters exceed materialization cap {cap}")


def check_scan_cap(v: MultVector, n: int) -> None:
    """Refuse the SD_n(meet) scan of ``sd --exhaustive``, which always runs,
    before materializing L(v): first by :func:`check_size_cap`, which
    bounds |L(v)|, then by the rule of :meth:`FiniteLattice.sd_holds`; the
    longest chain of L(v) has one step per inversion, sum over i < j of
    v_i v_j."""
    check_size_cap(v)
    height = sum(a * b for a, b in itertools.combinations(v.entries, 2))
    order.sd_scan_level(v.size(), height, n)


def to_finite_lattice(v: MultVector) -> FiniteLattice:
    """Materialize L(v) as an explicit lattice with order and join tables,
    from the covers of :func:`covers` found by index among the words, taken
    as their label strings up to 26 letters and as letter tuples above.

    Reading a word backwards reverses the order (a swap a_i a_j -> a_j a_i
    up, i < j, is one down in the reversed word), so the meet table comes
    from the join table through the reversal map (Bennett and Birkhoff,
    "Two families of Newman lattices", 1994), which
    :meth:`FiniteLattice.from_covers` certifies on the covers."""
    from .finite_lattice import FiniteLattice

    check_size_cap(v)
    if v.n <= 26:  # each word is its label, one string to hash and slice
        words = labels = list(_rearrangements([_ALPHABET[i - 1] for i in bottom(v).letters],
                                              "".join))
    else:
        words = list(_rearrangements(list(bottom(v).letters), tuple))
        labels = [_letters_str(v.n, w) for w in words]
    index = {w: i for i, w in enumerate(words)}
    cover_pairs = [(i, index[u]) for i, w in enumerate(words) for u in _swaps(w)]
    reverse = [index[w[::-1]] for w in words]
    return FiniteLattice.from_covers(cover_pairs, labels, flip=reverse)
