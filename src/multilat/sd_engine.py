"""Witness triples and the dimension/semidistributivity verdict for L(v).

For a lattice L(v) whose multiplicity vector has n positive entries,
SD_{n-1}(meet) holds and SD_{n-2}(meet) fails.  The failing side is
witnessed by an explicit triple of clopen sets of Perm(n), walked there:
``psi`` embeds Perm(n) into L(v) as a sublattice (closures and interiors
of whole-block inversion sets stay whole-block), so an SD failure, the
failure of an identity, carries over, and the triple is pushed into L(v)
only to print its words.  The holding side is decided either on the
materialized lattice (certified from its tables, or scanned) or by the
longest D-path, which ``irreducibles.longest_d_chain`` certifies.

SD_n is tested on both orderings (x,y,z) and (x,z,y) of the triple, but
one walk of the sequences decides both: swapping y and z swaps the
sequence y_k with z_k, so the second ordering reads x ^ z_n where the
first reads x ^ y_n.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from . import multinomial, perm_core
from .errors import CapExceeded, MultilatError
from .irreducibles import longest_d_chain
from .multinomial import MultVector, PathWord, word_str
from .order import DPATH_BOUND, EXHAUSTIVE, _json_array, sd_sequence
from .perm_core import InversionSet, inv_set

DEFAULT_EXHAUSTIVE_CAP = 100
# Bounds the letters of the printed witness words.  The walk itself runs in
# Perm(n), n the dimension, so its cost depends on n alone, and the worst
# case at k letters is dimension k.  Timed in-process on a 2-vCPU Xeon,
# Python 3.11: theorem takes 14 ms on (1^40) and 0.09 s on (1^80), and
# sd --witness (any n) 14 ms and 0.09 s; (26,27,27) takes 0.3 ms.
WITNESS_LETTER_CAP = 80


@dataclass(frozen=True)
class WitnessTriple:
    """The clopen sets whose SD sequences climb one adjacent pair per step."""

    n: int
    x: InversionSet
    y: InversionSet
    z: InversionSet


# witness_words and witness_fails of one request share the triple
@functools.lru_cache(maxsize=1)
def perm_witness(n: int) -> WitnessTriple:
    if n < 2:
        raise MultilatError("witness triple needs dimension >= 2")
    y = inv_set(n, ((i, i + 1) for i in range(2, n) if i % 2 == 0))
    z = inv_set(n, ((i, i + 1) for i in range(1, n) if i % 2 == 1))
    x = inv_set(n, ((1, i) for i in range(2, n + 1)))
    return WitnessTriple(n, x, y, z)


def _wk(n: int, k: int) -> InversionSet:
    return inv_set(n, ((1, i) for i in range(2, k + 2)))


def wk_ladder_check(n: int) -> bool:
    """Verify x ^ y_k (k even) and x ^ z_k (k odd) walk the ladder w_0..w_{n-1}."""
    if n < 3:
        raise MultilatError("ladder check needs n >= 3")
    wit = perm_witness(n)
    pairs = sd_sequence(perm_core.perm_join, perm_core.perm_meet, wit.x, wit.y, wit.z, n - 1)
    for k in range(n):
        yk, zk = pairs[min(k, len(pairs) - 1)]
        if perm_core.perm_meet(wit.x, yk if k % 2 == 0 else zk) != _wk(n, k):
            return False
    full = perm_core.perm_join(wit.y, wit.z)
    return perm_core.perm_meet(wit.x, full) == wit.x == _wk(n, n - 1)


def psi(v: MultVector, sigma: tuple[int, ...]) -> PathWord:
    """Embed a permutation of the support letters, in one-line order, as a
    word of letter blocks."""
    support = v.support()
    if len(sigma) != len(support):
        raise MultilatError(
            f"permutation size {len(sigma)} != dimension {len(support)} of v={v}")
    letters: list[int] = []
    for j in sigma:
        letter = support[j - 1]
        letters.extend([letter] * v.entries[letter - 1])
    return PathWord(v, tuple(letters))


def witness_words(v: MultVector) -> tuple[PathWord, PathWord, PathWord]:
    """The witness triple pushed into L(v) as words, refused above the letter cap."""
    if v.k > WITNESS_LETTER_CAP:
        raise CapExceeded(f"{v.k} letters exceed the witness cap {WITNESS_LETTER_CAP}")
    wit = perm_witness(v.dimension)
    return tuple(psi(v, perm_core.clopen_to_perm(s)) for s in (wit.x, wit.y, wit.z))


def witness_fails(v: MultVector, n: int) -> bool:
    """Whether SD_n(meet) fails on the witness triple of L(v), walked in
    Perm(dim), which :func:`psi` embeds into L(v) as a sublattice.

    The parity of the dimension decides which of the two sequence orderings
    climbs the full ladder, so both are tested, from one walk: swapping y
    and z swaps the two sequences of :func:`sd_sequence` (y'_k = z_k by
    induction), so (x,y,z) fails iff x ^ y_n != x ^ (y v z) and (x,z,y)
    fails iff x ^ z_n != x ^ (y v z).  The walk stays clopen, so it skips
    the per-step checks of ``perm_join``/``perm_meet``, as mjoin does.
    """
    wit = perm_witness(v.dimension)

    def join(a: InversionSet, b: InversionSet) -> InversionSet:
        return perm_core.closure(a | b)

    def meet(a: InversionSet, b: InversionSet) -> InversionSet:
        return perm_core.interior(a & b)

    yn, zn = sd_sequence(join, meet, wit.x, wit.y, wit.z, n)[-1]
    top = meet(wit.x, join(wit.y, wit.z))
    return meet(wit.x, yn) != top or meet(wit.x, zn) != top


@dataclass(frozen=True)
class TheoremReport:
    """Per-v verdict: greatest failing SD level and least holding SD level."""

    v: MultVector
    dim: int
    sd_fail_level: int
    sd_hold_level: int
    witness_words: tuple[str, str, str]
    method: str

    def to_json(self) -> str:
        """``json.dumps`` of v, the levels, the words and the method with
        ``indent=2``, byte for byte, without the pure-Python encoder, and
        the newline that ends the reply."""
        return (f'{{\n  "v": {_json_array(map(str, self.v.entries), 2)},'
                f'\n  "dim": {self.dim},'
                f'\n  "sd_fail_level": {self.sd_fail_level},'
                f'\n  "sd_hold_level": {self.sd_hold_level},'
                f'\n  "witness_words": {_json_array(map(json.dumps, self.witness_words), 2)},'
                f'\n  "method": {json.dumps(self.method)}\n}}\n')


def theorem_check(v: MultVector, method: str | None = None) -> TheoremReport:
    """Confirm that L(v) of dimension n fails SD_{n-2} and satisfies SD_{n-1}.

    The failing side is the witness triple, walked in Perm(n); its
    printed words are capped.  The exhaustive method materializes L(v),
    up to the size cap of ``to_finite_lattice``, and decides the holding
    side with :meth:`FiniteLattice.sd_verdict`: certified from the arrow
    relations of the tables when the lattice is meet semidistributive and
    its D is acyclic with longest path below n - 1, scanned (under the
    scan cap) otherwise.  The dpath-bound method assumes meet
    semidistributivity and takes the longest D-path, n - 2 edges, from
    :func:`irreducibles.longest_d_chain`, with no graph.
    DEFAULT_EXHAUSTIVE_CAP only picks the method when none is given.
    """
    n = v.dimension
    if n < 2:
        raise MultilatError(f"dimension of v={v} must be >= 2")
    if method is None:
        small = v.size_up_to(DEFAULT_EXHAUSTIVE_CAP) is not None
        method = EXHAUSTIVE if small else DPATH_BOUND
    if method not in (EXHAUSTIVE, DPATH_BOUND):
        raise MultilatError(f"unknown method {method!r}")

    words = witness_words(v)
    if not witness_fails(v, n - 2):
        raise MultilatError(f"witness triple does not fail SD_{n - 2} in L({v})")

    if method == EXHAUSTIVE:
        lattice = multinomial.to_finite_lattice(v)
        if lattice.sd_verdict(n - 1) is not True:
            raise MultilatError(f"SD_{n - 1} unexpectedly fails in L({v})")
    else:
        longest_d_chain(v)  # an SD_m failure gives a D-path of m edges
    return TheoremReport(
        v=v, dim=n, sd_fail_level=n - 2, sd_hold_level=n - 1,
        witness_words=tuple(word_str(w) for w in words), method=method)
