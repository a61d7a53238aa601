"""Witness triples and the dimension/semidistributivity verdict for L(v).

For a lattice L(v) whose multiplicity vector has n positive entries,
SD_{n-1}(meet) holds and SD_{n-2}(meet) fails.  The failing side is
witnessed by an explicit triple of clopen sets pushed from the
permutations of {1..n} into L(v); the holding side is decided either on
the materialized lattice (certified from its tables, or scanned) or
through the bound given by the longest simple D-path of the D-graph.

SD_n is tested on both orderings (x,y,z) and (x,z,y) of the triple, but
one walk of the sequences decides both: swapping y and z swaps the
sequence y_k with z_k, so the second ordering reads x ^ z_n where the
first reads x ^ y_n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import multinomial, perm_core
from .errors import CapExceeded, MultilatError
from .irreducibles import check_d_graph_cap, d_graph, longest_simple_path
from .multinomial import MultVector, PathWord, mjoin, mmeet, word_str
from .order import sd_sequence
from .perm_core import InversionSet, Permutation, inv_set

EXHAUSTIVE = "exhaustive"
DPATH_BOUND = "dpath-bound"
DEFAULT_EXHAUSTIVE_CAP = 100
WK_LADDER_CAP = 6  # factorial growth of Perm(n)
# Timed by sd --witness (in-process) on a 2-vCPU Xeon, Python 3.11.  The
# worst case at k letters is dimension k with n >= k, where the sequences
# climb about k steps: (1^64) takes 0.12 s, (1^80) 0.16 s, (1^100) 0.27 s.
# In dimension 3, (100,100,100) takes 0.05 s at n = 2 and (200,200,200) 0.20 s.
WITNESS_LETTER_CAP = 80


@dataclass(frozen=True)
class WitnessTriple:
    """The clopen sets whose SD sequences climb one adjacent pair per step."""

    n: int
    x: InversionSet
    y: InversionSet
    z: InversionSet


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
    if n >= WK_LADDER_CAP:
        raise CapExceeded(f"materialization cap exceeded (n >= {WK_LADDER_CAP})")
    wit = perm_witness(n)
    pairs = sd_sequence(perm_core.perm_join, perm_core.perm_meet, wit.x, wit.y, wit.z, n - 1)
    for k in range(n):
        yk, zk = pairs[min(k, len(pairs) - 1)]
        if perm_core.perm_meet(wit.x, yk if k % 2 == 0 else zk) != _wk(n, k):
            return False
    full = perm_core.perm_join(wit.y, wit.z)
    return perm_core.perm_meet(wit.x, full) == wit.x == _wk(n, n - 1)


def psi(v: MultVector, sigma: Permutation) -> PathWord:
    """Embed a permutation of the support letters as a word of letter blocks."""
    support = v.support()
    if sigma.size != len(support):
        raise MultilatError(
            f"permutation size {sigma.size} != dimension {len(support)} of v={v}")
    letters: list[int] = []
    for j in sigma.images:
        letter = support[j - 1]
        letters.extend([letter] * v.entries[letter - 1])
    return PathWord(v, tuple(letters))


def witness_words(v: MultVector) -> tuple[PathWord, PathWord, PathWord]:
    """The witness triple pushed into L(v) as words, refused above the letter cap."""
    if v.k > WITNESS_LETTER_CAP:
        raise CapExceeded(f"{v.k} letters exceed the witness cap {WITNESS_LETTER_CAP}")
    wit = perm_witness(v.dimension)
    return tuple(psi(v, perm_core.clopen_to_perm(s)) for s in (wit.x, wit.y, wit.z))


def _sd_fails_on_words(x: PathWord, y: PathWord, z: PathWord, n: int) -> bool:
    """Whether SD_n(meet) fails on (x,y,z) or on (x,z,y), from one walk.

    Swapping y and z swaps the two sequences of :func:`sd_sequence`
    (y'_k = z_k by induction), so (x,y,z) fails iff x ^ y_n != x ^ (y v z)
    and (x,z,y) fails iff x ^ z_n != x ^ (y v z).
    """
    yn, zn = sd_sequence(mjoin, mmeet, x, y, z, n)[-1]
    top = mmeet(x, mjoin(y, z))
    return mmeet(x, yn) != top or mmeet(x, zn) != top


def witness_fails(v: MultVector, n: int) -> bool:
    """Whether SD_n(meet) fails on the witness triple of L(v).

    The parity of the dimension decides which of the two sequence orderings
    climbs the full ladder; testing both keeps the check unambiguous.
    """
    return _sd_fails_on_words(*witness_words(v), n)


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
        return json.dumps({
            "v": list(self.v.entries),
            "dim": self.dim,
            "sd_fail_level": self.sd_fail_level,
            "sd_hold_level": self.sd_hold_level,
            "witness_words": list(self.witness_words),
            "method": self.method,
        }, indent=2)


def theorem_check(v: MultVector, method: str | None = None) -> TheoremReport:
    """Confirm that L(v) of dimension n fails SD_{n-2} and satisfies SD_{n-1}.

    The failing side is the witness triple, walked on words.  The
    exhaustive method materializes L(v), up to the cap of
    ``to_finite_lattice`` and after the scan cap, and decides the holding
    side with :meth:`FiniteLattice.sd_verdict`: certified from the arrow
    relations of the tables when the lattice is meet semidistributive and
    its D is acyclic with longest path below n - 1, scanned otherwise.
    The dpath-bound method reads the longest simple D-path off the
    vector-coded D-graph instead.  DEFAULT_EXHAUSTIVE_CAP only picks the
    method when none is given.
    """
    n = v.dimension
    if n < 2:
        raise MultilatError(f"dimension of v={v} must be >= 2")
    if method is None:
        method = EXHAUSTIVE if v.size() <= DEFAULT_EXHAUSTIVE_CAP else DPATH_BOUND
    if method not in (EXHAUSTIVE, DPATH_BOUND):
        raise MultilatError(f"unknown method {method!r}")

    # refuse before any work: the chosen method's cap, the witness's, the scan's
    if method == EXHAUSTIVE:
        multinomial.check_size_cap(v)
    else:
        check_d_graph_cap(v)
    words = witness_words(v)
    if method == EXHAUSTIVE:
        multinomial.check_scan_cap(v, n - 1)
    if not _sd_fails_on_words(*words, n - 2):
        raise MultilatError(f"witness triple does not fail SD_{n - 2} in L({v})")

    if method == EXHAUSTIVE:
        lattice = multinomial.to_finite_lattice(v)
        if lattice.sd_verdict(n - 1) is not True:
            raise MultilatError(f"SD_{n - 1} unexpectedly fails in L({v})")
    else:
        length = longest_simple_path(d_graph(v))
        if length != n - 2:
            raise MultilatError(
                f"longest simple D-path in L({v}) is {length}, expected {n - 2}")
        # acyclic D on a semidistributive lattice bounds the SD level
    return TheoremReport(
        v=v, dim=n, sd_fail_level=n - 2, sd_hold_level=n - 1,
        witness_words=tuple(word_str(w) for w in words), method=method)
