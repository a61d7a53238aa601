"""Shared brute-force oracles used to cross-check the library.

Everything here is written from first principles (breadth-first search
over rewrite steps, scans over all permutations, direct recursion) so
that agreement with the library is meaningful evidence.
"""

from __future__ import annotations

from functools import lru_cache

from multilat import multinomial as mn
from multilat import perm_core as pc


@lru_cache(maxsize=None)
def word_universe(v: mn.MultVector) -> tuple[mn.PathWord, ...]:
    return tuple(mn.enumerate_words(v))


@lru_cache(maxsize=None)
def oracle_leq_pairs(v: mn.MultVector) -> frozenset[tuple[mn.PathWord, mn.PathWord]]:
    """Reflexive-transitive closure of single rewrite steps ab -> ba (a < b)."""
    pairs: set[tuple[mn.PathWord, mn.PathWord]] = set()
    for w in word_universe(v):
        reached = {w}
        frontier = [w]
        while frontier:
            cur = frontier.pop()
            letters = list(cur.letters)
            for p in range(len(letters) - 1):
                if letters[p] < letters[p + 1]:
                    swapped = letters[:]
                    swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
                    nxt = mn.PathWord(v, tuple(swapped))
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
        pairs.update((w, u) for u in reached)
    return frozenset(pairs)


def oracle_leq(w: mn.PathWord, u: mn.PathWord) -> bool:
    return (w, u) in oracle_leq_pairs(w.parent)


def _unique_extreme(cands: list, le) -> object:
    out = [c for c in cands if all(le(c, d) for d in cands)]
    assert len(out) == 1, "bound is not unique"
    return out[0]


def oracle_join(w: mn.PathWord, u: mn.PathWord) -> mn.PathWord:
    ubs = [t for t in word_universe(w.parent) if oracle_leq(w, t) and oracle_leq(u, t)]
    return _unique_extreme(ubs, oracle_leq)


def oracle_meet(w: mn.PathWord, u: mn.PathWord) -> mn.PathWord:
    lbs = [t for t in word_universe(w.parent) if oracle_leq(t, w) and oracle_leq(t, u)]
    return _unique_extreme(lbs, lambda a, b: oracle_leq(b, a))


@lru_cache(maxsize=None)
def all_inversion_sets(k: int) -> tuple[pc.InversionSet, ...]:
    return tuple(pc.inversions(s) for s in pc.all_perms(k))


def oracle_clopen_join(x: pc.InversionSet, y: pc.InversionSet) -> pc.InversionSet:
    ubs = [d for d in all_inversion_sets(x.size) if x <= d and y <= d]
    return _unique_extreme(ubs, lambda a, b: a <= b)


def oracle_clopen_meet(x: pc.InversionSet, y: pc.InversionSet) -> pc.InversionSet:
    lbs = [d for d in all_inversion_sets(x.size) if d <= x and d <= y]
    return _unique_extreme(lbs, lambda a, b: b <= a)


def oracle_sd_holds_on(lattice, x: int, y: int, z: int, n: int) -> bool:
    """SD_n(meet) on one triple by the plain recursive definition."""
    yk, zk = y, z
    for _ in range(n):
        yk, zk = (lattice.join(y, lattice.meet(x, zk)),
                  lattice.join(z, lattice.meet(x, yk)))
    return lattice.meet(x, yk) == lattice.meet(x, lattice.join(y, z))
