"""Explicit finite lattices: tables, irreducibles, congruences, pentagons,
and the SD_n(meet) equation machinery.

Elements are integer indices into a label list.  The order relation and
the join/meet tables are dense numpy arrays, which keeps exhaustive
triple scans fast enough at desk scale.  This is the only module that
imports numpy; the pure-Python helpers it shares with the other layers
(the Kahn peel, the SD_n sequence walk, the union-find and the caps) live
in :mod:`multilat.order`, and the other layers import this module only
inside the functions that build a lattice.

The tables are filled from the given edges in O(n^2 d) time, d the
largest number of successors given for one element (Freese, Jezek and
Nation, *Free Lattices*, ch. 11): each row ``leq[x]`` is the union of the
rows of its successors, and ``x v y`` for incomparable x, y is the least of
the joins ``c v y`` over the successors ``c`` of x.  Rows are filled one
height level at a time from the top, all rows of a level in a few array
operations.  The meet table is the join table of the dual order.  Tables
hold int16 indices (int32 above 32,767 elements).

SD_n(meet) is scanned one batch of x at a time through the table
MJ_x[y, t] = x ^ (y v t).  The z sequence is the transpose of the y
sequence, z_k(y, z) = y_k(z, y), so a_k(y, z) = x ^ y_k obeys
a_0(y, z) = x ^ y and a_{k+1}(y, z) = MJ_x[y, a_k(z, y)], and SD_n fails
at (x, y, z) exactly where a_n(y, z) != MJ_x[y, z].  The first step is one
gather over all pairs; later steps gather only the unsettled pairs, where
a_k != MJ_x: a_k only climbs towards MJ_x, so a settled value is final.

The arrow relations, the join dependency D, kappa and semidistributivity
are boolean operations on rows of the order indexed by the join and meet
irreducibles and their unique covers.  They also give the SD level of a
meet-semidistributive lattice without a scan: an SD_n failure there yields
a simple D-path of n edges (:meth:`FiniteLattice.dpath_from_sd_failure`),
so when D is acyclic with longest path l, SD_n holds for every n > l
(:meth:`FiniteLattice.sd_verdict`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapExceeded, InternalInconsistency, MultilatError, NotALattice
from .order import (DEFAULT_SIZE_CAP, _blocks, _cycle_pair, _heights, _union, check_sd_level,
                    check_sd_scan_cap, longest_path, sd_sequence)

Quotient = tuple[int, int]  # (upper, lower) with lower <= upper


class FiniteLattice:
    """A finite lattice given by its cover relation.

    Construct through :meth:`from_covers`, which validates that the
    transitive closure of the covers is a lattice order.
    """

    def __init__(self, labels, leq, join, meet, upper_covers):
        self.labels: list[str] = list(labels)
        self.leq_table: np.ndarray = leq      # leq_table[i, j] == (i <= j)
        self.join_table: np.ndarray = join
        self.meet_table: np.ndarray = meet
        self._upper_covers: list[list[int]] = upper_covers
        self._lower_covers: list[list[int]] = [[] for _ in upper_covers]
        for lo, ups in enumerate(upper_covers):
            for hi in ups:
                self._lower_covers[hi].append(lo)
        # The tables never change, so the irreducibles are listed once.
        self._jis = [i for i, low in enumerate(self._lower_covers) if len(low) == 1]
        self._mis = [i for i, ups in enumerate(upper_covers) if len(ups) == 1]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_covers(cls, covers, labels=None) -> "FiniteLattice":
        """Build and validate a lattice from (lower, upper) cover pairs.

        Pairs may use integer indices (with explicit ``labels``) or label
        strings, in which case the element set is inferred and sorted.
        The pairs need only generate the order: duplicate, transitive and
        reflexive pairs are allowed, and the true covers are recovered.

        Peeling the maximal elements level by level (Kahn's algorithm on
        the reversed order) gives each element's height; elements never
        peeled lie on or below a cycle.  :class:`_Ranked` then fills
        ``leq``, the covers and the join table level by level from the
        top, and the meet table as the join table of the dual order.
        Raises :class:`NotALattice` on a cycle, on more than one minimal or
        maximal element, and on a pair without a least upper bound (the
        least such pair among those with an element of least height).
        """
        covers = list(covers)
        if labels is None:
            names = sorted({x for pair in covers for x in pair})
            index = {name: i for i, name in enumerate(names)}
            edges = [(index[lo], index[hi]) for lo, hi in covers]
            labels = [str(name) for name in names]
        else:
            edges = [(int(lo), int(hi)) for lo, hi in covers]
        n = len(labels)
        if n == 0:
            raise NotALattice("empty element set")

        succ_sets: list[set[int]] = [set() for _ in range(n)]
        pred_sets: list[set[int]] = [set() for _ in range(n)]
        for lo, hi in edges:
            if lo != hi:
                succ_sets[lo].add(hi)
                pred_sets[hi].add(lo)
        succ = [sorted(s) for s in succ_sets]
        pred = [sorted(s) for s in pred_sets]

        height = _heights(succ, pred)
        if -1 in height:
            a, b = _cycle_pair(succ, pred, {i for i in range(n) if height[i] < 0})
            raise NotALattice(f"cycle through {labels[a]} and {labels[b]}")
        bottoms = [i for i in range(n) if not pred[i]]
        tops = [i for i in range(n) if not succ[i]]
        if len(bottoms) != 1:
            raise NotALattice(f"{len(bottoms)} minimal elements: "
                              + ", ".join(labels[i] for i in bottoms))
        if len(tops) != 1:
            raise NotALattice(f"{len(tops)} maximal elements: "
                              + ", ".join(labels[i] for i in tops))

        up = _Ranked(succ, height)
        leq, upper_covers = up.order_and_covers()
        join = up.join_table(leq, labels, "least upper")
        down = _Ranked(pred, _heights(pred, succ))
        meet = down.join_table(leq.T, labels, "greatest lower")
        return cls(labels, leq, join, meet, upper_covers)

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(self.n)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq_table[i, j])

    def join(self, i: int, j: int) -> int:
        return int(self.join_table[i, j])

    def meet(self, i: int, j: int) -> int:
        return int(self.meet_table[i, j])

    @property
    def bottom(self) -> int:
        return int(np.argmax(self.leq_table.sum(axis=0) == 1))

    @property
    def top(self) -> int:
        return int(np.argmax(self.leq_table.sum(axis=1) == 1))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise MultilatError(f"unknown element {label!r}") from exc

    def lower_covers(self, i: int) -> list[int]:
        return self._lower_covers[i]

    def upper_covers(self, i: int) -> list[int]:
        return self._upper_covers[i]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """(lower, upper) cover pairs, lexicographic by index."""
        return [(i, j) for i in self.elements() for j in self.upper_covers(i)]

    def dual(self) -> "FiniteLattice":
        """The order dual, sharing labels."""
        return FiniteLattice(self.labels, self.leq_table.T, self.meet_table,
                             self.join_table, self._lower_covers)

    # -- irreducibles and arrow relations ----------------------------------

    def join_irreducibles(self) -> list[int]:
        return list(self._jis)

    def meet_irreducibles(self) -> list[int]:
        return list(self._mis)

    def arrow_up(self, j: int, m: int) -> bool:
        """j not below m, but below the unique upper cover of m."""
        return bool(self._arrows[0][self._jis.index(j), self._mis.index(m)])

    def arrow_down(self, m: int, j: int) -> bool:
        """j not below m, but its unique lower cover is."""
        return bool(self._arrows[1][self._jis.index(j), self._mis.index(m)])

    def bruteforce_D(self) -> set[tuple[int, int]]:
        """Join dependency: j D j' iff j != j' and j up-arrow m down-arrow j'."""
        jis = np.array(self._jis, dtype=np.intp)
        a, b = np.nonzero(self._d_matrix)
        return set(zip(jis[a].tolist(), jis[b].tolist()))

    @cached_property
    def _arrows(self) -> tuple[np.ndarray, np.ndarray]:
        """(up, down), |J| x |M| tables over the join irreducibles J and the
        meet irreducibles M in index order: up[a, b] = J[a] up-arrow M[b]
        and down[a, b] = M[b] down-arrow J[a].  Both need J[a] not below
        M[b]; up adds J[a] <= M[b]*, down adds J[a]_* <= M[b]."""
        leq, jis, mis = self.leq_table, self._jis, self._mis
        j_star = [self._lower_covers[j][0] for j in jis]
        m_star = [self._upper_covers[m][0] for m in mis]
        outside = ~leq[np.ix_(jis, mis)]
        return outside & leq[np.ix_(jis, m_star)], outside & leq[np.ix_(j_star, mis)]

    @cached_property
    def _d_matrix(self) -> np.ndarray:
        """D over J x J: j D j' iff some m has j up-arrow m down-arrow j'."""
        up, down = self._arrows
        d = _bool_product(up, down.T)
        np.fill_diagonal(d, False)
        return d

    @cached_property
    def _double_arrows(self) -> np.ndarray:
        """|J| x |M|: j up-arrow m and m down-arrow j."""
        up, down = self._arrows
        return up & down

    def kappa_of(self, j: int) -> int | None:
        """The unique m with j up-arrow m down-arrow j, if it exists."""
        row = self._double_arrows[self._jis.index(j)]
        return self._mis[int(row.argmax())] if row.sum() == 1 else None

    def is_meet_semidistributive(self) -> bool:
        """Every join irreducible has exactly one double-arrow partner."""
        return bool((self._double_arrows.sum(axis=1) == 1).all())

    def is_join_semidistributive(self) -> bool:
        """Every meet irreducible has exactly one double-arrow partner."""
        return bool((self._double_arrows.sum(axis=0) == 1).all())

    def is_semidistributive(self) -> bool:
        return self.is_meet_semidistributive() and self.is_join_semidistributive()

    @cached_property
    def _d_longest(self) -> int | None:
        """The edge count of the longest D-path, None when D has a cycle."""
        succ = [np.flatnonzero(row).tolist() for row in self._d_matrix]
        return longest_path(succ)[0]

    def is_bounded(self) -> bool:
        """Semidistributive with an acyclic join dependency relation."""
        return self.is_semidistributive() and self._d_longest is not None

    def is_distributive(self) -> bool:
        """Every join irreducible j is join prime: j <= x v y implies j <= x
        or j <= y, that is, the elements not above j are closed under
        joins.  They always form a down-set, so j is join prime iff they
        are the ideal below some m, found by matching packed rows of the
        order.  Such an m is meet irreducible: the elements above m lie
        above j, and so does the meet of any two of them."""
        leq = self.leq_table
        ideals = {row.tobytes() for row in np.packbits(leq[:, self._mis].T, axis=1)}
        return all(row.tobytes() in ideals for row in np.packbits(~leq[self._jis], axis=1))

    # -- congruences --------------------------------------------------------

    def principal_congruence(self, u: int, w: int) -> tuple[frozenset[int], ...]:
        """Smallest congruence collapsing u and w.

        Closure of the generating pair under the translations t -> t v s,
        t -> t ^ s and transitivity, via union-find with a worklist.
        """
        parent = list(self.elements())
        work = [(u, w)]
        _union(parent, u, w)
        while work:
            a, b = work.pop()
            for t in self.elements():
                for x, y in ((self.join(a, t), self.join(b, t)),
                             (self.meet(a, t), self.meet(b, t))):
                    if _union(parent, x, y):
                        work.append((x, y))
        return _blocks(parent)

    def congruences(self) -> set[tuple[frozenset[int], ...]]:
        """All congruences: closure of the principal ones under join."""
        principals = {self.principal_congruence(u, w)
                      for u in self.elements() for w in self.elements() if u < w}
        equality = tuple(frozenset([i]) for i in self.elements())
        found = {equality} | principals
        frontier = set(principals)
        while frontier:
            new = set()
            for theta in frontier:
                for pc in principals:
                    joined = join_partitions(self.n, theta, pc)
                    if joined not in found:
                        found.add(joined)
                        new.add(joined)
            frontier = new
        return found

    def quotient_to_ji(self, x: int, y: int) -> int:
        """For a prime quotient y -< x, the minimal j with j v y = x.

        The result is join irreducible and j/j* transposes to x/y.
        """
        if y not in self.lower_covers(x):
            raise MultilatError(f"{self.labels[y]} -< {self.labels[x]} is not a prime quotient")
        cands = [z for z in self.elements() if self.join(z, y) == x]
        minimal = [z for z in cands
                   if not any(z2 != z and self.le(z2, z) for z2 in cands)]
        j = min(minimal)
        if len(self.lower_covers(j)) != 1:
            raise InternalInconsistency("minimal complement is not join irreducible")
        return j

    # -- pentagons -----------------------------------------------------------

    def pentagon_search(self) -> list["Pentagon"]:
        """Every nondegenerate pentagon: b < a and c with a v c = b v c, a ^ c = b ^ c."""
        out = []
        for a in self.elements():
            for b in self.elements():
                if a == b or not self.le(b, a):
                    continue
                for c in self.elements():
                    if self.join(a, c) == self.join(b, c) and \
                       self.meet(a, c) == self.meet(b, c):
                        out.append(Pentagon(self, a, b, c))
        return out

    def _prime_quotient_collapsing(self, target: tuple[int, int],
                                   lo: int, hi: int) -> Quotient:
        """Lex-least prime quotient u/w with lo <= w -< u <= hi collapsing target."""
        a1, b1 = target
        for w in self.elements():
            if not (self.le(lo, w) and self.le(w, hi)):
                continue
            for u in self.upper_covers(w):
                if not self.le(u, hi):
                    continue
                theta = self.principal_congruence(u, w)
                if _same_block(theta, a1, b1):
                    return (u, w)
        raise InternalInconsistency(
            f"no prime quotient in [{self.labels[lo]}, {self.labels[hi]}] "
            f"collapses ({self.labels[a1]}, {self.labels[b1]})")

    # -- SD_n machinery ------------------------------------------------------

    def sd_eval(self, x: int, y: int, z: int, n: int) -> "SdTrace":
        """The y/z sequences up to index n for one triple, with the verdict.

        ``mu`` is the number of distinct pairs of :func:`sd_sequence`: the
        least k with (y_k, z_k) = (y_{k-1}, z_{k-1}).
        """
        check_sd_level(n)
        pairs = sd_sequence(self.join, self.meet, x, y, z)
        y_seq, z_seq = zip(*(pairs[min(k, len(pairs) - 1)] for k in range(n + 1)))
        x_seq = tuple(self.join(self.meet(x, a), self.meet(x, b))
                      for a, b in zip(y_seq[:n], z_seq[:n]))
        holds = self.meet(x, y_seq[n]) == self.meet(x, self.join(y, z))
        return SdTrace(self, x, y, z, y_seq, z_seq, x_seq, len(pairs), holds)

    def sd_holds(self, n: int):
        """True if SD_n(meet) holds for all triples, else the first failing triple.

        Iterates x in index order; within an x-slice the least (y, z) is
        reported, so the witness is deterministic.  For each x the scan
        steps a_k(y, z) = x ^ y_k through one table,
        MJ_x[y, t] = x ^ (y v t): since z_k(y, z) = y_k(z, y),
        a_{k+1}(y, z) = MJ_x[y, a_k(z, y)], and the triple fails exactly
        where a_n != MJ_x, at the level of :meth:`sd_scan_level`.  After the
        first step only the unsettled pairs, a_k != MJ_x, are stepped.
        """
        n = self.sd_scan_level(n)
        # batches of x double up to _SCAN_BATCH entries, so an early
        # failure costs little and a full scan makes few numpy calls
        lo, per, most = 0, 1, max(1, _SCAN_BATCH // self.n ** 2)
        scan = _SdScan(self.join_table, self.meet_table, most)
        while lo < self.n:
            hi = min(lo + per, self.n)
            mj, steps = scan.climb(lo, hi)
            a, bad = next(itertools.islice(steps, n, None))
            if bad is None:
                bad = np.flatnonzero(a != mj)
            if bad.size:
                x, y, z = np.unravel_index(bad[0], mj.shape)
                return (lo + int(x), int(y), int(z))
            lo, per = hi, min(2 * per, most)
        return True

    def sd_verdict(self, n: int):
        """``sd_holds(n)``, certified without a scan where a D-path bound
        decides it.  In a meet-semidistributive lattice an SD_n failure
        yields a simple D-path of n edges (:meth:`dpath_from_sd_failure`),
        so when D is acyclic with longest path l, SD_n holds for n > l
        (Jipsen and Rose, *Varieties of Lattices*; Freese, Jezek and
        Nation, *Free Lattices*, ch. 2).  The refusals are the scan's."""
        self.sd_scan_level(n)
        if self.is_meet_semidistributive() and self._d_longest is not None \
                and n > self._d_longest:
            return True
        return self.sd_holds(n)

    def sd_scan_level(self, n: int) -> int:
        """The level that ``sd_holds(n)`` scans at, refused with
        :class:`CapExceeded` above SD_SCAN_CAP and with
        :class:`MultilatError` below 0.  y_k and z_k only climb, so the
        pair is stationary after 2h steps, h the length of the longest
        chain, and the scan stops there."""
        check_sd_level(n)
        if n > 2:  # below that 2h >= n unless the lattice is one element
            n = min(n, 2 * self._height)
        check_sd_scan_cap(self.n, n)
        return n

    @cached_property
    def _height(self) -> int:
        """The length of the longest chain."""
        return longest_path(self._upper_covers)[0]

    def sd_mu(self) -> int:
        """max over triples of the least n with y_{n-1} = y_n and z_{n-1} = z_n."""
        J = self.join_table
        scan = _SdScan(J, self.meet_table, 1)
        ys = np.arange(self.n)[:, None]
        worst = 1
        for x in self.elements():
            yk = np.broadcast_to(ys, (self.n, self.n))
            for k, (a, _) in enumerate(scan.climb(x, x + 1)[1]):
                yn = J[ys, a[0].T]  # y_{k+1} = y v (x ^ z_k), z_k = y_k transposed
                if np.array_equal(yn, yk):
                    worst = max(worst, k + 1)
                    break
                yk = yn
        return worst

    def dpath_from_sd_failure(self, x: int, y: int, z: int, n: int) -> list[int]:
        """Extract a simple D-path of length n from an SD_n(meet) failure.

        Walks the chain of (possibly swapped) pentagons built from the y/z
        sequences, descending through prime quotients, and converts each
        quotient to a join irreducible.  Returns the irreducibles from the
        top of the chain down, so consecutive entries are D-related.
        """
        if not self.is_meet_semidistributive():
            raise MultilatError("lattice is not meet semidistributive")
        trace = self.sd_eval(x, y, z, n)
        if trace.holds:
            raise MultilatError(f"triple is not an SD_{n} failure")

        seqs = {"y": trace.y_seq, "z": trace.z_seq}
        xk = (None,) + trace.x_seq  # xk[k] defined for k >= 1

        def central(side: str, k: int) -> tuple[int, int]:
            return (self.meet(x, seqs[side][k]), xk[k])  # (top, bottom)

        side = "y"
        if central("y", n)[0] == central("y", n)[1]:
            side = "z"
            if central("z", n)[0] == central("z", n)[1]:
                raise InternalInconsistency("both terminal pentagons degenerate")

        quots: dict[int, Quotient] = {}
        hi, lo = central(side, n)
        quots[n] = self._first_prime_quotient(lo, hi)
        for k in range(n, 0, -1):
            other = "z" if side == "y" else "y"
            # descend inside pentagon P_k to the interval [x ^ s_{k-1}, x_k]
            u, w = quots[k]
            lo_k = self.meet(x, seqs[side][k - 1])
            u1, w1 = self._prime_quotient_collapsing((u, w), lo_k, xk[k])
            if k == 1:
                quots[0] = (u1, w1)
            else:
                hi2, lo2 = central(other, k - 1)
                quots[k - 1] = self._prime_quotient_collapsing((u1, w1), lo2, hi2)
            side = other

        path = [self.quotient_to_ji(u, w) for u, w in
                (quots[i] for i in range(n, -1, -1))]
        if len(set(path)) != len(path):
            raise InternalInconsistency("extracted D-path is not simple")
        return path

    def _first_prime_quotient(self, lo: int, hi: int) -> Quotient:
        for w in self.elements():
            if not (self.le(lo, w) and self.le(w, hi)):
                continue
            for u in self.upper_covers(w):
                if self.le(u, hi):
                    return (u, w)
        raise InternalInconsistency(
            f"interval [{self.labels[lo]}, {self.labels[hi]}] has no prime quotient")

    # -- export --------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i in self.elements():
            lines.append(f'  "{self.labels[i]}";')
        for lo, hi in self.cover_pairs():
            lines.append(f'  "{self.labels[lo]}" -> "{self.labels[hi]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_cover_file(self) -> str:
        return "".join(f"{self.labels[lo]}<{self.labels[hi]}\n"
                       for lo, hi in self.cover_pairs())


@dataclass(frozen=True)
class Pentagon:
    """Elements b <= a and c with a v c = b v c and a ^ c = b ^ c."""

    lattice: FiniteLattice = field(repr=False)
    a: int
    b: int
    c: int

    @property
    def nondegenerate(self) -> bool:
        return self.a != self.b


@dataclass(frozen=True)
class SdTrace:
    """The sequences behind one SD_n(meet) evaluation."""

    lattice: FiniteLattice = field(repr=False)
    x: int
    y: int
    z: int
    y_seq: tuple[int, ...]
    z_seq: tuple[int, ...]
    x_seq: tuple[int, ...]
    mu: int
    holds: bool


# Entries gathered at once by the table fill, the D product and the SD
# scan: enough that numpy calls stay few on small lattices, few enough
# that the temporaries stay small on large ones.  The scan steps its
# arrays several times, so its batches are kept small enough to stay in
# cache.
_BATCH = 1 << 18
_SCAN_BATCH = 1 << 15


class _Ranked:
    """The elements of an order with one maximal element, renumbered by
    decreasing height, and their successors in that numbering.

    ``height`` is as given by :func:`order._heights`.  Since x < y implies
    height[x] > height[y], the new numbering (the position) is a linear
    extension, each height is a run of positions, and the successors of
    a level lie in the levels above it, which come later.  The tables are
    filled one level at a time from the top: the rows of a level, sorted
    by their number of successors, are cut into batches of about _BATCH
    gathered entries, and each batch gathers its successors' rows as one
    rows-by-d-by-columns array (a row with fewer than d successors
    repeats its last) and reduces over d.
    """

    def __init__(self, succ, height):
        n = len(succ)
        degree = np.array([len(s) for s in succ], dtype=np.intp)
        self.order = np.lexsort((degree, -np.asarray(height)))
        self.pos = np.empty(n, dtype=np.intp)
        self.pos[self.order] = np.arange(n)
        self.degree = degree[self.order]
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(self.degree, out=self.indptr[1:])
        flat = np.fromiter(itertools.chain.from_iterable(succ[x] for x in self.order.tolist()),
                           np.intp, int(self.indptr[-1]))
        self.succ = self.pos[flat]
        # (end of the level, [(first row, end row, rows-by-d successors)]),
        # from the level below the top downwards
        starts = n - np.cumsum(np.bincount(height))
        self.levels = [(hi, list(self._batches(lo, hi, n)))
                       for lo, hi in zip(starts[1:].tolist(), starts[:-1].tolist())]

    def _batches(self, lo: int, hi: int, n: int):
        degree = self.degree[lo:hi]
        while lo < hi:
            cost = np.arange(1, len(degree) + 1) * degree * n
            end = max(1, int(np.searchsorted(cost, _BATCH, "right")))
            slots = np.minimum(np.arange(degree[end - 1]), degree[:end, None] - 1)
            yield lo, lo + end, self.succ[self.indptr[lo:lo + end, None] + slots]
            lo, degree = lo + end, degree[end:]

    def order_and_covers(self):
        """``leq`` in element numbering, and each element's upper covers.

        Row x of the order is the union of its successors' rows; a
        successor covers x iff it lies strictly above no other successor.
        """
        n = len(self.order)
        le = np.eye(n, dtype=bool)
        cover = np.ones(len(self.succ), dtype=bool)
        for _, batches in self.levels:
            for r0, r1, succ in batches:
                above = le[succ]
                le[r0:r1] |= above.any(axis=1)
                if succ.shape[1] > 1:
                    rows = np.arange(r1 - r0)[:, None]
                    slots = np.arange(succ.shape[1])
                    above[rows, slots, succ] = False
                    real = slots < self.degree[r0:r1, None]
                    cover[self.indptr[r0]:self.indptr[r1]] = \
                        ~above.any(axis=1)[rows, succ][real]
        lower = self.order[np.repeat(np.arange(n), self.degree)[cover]].tolist()
        higher = self.order[self.succ[cover]].tolist()
        upper: list[list[int]] = [[] for _ in range(n)]
        for x, c in sorted(zip(lower, higher)):
            upper[x].append(c)
        return le[self.pos][:, self.pos], upper

    def join_table(self, leq: np.ndarray, labels, what: str) -> np.ndarray:
        """The join table of the order ``leq``, or the meet table of its
        dual when called on the dual order.

        Rows are filled only left of the end of their level: the other
        entries are joins with lower levels, which the transpose supplies
        at the end.  For y not below x, every common upper bound lies
        above some ``c v y`` with c a successor of x, so ``x v y`` exists
        iff the lowest of these candidates is below all the others; for
        y <= x the join is x.  Raises :class:`NotALattice` at the first
        level with a pair that has no bound, naming the least such pair
        of that level in element numbering.
        """
        n = len(self.order)
        dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        le = leq[self.order][:, self.order]
        flat = le.ravel()
        table = np.empty((n, n), dtype=dtype)
        table[n - 1] = n - 1
        for hi, batches in self.levels:
            unbound = []
            for r0, r1, succ in batches:
                cand = table[succ, :hi]
                best = cand.min(axis=1)
                ok = flat[best[:, None, :].astype(np.intp) * n + cand].all(axis=1)
                under = le[:hi, r0:r1].T
                table[r0:r1, :hi] = np.where(under, np.arange(r0, r1)[:, None], best)
                bad = ~(ok | under)
                if bad.any():
                    xs, ys = np.nonzero(bad)
                    unbound += zip(self.order[xs + r0].tolist(), self.order[ys].tolist())
            if unbound:
                a, b = min(tuple(sorted(pair)) for pair in unbound)
                raise NotALattice(f"no {what} bound for {labels[a]}, {labels[b]}")
        table = np.where(np.tri(n, dtype=bool), table, table.T)[self.pos][:, self.pos]
        return np.take(self.order.astype(dtype), table)


class _SdScan:
    """The SD_n(meet) sequences of batches of x, stepped in buffers that
    are reused from batch to batch (see :meth:`FiniteLattice.sd_holds`)."""

    def __init__(self, J: np.ndarray, M: np.ndarray, most: int):
        self.J, self.M = J.astype(np.intp), M
        self.mj = np.empty((most,) + J.shape, dtype=M.dtype)
        self.a = np.empty_like(self.mj)

    def climb(self, lo: int, hi: int):
        """MJ[i, y, t] = x_i ^ (y v t) for the x_i in [lo, hi), and an
        iterator over (a_k, unsettled_k) for k = 0, 1, ...: a_k is
        overwritten by the next, and unsettled_k holds the flat indices
        where a_k != MJ in increasing order (None for k = 0)."""
        c, n = hi - lo, len(self.M)
        mx = self.M[lo:hi]
        mj, a = self.mj[:c], self.a[:c]
        np.take(mx, self.J, axis=1, out=mj, mode="clip")

        def steps():
            yield np.broadcast_to(mx[:, :, None], mj.shape), None
            for i in range(c):  # a_1(y, z) = MJ[y, a_0(z, y)] = MJ[y, x ^ z]
                np.take(mj[i], mx[i], axis=1, out=a[i], mode="clip")
            act = np.flatnonzero(a != mj)
            yield a, act
            # an unsettled entry (i, y, z) reads MJ at i n^2 + y n + a(i, z, y)
            flat_mj, flat_a = mj.reshape(-1), a.reshape(-1)
            z = act % n
            base = act - z
            tr = base // n % n
            np.subtract(z, tr, out=tr)
            tr *= n - 1
            tr += act
            top = flat_mj[act]
            while True:
                new = flat_mj.take(base + flat_a[tr], mode="clip")
                flat_a[act] = new
                keep = new != top
                act, base, tr, top = act[keep], base[keep], tr[keep], top[keep]
                yield a, act

        return mj, steps()


def join_partitions(n: int, p1, p2) -> tuple[frozenset[int], ...]:
    parent = list(range(n))
    for part in (p1, p2):
        for block in part:
            items = sorted(block)
            for a, b in zip(items, items[1:]):
                _union(parent, a, b)
    return _blocks(parent)


def _same_block(theta, a: int, b: int) -> bool:
    return any(a in block and b in block for block in theta)


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product, out[i, k] = any over j of a[i, j] & b[j, k]:
    row i is the OR of the rows of b that row i of a selects, packed eight
    columns to a byte and gathered a few rows of a at a time."""
    packed = np.packbits(b, axis=1)
    out = np.zeros((len(a), packed.shape[1]), dtype=np.uint8)
    per = max(1, _BATCH // max(1, a.shape[1] * packed.shape[1]))
    for lo in range(0, len(a), per):
        rows, cols = np.nonzero(a[lo:lo + per])
        if rows.size:
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            out[lo + rows[starts]] = np.bitwise_or.reduceat(packed[cols], starts)
    return np.unpackbits(out, axis=1, count=b.shape[1]).astype(bool)


# -- fixtures ----------------------------------------------------------------

def chain(n: int) -> FiniteLattice:
    """The n-element chain c0 < c1 < ... (n >= 1)."""
    if n < 1:
        raise MultilatError("chain needs at least one element")
    width = len(str(n - 1))
    labels = [f"c{i:0{width}d}" for i in range(n)]
    return FiniteLattice.from_covers(
        [(i, i + 1) for i in range(n - 1)], labels=labels)


def boolean_lattice(n: int) -> FiniteLattice:
    """The Boolean lattice of subsets of {0..n-1}."""
    labels = [format(s, f"0{max(n, 1)}b") for s in range(1 << n)]
    covers = [(s, s | (1 << b))
              for s in range(1 << n) for b in range(n) if not s & (1 << b)]
    return FiniteLattice.from_covers(covers, labels=labels)


def m3() -> FiniteLattice:
    return FiniteLattice.from_covers(
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")])


def n5() -> FiniteLattice:
    return FiniteLattice.from_covers(
        [("0", "b"), ("b", "a"), ("a", "1"), ("0", "c"), ("c", "1")])


def benzene() -> FiniteLattice:
    """The hexagon: the permutations of {1,2,3} under the weak Bruhat order."""
    return FiniteLattice.from_covers(
        [("123", "213"), ("123", "132"), ("213", "231"),
         ("132", "312"), ("231", "321"), ("312", "321")])


FIXTURES = {
    "n5": n5,
    "m3": m3,
    "benzene": benzene,
}


def parse_cover_file(text: str) -> FiniteLattice:
    """Cover-list format: one 'lower<upper' per line, '#' starts a comment;
    more than DEFAULT_SIZE_CAP labels are refused before any table is built."""
    covers = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lo, sep, hi = line.partition("<")
        if not sep or not lo or not hi:
            raise MultilatError(f"line {lineno}: expected 'lower<upper', got {raw!r}")
        covers.append((lo.strip(), hi.strip()))
        names.update(covers[-1])
    if len(names) > DEFAULT_SIZE_CAP:
        raise CapExceeded(f"cover file has {len(names)} elements, over the "
                          f"materialization cap {DEFAULT_SIZE_CAP}")
    return FiniteLattice.from_covers(covers)
