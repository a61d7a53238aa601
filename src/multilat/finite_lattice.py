"""Explicit finite lattices: tables, irreducibles, the join dependency D,
prime quotients, and the SD_n(meet) equation machinery.

Elements are integer indices into a label list.  The order relation and
the join/meet tables are dense numpy arrays, which keeps exhaustive
triple scans fast enough at desk scale.  This is the only module that
imports numpy; the pure-Python helpers it shares with the other layers
(the Kahn peel, the SD_n sequence walk and the caps) live in
:mod:`multilat.order`, and the other layers import this module only
inside the functions that build a lattice.

The build fills the order from (lower, upper) pairs of indices into the
labels, the cover list of :mod:`multilat.order`, in O(n^2 d) time, d the
largest number of successors given for one element (Freese, Jezek and
Nation, *Free Lattices*, ch. 11): after one Kahn peel, each row ``leq[x]``
is the union of its successors' rows, a height level at a time from the
top.  The covers are the successors above no other successor, and when
every successor lies one level up (a graded order given by its covers, as
L(v)) they are the successors as given.  The build then certifies the
lattice from the order alone (:meth:`FiniteLattice.from_covers`).

Both tables are filled on first read, the same way and untested:
``x v y`` for incomparable x, y is the least of the joins ``c v y`` over
the successors ``c`` of x, a level at a time from the top, and the table
is renumbered to element order a batch of rows at a time.  The meet table
is the join table of the dual order, or, given an order-reversing
involution r that the build certifies on the covers (word reversal in
L(v)), x ^ y = r(r x v r y).  Tables hold int16 indices (int32 above 32,767).

SD_n(meet) is scanned one batch of x at a time through the table
MJ_x[y, t] = x ^ (y v t).  The z sequence is the transpose of the y
sequence, z_k(y, z) = y_k(z, y), so a_k(y, z) = x ^ y_k obeys
a_0(y, z) = x ^ y and a_{k+1}(y, z) = MJ_x[y, a_k(z, y)], and SD_n fails
at (x, y, z) exactly where a_n(y, z) != MJ_x[y, z].  The first step is one
gather over all pairs; later steps gather only the unsettled pairs, where
a_k != MJ_x: a_k only climbs towards MJ_x, so a settled value is final.
A batch's scan returns its failing triples, in increasing order.  In a
meet-semidistributive lattice a failure at x needs a D-walk of n edges
among the join irreducibles below x, so a large scan steps those x first
(:meth:`FiniteLattice.sd_holds`).

The arrow relations, kappa and semidistributivity are boolean operations
on rows of the order indexed by the join and meet irreducibles and their
unique covers, and the join dependency D, j D j' iff j up-arrow m
down-arrow j' for some m, is one boolean matrix product of the arrow tables;
the lattice is distributive iff D is empty.  They also give the SD level of a
meet-semidistributive lattice without a scan: an SD_n failure there yields
a simple D-path of n edges (:meth:`FiniteLattice.dpath_from_sd_failure`),
so when D is acyclic with longest path l, SD_n holds for every n > l
(:meth:`FiniteLattice.sd_verdict`).  Congruences are read off the
reflexive transitive closure D*: the congruence generated by one prime
quotient collapses another iff their join irreducibles are D*-related,
which is how the extraction descends through the pentagons.
"""

from __future__ import annotations

import bisect
import itertools
from functools import cached_property

import numpy as np

from .errors import InternalInconsistency, MultilatError, NotALattice
from .order import (_cycle_pair, _heights, check_sd_level, cover_file, dag_heights,
                    parse_cover_file, sd_scan_refusal, sd_scan_room, sd_sequence)

Quotient = tuple[int, int]  # (upper, lower) with lower <= upper


class FiniteLattice:
    """A finite lattice given by its cover relation.

    Construct through :meth:`from_covers`, which validates that the
    transitive closure of the covers is a lattice order.
    """

    def __init__(self, labels, leq, upper_covers, height):
        self.labels: list[str] = list(labels)
        self.leq_table: np.ndarray = leq      # leq_table[i, j] == (i <= j)
        self.height: int = height             # steps of the longest chain
        self._flip = None                     # a certified order-reversing involution
        self._build = None                    # (_Ranked, its order) until the join fill
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
    def from_covers(cls, covers, labels, flip=None) -> "FiniteLattice":
        """Build and validate a lattice from (lower, upper) pairs of indices
        into ``labels``, the shape :func:`order.parse_cover_file` reads.
        The pairs need only generate the order: duplicate, transitive and
        reflexive pairs are allowed, and the true covers are recovered.
        Raises :class:`NotALattice` on a cycle, on more than one minimal or
        maximal element, and on a pair without a least upper bound (the
        least such pair among those with an element of least height).  No
        meet needs checking: a finite order with a least element and all
        binary joins is a lattice.

        :func:`_certified_order` fills ``leq`` and the covers and certifies
        the joins by this lemma: a finite order with a least element is a
        lattice iff every two upper covers of a common element have a
        join, which needs no table (:func:`_covers_join`).  Suppose every
        such pair has one, but some pair does not; take a pair x, y without
        a join and a common lower bound z of it such that no pair without a
        join has a common lower bound above z.  x and y are incomparable, so
        z lies under covers x' <= x and y' <= y of z, which differ (else x'
        would be a common lower bound above z), so w = x' v y' exists.  x
        and w share x' > z, so u = x v w exists; u and y share y' > z, so
        u v y exists, and it is x v y, since every common upper bound of x
        and y lies above x', y', so w, and x, so u.  When the certificate
        fails, the join fill tests each level as it fills it, to name the pair.

        ``flip[i]``, when given, is the image of element i under an
        order-reversing involution, through which :attr:`meet_table` is
        read.  It is certified in O(covers), as the order is the transitive
        closure of its covers: an involution that sends every cover lo -< hi
        to a cover flip[hi] -< flip[lo] reverses the order.
        :class:`InternalInconsistency` if it does not.
        """
        up, le, upper_covers, height = _certified_order(covers, labels)
        lattice = cls(labels, _renumbered(le, up.pos), upper_covers, height)
        lattice._build = up, le
        if flip is not None:
            r, ident = np.asarray(flip, dtype=np.intp), np.arange(lattice.n)
            lo = np.repeat(ident, [len(ups) for ups in lattice._upper_covers])
            hi = np.fromiter(itertools.chain(*lattice._upper_covers), np.intp, lo.size)
            if not np.array_equal(np.sort(r), ident) or not np.array_equal(r[r], ident) \
                    or not np.array_equal(np.sort(r[hi] * r.size + r[lo]), lo * r.size + hi):
                raise InternalInconsistency("the map given is not an order-reversing involution")
            lattice._flip = r
        return lattice

    @cached_property
    def join_table(self) -> np.ndarray:
        """The join table, filled on first read by :meth:`_Ranked.join_table`
        from the build's ranking and order, which are then dropped."""
        (up, le), self._build = self._build, None
        return up.join_table(le)

    @cached_property
    def meet_table(self) -> np.ndarray:
        """The meet table, filled on first read.  Through a certified flip r
        it is read off the join table, x ^ y = r(r x v r y); otherwise it
        is the join table of the dual order, filled by
        :meth:`_Ranked.join_table` from the bottom over the lower covers."""
        if self._flip is not None:
            r = self._flip
            return _renumbered(self.join_table, r, r.astype(self.join_table.dtype))
        down = _Ranked(self._lower_covers, _heights(self._lower_covers, self._upper_covers))
        return down.join_table(_renumbered(self.leq_table.T, down.order))

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(self.n)

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

    def lower_covers(self, i: int) -> list[int]:
        return self._lower_covers[i]

    def upper_covers(self, i: int) -> list[int]:
        return self._upper_covers[i]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """(lower, upper) cover pairs, lexicographic by index."""
        return [(i, j) for i in self.elements() for j in self.upper_covers(i)]

    def dual(self) -> "FiniteLattice":
        """The order dual, sharing labels."""
        dual = FiniteLattice(self.labels, self.leq_table.T, self._lower_covers, self.height)
        dual.join_table, dual.meet_table = self.meet_table, self.join_table
        return dual

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

    def bruteforce_D(self) -> list[tuple[int, int]]:
        """Join dependency: j D j' iff j != j' and j up-arrow m down-arrow j';
        sorted, as ``np.nonzero`` walks rows of the ascending J in order."""
        jis = np.array(self._jis, dtype=np.intp)
        a, b = np.nonzero(self._d_matrix)
        return list(zip(jis[a].tolist(), jis[b].tolist()))

    @cached_property
    def _arrows(self) -> tuple[np.ndarray, np.ndarray]:
        """(up, down), |J| x |M| tables over the join irreducibles J and the
        meet irreducibles M in index order: up[a, b] = J[a] up-arrow M[b]
        and down[a, b] = M[b] down-arrow J[a].  Both need J[a] not below
        M[b]; up adds J[a] <= M[b]*, down adds J[a]_* <= M[b]."""
        leq, jis, mis = self.leq_table, self._jis, self._mis
        j_star = [self._lower_covers[j][0] for j in jis]
        m_star = [self._upper_covers[m][0] for m in mis]
        rows = leq[jis]
        outside = ~rows[:, mis]
        return outside & rows[:, m_star], outside & leq[j_star][:, mis]

    @cached_property
    def _d_matrix(self) -> np.ndarray:
        """D over J x J: j D j' iff some m has j up-arrow m down-arrow j', the
        boolean matrix product of the arrow tables."""
        up, down = self._arrows
        d = _bool_product(up, down.T)
        np.fill_diagonal(d, False)
        return d

    @cached_property
    def _d_star(self) -> np.ndarray:
        """D* over J x J, the reflexive transitive closure of D (Warshall):
        j D* j' iff con(j, j_*) <= con(j', j'_*) (Freese, Jezek and Nation,
        *Free Lattices*, ch. 2)."""
        reach = self._d_matrix | np.eye(len(self._jis), dtype=bool)
        for k in range(len(reach)):
            reach |= reach[:, k, None] & reach[k]
        return reach

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
        a, b = np.nonzero(self._d_matrix)
        ends, b = np.searchsorted(a, np.arange(len(self._jis) + 1)).tolist(), b.tolist()
        height, on_cycle = dag_heights([b[s:e] for s, e in zip(ends, ends[1:])])
        return max(height, default=0) if on_cycle is None else None

    def is_bounded(self) -> bool:
        """Semidistributive with an acyclic join dependency relation."""
        return self.is_semidistributive() and self._d_longest is not None

    def is_distributive(self) -> bool:
        """D is empty.  A finite lattice is distributive iff every join
        irreducible is join prime, and j is join prime iff it has no
        D-successor: a nontrivial join cover of j refines to a minimal one,
        whose members are D-successors of j (Freese, Jezek and Nation,
        *Free Lattices*, ch. 2)."""
        return not self._d_matrix.any()

    # -- prime quotients -----------------------------------------------------

    def quotient_to_ji(self, x: int, y: int) -> int:
        """For a prime quotient y -< x, the minimal j with j v y = x.

        The result is join irreducible and j/j* transposes to x/y.
        """
        if y not in self.lower_covers(x):
            raise MultilatError(f"{self.labels[y]} -< {self.labels[x]} is not a prime quotient")
        cands = np.flatnonzero(self.join_table[:, y] == x)
        # a candidate is minimal when it is the only one below itself
        j = int(cands[self.leq_table[np.ix_(cands, cands)].sum(axis=0) == 1][0])
        if len(self.lower_covers(j)) != 1:
            raise InternalInconsistency("minimal complement is not join irreducible")
        return j

    def _prime_quotient_collapsing(self, target: tuple[int, int],
                                   lo: int, hi: int) -> Quotient:
        """Lex-least prime quotient u/w with lo <= w -< u <= hi collapsing
        the prime quotient target: con(u, w) collapses a/b iff t D* j, with
        t and j the join irreducibles the two quotients transpose to."""
        a1, b1 = target
        reach = self._d_star[self._jis.index(self.quotient_to_ji(a1, b1))]
        for u, w in self._prime_quotients(lo, hi):
            if reach[self._jis.index(self.quotient_to_ji(u, w))]:
                return (u, w)
        raise InternalInconsistency(
            f"no prime quotient in [{self.labels[lo]}, {self.labels[hi]}] "
            f"collapses ({self.labels[a1]}, {self.labels[b1]})")

    def _prime_quotients(self, lo: int, hi: int):
        """The prime quotients u/w with lo <= w -< u <= hi, as (u, w),
        lexicographic on (w, u)."""
        inside = self.leq_table[lo] & self.leq_table[:, hi]
        for w in np.flatnonzero(inside).tolist():
            for u in self._upper_covers[w]:
                if inside[u]:
                    yield u, w

    # -- SD_n machinery ------------------------------------------------------

    def sd_holds(self, n: int):
        """True if SD_n(meet) holds for all triples, else the least failing triple.

        For each x the scan steps a_k(y, z) = x ^ y_k through one table,
        MJ_x[y, t] = x ^ (y v t): since z_k(y, z) = y_k(z, y),
        a_{k+1}(y, z) = MJ_x[y, a_k(z, y)], and the triple fails exactly
        where a_n != MJ_x, at the level of :func:`order.sd_scan_room`.
        After the first step only the unsettled pairs, a_k != MJ_x, are
        stepped.  Each x is stepped over every (y, z), and
        :meth:`_SdScan.failures` lists a batch's failing triples in
        increasing order, so the first failing x stepped gives the least
        triple at that x.  A True verdict steps every x.

        Small scans, and those of a lattice that is not meet
        semidistributive, step x in index order.  Otherwise the scan
        steps first the x where SD_n can fail.  Lemma (Jipsen and Rose,
        *Varieties of Lattices*; Freese, Jezek and Nation, *Free
        Lattices*, ch. 2): in a meet-semidistributive lattice, a failure
        at x yields a D-path of n edges whose join irreducibles all lie
        below x.  Proof sketch: :meth:`dpath_from_sd_failure` builds the
        path from such a failure; each link is ``quotient_to_ji(u, w)``
        of a prime quotient w -< u inside an interval topped by x ^ y_k,
        x ^ z_k or x_k = (x ^ y_{k-1}) v (x ^ z_{k-1}), each below x, and
        that join irreducible lies below u.  So every failing x lies in
        C_n, the x whose join irreducibles below x carry a D-walk of n
        edges (:meth:`_sd_candidates`; a path is a walk, so no
        acyclicity is needed).  The scan steps an index-order prefix of
        about one pass's cost (_PASS_STEPS), then the candidates above
        it in index order, then the rest: the first failing x it meets
        is the least one.  The pass is taken only by scans of at least
        _ORDERED_SCAN steps, so that a holding scan pays little for it,
        and the prefix and the candidates read only their own rows of
        the meet table (:meth:`_meet_rows`), which the rest fills.

        SD_SCAN_CAP bounds the x stepped.  Past it, the candidates are
        found before any table is filled; the first ones the cap admits
        are stepped, and the scan is refused, as a scan of every x, when
        they do not fail.
        """
        size = self.n
        level, room = sd_scan_room(size, self.height, n)
        # batches of x double up to _SCAN_BATCH entries, so an early
        # failure costs little and a full scan makes few numpy calls
        most, scan = max(1, _SCAN_BATCH // size ** 2), None
        for xs in self._sd_batches(level, room, most):
            if scan is None:
                scan = _SdScan(self.join_table, self._meet_rows, most)
            bad = scan.failures(xs, level)
            if bad.size:
                i, y, z = np.unravel_index(bad[0], (len(xs), size, size))
                return int(xs[i]), int(y), int(z)
        return True

    def _sd_batches(self, level: int, room: int, most: int):
        """The x that :meth:`sd_holds` steps, in batches of up to ``most``,
        and its refusals: every x in index order, or, for a large scan or
        one past the cap of a meet-semidistributive lattice, the prefix,
        the candidates above it and the rest."""
        size = self.n
        steps = size ** 2 * (level + 1)  # for one x
        ordered = (room < size or size * steps >= _ORDERED_SCAN) \
            and self.is_meet_semidistributive()
        if room < size and not ordered:
            raise sd_scan_refusal(size, level)
        if not ordered:
            self.meet_table  # every row is read
            yield from _doubling(np.arange(size), most)
            return
        lo = 0 if room < size else min(size, -(-_PASS_STEPS // steps))
        yield from _doubling(np.arange(lo), most)
        cands = self._sd_candidates(level)
        cands = cands[cands >= lo]
        if room < size:
            if not cands.size:
                raise sd_scan_refusal(size, level)
            yield from _doubling(cands[:room], most)
            raise sd_scan_refusal(size, level)
        yield from _doubling(cands, most)
        rest = np.ones(size, dtype=bool)
        rest[:lo] = False
        rest[cands] = False
        self.meet_table  # every other row is read
        yield from _doubling(np.flatnonzero(rest), most)

    def _sd_candidates(self, level: int) -> np.ndarray:
        """C_level, ascending: the x whose join irreducibles below x carry
        a D-walk of ``level`` edges.  W_0[j, x] = (j <= x) and
        W_{k+1} = (D W_k) & W_0, a boolean product each; x is in C_level
        iff column x of W_level has a True.  The rows of W are packed
        eight columns to a byte."""
        below = np.packbits(self.leq_table[self._jis], axis=1)
        walk = below
        for _ in range(level):
            if not walk.any():
                break
            walk = _or_rows(self._d_matrix, walk) & below
        return np.flatnonzero(np.unpackbits(np.bitwise_or.reduce(walk, axis=0), count=self.n))

    def _meet_rows(self, xs: np.ndarray) -> np.ndarray:
        """Rows ``xs`` of :attr:`meet_table`, read from it once it is
        filled, and otherwise computed for these x alone: through the
        flip r, x ^ y = r(r x v r y) is one row of the join table;
        without one, x ^ y is the common lower bound of x and y with the
        most elements below it."""
        if "meet_table" in self.__dict__:
            return self.meet_table[xs]
        join = self.join_table
        if self._flip is not None:
            r = self._flip
            return r.astype(join.dtype).take(join[r[xs]][:, r])
        leq, out = self.leq_table, np.empty((len(xs), self.n), dtype=join.dtype)
        for i, x in enumerate(xs.tolist()):
            lower = np.flatnonzero(leq[:, x])
            lower = lower[np.argsort(-self._lower_sizes[lower], kind="stable")]
            out[i] = lower[leq[lower].argmax(axis=0)]
        return out

    @cached_property
    def _lower_sizes(self) -> np.ndarray:
        """The number of elements below each element, itself included."""
        return self.leq_table.sum(axis=0)

    def sd_verdict(self, n: int):
        """``sd_holds(n)``, certified without a scan where a D-path bound
        decides it.  In a meet-semidistributive lattice an SD_n failure
        yields a simple D-path of n edges (:meth:`dpath_from_sd_failure`),
        so when D is acyclic with longest path l, SD_n holds for n > l
        (Jipsen and Rose, *Varieties of Lattices*; Freese, Jezek and
        Nation, *Free Lattices*, ch. 2).  Only a scan that runs meets the
        scan cap: a level the certificate decides is answered at any size."""
        check_sd_level(n)
        if self.is_meet_semidistributive() and self._d_longest is not None \
                and n > self._d_longest:
            return True
        return self.sd_holds(n)

    def dpath_from_sd_failure(self, x: int, y: int, z: int, n: int) -> list[int]:
        """Extract a simple D-path of length n from an SD_n(meet) failure.

        Walks the chain of (possibly swapped) pentagons built from the y/z
        sequences of :func:`order.sd_sequence`, held at their last pair up
        to index n, descending through prime quotients, and converts each
        quotient to a join irreducible.  Returns the irreducibles from the
        top of the chain down, so consecutive entries are D-related.
        """
        if not self.is_meet_semidistributive():
            raise MultilatError("lattice is not meet semidistributive")
        check_sd_level(n)
        pairs = sd_sequence(self.join, self.meet, x, y, z, n)
        pairs += pairs[-1:] * (n + 1 - len(pairs))
        if self.meet(x, pairs[n][0]) == self.meet(x, self.join(y, z)):
            raise MultilatError(f"triple is not an SD_{n} failure")

        seqs = dict(zip("yz", zip(*pairs)))
        # xk[k] = (x ^ y_{k-1}) v (x ^ z_{k-1}), defined for k >= 1
        xk = [None] + [self.join(self.meet(x, a), self.meet(x, b)) for a, b in pairs[:n]]

        def central(side: str, k: int) -> tuple[int, int]:
            return (self.meet(x, seqs[side][k]), xk[k])  # (top, bottom)

        side = "y"
        if central("y", n)[0] == central("y", n)[1]:
            side = "z"
            if central("z", n)[0] == central("z", n)[1]:
                raise InternalInconsistency("both terminal pentagons degenerate")

        hi, lo = central(side, n)  # lo < hi, so the interval has a prime quotient
        quots: dict[int, Quotient] = {n: next(self._prime_quotients(lo, hi))}
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
        return cover_file(self.labels, self.cover_pairs())


# Entries gathered at once by the table fill, the renumbering and the D
# product, and bytes of packed rows by the certificate: enough that numpy
# calls stay few on small lattices, few enough that the temporaries stay
# small on large ones.  The SD scan steps its arrays several times, so its
# batches are kept small enough to stay in cache.  A packed row's first set
# column lies _LEADING_ZEROS[b] bits into its first nonzero byte b.
_BATCH = 1 << 18
_SCAN_BATCH = 1 << 15
# SD scan steps (x times N^2 pairs times level + 1) that cost about one
# candidate pass of FiniteLattice._sd_candidates, which is the index-order
# prefix of an ordered scan; a scan takes the pass only if it has at least
# 20 times as many, so that a holding scan pays at most about 5% for it.
_PASS_STEPS = 200_000
_ORDERED_SCAN = 20 * _PASS_STEPS
_LEADING_ZEROS = np.array([8 - v.bit_length() for v in range(256)], dtype=np.intp)


def _certified_order(covers, labels):
    """The build of :meth:`FiniteLattice.from_covers`, with its refusals:
    (the :class:`_Ranked` elements, their order in position numbering, the
    upper covers, the height of the longest chain).  Kahn's peel of the
    maximal elements gives each element's height, -1 on or below a cycle;
    :class:`_Ranked` fills the order level by level from the top, and
    :func:`_covers_join` certifies it."""
    n = len(labels)
    if n == 0:
        raise NotALattice("empty element set")

    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in sorted({(lo, hi) for lo, hi in covers if lo != hi}):
        succ[lo].append(hi)
        pred[hi].append(lo)

    height = _heights(succ, pred)
    if -1 in height:
        a, b = _cycle_pair(succ, pred, {i for i in range(n) if height[i] < 0})
        raise NotALattice(f"cycle through {labels[a]} and {labels[b]}")
    for kind, nbrs in (("minimal", pred), ("maximal", succ)):
        ends = [i for i in range(n) if not nbrs[i]]
        if len(ends) != 1:
            raise NotALattice(f"{len(ends)} {kind} elements: "
                              + ", ".join(labels[i] for i in ends))

    up = _Ranked(succ, height)
    le, cover, upper_covers = up.order_and_covers(succ)
    if not _covers_join(le, np.repeat(np.arange(n), up.degree)[cover], up.succ[cover]):
        up._fill(le, labels)
        raise InternalInconsistency("the co-cover certificate refused a lattice")
    return up, le, upper_covers, max(height)


class _Ranked:
    """The elements of an order with one maximal element, renumbered by
    decreasing height, and their successors in that numbering.

    ``height`` is the peel of :func:`order._heights`, of the order or of
    its dual: x < y implies height[x] > height[y], and only the maximal
    element has height 0.  So the new numbering (the position) is
    a linear extension, each height is a run of positions, and the
    successors of a level lie in the levels above it, which come later.
    The tables are filled one level at a time from the top: the rows of a
    level, sorted by their number of successors, are cut into batches of
    about _BATCH gathered entries, and each batch gathers its successors'
    rows as one rows-by-d-by-columns array and reduces over d.
    """

    def __init__(self, succ, height):
        n = len(succ)
        height = np.asarray(height)
        degree = np.array([len(s) for s in succ], dtype=np.intp)
        self.order = np.lexsort((degree, -height))
        self.pos = np.empty(n, dtype=np.intp)
        self.pos[self.order] = np.arange(n)
        self.height = height[self.order]
        self.degree = degree[self.order]
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(self.degree, out=self.indptr[1:])
        flat = np.fromiter(itertools.chain.from_iterable(succ[x] for x in self.order.tolist()),
                           np.intp, int(self.indptr[-1]))
        self.succ = self.pos[flat]
        # Each level, from the one below the top downwards, is cut into
        # batches of rows [r0, r1) with d = degree[r1 - 1] successors each
        # (the largest in the batch) and (r1 - r0) d n <= _BATCH unless
        # r1 = r0 + 1, in Python ints: within a level the cost grows with r1.
        deg, most = self.degree.tolist(), _BATCH // n
        sizes = np.bincount(height).tolist()
        cuts, hi = [], n - sizes[0]
        for size in sizes[1:]:
            r0, batches = hi - size, []
            while r0 < hi:
                fit = bisect.bisect_right(range(r0 + 1, hi + 1), most,
                                          key=lambda r1, r0=r0: (r1 - r0) * deg[r1 - 1])
                batches.append((r0, r0 + max(1, fit)))
                r0 = batches[-1][1]
            cuts.append((hi, batches))
            hi -= size
        # One gather lays every batch out as a rows-by-d block, the rows
        # below the top in order: a row with fewer than d successors
        # repeats its last.  The blocks add up to the entries the batches
        # gather at once anyway.
        spans = sorted(b for _, batches in cuts for b in batches)
        width = np.repeat(np.array([deg[r1 - 1] for _, r1 in spans], dtype=np.intp),
                          [r1 - r0 for r0, r1 in spans])
        start = np.zeros(n, dtype=np.intp)
        np.cumsum(width, out=start[1:])
        first = np.repeat(self.indptr[:n - 1] - start[:n - 1], width)
        last = np.repeat(self.indptr[1:n] - 1, width)
        padded = self.succ[np.minimum(np.arange(int(start[-1])) + first, last)]
        at = start.tolist()
        # (end of the level, [(first row, end row, rows-by-d successors)])
        self.levels = [(hi, [(r0, r1, padded[at[r0]:at[r1]].reshape(r1 - r0, deg[r1 - 1]))
                             for r0, r1 in batches])
                       for hi, batches in cuts]

    def order_and_covers(self, succ):
        """The order in position numbering, the mask of the successors in
        ``self.succ`` that are covers, and each element's upper covers in
        element numbering, given ``succ``, the successors in element
        numbering, each list ascending.

        Row x of the order is the union of its successors' rows; a
        successor covers x iff it lies strictly above no other successor.
        When every successor lies one level up, as in a graded order given
        by its covers (L(v), a chain, M_k), none lies above another, since
        that would climb two levels: ``succ`` are the covers, and no cover
        is looked for.
        """
        n = len(self.order)
        le = np.eye(n, dtype=bool)
        cover = np.ones(len(self.succ), dtype=bool)
        graded = bool((np.repeat(self.height, self.degree) == self.height[self.succ] + 1).all())
        for _, batches in self.levels:
            for r0, r1, block in batches:
                above = le[block]
                le[r0:r1] |= above.any(axis=1)
                if not graded and block.shape[1] > 1:
                    rows = np.arange(r1 - r0)[:, None]
                    slots = np.arange(block.shape[1])
                    above[rows, slots, block] = False
                    real = slots < self.degree[r0:r1, None]
                    cover[self.indptr[r0]:self.indptr[r1]] = \
                        ~above.any(axis=1)[rows, block][real]
        if graded:
            return le, cover, succ
        lower = self.order[np.repeat(np.arange(n), self.degree)[cover]].tolist()
        higher = self.order[self.succ[cover]].tolist()
        upper: list[list[int]] = [[] for _ in range(n)]
        for x, c in sorted(zip(lower, higher)):
            upper[x].append(c)
        return le, cover, upper

    def join_table(self, le: np.ndarray) -> np.ndarray:
        """The join table, in element numbering, of the lattice order ``le``
        given in position numbering, filled by :meth:`_fill` with no entry
        tested: the order is certified, or is the dual of one."""
        table = self._fill(le)
        return _renumbered(table, self.pos, self.order.astype(table.dtype))

    def _fill(self, le: np.ndarray, labels=None) -> np.ndarray:
        """The join table of the order ``le``, both in position numbering.

        Each batch writes its rows left of the end of their level and the
        same block transposed into their columns: the other entries of a
        row are joins with higher levels, which those levels' batches
        write, and the top's row and column are set first.  For y not
        below x, every common upper bound lies above some ``c v y`` with c
        a successor of x, and the entry is the lowest of these candidates;
        for y <= x it is x.  So every entry is a common upper bound, and in
        a lattice the entry is the join: x v y = c v y for a cover c of x
        below x v y.  With ``labels``, each level is tested as it is
        filled: a pair has a least upper bound iff the lowest candidate is
        below all the others, and :class:`NotALattice` names the least pair
        without one, in element numbering, of the first level that has one.
        """
        n = len(self.order)
        dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        flat = le.ravel()
        table = np.empty((n, n), dtype=dtype)
        table[n - 1] = table[:, n - 1] = n - 1
        for hi, batches in self.levels:
            unbound = []
            for r0, r1, succ in batches:
                cand = table[succ, :hi]
                best = cand.min(axis=1)
                under = le[:hi, r0:r1].T
                block = np.where(under, np.arange(r0, r1, dtype=dtype)[:, None], best)
                table[r0:r1, :hi] = block
                table[:hi, r0:r1] = block.T
                if labels is not None:
                    ok = flat[best[:, None, :].astype(np.intp) * n + cand].all(axis=1)
                    bad = ~(ok | under)
                    if bad.any():
                        xs, ys = np.nonzero(bad)
                        a, b = self.order[xs + r0], self.order[ys]
                        unbound.append(int((np.minimum(a, b) * n + np.maximum(a, b)).min()))
            if unbound:
                a, b = divmod(min(unbound), n)
                raise NotALattice(f"no least upper bound for {labels[a]}, {labels[b]}")
        return table


def _covers_join(le: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> bool:
    """Whether every two upper covers c1, c2 of a common element have a
    join in ``le``, an order with a greatest element numbered by a linear
    extension, given its cover pairs lower -< upper sorted by lower: the
    certificate of :meth:`FiniteLattice.from_covers`, whose lemma says that
    it holds iff ``le`` is a lattice order.  The join can only be m, the
    first of the common upper bounds, as the others that lie above it come
    later; so the test is up(c1) & up(c2) <= up(m), on packed rows of ``le``.

    Covers of one element with the same only upper cover u join at u, and
    share with any other cover the upper bounds of u, so one of them is
    tested (a fan of d atoms is not d(d-1)/2 pairs).  The pairs are laid
    out a run of first covers at a time, about _BATCH bytes of rows each.
    """
    n = len(le)
    key = np.arange(n, 2 * n)  # a cover's only upper cover, else n + itself
    only = np.bincount(lower, minlength=n)[lower] == 1
    key[lower[only]] = upper[only]
    keep = np.unique(lower * 2 * n + key[upper], return_index=True)[1]
    lower, upper = lower[keep], upper[keep]
    later = np.cumsum(np.bincount(lower, minlength=n))[lower] - np.arange(len(lower)) - 1
    done = np.cumsum(later)  # the pairs whose first cover is this slot or before it
    rows = np.packbits(le, axis=1)
    per, s0 = max(1, _BATCH // rows.shape[1]), 0
    while s0 < len(upper):
        start = done[s0] - later[s0]
        s1 = max(s0 + 1, int(np.searchsorted(done, start + per, side="right")))
        first = np.repeat(np.arange(s0, s1), later[s0:s1])
        second = first + 1 + np.arange(first.size) \
            - np.repeat(done[s0:s1] - later[s0:s1] - start, later[s0:s1])
        both = rows.take(upper[first], axis=0) & rows.take(upper[second], axis=0)
        byte = (both != 0).argmax(axis=1)  # the first common upper bound's byte
        m = 8 * byte + _LEADING_ZEROS.take(both[np.arange(len(both)), byte])
        if (both & ~rows.take(m, axis=0)).any():
            return False
        s0 = s1
    return True


class _SdScan:
    """The SD_n(meet) sequences of batches of x, stepped in buffers that
    are reused from batch to batch (see :meth:`FiniteLattice.sd_holds`),
    given the join table and ``rows``, which reads the rows of the meet
    table of a batch of x."""

    def __init__(self, J: np.ndarray, rows, most: int):
        self.J, self.rows = J.astype(np.intp), rows
        self.mj = np.empty((most,) + J.shape, dtype=J.dtype)
        self.a = np.empty_like(self.mj)

    def failures(self, xs: np.ndarray, level: int) -> np.ndarray:
        """The flat indices (i, y, z), in increasing order, of the triples
        (xs[i], y, z) where SD_level(meet) fails: a_level != MJ, with
        MJ[i, y, t] = xs[i] ^ (y v t)."""
        c, n = len(xs), len(self.J)
        mx = self.rows(xs)
        mj, a = self.mj[:c], self.a[:c]
        mx.take(self.J, axis=1, out=mj, mode="clip")
        if level == 0:  # a_0(y, z) = x ^ y
            return np.flatnonzero(mx[:, :, None] != mj)
        for i in range(c):  # a_1(y, z) = MJ[y, a_0(z, y)] = MJ[y, x ^ z]
            mj[i].take(mx[i], axis=1, out=a[i], mode="clip")
        act = np.flatnonzero(a != mj)
        # an unsettled entry (i, y, z) reads MJ at i n^2 + y n + a(i, z, y)
        flat_mj, flat_a = mj.reshape(-1), a.reshape(-1)
        z = act % n
        base = act - z
        tr = base // n % n
        np.subtract(z, tr, out=tr)
        tr *= n - 1
        tr += act
        top = flat_mj[act]
        for left in range(level - 1, 0, -1):  # steps still to take
            new = flat_mj.take(base + flat_a[tr], mode="clip")
            keep = new != top
            if left == 1:  # the last step writes no a_k
                return act[keep]
            flat_a[act] = new
            act, base, tr, top = act[keep], base[keep], tr[keep], top[keep]
        return act


def _renumbered(table: np.ndarray, index: np.ndarray, values=None) -> np.ndarray:
    """``table[index][:, index]``, each entry e read as ``values[e]`` where
    given, gathered a batch of rows at a time to keep the temporaries small."""
    out = np.empty(table.shape, dtype=table.dtype)
    rows = max(1, _BATCH // len(index))
    for lo in range(0, len(index), rows):
        block = table[index[lo:lo + rows]][:, index]
        out[lo:lo + rows] = block if values is None else values.take(block)
    return out


def _doubling(xs: np.ndarray, most: int):
    """``xs`` cut into batches that double from 1 up to ``most`` x."""
    lo, per = 0, 1
    while lo < len(xs):
        yield xs[lo:lo + per]
        lo, per = lo + per, min(2 * per, most)


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product, out[i, k] = any over j of a[i, j] & b[j, k]."""
    return np.unpackbits(_or_rows(a, np.packbits(b, axis=1)), axis=1,
                         count=b.shape[1]).astype(bool)


def _or_rows(a: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """The boolean product of ``a`` with a matrix whose rows are packed
    eight columns to a byte, packed the same way: row i is the OR of the
    rows that row i of ``a`` selects, gathered a few rows of ``a`` at a time."""
    out = np.zeros((len(a), packed.shape[1]), dtype=np.uint8)
    per = max(1, _BATCH // max(1, a.shape[1] * packed.shape[1]))
    for lo in range(0, len(a), per):
        rows, cols = np.nonzero(a[lo:lo + per])
        if rows.size:
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            out[lo + rows[starts]] = np.bitwise_or.reduceat(packed[cols], starts)
    return out


# -- fixtures ----------------------------------------------------------------

def chain(n: int) -> FiniteLattice:
    """The n-element chain c0 < c1 < ... (n >= 1)."""
    if n < 1:
        raise MultilatError("chain needs at least one element")
    width = len(str(n - 1))
    labels = [f"c{i:0{width}d}" for i in range(n)]
    return FiniteLattice.from_covers([(i, i + 1) for i in range(n - 1)], labels)


def boolean_lattice(n: int) -> FiniteLattice:
    """The Boolean lattice of subsets of {0..n-1}."""
    labels = [format(s, f"0{max(n, 1)}b") for s in range(1 << n)]
    covers = [(s, s | (1 << b))
              for s in range(1 << n) for b in range(n) if not s & (1 << b)]
    return FiniteLattice.from_covers(covers, labels)


def _read(text: str) -> FiniteLattice:
    labels, covers = parse_cover_file(text)
    return FiniteLattice.from_covers(covers, labels)


def m3() -> FiniteLattice:
    return _read("0<x\n0<y\n0<z\nx<1\ny<1\nz<1\n")


def n5() -> FiniteLattice:
    return _read("0<b\nb<a\na<1\n0<c\nc<1\n")


def benzene() -> FiniteLattice:
    """The hexagon: the permutations of {1,2,3} under the weak Bruhat order."""
    return _read("123<213\n123<132\n213<231\n132<312\n231<321\n312<321\n")


FIXTURES = {
    "n5": n5,
    "m3": m3,
    "benzene": benzene,
}

