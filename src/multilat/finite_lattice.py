"""Explicit finite lattices: tables, irreducibles, congruences, pentagons,
and the SD_n(meet) equation machinery.

Elements are integer indices into a label list.  The order relation and
the join/meet tables are dense numpy arrays, which keeps exhaustive
triple scans fast enough at desk scale.

The tables are filled from the given edges in O(n^2 d) time, d the
largest number of successors given for one element (Freese, Jezek and
Nation, *Free Lattices*, ch. 11): a linear extension orders the elements,
each row ``leq[x]`` is the union of the rows of its successors, and
``x v y`` for incomparable x, y is the least of the joins ``c v y`` over
the successors ``c`` of x.  The meet table is the join table of the dual
order.  The SD_n(meet) scan steps one array per x, since the z sequence
is the transpose of the y sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, MultilatError, NotALattice

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

        Kahn's algorithm gives a linear extension; elements it cannot
        place lie on or above a cycle.  Walking the extension from the
        top, ``leq[x]`` is the union of the rows of x's successors, and the
        join and meet tables follow by :func:`_join_table` on the order
        and on its dual.  Raises :class:`NotALattice` on a cycle, on more
        than one minimal or maximal element, and on a pair without a least
        upper bound.
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

        indegree = [len(p) for p in pred]
        bottoms = [i for i in range(n) if not indegree[i]]
        order = list(bottoms)
        for x in order:  # grows while it is walked
            for c in succ[x]:
                indegree[c] -= 1
                if not indegree[c]:
                    order.append(c)
        if len(order) < n:
            a, b = _cycle_pair(succ, pred, {i for i in range(n) if indegree[i]})
            raise NotALattice(f"cycle through {labels[a]} and {labels[b]}")

        tops = [i for i in range(n) if not succ[i]]
        if len(bottoms) != 1:
            raise NotALattice(f"{len(bottoms)} minimal elements: "
                              + ", ".join(labels[i] for i in bottoms))
        if len(tops) != 1:
            raise NotALattice(f"{len(tops)} maximal elements: "
                              + ", ".join(labels[i] for i in tops))

        leq = np.zeros((n, n), dtype=bool)
        for x in reversed(order):
            if succ[x]:
                leq[x] = leq[succ[x]].any(axis=0)
            leq[x, x] = True

        join = _join_table(succ, leq, order, labels, "least upper")
        meet = _join_table(pred, leq.T, order[::-1], labels, "greatest lower")

        # Every u > x lies above some successor of x, so the covers of x
        # are the successors above no other successor.
        upper_covers = []
        for ups in succ:
            if len(ups) > 1:
                keep = leq[np.ix_(ups, ups)].sum(axis=0) == 1
                ups = [c for c, k in zip(ups, keep) if k]
            upper_covers.append(ups)
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

    def j_star(self, j: int) -> int:
        (lower,) = self.lower_covers(j)
        return lower

    def m_star(self, m: int) -> int:
        (upper,) = self.upper_covers(m)
        return upper

    def arrow_up(self, j: int, m: int) -> bool:
        """j not below m, but below the unique upper cover of m."""
        return not self.le(j, m) and self.le(j, self.m_star(m))

    def arrow_down(self, m: int, j: int) -> bool:
        """j not below m, but its unique lower cover is."""
        return not self.le(j, m) and self.le(self.j_star(j), m)

    def bruteforce_D(self) -> set[tuple[int, int]]:
        """Join dependency: j D j' iff j != j' and j up-arrow m down-arrow j'."""
        rel = set()
        for j in self._jis:
            ups = [m for m in self._mis if self.arrow_up(j, m)]
            for j2 in self._jis:
                if j2 != j and any(self.arrow_down(m, j2) for m in ups):
                    rel.add((j, j2))
        return rel

    def kappa_of(self, j: int) -> int | None:
        """The unique m with j up-arrow m down-arrow j, if it exists."""
        found = [m for m in self._mis
                 if self.arrow_up(j, m) and self.arrow_down(m, j)]
        return found[0] if len(found) == 1 else None

    def is_meet_semidistributive(self) -> bool:
        return all(self.kappa_of(j) is not None for j in self._jis)

    def is_join_semidistributive(self) -> bool:
        return self.dual().is_meet_semidistributive()

    def is_semidistributive(self) -> bool:
        return self.is_meet_semidistributive() and self.is_join_semidistributive()

    def is_bounded(self) -> bool:
        """Semidistributive with an acyclic join dependency relation."""
        if not self.is_semidistributive():
            return False
        return _is_acyclic(self._jis, self.bruteforce_D())

    def is_distributive(self) -> bool:
        """The distributive law on all triples, vectorized per x."""
        J, M = self.join_table, self.meet_table
        for x in self.elements():
            a = M[x]
            if not np.array_equal(a[J], J[a[:, None], a[None, :]]):
                return False
        return True

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

    def pentagon_search(self, nondegenerate_only: bool = True) -> list["Pentagon"]:
        out = []
        for a in self.elements():
            for b in self.elements():
                if not self.le(b, a) or (nondegenerate_only and a == b):
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
        """The y/z sequences up to index n for one triple, with the verdict."""
        if n < 0:
            raise MultilatError("n must be >= 0")
        y_seq, z_seq = [y], [z]
        mu = None
        k = 0
        while True:
            y_next = self.join(y, self.meet(x, z_seq[k]))
            z_next = self.join(z, self.meet(x, y_seq[k]))
            if mu is None and y_next == y_seq[k] and z_next == z_seq[k]:
                mu = k + 1
            y_seq.append(y_next)
            z_seq.append(z_next)
            k += 1
            if k >= n and mu is not None:
                break
        x_seq = [self.join(self.meet(x, y_seq[k - 1]), self.meet(x, z_seq[k - 1]))
                 for k in range(1, n + 1)]
        holds = self.meet(x, y_seq[n]) == self.meet(x, self.join(y, z))
        return SdTrace(self, x, y, z, tuple(y_seq[: n + 1]), tuple(z_seq[: n + 1]),
                       tuple(x_seq), mu, holds)

    def sd_holds(self, n: int):
        """True if SD_n(meet) holds for all triples, else the first failing triple.

        Iterates x in index order; within an x-slice the least (y, z) is
        reported, so the witness is deterministic.  Only the y sequence is
        stepped, as an n-by-n array over all (y, z): the z sequence is its
        transpose, z_k(y, z) = y_k(z, y), by induction on k.
        """
        J, M = self.join_table, self.meet_table
        y0 = _sd_start(self.n)
        for x in self.elements():
            mx = M[x]
            yk = y0
            for _ in range(n):
                yk = _sd_step(J, mx, yk)
            bad = mx[yk] != mx[J]
            if bad.any():
                ys, zs = np.argwhere(bad)[0]
                return (x, int(ys), int(zs))
        return True

    def sd_mu(self) -> int:
        """max over triples of the least n with y_{n-1} = y_n and z_{n-1} = z_n."""
        J, M = self.join_table, self.meet_table
        y0 = _sd_start(self.n)
        worst = 1
        for x in self.elements():
            mx = M[x]
            yk, k = y0, 0
            while True:
                yn = _sd_step(J, mx, yk)
                k += 1
                if np.array_equal(yn, yk):  # z_k is y_k transposed
                    break
                worst = max(worst, k + 1)
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

    def to_dot(self, name: str = "hasse") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
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


def _join_table(succ, leq, order, labels, what: str) -> np.ndarray:
    """The join table of the order ``leq``, or the meet table of its dual.

    ``succ[x]`` holds elements above x that include all of x's upper
    covers, and ``order`` is a linear extension.  Elements are renumbered
    by their position in ``order``, so a lower position means lower rank.
    Rows are filled from the top down, and only below the diagonal: the
    entries above it are the joins with higher positions, which the
    transpose supplies at the end.  For y incomparable to x, every common
    upper bound lies above some ``c v y`` with c in ``succ[x]``, so
    ``x v y`` exists iff the lowest of these candidates is below all the
    others.  The candidates of one row are one d-by-n gather.
    """
    n = len(order)
    order = np.asarray(order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    below = leq.T[np.ix_(order, order)]  # below[i, j]: position j <= position i
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        row = table[i, : i + 1]
        row[:] = i
        apart = np.flatnonzero(~below[i, :i])
        if apart.size:
            cand = table[np.ix_(pos[succ[order[i]]], apart)]
            best = cand.min(axis=0)
            ok = below[cand, best].all(axis=0)
            if not ok.all():
                a, b = sorted((int(order[i]), int(order[apart[np.argmin(ok)]])))
                raise NotALattice(f"no {what} bound for {labels[a]}, {labels[b]}")
            row[apart] = best
    table = np.where(np.tri(n, dtype=bool), table, table.T)
    return order[table][np.ix_(pos, pos)]


def _cycle_pair(succ, pred, left: set[int]) -> tuple[int, int]:
    """The least element on a cycle and the least other element of its
    strongly connected component, both among the elements ``left``
    unplaced by Kahn's algorithm (every cycle lies there): the first
    pair x < y with x <= y <= x in index order."""
    def reach(x, nbrs):
        seen, stack = {x}, [x]
        while stack:
            for y in nbrs[stack.pop()]:
                if y in left and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    for a in sorted(left):
        component = reach(a, succ) & reach(a, pred)
        if len(component) > 1:
            return a, min(component - {a})
    raise InternalInconsistency("elements left by Kahn's algorithm lie on no cycle")


def _sd_start(n: int) -> np.ndarray:
    """y_0 over all (y, z): the n-by-n array with value y at (y, z)."""
    return np.broadcast_to(np.arange(n)[:, None], (n, n))


def _sd_step(J: np.ndarray, mx: np.ndarray, yk: np.ndarray) -> np.ndarray:
    """y_{k+1} = y v (x ^ z_k) over all (y, z), with z_k = y_k transposed
    and ``mx`` the row x ^ . of the meet table.  Row y of the result
    gathers from row y of J, indexed into the flat table."""
    rows = np.arange(0, J.size, len(J))[:, None]
    return J.ravel()[rows + mx[yk.T]]


def _find(parent: list[int], a: int) -> int:
    """Union-find root of a, halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent: list[int], a: int, b: int) -> bool:
    """Merge the sets of a and b under the smaller root; False if already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[max(ra, rb)] = min(ra, rb)
    return True


def _blocks(parent: list[int]) -> tuple[frozenset[int], ...]:
    blocks: dict[int, set[int]] = {}
    for i in range(len(parent)):
        blocks.setdefault(_find(parent, i), set()).add(i)
    return tuple(sorted((frozenset(b) for b in blocks.values()), key=min))


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


def _is_acyclic(nodes, edges) -> bool:
    succ: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in edges:
        succ[a].append(b)
    color = {v: 0 for v in nodes}

    def visit(v: int) -> bool:
        color[v] = 1
        for w in succ[v]:
            if color[w] == 1 or (color[w] == 0 and not visit(w)):
                return False
        color[v] = 2
        return True

    for v in nodes:
        if color[v] == 0 and not visit(v):
            return False
    return True


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
    """Cover-list format: one 'lower<upper' per line, '#' starts a comment."""
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lo, sep, hi = line.partition("<")
        if not sep or not lo or not hi:
            raise MultilatError(f"line {lineno}: expected 'lower<upper', got {raw!r}")
        covers.append((lo.strip(), hi.strip()))
    return FiniteLattice.from_covers(covers)
