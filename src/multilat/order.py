"""Pure-Python order helpers shared by every layer, and the size caps.

Nothing here imports numpy, so the verbs that never build a lattice table
start without it.

- the one Kahn peel (:func:`dag_heights`) behind every height, longest-path
  and cycle question, and :func:`longest_path` read off it;
- the one walk of the SD_n(meet) sequences of a triple
  (:func:`sd_sequence`) under any join and meet;
- the one union-find (``_find``, ``_union``, ``_blocks``);
- the caps on the materialized lattices and their checks: SD_SCAN_CAP,
  DEFAULT_SIZE_CAP and ANALYSIS_CAP.
"""

from __future__ import annotations

from .errors import CapExceeded, InternalInconsistency, MultilatError


def _heights(succ, pred) -> list[int]:
    """The length of the longest path from each element up to one without
    successors, found by peeling those off level by level (Kahn's
    algorithm on the reversed order).  Elements on or below a cycle are
    never peeled and get -1."""
    left = [len(s) for s in succ]
    height = [-1] * len(succ)
    level = [x for x, s in enumerate(succ) if not s]
    h = 0
    while level:
        peeled = []
        for x in level:
            height[x] = h
            for p in pred[x]:
                left[p] -= 1
                if not left[p]:
                    peeled.append(p)
        level, h = peeled, h + 1
    return height


def _cycle_pair(succ, pred, left: set[int]) -> tuple[int, int]:
    """The least element on a cycle and the least other element of its
    strongly connected component (itself for a self-loop), both among the
    elements ``left`` unplaced by Kahn's algorithm (every cycle lies
    there): the first pair x < y with x <= y <= x in index order."""
    def reach(x, nbrs):
        seen, stack = {x}, [x]
        while stack:
            for y in nbrs[stack.pop()]:
                if y in left and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    for a in sorted(left):
        if a in succ[a]:
            return a, a
        component = reach(a, succ) & reach(a, pred)
        if len(component) > 1:
            return a, min(component - {a})
    raise InternalInconsistency("elements left by Kahn's algorithm lie on no cycle")


def dag_heights(succ) -> tuple[list[int], int | None]:
    """Kahn's peel (:func:`_heights`) of the digraph with edges i -> j for
    j in succ[i]: each node's height, the length of the longest path from
    it to a node without successors (-1 for the nodes that reach a
    cycle), and the least node on a cycle (a self-loop counts), or None
    when the graph is acyclic."""
    pred: list[list[int]] = [[] for _ in succ]
    for i, targets in enumerate(succ):
        for t in targets:
            pred[t].append(i)
    height = _heights(succ, pred)
    left = {i for i, h in enumerate(height) if h < 0}
    return height, _cycle_pair(succ, pred, left)[0] if left else None


def longest_path(succ) -> tuple[int | None, int | None]:
    """(edge count of the longest path, None) when the digraph with edges
    i -> j for j in succ[i] is acyclic, else (None, the least node on a
    cycle), read off :func:`dag_heights`."""
    height, on_cycle = dag_heights(succ)
    return (None, on_cycle) if on_cycle is not None else (max(height, default=0), None)


def sd_sequence(join, meet, x, y, z, n: int | None = None) -> list[tuple]:
    """The pairs (y_k, z_k) of the SD_n(meet) sequences of (x, y, z), from k = 0.

    y_0 = y, z_0 = z, y_{k+1} = y v (x ^ z_k) and z_{k+1} = z v (x ^ y_k)
    (Jipsen and Rose, *Varieties of Lattices*), for any ``join`` and
    ``meet``.  The walk stops at k = n, or before the first step that
    gives the pair back: the step depends on (y_k, z_k) alone, so the last
    pair holds at every later k.  With n None it walks to that fixed
    point, which a finite lattice reaches since both sequences climb.
    """
    pairs = [(y, z)]
    while n is None or len(pairs) <= n:
        yk, zk = pairs[-1]
        step = (join(y, meet(x, zk)), join(z, meet(x, yk)))
        if step == pairs[-1]:
            break
        pairs.append(step)
    return pairs


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


# Set from the scan of sd_holds on a 2-vCPU Xeon, Python 3.11, numpy 2.4,
# which takes 0.3-1.5 ns per unit of N^3 (level + 1), N elements stepped
# to `level` (more for larger N): L(2,2,2,1), N = 630, takes 1.3 s to
# level 4; L(1^6), N = 720, 0.5 s to its failure at level 4 (x = 153); the
# 1001-element chain L(1,1000) 2.9 s to level 1.  The cap admits the first
# two and refuses the third.
SD_SCAN_CAP = 2_000_000_000


def check_sd_level(n: int) -> None:
    """Refuse a negative SD_n level."""
    if n < 0:
        raise MultilatError("n must be >= 0")


def check_sd_scan_cap(size: int, level: int) -> None:
    """Refuse an SD scan of ``size`` elements to ``level`` above SD_SCAN_CAP."""
    work = size ** 3 * (max(level, 0) + 1)
    if work > SD_SCAN_CAP:
        raise CapExceeded(f"SD scan of {size} elements to level {level} takes "
                          f"{work:,} steps, over the scan cap {SD_SCAN_CAP:,}")


# The most elements of a lattice materialized as L(v) or from a cover file:
# from_covers fills N^2 tables, 2.9-3.6 s and 494 MB RSS for a 5,000-element chain.
DEFAULT_SIZE_CAP = 5000


# Timed by `lattice --covers` (in-process) on a 2-vCPU Xeon, Python 3.11,
# numpy 2.4.  The analyses cost about N (|J| + |M|) for the arrow relations
# and distributivity plus the D product and listing: chain files, where
# all but the bottom are join and meet irreducible, take 0.17 s at 900
# elements, 0.7 s at 2,000 and 1.7 s at 3,000.  The worst case is a
# lattice with about N^2 D edges, M_{N-2} (N - 2 atoms), where printing
# them takes 9.7 s, 484 MB RSS and 35 MB of JSON at 900 elements.
ANALYSIS_CAP = 900


def check_analysis_cap(size: int) -> None:
    """Refuse the table analyses of a lattice of more than ANALYSIS_CAP elements."""
    if size > ANALYSIS_CAP:
        raise CapExceeded(f"{size} elements exceed the lattice analysis cap {ANALYSIS_CAP}")
