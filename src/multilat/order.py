"""Pure-Python order helpers shared by every layer, and the size caps.

Nothing here imports numpy, so the verbs that never build a lattice table
start without it.

- the one Kahn peel (:func:`dag_heights`) behind every height, longest-path
  and cycle question;
- the one walk of the SD_n(meet) sequences of a triple
  (:func:`sd_sequence`) under any join and meet;
- the one union-find (``_find``, ``_union``, ``_blocks``), behind the
  D-graph components and the Parikh connectivity check;
- the one SD-level rule (:func:`sd_scan_room`, :func:`sd_scan_level`),
  for a table scan and for L(v) before it is materialized, and the names
  of the two methods of the dimension verdict;
- the caps on the materialized lattices and their checks: SD_SCAN_CAP,
  DEFAULT_SIZE_CAP and ANALYSIS_CAP, and LISTING_CAP on the listings of
  words and irreducibles;
- the cover-list format, its one reader (:func:`parse_cover_file`, under
  DEFAULT_SIZE_CAP) and its one writer (:func:`cover_file`);
- the layout of ``json.dumps(indent=2)`` for the JSON replies written
  without the pure-Python encoder (:func:`_json_array`, :func:`_json_vectors`).
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


def _json_array(items, depth: int) -> str:
    """Rendered items as a JSON array whose closing bracket sits at ``depth``."""
    items = list(items)
    if not items:
        return "[]"
    pad = " " * depth
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _json_vectors(xs, n: int, depth: int) -> list[str]:
    """Each tuple of ``n`` ints in ``xs`` as ``json.dumps(indent=2)`` writes
    it, as a list, at ``depth``: one ``%`` formatting apiece."""
    layout = _json_array(["%d"] * n, depth)
    return [layout % x for x in xs]


# Set from the scan of sd_holds on a 2-vCPU Xeon, Python 3.11, numpy 2.4,
# which takes 0.3-1.5 ns per unit of N^3 (level + 1), N elements stepped
# to `level` (more for larger N): L(2,2,2,1), N = 630, takes 1.3 s to
# level 4; L(1^6), N = 720, 0.5 s to its failure at level 4 (x = 153); the
# 1001-element chain L(1,1000) 2.9 s to level 1.  The cap admits the first
# two and refuses the third.  It bounds the x a scan steps, N^2 (level + 1)
# each, so a failing scan that steps first the x where SD_n can fail
# answers past N^3 (level + 1): L(2,2,2,2), N = 2,520, in 0.3 s to level 2.
SD_SCAN_CAP = 2_000_000_000


def check_sd_level(n: int) -> None:
    """Refuse a negative SD_n level."""
    if n < 0:
        raise MultilatError("n must be >= 0")


def sd_scan_room(size: int, height: int, n: int) -> tuple[int, int]:
    """The level of an SD_n(meet) scan of ``size`` elements whose longest
    chain has ``height`` steps, and the most x that SD_SCAN_CAP lets it
    step, each over all size^2 pairs (y, z) to that level: y_k and z_k
    only climb, so the pair is stationary after 2 height steps.  Refuses n < 0."""
    check_sd_level(n)
    level = min(n, 2 * height)
    return level, SD_SCAN_CAP // (size ** 2 * (level + 1))


def sd_scan_refusal(size: int, level: int) -> CapExceeded:
    """The refusal of a scan of every x of ``size`` elements to ``level``."""
    return CapExceeded(f"SD scan of {size} elements to level {level} takes "
                       f"{size ** 3 * (level + 1):,} steps, over the scan cap {SD_SCAN_CAP:,}")


def sd_scan_level(size: int, height: int, n: int) -> int:
    """The level of :func:`sd_scan_room`, refusing a scan of every x above SD_SCAN_CAP."""
    level, room = sd_scan_room(size, height, n)
    if room < size:
        raise sd_scan_refusal(size, level)
    return level


# The two methods of the dimension verdict (``sd_engine.theorem_check``),
# here so that the command line offers them without loading sd_engine.
EXHAUSTIVE = "exhaustive"
DPATH_BOUND = "dpath-bound"

# The most elements materialized, as L(v) or from a cover file: the N^2 order of a
# 5,000-element chain (`lattice --covers --dot`) takes 0.2-0.5 s and 84 MB in a fresh
# process, as does that of L(3,29) or L(1,1,69) for `theorem --method exhaustive`;
# neither fills a join table (2-vCPU Xeon, Python 3.11, numpy 2.4).
DEFAULT_SIZE_CAP = 5000


def parse_cover_file(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """The sorted labels of a cover list and its (lower, upper) pairs as
    indices into them, as :func:`cover_file` writes them: one
    'lower<upper' per line, '#' starting a comment; more than
    DEFAULT_SIZE_CAP labels are refused.  A label holds neither '<' nor a
    '"' or '\\', so each one is a DOT id as written between double quotes."""
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lo, sep, hi = line.partition("<")
        if not sep or not lo or not hi or "<" in hi:
            raise MultilatError(f"line {lineno}: expected 'lower<upper', got {raw!r}")
        if '"' in line or "\\" in line:
            raise MultilatError(f"line {lineno}: a label may not hold '\"' or '\\', "
                                f"got {raw!r}")
        covers.append((lo.strip(), hi.strip()))
    names = {x for pair in covers for x in pair}
    if len(names) > DEFAULT_SIZE_CAP:
        raise CapExceeded(f"cover file has {len(names)} elements, over the "
                          f"materialization cap {DEFAULT_SIZE_CAP}")
    labels = sorted(names)
    index = {label: i for i, label in enumerate(labels)}
    return labels, [(index[lo], index[hi]) for lo, hi in covers]


def cover_file(labels, pairs) -> str:
    """The cover list that :func:`parse_cover_file` reads, one line for
    each (lower, upper) pair of indices into ``labels``."""
    return "".join(f"{labels[lo]}<{labels[hi]}\n" for lo, hi in pairs)


# Set from `elements`, `ji` and `mi` (in-process, into a StringIO) on a
# 2-vCPU Xeon, Python 3.11: a listing costs about 0.3-0.6 us per letter
# printed, counting 20 more for each line: (1^9), 362,880 words of 9
# letters (10.5M), takes 2.9 s; (1,3000), 3,001 words of 3,001 letters
# (9.1M), 2.7 s; `ji` (30,30,30), 29,700 words of 90 letters (3.3M), 1.3 s;
# `ji` (1^16), 65,519 words of 16 letters (2.4M), 1.4 s.  Counting lines
# alone would not do: `ji -v 1,20000` prints 20,000 lines in 95 s.  The
# cap allows about 1-2 s of listing.
LISTING_CAP = 4_000_000


def listing_cap(letters: int) -> int:
    """The most lines of ``letters`` letters a listing prints under LISTING_CAP."""
    return LISTING_CAP // (letters + 20)


# Timed by `lattice --covers` (in-process) on a 2-vCPU Xeon, Python 3.11,
# numpy 2.4.  The analyses cost about N (|J| + |M|) for the arrow relations
# plus the D product and listing; distributivity is read off D (empty iff
# distributive) and costs nothing more.  Chain files, where
# all but the bottom are join and meet irreducible, take 0.17 s at 900
# elements, 0.7 s at 2,000 and 1.7 s at 3,000.  The worst case is a
# lattice with about N^2 D edges, M_{N-2} (N - 2 atoms), where listing and
# printing them sets the cost: 0.6-0.8 s, 270 MB max RSS and 32 MB of JSON
# at 900 elements.
ANALYSIS_CAP = 900


def check_analysis_cap(size: int) -> None:
    """Refuse the table analyses of a lattice of more than ANALYSIS_CAP elements."""
    if size > ANALYSIS_CAP:
        raise CapExceeded(f"{size} elements exceed the lattice analysis cap {ANALYSIS_CAP}")
