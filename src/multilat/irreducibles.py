"""Join/meet irreducible elements of L(v) and the explicit join dependency.

A join irreducible of L(v) is a word with a single descent, encoded by
the vector of letter counts before the descent.  The join dependency
relation between two such vectors reduces to a local comparison on
their principal plans (``dbullet``), which makes the whole D-graph cheap
to build.

Read forwards, that comparison writes every D-successor <z> of <x> down
directly: with (a,b) the plan of <x>, <z> is fixed by its plan (e,f)
with a <= e < f <= b, by z_e in {x_e, x_e - 1} and by z_f in
{x_f, x_f + 1}; the rest of z is forced.  Each node has O(n^2)
candidates, so the D-graph on m join irreducibles costs O(m*n^2)
candidates instead of the m^2 pair tests of ``d_rel``.  ``dbullet``, the
reflexive transitive closure D*, and ``d_rel`` stay as the paper's plan
comparison of a pair; ``cover_type`` stays as the arrow-based reference.

Vectors are handled as mixed-radix ranks r(x) = sum x_i * w_i with
w_i = prod_{j>i} (v_j + 1), which order [0, v] lexicographically.  One
walk of that product, plan block by plan block, gives every join
irreducible with its plan in rank order (``_ji_walk``).  A successor's
rank is the rank of x with v written below e, 0 above f and the two
moved entries adjusted, and its node index is that rank less the number
of planless vectors below it, which its plan and z_e give; so
``_successors`` writes each node's successor list down by a few sums,
already in target order, with no vector built, hashed or sorted.
``d_graph`` is the one place the successors are listed: a ``DGraph``
keeps each node's list as ints t << 3 | tag code, and its JSON and DOT
writers, D-closure, congruence enumeration and heights all read those
lists; the ``nodes`` and ``edges`` tuples are built only on request.

The meet side is not written out again.  Word reversal is an
anti-automorphism of L(v) that sends <x> to [v - x], so meet irreducibles,
their words, their parsing and ``kappa_d`` are the join-side functions
composed with reversal and x -> v - x (``_dual``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, product, repeat
from math import prod

from . import order
from .errors import CapExceeded, InternalInconsistency, MultilatError
from .multinomial import MultVector, PathWord, _check_same_parent, bottom, word_str
from .order import _json_array, _json_vectors, dag_heights

JOIN = "join"
MEET = "meet"


@dataclass(frozen=True)
class IrrVector:
    """Vector encoding of a join irreducible <x> or meet irreducible [x]."""

    parent: MultVector
    x: tuple[int, ...]
    kind: str = JOIN

    def __post_init__(self) -> None:
        if self.kind not in (JOIN, MEET):
            raise MultilatError(f"bad kind {self.kind!r}")
        if len(self.x) != self.parent.n:
            raise MultilatError(f"vector length {len(self.x)} != n={self.parent.n}")
        if any(not 0 <= xi <= vi for xi, vi in zip(self.x, self.parent.entries)):
            raise MultilatError(f"vector {self.x} outside [0, {self.parent}]")

    @classmethod
    def _inside(cls, parent: MultVector, x: tuple[int, ...],
                plan: tuple[int, int] | None = None) -> IrrVector:
        """The join irreducible <x> that a rank walk found inside [0, v], with
        its plan when the walk knows it: built without the checks of
        ``__post_init__``."""
        node = object.__new__(cls)
        node.__dict__.update(parent=parent, x=x, kind=JOIN)
        if plan is not None:
            node.__dict__["plan"] = plan
        return node

    @cached_property
    def plan(self) -> tuple[int, int] | None:
        """The principal plan (lo, hi), or None for a degenerate vector."""
        return _plan(self.parent.entries, self.x, self.kind)

    @property
    def degenerate(self) -> bool:
        return self.plan is None

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.x)


def parse_irr_vector(v: MultVector, text: str) -> IrrVector:
    try:
        x = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise MultilatError(f"cannot parse irreducible vector {text!r}") from exc
    return IrrVector(v, x)


def _plan(v: tuple[int, ...], x: tuple[int, ...], kind: str) -> tuple[int, int] | None:
    """Plan (lo, hi) of x, 1-based; None when lo < hi fails or is undefined.

    For a join vector lo is the first position below v and hi the last
    positive one; a meet vector swaps the two tests.
    """
    n = len(v)
    below = [i for i in range(n) if x[i] < v[i]]
    positive = [i for i in range(n) if x[i] > 0]
    lows, highs = (below, positive) if kind == JOIN else (positive, below)
    if lows and highs and lows[0] < highs[-1]:
        return (lows[0] + 1, highs[-1] + 1)
    return None


def principal_plan(j: IrrVector) -> tuple[int, int]:
    plan = j.plan
    if plan is None:
        raise MultilatError(f"degenerate vector {j.x} has no principal plan")
    return plan


def _dual(j: IrrVector) -> IrrVector:
    """<x> -> [v - x] and [y] -> <v - y>; the plan is unchanged."""
    return IrrVector(j.parent, tuple(e - c for e, c in zip(j.parent.entries, j.x)),
                     MEET if j.kind == JOIN else JOIN)


def _widths(v: tuple[int, ...]) -> list[int]:
    """wide[i] = prod_{j>=i} (v_j + 1): x in [0, v] has the rank
    sum x_i * wide[i+1], its place in the lexicographic order, and
    rank % wide[i] is the rank of x with its first i entries set to 0."""
    wide = [1] * (len(v) + 1)
    for i in range(len(v) - 1, -1, -1):
        wide[i] = wide[i + 1] * (v[i] + 1)
    return wide


def _ji_walk(v: MultVector) -> list[tuple[int, tuple[int, ...], tuple[int, int]]]:
    """(rank, x, plan) for every join irreducible <x>, in rank order.

    The vectors of plan (a,b) are the block of [0, v] with v below a,
    x_a < v_a, x_b > 0 and 0 above b; each block is walked by ``product``
    with the ranks summed alongside, and the blocks are merged by rank.
    A plan needs v_a > 0 and v_b > 0, so in dimension below 2 nothing is
    walked."""
    entries = v.entries
    n = len(entries)
    wide = _widths(entries)
    found = []
    for a, b in combinations([i for i in range(n) if entries[i]], 2):
        choices = ([(e,) for e in entries[:a]] + [range(entries[a])]
                   + [range(e + 1) for e in entries[a + 1:b]]
                   + [range(1, entries[b] + 1)] + [(0,)] * (n - b - 1))
        ranks = map(sum, product(*([c * w for c in cs] for cs, w in zip(choices, wide[1:]))))
        found.extend(zip(ranks, product(*choices), repeat((a + 1, b + 1))))
    found.sort()
    return found


def enumerate_ji(v: MultVector) -> list[IrrVector]:
    """All join irreducibles of L(v), lexicographic on the vector."""
    return [IrrVector._inside(v, x, plan) for _, x, plan in _ji_walk(v)]


def enumerate_mi(v: MultVector) -> list[IrrVector]:
    """All meet irreducibles, lexicographic: x -> v - x reverses the order."""
    return [_dual(j) for j in reversed(enumerate_ji(v))]


def count_ji(v: MultVector) -> int:
    """Closed formula: prod(v_i + 1) - (1 + sum(v_i))."""
    return prod(e + 1 for e in v.entries) - (1 + v.k)


def ji_word(j: IrrVector) -> PathWord:
    """The single-descent word a1^x1..an^xn a1^(v1-x1)..an^(vn-xn)."""
    if j.kind != JOIN:
        raise MultilatError("ji_word expects a join-kind vector")
    if j.degenerate:
        return bottom(j.parent)
    letters = []
    for i in range(1, j.parent.n + 1):
        letters.extend([i] * j.x[i - 1])
    for i in range(1, j.parent.n + 1):
        letters.extend([i] * (j.parent.entries[i - 1] - j.x[i - 1]))
    return PathWord(j.parent, tuple(letters))


def mi_word(m: IrrVector) -> PathWord:
    """The single-ascent word an^yn..a1^y1 an^(vn-yn)..a1^(v1-y1): ji_word(<v-y>) reversed."""
    if m.kind != MEET:
        raise MultilatError("mi_word expects a meet-kind vector")
    w = ji_word(_dual(m))
    return PathWord(w.parent, w.letters[::-1])


def _counts_to_descent(w: PathWord, letters: tuple[int, ...], turns: str) -> tuple[int, ...]:
    """Letter counts of ``letters`` (w, or w reversed) up to its single descent.

    ``turns`` names what those descents are in w itself, for the diagnostic.
    """
    descents = [p for p in range(len(letters) - 1) if letters[p] > letters[p + 1]]
    if len(descents) != 1:
        raise MultilatError(f"word {word_str(w)} has {len(descents)} {turns}, expected 1")
    x = [0] * w.parent.n
    for letter in letters[: descents[0] + 1]:
        x[letter - 1] += 1
    return tuple(x)


def parse_ji_word(w: PathWord) -> IrrVector:
    """Recover the vector from a word with exactly one descent."""
    return IrrVector(w.parent, _counts_to_descent(w, w.letters, "descents"), JOIN)


def parse_mi_word(w: PathWord) -> IrrVector:
    """Recover [y] from a word with one ascent: reversed, it is ji_word(<v-y>)."""
    return _dual(IrrVector(w.parent, _counts_to_descent(w, w.letters[::-1], "ascents"), JOIN))


def arrow_up(j: IrrVector, m: IrrVector) -> bool:
    """<x> up-arrow [y]: local comparison on the plan (c,d) of [y]."""
    _check_same_parent(j, m)
    if j.kind != JOIN or m.kind != MEET:
        raise MultilatError("arrow_up expects (join, meet)")
    c, d = principal_plan(m)
    x, y = j.x, m.x
    return (y[c - 1] == x[c - 1] + 1 and y[d - 1] == x[d - 1] - 1
            and all(x[i - 1] == y[i - 1] for i in range(c + 1, d)))


def arrow_down(m: IrrVector, j: IrrVector) -> bool:
    """[y] down-arrow <x>: by reversal, <v-y> up-arrow [v-x]."""
    _check_same_parent(m, j)
    if j.kind != JOIN or m.kind != MEET:
        raise MultilatError("arrow_down expects (meet, join)")
    principal_plan(j)  # a degenerate <x> is named as given, not as [v-x]
    return arrow_up(_dual(m), _dual(j))


def _meet_on_plan(j: IrrVector, c: int, d: int) -> IrrVector:
    """The [y] of plan (c,d) with y = x + e_c - e_d inside, 0 below c, v above d."""
    v = j.parent.entries
    y = (0,) * (c - 1) + (j.x[c - 1] + 1,) + j.x[c:d - 1] + (j.x[d - 1] - 1,) + v[d:]
    return IrrVector(j.parent, y, MEET)


def kappa(j: IrrVector) -> IrrVector:
    """The unique [y] with <x> up-arrow [y] down-arrow <x>."""
    return _meet_on_plan(j, *principal_plan(j))


def kappa_d(m: IrrVector) -> IrrVector:
    """The unique <x> with [y] down-arrow <x> up-arrow [y]: <v - kappa(<v-y>)>."""
    principal_plan(m)  # a degenerate [y] is named as given, not as <v-y>
    return _dual(kappa(_dual(m)))


def dbullet(j: IrrVector, k: IrrVector) -> bool:
    """The explicit reflexive-transitive join dependency between <x> and <z>."""
    _check_same_parent(j, k)
    if j.kind != JOIN or k.kind != JOIN:
        raise MultilatError("dbullet expects join-kind vectors")
    a, b = principal_plan(j)
    e, f = principal_plan(k)
    if not (a <= e and f <= b):
        return False
    x, z = j.x, k.x
    if any(x[i - 1] != z[i - 1] for i in range(e + 1, f)):
        return False
    d_e = x[e - 1] - z[e - 1]
    d_f = z[f - 1] - x[f - 1]
    if d_e not in (0, 1) or d_f not in (0, 1):
        return False
    if e == a and d_e != 0:
        return False
    if f == b and d_f != 0:
        return False
    return True


def d_rel(j: IrrVector, k: IrrVector) -> bool:
    """Join dependency proper: dbullet plus distinctness."""
    return j.x != k.x and dbullet(j, k)


def witness_m(j: IrrVector, k: IrrVector) -> IrrVector:
    """A meet irreducible [y] with <x> up-arrow [y] down-arrow <z>.

    The plan (c,d) of [y] takes each endpoint from the plan (e,f) of <z>,
    or from the plan (a,b) of <x> where z moved off x there.
    """
    if not dbullet(j, k):
        raise MultilatError("witness requires the dependency relation to hold")
    a, b = principal_plan(j)
    e, f = principal_plan(k)
    x, z = j.x, k.x
    c = e if x[e - 1] == z[e - 1] else a
    d = f if x[f - 1] == z[f - 1] else b
    m = _meet_on_plan(j, c, d)
    if not (arrow_up(j, m) and arrow_down(m, k)):
        raise MultilatError("constructed witness fails the arrow relations")
    return m


COVER_TAGS = ("LA", "LB", "RA", "RB", "other")


def cover_type(j: IrrVector, k: IrrVector) -> str:
    """Classify a D-pair as a left/right move of type A or B, or "other".

    Left/right is decided by the shared plan endpoint; A means
    <x> up-arrow kappa(<z>), B means kappa(<x>) down-arrow <z>.  Pairs
    sharing no endpoint do not fit the taxonomy and map to "other".
    """
    if not d_rel(j, k):
        raise MultilatError("cover_type requires a D-pair")
    a, b = principal_plan(j)
    e, f = principal_plan(k)
    if f == b and e > a:
        side = "L"
    elif e == a and f < b:
        side = "R"
    else:
        return "other"
    if arrow_up(j, kappa(k)):
        return side + "A"
    if arrow_down(kappa(j), k):
        return side + "B"
    return "other"


# Tag codes of the successor lists: the index of the tag in COVER_TAGS.
_LA, _LB, _RA, _RB, _OTHER = range(len(COVER_TAGS))


def _successors(v: tuple[int, ...], wide8: list[int], base8: list[int], x: tuple[int, ...],
                plan: tuple[int, int]) -> list[int]:
    """t << 3 | code for every <z> with <x> D <z>, ascending, t the node
    index of <z> and code the index of its tag in COVER_TAGS; ``plan`` is
    the plan of <x>.

    With (a,b) the plan of <x>, z_e is x_e when e = a and z_f is x_f when
    f = b; the tag of ``cover_type`` is RA/RB for e = a as z_f = x_f or
    not, LA/LB for f = b as z_e = x_e or not, and "other" otherwise.

    With e, f 0-based here, r(z) = N - wide[e] + rest[e] - rest[f+1], where
    rest[i] = sum_{j>=i} x_j * wide[j+1] is the rank of x's part from i
    on, less wide[e+1] when z_e = x_e - 1 and plus wide[f+1] when
    z_f = x_f + 1.  The plan (e,f) holds when z_e < v_e and z_f > 0, which
    x's own plan gives at e = a and at f = b.  The vectors without a plan
    are v_1 .. v_(i-1), c, 0 .. 0; those below <z> in the lexicographic
    order have i < e, or i = e and c <= z_e, so the index of <z> is
    r(z) - (v_1 + ... + v_(e-1)) - z_e - 1.  ``base8[e]`` holds
    8 (N - wide[e] - v_1 - ... - v_(e-1) - 1), and every figure here is 8
    times its value, so that a tag code can be added to it.

    The list comes out sorted without a sort.  A larger e puts v_e where a
    smaller one has z_e < v_e, so it ranks higher; for one e, z_e = x_e - 1
    ranks below z_e = x_e.  For one (e, z_e), z_f = x_f ranks below every
    later f and z_f = x_f + 1 above every later f, so the targets ascend
    as z_f = x_f for f ascending, then f = b, then z_f = x_f + 1 for f
    descending.  The walk below takes e downwards, summing ``low`` =
    rest[e+1] as it goes, writes each head's targets in descending order
    and reverses the list; ``dn`` and ``up`` hold the offsets of the
    f > e with z_f = x_f and z_f = x_f + 1, f descending.
    """
    a, b = plan[0] - 1, plan[1] - 1
    low = wide8[b + 1] * x[b]  # x is 0 above b
    out: list[int] = []
    dn: list[int] = []
    up: list[int] = []
    add = out.append
    for e in range(b - 1, a, -1):
        xe = x[e]
        w = wide8[e + 1]
        head = base8[e] + low + xe * (w - 8)  # z_e = x_e
        if xe < v[e]:
            o = head + _OTHER
            for u in reversed(up):
                add(o + u)
            add(head + _LA)  # f = b: z_b = x_b
            for d in dn:
                add(o + d)
        if xe:
            head += 8 - w  # z_e = x_e - 1
            o = head + _OTHER
            for u in reversed(up):
                add(o + u)
            add(head + _LB)
            for d in dn:
                add(o + d)
            dn.append(-low)
        if xe < v[e]:
            up.append(w - low)
        low += xe * w
    head = base8[a] + low + x[a] * (wide8[a + 1] - 8)  # e = a: z_a = x_a, f < b
    o = head + _RB
    for u in reversed(up):
        add(o + u)
    o = head + _RA
    for d in dn:
        add(o + d)
    out.reverse()
    return out


@dataclass(frozen=True)
class DGraph:
    """The join dependency graph of L(v): its nodes' vectors, ascending,
    and for each node the list of t << 3 | code over its D-successors t,
    ascending, with code the index of the edge's tag in COVER_TAGS."""

    parent: MultVector
    xs: tuple[tuple[int, ...], ...]
    succ: tuple[list[int], ...]

    @cached_property
    def nodes(self) -> tuple[IrrVector, ...]:
        return tuple([IrrVector._inside(self.parent, x) for x in self.xs])

    @cached_property
    def edges(self) -> tuple[tuple[int, int, str], ...]:
        """(source, target, tag) as node indices, sorted."""
        return tuple([(s, p >> 3, COVER_TAGS[p & 7])
                      for s, row in enumerate(self.succ) for p in row])

    def to_dot(self) -> str:
        layout = '"(' + ",".join(["%d"] * self.parent.n) + ')"'
        labels = [layout % x for x in self.xs]
        tails = [f' [label="{tag}"];' for tag in COVER_TAGS]
        lines = ["digraph D {"]
        lines += [f"  {label};" for label in labels]
        for s, row in enumerate(self.succ):
            if row:
                head = f"  {labels[s]} -> "
                lines.append(head + f"\n{head}".join([labels[p >> 3] + tails[p & 7]
                                                       for p in row]))
        lines.append("}\n")
        return "\n".join(lines)

    def heights(self) -> list[int]:
        """Each node's longest D-path down to a node without D-successors.

        A cycle in D, which the paper's acyclicity excludes, raises
        InternalInconsistency naming its least node.
        """
        height, on_cycle = dag_heights([[p >> 3 for p in row] for row in self.succ])
        if on_cycle is not None:
            raise InternalInconsistency(
                f"D-graph of L({self.parent}) has a cycle through "
                f"({','.join(map(str, self.xs[on_cycle]))})")
        return height

    def to_json(self) -> str:
        """``json.dumps`` of v, nodes and edges with ``indent=2``, byte for
        byte, and the newline that ends the reply.

        Each node's text is rendered once, at the depth of an edge's source
        or target, and re-indented for "nodes"; each edge is a per-source
        prefix, its target's text and a per-tag tail.
        """
        ends = _json_vectors(self.xs, self.parent.n, 6)
        tails = [f',\n      "tag": {json.dumps(tag)}\n    }}' for tag in COVER_TAGS]
        chunks = []
        for s, row in enumerate(self.succ):
            if row:
                head = f'{{\n      "source": {ends[s]},\n      "target": '
                chunks.append(head + f",\n    {head}".join([ends[p >> 3] + tails[p & 7]
                                                          for p in row]))
        nodes = [end.replace("\n  ", "\n") for end in ends]
        head = (f'{{\n  "v": {_json_array(map(str, self.parent.entries), 2)},'
                f'\n  "nodes": {_json_array(nodes, 2)},\n  "edges": ')
        if not chunks:
            return head + "[]\n}\n"
        chunks[0] = head + "[\n    " + chunks[0]  # the long text is copied once, by the join
        chunks[-1] += "\n  ]\n}\n"
        return ",\n    ".join(chunks)


# Set from the whole dgraph verb (in-process, each in a fresh process, JSON
# reply of 66 and 171 MB) on a 2-vCPU Xeon, Python 3.11, with the D-graph
# as successor lists: (1^12), m = 4,083, takes 0.23-0.31 s and 203 MB max
# RSS; (1^13), m = 8,178, takes 0.7-1.0 s and 503 MB.  The cap admits the
# first and refuses the second; the memory of the reply, not the time of
# the graph, keeps it there.
D_GRAPH_CAP = 5_000


def check_d_graph_cap(v: MultVector) -> None:
    """Refuse a D-graph of more than D_GRAPH_CAP nodes before enumerating them."""
    m = count_ji(v)
    if m > D_GRAPH_CAP:
        raise CapExceeded(f"{m} join irreducibles exceed the D-graph cap {D_GRAPH_CAP}")


def check_listing_cap(v: MultVector, kind: str, words: bool) -> None:
    """Refuse a listing of the join (or meet) irreducibles of L(v), as words
    of k letters or as vectors of n entries, of more lines than
    ``order.listing_cap`` allows, counted by :func:`count_ji` before any is
    enumerated."""
    m = count_ji(v)
    letters, unit, part = (v.k, "words", "letters") if words else (v.n, "vectors", "entries")
    cap = order.listing_cap(letters)
    if m > cap:
        raise CapExceeded(f"{m} {kind} irreducibles exceed the listing cap of "
                          f"{cap} {unit} of {letters} {part}")


def d_graph(v: MultVector) -> DGraph:
    """The D-graph on the rank walk, each node's successors written down by
    :func:`_successors` as node indices, in order."""
    check_d_graph_cap(v)
    entries = v.entries
    wide8 = [8 * w for w in _widths(entries)]
    base8 = [wide8[0] - w - 8 * (below + 1)
             for w, below in zip(wide8, accumulate(entries, initial=0))]
    ji = _ji_walk(v)
    return DGraph(v, tuple([x for _, x, _ in ji]),
                  tuple([_successors(entries, wide8, base8, x, plan) for _, x, plan in ji]))


def longest_d_chain(v: MultVector) -> list[IrrVector]:
    """A longest D-path <x(1)> D ... D <x(n-1)> of L(v) of dimension n >= 2.

    Over the support s_1 < ... < s_n, x(i) is v below s_i, 0 from s_i up
    to s_n and 1 at s_n, of plan (s_i, s_n); :func:`d_rel` checks each
    link.  No D-path has more than its n - 2 edges, and D is acyclic:
    each target of :func:`_successors` has a plan strictly nested in
    its source's, a <= e < f <= b and (e,f) != (a,b), with endpoints in
    the support.
    """
    entries, support = v.entries, v.support()
    if len(support) < 2:
        raise MultilatError(f"dimension of v={v} must be >= 2")
    last = support[-1]
    chain = [IrrVector(v, entries[:s - 1] + (0,) * (last - s) + (1,) + entries[last:])
             for s in support[:-1]]
    for j, k in zip(chain, chain[1:]):
        if not d_rel(j, k):
            raise InternalInconsistency(f"({j}) D ({k}) fails on the D-chain of L({v})")
    return chain
