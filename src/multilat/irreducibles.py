"""Join/meet irreducible elements of L(v) and the explicit join dependency.

A join irreducible of L(v) is a word with a single descent, encoded by
the vector of letter counts before the descent.  The join dependency
relation between two such vectors reduces to a local comparison on
their principal plans (``dbullet``), which makes the whole D-graph cheap
to build.

Read forwards, that comparison writes every D-successor <z> of <x> down
directly (``d_successors``): with (a,b) the plan of <x>, <z> is fixed by
its plan (e,f) with a <= e < f <= b, by z_e in {x_e, x_e - 1} and by
z_f in {x_f, x_f + 1}; the rest of z is forced.  Each node has O(n^2)
candidates, so the D-graph on m join irreducibles costs O(m*n^2)
candidates instead of the m^2 pair tests of ``d_rel``.  ``dbullet``,
``d_rel`` and ``cover_type`` stay as the arrow-based reference.

The meet side is not written out again.  Word reversal is an
anti-automorphism of L(v) that sends <x> to [v - x], so meet irreducibles,
their words, their parsing and ``kappa_d`` are the join-side functions
composed with reversal and x -> v - x (``_dual``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod

from .errors import CapExceeded, InternalInconsistency, MultilatError
from .multinomial import MultVector, PathWord, bottom, word_str
from .order import dag_heights

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

    @cached_property
    def plan(self) -> tuple[int, int] | None:
        """The principal plan (lo, hi), or None for a degenerate vector."""
        return _plan(self.parent.entries, self.x, self.kind)

    @property
    def degenerate(self) -> bool:
        return self.plan is None

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.x)


def parse_irr_vector(v: MultVector, text: str, kind: str = JOIN) -> IrrVector:
    try:
        x = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise MultilatError(f"cannot parse irreducible vector {text!r}") from exc
    return IrrVector(v, x, kind)


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


def _ji_plans(v: MultVector):
    """Yield (x, plan) for every join irreducible <x>, lexicographic on x.

    The 1 + k vectors without a plan are skipped, so the walk costs at most
    four times the output, except in dimension below 2, where nothing is
    join irreducible and no vector is walked."""
    if v.dimension < 2:
        return
    for x in product(*(range(e + 1) for e in v.entries)):
        plan = _plan(v.entries, x, JOIN)
        if plan is not None:
            yield x, plan


def enumerate_ji(v: MultVector) -> list[IrrVector]:
    """All join irreducibles of L(v), lexicographic on the vector."""
    return [IrrVector(v, x, JOIN) for x, _ in _ji_plans(v)]


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


def _check_pair(a: IrrVector, b: IrrVector) -> None:
    if a.parent != b.parent:
        raise MultilatError("mismatched parents")


def arrow_up(j: IrrVector, m: IrrVector) -> bool:
    """<x> up-arrow [y]: local comparison on the plan (c,d) of [y]."""
    _check_pair(j, m)
    if j.kind != JOIN or m.kind != MEET:
        raise MultilatError("arrow_up expects (join, meet)")
    c, d = principal_plan(m)
    x, y = j.x, m.x
    return (y[c - 1] == x[c - 1] + 1 and y[d - 1] == x[d - 1] - 1
            and all(x[i - 1] == y[i - 1] for i in range(c + 1, d)))


def arrow_down(m: IrrVector, j: IrrVector) -> bool:
    """[y] down-arrow <x>: by reversal, <v-y> up-arrow [v-x]."""
    _check_pair(m, j)
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
    _check_pair(j, k)
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


def _successors(v: tuple[int, ...], x: tuple[int, ...], a: int, b: int):
    """Yield (z, tag) for every <z> with <x> D <z>; (a,b) is the plan of <x>.

    Positions e, f are 1-based like the plans.  A candidate is kept only
    if its plan is exactly (e,f), so each successor is built once.
    """
    n = len(v)
    for e in range(a, b):
        xe = x[e - 1]
        for ze in ((xe,) if e == a else (xe, xe - 1)):
            if not 0 <= ze < v[e - 1]:
                continue
            head = v[:e - 1] + (ze,)  # z = v below e
            for f in range(e + 1, b if e == a else b + 1):  # (a,b) gives x back
                xf = x[f - 1]
                body = head + x[e:f - 1]  # z = x strictly inside (e,f)
                tail = (0,) * (n - f)  # z = 0 above f
                for zf in ((xf,) if f == b else (xf, xf + 1)):
                    if not 0 < zf <= v[f - 1]:
                        continue
                    if e == a:
                        tag = "RA" if zf == xf else "RB"
                    elif f == b:
                        tag = "LA" if ze == xe else "LB"
                    else:
                        tag = "other"
                    yield body + (zf,) + tail, tag


def d_successors(j: IrrVector) -> list[tuple[IrrVector, str]]:
    """Every <z> with <x> D <z>, each with its ``cover_type`` tag.

    Built from the plan (a,b) of <x> by four choices: the plan (e,f) of
    <z> with a <= e < f <= b, z_e in {x_e, x_e - 1} (x_e when e = a),
    z_f in {x_f, x_f + 1} (x_f when f = b); z = v below e, z = x strictly
    inside (e,f) and z = 0 above f.  Tags: e = a gives RA/RB as z_f = x_f
    or not, f = b gives LA/LB as z_e = x_e or not, anything else "other".
    """
    if j.kind != JOIN:
        raise MultilatError("d_successors expects a join-kind vector")
    a, b = principal_plan(j)
    return [(IrrVector(j.parent, z, JOIN), tag)
            for z, tag in _successors(j.parent.entries, j.x, a, b)]


def left_move_factor(j: IrrVector, k: IrrVector) -> IrrVector:
    """Factor a left move of width gap >= 2 through a plan one step narrower."""
    if not d_rel(j, k):
        raise MultilatError("factorization requires a D-pair")
    a, b = principal_plan(j)
    e, f = principal_plan(k)
    if f != b:
        raise MultilatError("not a left move: plans do not share the right endpoint")
    if e - a < 2:
        raise MultilatError("nothing to factor: plan widths differ by 1")
    v = j.parent.entries
    y = list(j.x)
    if y[a] == v[a]:  # index a is position a+1 (0-based a)
        y[a] -= 1
    for i in range(1, a + 1):
        y[i - 1] = v[i - 1]
    mid = IrrVector(j.parent, tuple(y), JOIN)
    if principal_plan(mid) != (a + 1, b) or not (d_rel(j, mid) and d_rel(mid, k)):
        raise MultilatError("factorization step failed")
    return mid


def perm_ji_triple(j: IrrVector) -> tuple[int, int, frozenset[int]]:
    """Triple form (a, b, D_a) of a join irreducible of the permutohedron."""
    if any(e != 1 for e in j.parent.entries):
        raise MultilatError("triple form requires v = (1,..,1)")
    a, b = principal_plan(j)
    return (a, b, frozenset(i for i in range(a + 1, b) if j.x[i - 1] == 1))


@dataclass(frozen=True)
class DGraph:
    """The join dependency graph of L(v), with tagged edges."""

    parent: MultVector
    nodes: tuple[IrrVector, ...]
    edges: tuple[tuple[int, int, str], ...]  # (source, target, tag), node indices

    def to_dot(self) -> str:
        labels = [f'"({node})"' for node in self.nodes]
        lines = ["digraph D {"]
        lines.extend(f"  {label};" for label in labels)
        lines.extend(f'  {labels[src]} -> {labels[dst]} [label="{tag}"];'
                     for src, dst, tag in self.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def heights(self) -> list[int]:
        """Each node's longest D-path down to a node without D-successors.

        A cycle in D, which the paper's acyclicity excludes, raises
        InternalInconsistency naming its least node.
        """
        succ: list[list[int]] = [[] for _ in self.nodes]
        for s, t, _ in self.edges:
            succ[s].append(t)
        height, on_cycle = dag_heights(succ)
        if on_cycle is not None:
            raise InternalInconsistency(
                f"D-graph of L({self.parent}) has a cycle through ({self.nodes[on_cycle]})")
        return height

    def to_json(self) -> str:
        """``json.dumps`` of v, nodes and edges with ``indent=2``, byte for byte.

        A node appears at two depths: as an item of "nodes" and as the
        source or target of an edge.  Its text is rendered once at each,
        and the edge records are joined from those strings.
        """
        tags = {tag: json.dumps(tag) for tag in {tag for _, _, tag in self.edges}}
        nodes = [_json_array(map(str, node.x), 4) for node in self.nodes]
        ends = [_json_array(map(str, node.x), 6) for node in self.nodes]
        edges = [f'{{\n      "source": {ends[s]},\n      "target": {ends[t]},'
                 f'\n      "tag": {tags[tag]}\n    }}' for s, t, tag in self.edges]
        return (f'{{\n  "v": {_json_array(map(str, self.parent.entries), 2)},'
                f'\n  "nodes": {_json_array(nodes, 2)},'
                f'\n  "edges": {_json_array(edges, 2)}\n}}')


def _json_array(items, depth: int) -> str:
    """Rendered items as a JSON array whose closing bracket sits at ``depth``."""
    items = list(items)
    if not items:
        return "[]"
    pad = " " * depth
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


# Set from the whole dgraph verb (in-process, JSON reply) on a 2-vCPU Xeon,
# Python 3.11: (1^12), m = 4,083, takes 0.8 s and 250 MB; (1^13), m = 8,178,
# takes 2.1 s and 580 MB.  The cap admits the first and refuses the second,
# as 2,500 did for (1^11) (2.6 s, 270 MB) and (1^12) (5.8 s, 650 MB) when the
# reply went through json.dumps.
D_GRAPH_CAP = 5_000


def check_d_graph_cap(v: MultVector) -> None:
    """Refuse a D-graph of more than D_GRAPH_CAP nodes before enumerating them."""
    m = count_ji(v)
    if m > D_GRAPH_CAP:
        raise CapExceeded(f"{m} join irreducibles exceed the D-graph cap {D_GRAPH_CAP}")


def d_graph(v: MultVector) -> DGraph:
    """The D-graph from constructive successors; edges sorted by (source, target)."""
    check_d_graph_cap(v)
    ji = list(_ji_plans(v))  # already lexicographic on x
    index = {x: i for i, (x, _) in enumerate(ji)}
    edges = sorted((si, index[z], tag) for si, (x, (a, b)) in enumerate(ji)
                   for z, tag in _successors(v.entries, x, a, b))
    return DGraph(v, tuple(IrrVector(v, x, JOIN) for x, _ in ji), tuple(edges))


def longest_simple_path(g: DGraph) -> int:
    """Longest directed path length (edge count) of the acyclic D-graph."""
    return max(g.heights(), default=0)
