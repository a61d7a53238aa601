"""Congruences of L(v) via D-closed sets of join irreducibles.

A congruence is described by the set S of join irreducibles it does not
collapse; S must be closed under following join-dependency edges.  Two
words are equivalent exactly when they dominate the same members of S.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

from . import irreducibles, multinomial
from .errors import CapExceeded, MultilatError
from .irreducibles import DGraph, IrrVector, d_graph, ji_word
from .multinomial import MultVector, PathWord, mjoin, mmeet, word_inversions, word_str
from .order import _blocks, _json_array, _json_vectors, _union


@dataclass(frozen=True)
class JiSet:
    """A D-closed set of join irreducibles of L(v)."""

    parent: MultVector
    members: frozenset[IrrVector]

    def __post_init__(self) -> None:
        for j in self.members:
            if j.parent != self.parent or j.kind != irreducibles.JOIN:
                raise MultilatError("JiSet members must be join irreducibles of the parent")
            if j.degenerate:
                raise MultilatError("JiSet members must be non-degenerate")

    def is_d_closed(self) -> bool:
        """Every D-successor of a member is a member, read off the successor
        lists of the D-graph of the parent."""
        graph = d_graph(self.parent)
        index = {x: i for i, x in enumerate(graph.xs)}
        members = {index[j.x] for j in self.members}
        return all(p >> 3 in members for i in members for p in graph.succ[i])

    def __str__(self) -> str:
        return ";".join(str(j) for j in sorted(self.members, key=lambda j: j.x))


def parse_ji_set(v: MultVector, text: str) -> JiSet:
    if text == "-" or not text:
        return JiSet(v, frozenset())
    members = frozenset(
        irreducibles.parse_irr_vector(v, chunk) for chunk in text.split(";"))
    return JiSet(v, members)


@dataclass(frozen=True)
class Partition:
    """A partition of the words of L(v) into blocks."""

    parent: MultVector
    blocks: tuple[frozenset[PathWord], ...]

    def to_json(self) -> str:
        return json.dumps(
            {"v": list(self.parent.entries),
             "blocks": [sorted(word_str(w) for w in block) for block in self.blocks]},
            indent=2) + "\n"


# Timed by `congruences --count` (in-process) on a 2-vCPU Xeon, Python 3.11,
# over the 13 vectors of dimension 3-6 with entries up to 7 and 20-24 join
# irreducibles: the slowest, (3,1,3), counts 289,747 congruences in 0.04 s.
DEFAULT_JI_CAP = 24
# Set from `classes -S -` (in-process) on a 2-vCPU Xeon, Python 3.11: the
# empty S puts all N words in one block, checked by 4 N^2 word joins and
# meets.  N = 90 (2,2,2) takes 0.8-1.4 s, 140 (3,3,1) 2.1-3.6 s, 210 (3,2,2) 5.1-7.4 s.
CLASSES_CAP = 210
# Set from `congruences` (in-process, JSON reply, each in a fresh process)
# on a 2-vCPU Xeon, Python 3.11: 31,409 sets (1,2,4) take 0.19 s and 90 MB
# max RSS, 57,808 (1,3,3) 0.39 s and 126 MB, 84,787 (2,1,4) 0.6 s and
# 195 MB (a 56 MB reply), 289,747 (3,1,3) 2.7 s and 681 MB.  The cap
# admits (2,1,4) and refuses (3,1,3) and the 2^17 sets of (1,17); --count
# has no such cap.
LISTING_CAP = 100_000


def d_closed_masks(v: MultVector) -> tuple[DGraph, list[int]]:
    """The D-graph and its forward-closed node sets, i.e. all congruences,
    refused above LISTING_CAP sets once they are counted.

    A set is a bitmask over the graph's nodes, listed by :func:`_closed_masks`.
    """
    graph = _capped_d_graph(v)
    count = _count_closed(graph)
    if count > LISTING_CAP:
        raise CapExceeded(f"{count} congruences exceed the listing cap {LISTING_CAP}")
    return graph, _closed_masks(graph, [range(len(graph.xs))])[0]


def count_d_closed(v: MultVector) -> int:
    """The number of D-closed sets, i.e. of congruences, without listing them."""
    return _count_closed(_capped_d_graph(v))


def _count_closed(graph: DGraph) -> int:
    """A set is closed iff its part in each weakly connected component of
    the D-graph is, so the count is the product over the components of
    their closed sets, each listed by :func:`_closed_masks`."""
    parent = list(range(len(graph.xs)))
    for s, row in enumerate(graph.succ):
        for p in row:
            _union(parent, s, p >> 3)
    return prod(len(masks) for masks in _closed_masks(graph, _blocks(parent)))


def _capped_d_graph(v: MultVector) -> DGraph:
    """The D-graph, refused above DEFAULT_JI_CAP join irreducibles before it is built."""
    m = irreducibles.count_ji(v)
    if m > DEFAULT_JI_CAP:
        raise CapExceeded(f"{m} join irreducibles exceed cap {DEFAULT_JI_CAP}")
    return d_graph(v)


def _closed_masks(graph: DGraph, groups) -> list[list[int]]:
    """For each group of nodes with no D-edge leaving it, its subsets closed
    under D-successors as bitmasks over the graph's nodes.  Nodes are taken
    by increasing height (:meth:`DGraph.heights`, which raises on a cycle),
    so each comes after its direct successors, and a node may join a set
    only once all of them are present."""
    heights = graph.heights()
    needs = _successor_masks(graph)
    out = []
    for group in groups:
        masks = [0]
        for node in sorted(group, key=heights.__getitem__):
            bit, need = 1 << node, needs[node]
            masks.extend([s | bit for s in masks if s & need == need])
        out.append(masks)
    return out


def _successor_masks(graph: DGraph) -> list[int]:
    """For each node, the bitmask over the graph's nodes of its D-successors."""
    return [sum(1 << (p >> 3) for p in row) for row in graph.succ]


def mask_members(mask: int) -> list[int]:
    """Node indices of a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def congruences_json(graph: DGraph, masks: list[int]) -> str:
    """The ``congruences`` listing: ``json.dumps`` with ``indent=2`` of v and
    the sets ``masks``, each the sorted list of its nodes' vectors, in
    sorted order, byte for byte, and the newline that ends the reply.

    Node indices ascend with the vectors, so a set's sorted member indices
    order the sets as their lists of vectors do; each node's text is
    rendered once, at its depth in a set.
    """
    ends = _json_vectors(graph.xs, graph.parent.n, 6)
    sep = ",\n      "
    sets = [f"[\n      {sep.join(map(ends.__getitem__, members))}\n    ]"
            if members else "[]" for members in sorted(map(mask_members, masks))]
    # every listing holds the empty set; the long text is copied once, by the join
    sets[0] = (f'{{\n  "v": {_json_array(map(str, graph.parent.entries), 2)},'
               f'\n  "congruences": [\n    {sets[0]}')
    sets[-1] += "\n  ]\n}\n"
    return ",\n    ".join(sets)


def congruence_from_S(v: MultVector, s: JiSet) -> Partition:
    """Partition of L(v), refused above CLASSES_CAP words, where words agree
    on their dominated members of S, checked to be compatible with join and meet."""
    if s.parent != v:
        raise MultilatError("JiSet parent mismatch")
    multinomial.check_words_cap(v, CLASSES_CAP, f"the congruence classes cap {CLASSES_CAP}")
    if not s.is_d_closed():
        raise MultilatError(f"set {{{s}}} is not closed under the join dependency")
    words = list(multinomial.enumerate_words(v))
    member_rows = {j: word_inversions(ji_word(j)) for j in s.members}
    keyed: dict[frozenset, list[PathWord]] = {}
    for w in words:
        rows = word_inversions(w)
        key = frozenset(j for j, rows_j in member_rows.items() if rows_j <= rows)
        keyed.setdefault(key, []).append(w)
    partition = Partition(
        v, tuple(sorted((frozenset(b) for b in keyed.values()),
                        key=lambda b: min(b).letters)))
    _verify_congruence(partition, words)
    return partition


def _verify_congruence(p: Partition, words: list[PathWord]) -> None:
    block_id = {w: i for i, block in enumerate(p.blocks) for w in block}
    for block in p.blocks:
        rep, *rest = sorted(block)
        for other in rest:
            for t in words:
                if block_id[mjoin(rep, t)] != block_id[mjoin(other, t)] or \
                   block_id[mmeet(rep, t)] != block_id[mmeet(other, t)]:
                    raise MultilatError(
                        f"relation is not compatible: blocks of {word_str(rep)} and "
                        f"{word_str(other)} split under {word_str(t)}")


def quotient(v: MultVector, s: JiSet) -> tuple[list[str], list[tuple[int, int]]]:
    """The quotient lattice on the blocks of congruence_from_S, as the block
    labels and its (lower, upper) covers, sorted, as indices into them.

    Its covers are the pairs of blocks joined by a cover w -< u of L(v)
    with w and u in different blocks.  Such a pair is a cover: were C
    strictly between [w] and [u], then for c in C the element
    w v (c ^ u) would lie in C and between w and u, so w -< u would not
    be a cover.  Every cover A -< B is such a pair: a maximal chain from
    max A up to max A v min B, which lies in B, passes through A and B
    only, so one of its covers crosses from A to B.
    """
    p = congruence_from_S(v, s)
    block_id = {w: i for i, block in enumerate(p.blocks) for w in block}
    labels = ["{" + ",".join(sorted(word_str(w) for w in block)) + "}"
              for block in p.blocks]
    covers = {(block_id[w], block_id[u])
              for w in block_id for u in multinomial.covers(w)
              if block_id[w] != block_id[u]}
    return labels, sorted(covers)


def check_parikh_connectivity(p: Partition) -> bool:
    """Every block connected under single adjacent-transposition steps.

    Swapping two unequal adjacent letters is an upper or a lower cover,
    so the steps are the ``covers`` edges inside a block, merged in one
    union-find over the words: each block is connected iff the union-find
    ends with as many sets as there are blocks.
    """
    words = [w for block in p.blocks for w in block]
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))
    for block in p.blocks:
        for w in block:
            for u in multinomial.covers(w):
                if u in block:
                    _union(parent, index[w], index[u])
    return len(_blocks(parent)) == len(p.blocks)
