"""Reply checks for the benchmark, independent of the multilat package.

Every check rests on a fact about multinomial lattices L(v) that does not
depend on how the package computes it: closed counting formulas, the
2-letter-projection description of the order, the single-descent form of
join irreducibles, and the definition of a congruence from a set S of join
irreducibles.  Nothing here imports multilat.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
CAP_REFUSAL = "exceeds materialization cap"

# -- closed formulas ---------------------------------------------------------


def lattice_size(v) -> int:
    """|L(v)|: the multinomial coefficient."""
    return math.factorial(sum(v)) // math.prod(math.factorial(e) for e in v)


def count_ji(v) -> int:
    """Number of join irreducibles: prod(v_i + 1) - 1 - k."""
    return math.prod(e + 1 for e in v) - 1 - sum(v)


def dimension(v) -> int:
    return sum(1 for e in v if e > 0)


def vec_str(v) -> str:
    return ",".join(str(e) for e in v)


# -- words and the projection order -------------------------------------------


def words_of(v) -> list[tuple[int, ...]]:
    """All words of L(v), lexicographic, letters 1..n."""
    out: list[tuple[int, ...]] = []
    remaining = list(v)
    prefix: list[int] = []

    def rec() -> None:
        if len(prefix) == sum(v):
            out.append(tuple(prefix))
            return
        for letter in range(1, len(v) + 1):
            if remaining[letter - 1]:
                remaining[letter - 1] -= 1
                prefix.append(letter)
                rec()
                prefix.pop()
                remaining[letter - 1] += 1

    rec()
    return out


def word_text(w) -> str:
    return "".join(ALPHABET[c - 1] for c in w)


def parse_word(text: str) -> tuple[int, ...]:
    return tuple(ALPHABET.index(ch) + 1 for ch in text)


def leq(w, u, n: int) -> bool:
    """w <= u iff on every letter pair l < m the projected path of w stays
    weakly below that of u (counted as occurrences of m in each prefix)."""
    for l, m in combinations(range(1, n + 1), 2):
        cw = cu = 0
        pu = [c for c in u if c == l or c == m]
        for a, b in zip((c for c in w if c == l or c == m), pu):
            cw += a == m
            cu += b == m
            if cw > cu:
                return False
    return True


def _swaps(w, descent: bool):
    for p in range(len(w) - 1):
        if (w[p] > w[p + 1]) == descent and w[p] != w[p + 1]:
            s = list(w)
            s[p], s[p + 1] = s[p + 1], s[p]
            yield tuple(s)


def lower_covers(w):
    return _swaps(w, descent=True)


def upper_covers(w):
    return _swaps(w, descent=False)


def is_join(r, w, u, n: int) -> bool:
    """r is an upper bound of w, u and no lower cover of r is one.

    In a finite lattice the upper bounds of {w, u} form the filter above
    w v u, so an upper bound none of whose lower covers is an upper bound
    is the join itself."""
    if not (leq(w, r, n) and leq(u, r, n)):
        return False
    return not any(leq(w, c, n) and leq(u, c, n) for c in lower_covers(r))


def is_meet(r, w, u, n: int) -> bool:
    if not (leq(r, w, n) and leq(r, u, n)):
        return False
    return not any(leq(c, w, n) and leq(c, u, n) for c in upper_covers(r))


def cover_file(v) -> str:
    """The Hasse diagram of L(v): w < w' when w' swaps one ascent of w."""
    return "".join(f"{word_text(w)}<{word_text(c)}\n"
                   for w in words_of(v) for c in upper_covers(w))


def ji_word(v, x) -> tuple[int, ...]:
    """The single-descent word a1^x1..an^xn a1^(v1-x1)..an^(vn-xn)."""
    n = len(v)
    return (tuple(i for i in range(1, n + 1) for _ in range(x[i - 1]))
            + tuple(i for i in range(1, n + 1) for _ in range(v[i - 1] - x[i - 1])))


def dominance(v, nodes) -> list[tuple[str, int]]:
    """Each word of L(v) with the bitmask of the join irreducibles below it."""
    n = len(v)
    jws = [ji_word(v, x) for x in nodes]
    return [(word_text(w), sum(1 << i for i, jw in enumerate(jws) if leq(jw, w, n)))
            for w in words_of(v)]


def partition_of(dom: list[tuple[str, int]], s_mask: int) -> set[frozenset[str]]:
    """Blocks of the congruence for S: words dominating the same members of S."""
    blocks: dict[int, set[str]] = {}
    for word, mask in dom:
        blocks.setdefault(mask & s_mask, set()).add(word)
    return {frozenset(b) for b in blocks.values()}


# -- D-graph facts -----------------------------------------------------------


def graph_from_json(text: str):
    data = json.loads(text)
    nodes = [tuple(x) for x in data["nodes"]]
    index = {x: i for i, x in enumerate(nodes)}
    edges = [(index[tuple(e["source"])], index[tuple(e["target"])])
             for e in data["edges"]]
    return nodes, edges


def longest_path(m: int, edges) -> int | None:
    """Longest directed path in edges, or None when there is a cycle."""
    succ = [[] for _ in range(m)]
    indeg = [0] * m
    for s, t in edges:
        succ[s].append(t)
        indeg[t] += 1
    order = [i for i in range(m) if indeg[i] == 0]
    for i in order:
        for t in succ[i]:
            indeg[t] -= 1
            if indeg[t] == 0:
                order.append(t)
    if len(order) != m:
        return None
    depth = [0] * m
    for i in reversed(order):
        depth[i] = max((1 + depth[t] for t in succ[i]), default=0)
    return max(depth, default=0)


def closed_set_count(m: int, edges) -> int:
    """Number of vertex sets closed under following edges, by brute force
    over all 2^m subsets."""
    if m > 20:
        raise ValueError(f"brute force over 2^{m} subsets refused")
    masks = np.arange(1 << m, dtype=np.int64)
    ok = np.ones(1 << m, dtype=bool)
    for s, t in edges:
        ok &= ((masks >> s) & 1 == 0) | ((masks >> t) & 1 == 1)
    return int(ok.sum())


@lru_cache(maxsize=None)
def congruence_count(v) -> int:
    """Congruences of L(v) as the sets of join irreducibles closed under the
    join dependency D, with D computed from the arrow relations of the
    materialized order: j D j' iff j != j' and j up-arrow m down-arrow j'
    for some meet irreducible m."""
    words = words_of(v)
    n = len(v)
    index = {w: i for i, w in enumerate(words)}
    le = [[leq(w, u, n) for u in words] for w in words]
    lower = {i: [index[c] for c in lower_covers(w)] for i, w in enumerate(words)}
    upper = {i: [index[c] for c in upper_covers(w)] for i, w in enumerate(words)}
    jis = [i for i in lower if len(lower[i]) == 1]
    mis = [i for i in upper if len(upper[i]) == 1]
    edges = []
    for a, j in enumerate(jis):
        ups = [m for m in mis if not le[j][m] and le[j][upper[m][0]]]
        for b, j2 in enumerate(jis):
            if j2 != j and any(not le[j2][m] and le[lower[j2][0]][m] for m in ups):
                edges.append((a, b))
    return closed_set_count(len(jis), edges)


# -- per-verb reply checks ---------------------------------------------------


def check(req, rc: int | None, out: str, err: str) -> tuple[str, str]:
    """Classify one reply as ("ok", ""), ("refused", why) or ("wrong", why).

    "refused" is the one known refusal of the seed commit: ``theorem
    --method exhaustive`` on more than 100 elements exits 1 with a
    materialization-cap diagnostic.  Any other nonzero exit is wrong."""
    if rc is None:
        return "wrong", f"exception: {err.strip()[-200:]}"
    if rc != 0:
        if req.known_refusal and rc == 1 and CAP_REFUSAL in err:
            return "refused", err.strip()
        return "wrong", f"exit {rc}: {err.strip()[-200:]}"
    try:
        why = CHECKS[req.verb](req, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        why = f"unparsable reply ({type(exc).__name__}: {exc})"
    return ("wrong", why) if why else ("ok", "")


def _check_sd(req, out):
    data = json.loads(out)
    n, d = req.params["n"], dimension(req.v)
    if data["n"] != n or data["sd_holds"] != (n >= d - 1):
        return f"sd_holds={data['sd_holds']} at n={n}, dim={d}"
    return ""


def _check_theorem(req, out):
    data = json.loads(out)
    d = dimension(req.v)
    if (data["dim"], data["sd_fail_level"], data["sd_hold_level"]) != (d, d - 2, d - 1):
        return (f"dim/fail/hold {data['dim']}/{data['sd_fail_level']}/"
                f"{data['sd_hold_level']}, expected {d}/{d - 2}/{d - 1}")
    return ""


def _check_lattice(req, out):
    data = json.loads(out)
    v = req.v
    if data["elements"] != lattice_size(v):
        return f"{data['elements']} elements, expected {lattice_size(v)}"
    if data["join_irreducibles"] != count_ji(v):
        return f"{data['join_irreducibles']} join irreducibles, expected {count_ji(v)}"
    if not (data["semidistributive"] and data["bounded"]):
        return "not reported semidistributive and bounded"
    if data["sd_holds"] is not False:
        return f"SD_{data['sd_n']} reported to hold at dim {dimension(v)}"
    return ""


def _check_dgraph(req, out):
    nodes, edges = graph_from_json(out)
    v = req.v
    if len(nodes) != count_ji(v) or len(set(nodes)) != len(nodes):
        return f"{len(nodes)} nodes, expected {count_ji(v)}"
    length = longest_path(len(nodes), edges)
    if length is None:
        return "D-graph has a cycle"
    if all(e > 0 for e in v) and length != dimension(v) - 2:
        return f"longest D-path {length}, expected {dimension(v) - 2}"
    return ""


def _check_congruences(req, out):
    got = int(out.strip())
    v = req.v
    if dimension(v) == 2:
        want = 2 ** count_ji(v)  # L(a, b) is distributive: every JI set is closed
    else:
        want = congruence_count(v)
    return "" if got == want else f"{got} congruences, expected {want}"


def _check_classes(req, out):
    data = json.loads(out)
    blocks = [frozenset(b) for b in data["blocks"]]
    total = sum(len(b) for b in blocks)
    union = frozenset().union(*blocks) if blocks else frozenset()
    if total != lattice_size(req.v) or len(union) != total:
        return f"blocks cover {len(union)} distinct of {total} words, |L|={lattice_size(req.v)}"
    if len(blocks) < req.params["s_size"] + 1:
        return f"{len(blocks)} blocks for |S|={req.params['s_size']}"
    if set(blocks) != req.params["partition"]:
        return "blocks differ from the words grouped by dominated members of S"
    return ""


def _check_quotient(req, out):
    lower: dict[str, set[str]] = {}
    for line in out.splitlines():
        lo, sep, hi = line.partition("<")
        if not sep:
            return f"bad cover line {line!r}"
        lower.setdefault(lo, set())
        lower.setdefault(hi, set()).add(lo)
    jis = sum(1 for below in lower.values() if len(below) == 1)
    if jis != req.params["s_size"]:
        return f"{jis} join irreducibles in the quotient, expected |S|={req.params['s_size']}"
    blocks = len(req.params["partition"])
    if blocks > 1 and len(lower) != blocks:
        return f"{len(lower)} quotient elements, expected {blocks}"
    return ""


def _check_order(req, out):
    w, u = req.params["words"]
    want = "true" if leq(w, u, len(req.v)) else "false"
    got = out.strip()
    return "" if got == want else f"order {got}, expected {want}"


def _check_join(req, out):
    w, u = req.params["words"]
    r = parse_word(out.strip())
    if sorted(r) != sorted(w) or not is_join(r, w, u, len(req.v)):
        return f"{out.strip()} is not the join"
    return ""


def _check_meet(req, out):
    w, u = req.params["words"]
    r = parse_word(out.strip())
    if sorted(r) != sorted(w) or not is_meet(r, w, u, len(req.v)):
        return f"{out.strip()} is not the meet"
    return ""


CHECKS = {
    "sd": _check_sd,
    "theorem": _check_theorem,
    "lattice": _check_lattice,
    "dgraph": _check_dgraph,
    "congruences": _check_congruences,
    "classes": _check_classes,
    "quotient": _check_quotient,
    "order": _check_order,
    "join": _check_join,
    "meet": _check_meet,
}
