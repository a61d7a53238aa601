"""Seeded request streams for the three workloads.

A run sends blocks of requests; each block is one stratified draw of at
least 100 requests.  Strata ("rungs") fix how many requests of each verb and
size class a block holds, so a different seed changes which inputs are drawn
but not how much work a block holds.  Block ``i`` of a run is drawn from
``Random(f"{workload}:{seed}:{i}")``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations, product
from pathlib import Path

from oracle import (count_ji, cover_file, dimension, dominance, graph_from_json,
                    lattice_size, partition_of, vec_str, word_text)


@dataclass
class Request:
    verb: str
    argv: list[str]
    v: tuple[int, ...]
    rung: str
    params: dict = field(default_factory=dict)
    known_refusal: bool = False


def _perms(*bases):
    return sorted({p for b in bases for p in permutations(b)})


def _vectors(ns, low, top, keep):
    return [v for n in ns for v in product(range(low, top + 1), repeat=n) if keep(v)]


# -- sd_tables -----------------------------------------------------------------

# (rung, pool, vectors, sd-hold requests, theorem requests, cover-file requests).
# Every vector gets "sd -n dim-2"; the first `holds` also get "sd -n dim-1";
# `theorems` of them get "theorem --method exhaustive" (those after the holds
# when there are enough, else the first ones); the last `covers` get
# "lattice --covers".  So every vector is requested at least twice.
# The rung sizes put the median request inside the cheapest rung and the
# 90th percentile inside the sd dim-2 and cover-file requests of L120-140,
# so neither quantile sits on the edge between two rungs.
def _sd_recipe():
    def band(lo, hi):
        return _vectors((3, 4, 5), 1, 8, lambda v: sum(v) <= 10
                        and lo <= lattice_size(v) <= hi)
    # The top rung keeps 420-element lattices whose build and first-failure
    # scan cost about the same, so one draw per block does not swing the
    # block's cost.
    top = _perms((4, 2, 2)) + [(3, 1, 1, 2), (3, 1, 2, 1), (3, 2, 1, 1)]
    return [
        ("L20-30", band(20, 30), 20, 20, 4, 20),
        ("L56-100", band(56, 100), 8, 8, 4, 4),
        ("L120-140", band(120, 140), 10, 2, 4, 6),
        ("L420", top, 1, 0, 0, 1),
    ]


class SdTables:
    name = "sd_tables"

    def build_pool(self, ctx):
        recipe = _sd_recipe()
        covers_dir = Path(ctx.workdir) / "covers"
        covers_dir.mkdir(parents=True, exist_ok=True)
        files = {}
        for _, pool, *_ in recipe:
            for v in pool:
                path = covers_dir / f"{vec_str(v)}.cov"
                path.write_text(cover_file(v))
                files[v] = str(path)
        return {"recipe": recipe, "files": files}

    def block(self, pool, rng):
        out = []
        for rung, vecs, count, holds, theorems, covers in pool["recipe"]:
            drawn = [rng.choice(vecs) for _ in range(count)]
            t0 = holds if holds + theorems <= count else 0
            for i, v in enumerate(drawn):
                d, vs = dimension(v), vec_str(v)
                levels = [d - 2] + ([d - 1] if i < holds else [])
                for n in levels:
                    out.append(Request("sd", ["sd", "-v", vs, "-n", str(n), "--exhaustive"],
                                       v, rung, {"n": n}))
                if t0 <= i < t0 + theorems:
                    out.append(Request("theorem", ["theorem", "-v", vs, "--method", "exhaustive"],
                                       v, rung, known_refusal=lattice_size(v) > 100))
                if i >= count - covers:
                    out.append(Request("lattice", ["lattice", "--covers", pool["files"][v],
                                                   "--sd", str(d - 2)], v, rung))
        rng.shuffle(out)
        return out


# -- dpath_vectors -------------------------------------------------------------

# Per block and verb: (rung, count_ji range, requests).  A quarter of each
# rung (rounded down) has a zero entry, so its dimension is below n.
DPATH_RUNGS = [("m40-59", 40, 59, 12), ("m60-89", 60, 89, 8),
               ("m90-119", 90, 119, 6), ("m120-160", 120, 160, 4)]
# congruences --count: (rung, count_ji range, least dimension, requests).
# In dimension 2 all 2^m sets of join irreducibles are congruences, so
# dimension-2 vectors stay in the lowest rung: 2^16 of them would dominate
# the stream's time and memory.
CONG_RUNGS = [("m4-8", 4, 8, 2, 14), ("m9-12", 9, 12, 3, 14), ("m13-16", 13, 16, 3, 12)]


def _draw(rng, lo, hi, zero, ns, top, min_dim, keep=lambda v: True):
    """A random vector with lo <= count_ji <= hi, by rejection."""
    while True:
        v = [rng.randint(1, top) for _ in range(rng.choice(ns))]
        if zero:
            v.insert(rng.randint(0, len(v)), 0)
        v = tuple(v)
        if dimension(v) >= min_dim and lo <= count_ji(v) <= hi and keep(v):
            return v


class DpathVectors:
    name = "dpath_vectors"

    def build_pool(self, ctx):
        return None

    def block(self, pool, rng):
        out = []
        for verb in ("theorem", "dgraph"):
            for rung, lo, hi, count in DPATH_RUNGS:
                for i in range(count):
                    v = _draw(rng, lo, hi, i < count // 4, (3, 4, 5, 6), 4, 3,
                              lambda v: lattice_size(v) > 100)
                    out.append(Request(verb, [verb, "-v", vec_str(v)], v, rung))
        for rung, lo, hi, min_dim, count in CONG_RUNGS:
            for i in range(count):
                v = _draw(rng, lo, hi, i < count // 4, (2, 3, 4), 5, min_dim)
                out.append(Request("congruences", ["congruences", "-v", vec_str(v), "--count"],
                                   v, rung))
        rng.shuffle(out)
        return out


# -- word_classes --------------------------------------------------------------

# join/meet/order on random word pairs: (rung, k range, requests per verb).
WORD_RUNGS = [("k4-6", 4, 6, 10), ("k7-9", 7, 9, 10), ("k10-12", 10, 12, 10)]
# classes/quotient: (rung, range of the pairs a congruence check compares,
# requests per verb).  A pair is (word, word of another block); their count
# (|L| - blocks) * |L| sets the cost of verifying the partition.
# The top rung holds 20 of a block's 118 requests, so the 90th percentile
# falls inside it.
CLASS_RUNGS = [("pairs0-60", 0, 60, 2), ("pairs61-200", 61, 200, 2),
               ("pairs201-400", 201, 400, 10)]
# The 32 vectors of the S sets; every L(v) here has at most 90 elements.
CLASS_VECTORS = _perms((2, 2), (3, 3), (2, 3), (2, 4), (3, 4), (2, 1, 1), (3, 1, 1),
                       (2, 2, 1), (4, 1, 1), (3, 2, 1), (1, 1, 1, 1), (2, 1, 1, 1),
                       (2, 2, 2))
S_DRAWS = 128  # random D-closed sets tried per vector


def _random_word(rng, v):
    letters = [i for i in range(1, len(v) + 1) for _ in range(v[i - 1])]
    rng.shuffle(letters)
    return tuple(letters)


class WordClasses:
    name = "word_classes"

    def build_pool(self, ctx):
        """Draw D-closed sets S on each vector and bucket them by the
        number of pairs their congruence check compares."""
        rng = random.Random(f"{self.name}:{ctx.seed}:pool")
        buckets = {rung: [] for rung, *_ in CLASS_RUNGS}
        doms = {}
        for v in CLASS_VECTORS:
            rc, out, err = ctx.call(["dgraph", "-v", vec_str(v)])
            if rc != 0:
                raise RuntimeError(f"dgraph -v {vec_str(v)} failed in set-up: {err}")
            nodes, edges = graph_from_json(out)
            succ = {i: [t for s, t in edges if s == i] for i in range(len(nodes))}
            dom = doms[v] = dominance(v, nodes)
            size = lattice_size(v)
            for _ in range(S_DRAWS):
                stack = rng.sample(range(len(nodes)), rng.randint(0, len(nodes)))
                members = set()
                while stack:
                    i = stack.pop()
                    if i not in members:
                        members.add(i)
                        stack.extend(succ[i])
                mask = sum(1 << i for i in members)
                pairs = (size - len(partition_of(dom, mask))) * size
                for rung, lo, hi, _ in CLASS_RUNGS:
                    if lo <= pairs <= hi:
                        text = ";".join(vec_str(nodes[i]) for i in sorted(members)) or "-"
                        buckets[rung].append((v, text, len(members), mask))
        return {"buckets": buckets, "dominance": doms}

    def block(self, pool, rng):
        out = []
        for rung, lo, hi, count in WORD_RUNGS:
            for verb in ("join", "meet", "order"):
                for _ in range(count):
                    k = rng.randint(lo, hi)
                    n = rng.randint(2, min(6, k))
                    cuts = sorted(rng.sample(range(1, k), n - 1))
                    v = tuple(b - a for a, b in zip([0] + cuts, cuts + [k]))
                    w, u = _random_word(rng, v), _random_word(rng, v)
                    out.append(Request(verb, [verb, "-v", vec_str(v), word_text(w), word_text(u)],
                                       v, rung, {"words": (w, u)}))
        for rung, *_, count in CLASS_RUNGS:
            for verb in ("classes", "quotient"):
                for _ in range(count):
                    v, text, s_size, mask = rng.choice(pool["buckets"][rung])
                    part = partition_of(pool["dominance"][v], mask)
                    out.append(Request(verb, [verb, "-v", vec_str(v), "-S", text], v, rung,
                                       {"s_size": s_size, "partition": part}))
        rng.shuffle(out)
        return out


WORKLOADS = {w.name: w for w in (SdTables(), DpathVectors(), WordClasses())}
