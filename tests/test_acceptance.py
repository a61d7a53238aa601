"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they are produced; each test also asserts its criterion, so a FAIL line
always comes with a failing test.
"""

import itertools
import subprocess
import sys
import time

from conftest import (all_inversion_sets, d_closed_sets, oracle_clopen_join,
                      oracle_clopen_meet, oracle_congruences, oracle_leq,
                      oracle_longest_simple_path, oracle_sd_holds_on, quotient_lattice)
from multilat import congruence, finite_lattice, irreducibles, perm_core, sd_engine
from multilat import multinomial as mn
from multilat.order import sd_sequence


def report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {num:02d} {name}{tail}")
    assert ok, f"criterion {num:02d} {name} failed"


def test_01_dimension_three_sd_levels():
    start = time.perf_counter()
    ok = True
    for text in ("1,1,1", "2,1,1"):
        v = mn.parse_vector(text)
        lattice = mn.to_finite_lattice(v)
        ok = ok and lattice.sd_holds(2) is True
        ok = ok and sd_engine.witness_fails(v, 1)
    elapsed = time.perf_counter() - start
    report(1, "dimension-3: SD_2 holds, SD_1 fails on the witness",
           ok and elapsed < 1.0, f"{elapsed:.2f}s < 1s")


def test_02_dimension_four_sd_levels():
    start = time.perf_counter()
    v = mn.parse_vector("1,1,1,1")
    lattice = mn.to_finite_lattice(v)
    ok = lattice.sd_holds(3) is True and sd_engine.witness_fails(v, 2)
    elapsed = time.perf_counter() - start
    report(2, "dimension-4: SD_3 holds, SD_2 fails on the witness",
           ok and elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def test_03_dimension_five_dpath_bound():
    start = time.perf_counter()
    v = mn.parse_vector("1,1,2,1,1")
    length = oracle_longest_simple_path(irreducibles.d_graph(v))
    ok = length == 3 and sd_engine.witness_fails(v, 3)
    rep = sd_engine.theorem_check(v, method=sd_engine.DPATH_BOUND)
    ok = ok and rep.sd_fail_level == 3 and rep.sd_hold_level == 4
    elapsed = time.perf_counter() - start
    report(3, "dimension-5: longest D-path 3, SD_3 fails via the embedded witness",
           ok and elapsed < 30.0, f"{elapsed:.2f}s < 30s")


def test_04_explicit_d_relation_matches_bruteforce():
    start = time.perf_counter()
    ok = True
    for text in ("1,1,1", "1,1,1,1", "2,1,1", "1,2,1", "2,2,1,1", "1,1,2,1,1"):
        v = mn.parse_vector(text)
        lattice = mn.to_finite_lattice(v)
        jis = irreducibles.enumerate_ji(v)
        idx = {lattice.labels.index(mn.word_str(irreducibles.ji_word(j))): j
               for j in jis}
        brute = {(idx[a], idx[b]) for a, b in lattice.bruteforce_D()}
        explicit = {(a, b) for a in jis for b in jis if irreducibles.d_rel(a, b)}
        ok = ok and brute == explicit
    elapsed = time.perf_counter() - start
    report(4, "vector D-relation equals brute force on six lattices",
           ok and elapsed < 60.0, f"{elapsed:.2f}s < 60s")


def test_05_irreducible_count_formula():
    ok = irreducibles.count_ji(mn.parse_vector("3,3")) == 9
    ok = ok and irreducibles.count_ji(mn.parse_vector("1,1,1,1")) == 11
    for text in ("2,1", "2,2", "2,1,1", "1,2,1", "3,3", "2,2,1", "1,1,2,1,1"):
        v = mn.parse_vector(text)
        ok = ok and irreducibles.count_ji(v) == len(irreducibles.enumerate_ji(v))
    report(5, "join irreducible count formula, incl. (3,3)->9 and (1,1,1,1)->11", ok)


def test_06_cli_kappa():
    proc = subprocess.run(
        [sys.executable, "-m", "multilat.cli", "kappa", "-v", "3,3", "aabbab"],
        capture_output=True, text=True)
    ok = proc.returncode == 0 and proc.stdout.strip() == "baaabb"
    report(6, "CLI: kappa -v 3,3 aabbab prints baaabb", ok)


def test_07_congruence_counts():
    counts = {}
    ok = True
    for text, expected in (("2,2", 16), ("1,1,1", 7)):
        v = mn.parse_vector(text)
        via_sets = len(d_closed_sets(v))
        via_lattice = len(oracle_congruences(mn.to_finite_lattice(v)))
        counts[text] = via_sets
        ok = ok and via_sets == expected == via_lattice
    report(7, "L(2,2) has 16 congruences and Perm(3) has 7, "
              "matching independent enumeration", ok, str(counts))


def test_08_holes_congruence():
    v = mn.parse_vector("3,3")
    s = congruence.parse_ji_set(v, "0,3;1,2")
    p = congruence.congruence_from_S(v, s)
    q = quotient_lattice(v, s)
    ok = (len(p.blocks) == 3
          and congruence.check_parikh_connectivity(p)
          and q.n == 3 and len(q.cover_pairs()) == 2)
    report(8, "L(3,3) with S={(0,3),(1,2)}: 3 connected classes, 3-chain quotient", ok)


def test_09_dpath_extraction():
    n5 = finite_lattice.n5()
    path = n5.dpath_from_sd_failure(n5.labels.index("a"), n5.labels.index("b"),
                                    n5.labels.index("c"), 1)
    ok = [n5.labels[i] for i in path] == ["a", "b"]

    v = mn.parse_vector("1,1,1,1")
    lattice = mn.to_finite_lattice(v)
    wx, wy, wz = (lattice.labels.index(mn.word_str(w))
                  for w in sd_engine.witness_words(v))
    if oracle_sd_holds_on(lattice, wx, wy, wz, 2):
        wy, wz = wz, wy  # the failing ordering depends on the parity of n
    path4 = lattice.dpath_from_sd_failure(wx, wy, wz, 2)
    brute = lattice.bruteforce_D()
    ok = ok and len(path4) == 3 and len(set(path4)) == 3
    ok = ok and all((path4[i], path4[i + 1]) in brute for i in range(2))
    report(9, "D-paths from SD failures: [a,b] in the pentagon, "
              "length-2 path in the 4-letter lattice", ok)


def test_10_property_suites():
    start = time.perf_counter()
    ok = True

    # SD_n monotone in n (n <= 5)
    lattices = [finite_lattice.n5(), finite_lattice.m3(), finite_lattice.benzene(),
                mn.to_finite_lattice(mn.parse_vector("1,1,1")),
                mn.to_finite_lattice(mn.parse_vector("2,2"))]
    for lattice in lattices:
        held = False
        for n in range(6):
            now = lattice.sd_holds(n) is True
            ok = ok and not (held and not now)
            held = now

    # 1000 random triples: sequence laws
    import random
    rng = random.Random(7)
    pool = [finite_lattice.benzene(),
            mn.to_finite_lattice(mn.parse_vector("2,1,1"))]
    for _ in range(1000):
        lattice = rng.choice(pool)
        x, y, z = (rng.randrange(lattice.n) for _ in range(3))
        pairs = sd_sequence(lattice.join, lattice.meet, x, y, z, 3)
        for (y0, z0), (y1, z1) in zip(pairs, pairs[1:]):
            ok = ok and lattice.leq_table[y0, y1] and lattice.leq_table[z0, z1]

    # clopen lub/glb, exhaustive for k <= 4
    for k in (2, 3, 4):
        for a, b in itertools.product(all_inversion_sets(k), repeat=2):
            ok = ok and perm_core.perm_join(a, b) == oracle_clopen_join(a, b)
            ok = ok and perm_core.perm_meet(a, b) == oracle_clopen_meet(a, b)

    # the position embedding is an order embedding for k <= 5, read back
    # from the inversion set, with no inversion inside one letter's fiber
    for text in ("2,1", "2,2", "2,1,1", "1,1,1,1", "3,2", "2,2,1", "1,1,1,1,1"):
        v = mn.parse_vector(text)
        words = list(mn.enumerate_words(v))
        mu = mn.bottom(v).letters
        fibers = perm_core.inv_set(v.k, ((a, b) for a, b in
                                         itertools.combinations(range(1, v.k + 1), 2)
                                         if mu[a - 1] == mu[b - 1]))
        for w in words:
            ok = ok and mn.inversions_word(v, mn.word_inversions(w)) == w
            ok = ok and not any((mn.word_inversions(w) & fibers).rows)
        for w, u in itertools.product(words, repeat=2):
            ok = ok and oracle_leq(w, u) == (
                mn.word_inversions(w) <= mn.word_inversions(u))

    # kappa and its dual are mutually inverse
    for text in ("2,1", "2,2", "2,1,1", "1,2,1", "3,3", "1,1,1,1", "1,1,2,1,1"):
        v = mn.parse_vector(text)
        for j in irreducibles.enumerate_ji(v):
            ok = ok and irreducibles.kappa_d(irreducibles.kappa(j)) == j
        for m in irreducibles.enumerate_mi(v):
            ok = ok and irreducibles.kappa(irreducibles.kappa_d(m)) == m

    elapsed = time.perf_counter() - start
    report(10, "property suites: SD monotonicity, sequence laws, clopen bounds, "
               "position embedding, kappa inverses",
           ok and elapsed < 120.0, f"{elapsed:.1f}s < 120s")
