import contextlib
import dataclasses
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import oracle_d_graph, oracle_longest_simple_path, oracle_sd_fails_on_words
from hypothesis import given, settings
from hypothesis import strategies as st

import multilat
from multilat import cli, congruence, finite_lattice, order, sd_engine
from multilat import irreducibles as ir
from multilat import multinomial as mn
from multilat.errors import CapExceeded
from multilat.perm_core import inv_set


def run_ok(capsys, *argv):
    assert cli.run(list(argv)) == 0
    return capsys.readouterr().out


def test_elements(capsys):
    out = run_ok(capsys, "elements", "-v", "1,1,1")
    assert out.splitlines() == ["abc", "acb", "bac", "bca", "cab", "cba"]


def test_order(capsys):
    assert run_ok(capsys, "order", "-v", "2,1", "aab", "aba").strip() == "true"
    assert run_ok(capsys, "order", "-v", "2,1", "aba", "aab").strip() == "false"


def test_join_meet(capsys):
    assert run_ok(capsys, "join", "-v", "2,1", "aba", "aab").strip() == "aba"
    assert run_ok(capsys, "meet", "-v", "2,1", "aba", "baa").strip() == "aba"


def test_ji_mi(capsys):
    assert run_ok(capsys, "ji", "-v", "3,3", "--count").strip() == "9"
    words = run_ok(capsys, "ji", "-v", "1,1,1").splitlines()
    assert len(words) == 4 and "bca" in words
    vectors = run_ok(capsys, "mi", "-v", "1,1,1", "--vectors").splitlines()
    assert len(vectors) == 4 and all("," in line for line in vectors)


@pytest.mark.parametrize("verb", ["ji", "mi"])
def test_ji_mi_count_by_formula(capsys, verb):
    start = time.perf_counter()
    assert run_ok(capsys, verb, "-v", ",".join(["1"] * 20), "--count") == "1048555\n"
    assert time.perf_counter() - start < 1.0
    for text in ["3,3", "1,1,1", "2,2,2", "3,0,2,1,3", "0,3,3,0", "2,1", "1", "0,0"]:
        listed = run_ok(capsys, verb, "-v", text).splitlines()
        assert run_ok(capsys, verb, "-v", text, "--count") == f"{len(listed)}\n"


def test_kappa(capsys):
    assert run_ok(capsys, "kappa", "-v", "3,3", "aabbab").strip() == "baaabb"
    # --dual inverts the pairing
    assert run_ok(capsys, "kappa", "-v", "3,3", "baaabb", "--dual").strip() == "aabbab"


def test_dgraph(capsys):
    data = json.loads(run_ok(capsys, "dgraph", "-v", "1,1,1"))
    assert len(data["nodes"]) == 4 and len(data["edges"]) == 4
    dot = run_ok(capsys, "dgraph", "-v", "1,1,1", "--dot")
    assert dot.startswith("digraph") and dot.count("->") == 4


def test_congruences(capsys):
    assert run_ok(capsys, "congruences", "-v", "2,2", "--count").strip() == "16"
    data = json.loads(run_ok(capsys, "congruences", "-v", "1,1,1"))
    assert len(data["congruences"]) == 7


def test_congruence_count_lists_no_sets(capsys):
    # 24 join irreducibles and no D edge: 2^24 sets, counted per component
    start = time.perf_counter()
    assert run_ok(capsys, "congruences", "-v", "4,6", "--count") == "16777216\n"
    assert time.perf_counter() - start < 1.0
    assert run_ok(capsys, "congruences", "-v", "3,1,3", "--count") == "289747\n"
    assert cli.run(["congruences", "-v", "3,1,3"]) == 1
    assert capsys.readouterr().err == \
        f"error: 289747 congruences exceed the listing cap {congruence.LISTING_CAP}\n"


def reference_congruences(v):
    """The ``congruences`` listing through ``json.dumps``, each set the
    sorted list of its nodes' vectors."""
    graph, masks = congruence.d_closed_masks(v)
    return json.dumps({"v": list(v.entries),
                       "congruences": sorted([list(graph.nodes[i].x)
                                              for i in congruence.mask_members(mask)]
                                             for mask in masks)}, indent=2) + "\n"


@pytest.mark.parametrize("text", ["3", "0,2", "2,1", "1,1,1", "1,2,1", "2,2", "1,1,1,1",
                                  "3,0,2", "0,3,3,0", "2,1,2"])
def test_congruences_listing_is_the_json_module_layout(capsys, text):
    assert run_ok(capsys, "congruences", "-v", text) == reference_congruences(mn.parse_vector(text))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(
    lambda e: ir.count_ji(mn.MultVector(tuple(e))) <= 14))
def test_congruences_listing_matches_json_dumps_on_random_vectors(entries):
    v = mn.MultVector(tuple(entries))
    assert cli._dispatch(cli._parse_args(["congruences", "-v", str(v)])) == \
        reference_congruences(v)


def test_classes_and_quotient(capsys):
    out = json.loads(run_ok(capsys, "classes", "-v", "3,3", "-S", "0,3;1,2"))
    assert len(out["blocks"]) == 3
    cov = run_ok(capsys, "quotient", "-v", "3,3", "-S", "0,3;1,2")
    assert cov == (  # a 3-chain
        "{aaabbb,aababb,aabbab,aabbba,abaabb,ababab,ababba,baaabb,baabab,baabba}"
        "<{abbaab,abbaba,abbbaa,babaab,bababa,babbaa,bbaaab,bbaaba,bbabaa}\n"
        "{abbaab,abbaba,abbbaa,babaab,bababa,babbaa,bbaaab,bbaaba,bbabaa}<{bbbaaa}\n")


def test_one_element_quotient_is_an_empty_cover_list(tmp_path, capsys):
    # S = {} puts every word in one block; a one-element lattice has no
    # cover pair, and a cover list without one names no element
    path = tmp_path / "one.cov"
    path.write_text(run_ok(capsys, "quotient", "-v", "2,2", "-S", "-"))
    assert path.read_text() == ""
    for dot in ([], ["--dot"]):
        assert cli.run(["lattice", "--covers", str(path), *dot]) == 1
        assert capsys.readouterr() == ("", "error: empty element set\n")
    path.write_text("x<x\n")  # a reflexive line names the one element
    assert json.loads(run_ok(capsys, "lattice", "--covers", str(path)))["elements"] == 1


def test_sd_witness_and_exhaustive(capsys):
    data = json.loads(run_ok(capsys, "sd", "-v", "1,1,1", "-n", "1", "--witness"))
    assert data["sd_fails_on_witness"] is True
    data = json.loads(run_ok(capsys, "sd", "-v", "1,1,1", "-n", "2", "--exhaustive"))
    assert data["sd_holds"] is True
    data = json.loads(run_ok(capsys, "sd", "-v", "1,1,1", "-n", "1", "--exhaustive"))
    assert data["sd_holds"] is False and len(data["failure"]) == 3
    dual = json.loads(run_ok(capsys, "sd", "-v", "1,1,1", "-n", "2",
                             "--exhaustive", "--dual"))
    assert dual["sd_holds"] is True


def test_theorem(capsys):
    data = json.loads(run_ok(capsys, "theorem", "-v", "1,1,1"))
    assert data["sd_fail_level"] == 1 and data["sd_hold_level"] == 2


def test_theorem_exhaustive_above_auto_cap(capsys):
    # 120 elements: above the cap that picks the method, below the
    # materialization cap an explicit exhaustive check uses
    data = json.loads(run_ok(capsys, "theorem", "-v", "1,1,1,1,1",
                             "--method", "exhaustive"))
    assert (data["sd_fail_level"], data["sd_hold_level"]) == (3, 4)
    assert data["method"] == "exhaustive"


def test_lattice_and_fixtures(tmp_path, capsys):
    run_ok(capsys, "seed-fixtures", str(tmp_path))
    assert (tmp_path / "n5.cov").exists()
    data = json.loads(run_ok(capsys, "lattice", "--covers",
                             str(tmp_path / "n5.cov"), "--sd", "1"))
    assert data["elements"] == 5
    assert data["sd_holds"] is False
    dot = run_ok(capsys, "lattice", "--covers", str(tmp_path / "m3.cov"), "--dot")
    assert dot.startswith("digraph")


def reference_lattice_reply(lattice, sd_n):
    """The ``lattice --covers`` reply as ``json.dumps(info, indent=2)``."""
    verdict = None if sd_n is None else lattice.sd_verdict(sd_n)
    info = {
        "elements": lattice.n,
        "join_irreducibles": len(lattice.join_irreducibles()),
        "meet_irreducibles": len(lattice.meet_irreducibles()),
        "d_edges": sorted([lattice.labels[a], lattice.labels[b]]
                          for a, b in lattice.bruteforce_D()),
        "distributive": lattice.is_distributive(),
        "semidistributive": lattice.is_semidistributive(),
        "bounded": lattice.is_bounded(),
    }
    if sd_n is not None:
        info["sd_n"] = sd_n
        info["sd_holds"] = verdict is True
        if verdict is not True:
            info["sd_failure"] = [lattice.labels[i] for i in verdict]
    return json.dumps(info, indent=2) + "\n"


def read_lattice(text):
    labels, covers = order.parse_cover_file(text)
    return finite_lattice.FiniteLattice.from_covers(covers, labels)


def m_k(atoms, top="1", bottom="0"):
    return "".join(f"{bottom}<{a}\n{a}<{top}\n" for a in atoms)


LATTICE_FILES = {
    **{name: make().to_cover_file() for name, make in finite_lattice.FIXTURES.items()},
    "chain2": finite_lattice.chain(2).to_cover_file(),  # no D edge
    "chain7": finite_lattice.chain(7).to_cover_file(),
    "m12": m_k([f"a{i}" for i in range(12)]),  # a10 sorts before a2
    # labels that json.dumps escapes: control and non-ASCII characters
    "m4-quoted": m_k(["q\tx", "\u00e9", "b\x01c", "Z"], top="t\x7fo\u2603p", bottom="\u00e8"),
    "L(2,1,1)": mn.to_finite_lattice(mn.parse_vector("2,1,1")).to_cover_file(),
    "L(1,1,1,1)": mn.to_finite_lattice(mn.parse_vector("1,1,1,1")).to_cover_file(),
}


@pytest.mark.parametrize("name", LATTICE_FILES)
@pytest.mark.parametrize("sd", [None, 0, 1, 3])
def test_lattice_reply_is_json_dumps(tmp_path, capsys, name, sd):
    path = tmp_path / "lattice.cov"
    path.write_text(LATTICE_FILES[name], encoding="utf-8")
    lattice = read_lattice(LATTICE_FILES[name])
    argv = ["lattice", "--covers", str(path)] + ([] if sd is None else ["--sd", str(sd)])
    assert run_ok(capsys, *argv) == reference_lattice_reply(lattice, sd)


@pytest.mark.parametrize("name", LATTICE_FILES)
def test_dot_writes_every_label_as_a_quoted_id(tmp_path, capsys, name):
    path = tmp_path / "lattice.cov"
    path.write_text(LATTICE_FILES[name], encoding="utf-8")
    lines = run_ok(capsys, "lattice", "--covers", str(path), "--dot").splitlines()
    lattice = read_lattice(LATTICE_FILES[name])
    assert lines[:2] == ["digraph hasse {", "  rankdir=BT;"] and lines[-1] == "}"
    quoted = r'"[^"\\]*"'
    assert all(re.fullmatch(rf"  {quoted}( -> {quoted})?;", line) for line in lines[2:-1])
    assert len(lines) == 3 + lattice.n + len(lattice.cover_pairs())


@pytest.mark.parametrize("dot", [[], ["--dot"]])
@pytest.mark.parametrize("text,message", [
    # a second '<' made the pair (a, b<c), and a wrong "2 minimal elements" reply
    ("a<b<c\nb<c\n", "line 1: expected 'lower<upper', got 'a<b<c'"),
    # '"' and '\\' would end or escape the DOT quoted string of a label
    ('0<1\n0<a"x\na"x<1\n', "line 2: a label may not hold '\"' or '\\', got '0<a\"x'"),
    ("0<1\n# c\\\n0<b\\\n", "line 3: a label may not hold '\"' or '\\', got '0<b\\\\'"),
])
def test_cover_lines_that_are_refused(tmp_path, capsys, dot, text, message):
    path = tmp_path / "bad.cov"
    path.write_text(text)
    assert cli.run(["lattice", "--covers", str(path), *dot]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_lattice_files_include_an_empty_and_a_complete_d():
    assert json.loads(reference_lattice_reply(
        read_lattice(LATTICE_FILES["chain2"]), None))["d_edges"] == []
    m12 = json.loads(reference_lattice_reply(
        read_lattice(LATTICE_FILES["m12"]), None))
    assert len(m12["d_edges"]) == 12 * 11


def test_domain_error_exit_code(capsys):
    assert cli.run(["join", "-v", "2,1", "abb", "aab"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("name", ["missing.cov", "."])
def test_unreadable_cover_file(tmp_path, capsys, name):
    assert cli.run(["lattice", "--covers", str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read cover file") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["taken", "taken/sub"])
def test_unwritable_fixture_directory(tmp_path, capsys, name):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    assert cli.run(["seed-fixtures", str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write fixtures to") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["ji", "-v", "100000000"], ["mi", "-v", "0,100000000"],
                                  ["dgraph", "-v", "100000000,0"],
                                  ["congruences", "-v", "100000000"]])
def test_one_letter_vectors_have_no_irreducibles_to_walk(capsys, argv):
    # L(v) of dimension below 2 is one word, whatever its length
    start = time.perf_counter()
    assert cli.run(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ""


def test_one_word_lattices_refuse_words_over_the_size_cap(capsys):
    k = order.DEFAULT_SIZE_CAP + 1
    start = time.perf_counter()
    assert cli.run(["sd", "-v", f"0,{k}", "-n", "1", "--exhaustive"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == \
        f"error: {k} letters exceed materialization cap {order.DEFAULT_SIZE_CAP}\n"
    data = json.loads(run_ok(capsys, "sd", "-v", f"{k - 1}", "-n", "1", "--exhaustive"))
    assert data["sd_holds"] is True


@pytest.mark.parametrize("argv,message", [
    (["classes", "-v", "3,3", "-S", "9,9"], "error: vector (9, 9) outside [0, 3,3]\n"),
    (["ji", "-v", "3,-1"], "error: negative multiplicity in (3, -1)\n"),
    (["ji", "-v", "3,x"], "error: cannot parse multiplicity vector '3,x'\n"),
    (["classes", "-v", "3,3", "-S", "1,x"], "error: cannot parse irreducible vector '1,x'\n"),
])
def test_parse_errors_keep_their_message(capsys, argv, message):
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("verb", ["dgraph"])
def test_d_graph_cap_refuses_huge_vectors(capsys, verb):
    assert cli.run([verb, "-v", ",".join(["1"] * 20)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1048555 join irreducibles exceed the D-graph cap")
    assert err.count("\n") == 1


@pytest.mark.parametrize("k", [13, 20])
def test_theorem_answers_past_the_d_graph_cap(capsys, k):
    # 8,178 and 1,048,555 join irreducibles: theorem builds no D-graph
    start = time.perf_counter()
    data = json.loads(run_ok(capsys, "theorem", "-v", ",".join(["1"] * k)))
    assert time.perf_counter() - start < 1.0
    assert (data["sd_fail_level"], data["sd_hold_level"]) == (k - 2, k - 1)
    assert data["method"] == "dpath-bound"


@pytest.mark.parametrize("argv,message", [
    (["theorem", "-v", "200,200,200"], "error: 600 letters exceed the witness cap 80"),
    (["theorem", "--method", "exhaustive", "-v", "2,2,2,2,2"],
     "error: |L(2,2,2,2,2)| = 113400 exceeds materialization cap"),
    (["theorem", "--method", "exhaustive", "-v", "1,2000"],
     "error: 2001 letters exceed the witness cap"),
    (["sd", "-v", "300,300,300", "-n", "1", "--witness"],
     "error: 900 letters exceed the witness cap"),
])
def test_caps_refuse_before_any_witness_work(capsys, argv, message):
    # the witness cap refuses before any walk; the exhaustive size cap is
    # to_finite_lattice's, after the witness walk in Perm(dim), which takes
    # microseconds at dimension 5
    start = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["sd", "-v", "1,4000", "-n", "1", "--exhaustive"],
     "error: SD scan of 4001 elements to level 1 takes 128,096,024,002 steps, over the scan cap"),
    (["sd", "-v", "3,3,3", "-n", "0", "--exhaustive", "--dual"],
     "error: SD scan of 1680 elements to level 0 takes"),
    (["sd", "-v", "1,1,1,1,1,1", "-n", "5", "--exhaustive"],
     "error: SD scan of 720 elements to level 5 takes"),
])
def test_sd_scan_cap_refuses_before_materializing(capsys, argv, message):
    start = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_sd_scan_cap_on_cover_files(tmp_path, capsys):
    # M_898 is not meet semidistributive, so SD_2 needs the scan, over its cap
    path = tmp_path / "m898.cov"
    path.write_text(m_k([f"a{i:03d}" for i in range(898)]))
    assert cli.run(["lattice", "--covers", str(path), "--sd", "2"]) == 1
    assert capsys.readouterr().err == "error: SD scan of 900 elements to level 2 takes " \
        f"2,187,000,000 steps, over the scan cap {order.SD_SCAN_CAP:,}\n"
    # a chain's D is empty, so its certificate decides SD_5 with no scan
    path = tmp_path / "chain.cov"
    path.write_text("".join(f"c{i:03d}<c{i + 1:03d}\n" for i in range(899)))
    data = json.loads(run_ok(capsys, "lattice", "--covers", str(path), "--sd", "5"))
    assert (data["elements"], data["sd_holds"]) == (900, True)


@pytest.mark.parametrize("sd", [[], ["--sd", "0"]])
def test_analysis_cap_on_cover_files(tmp_path, capsys, monkeypatch, sd):
    # one label over the cap, a chain and a non-lattice (an antichain over
    # a bottom): refused by the label count before any table is built
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(finite_lattice.FiniteLattice, "from_covers", refuse)
    size = order.ANALYSIS_CAP + 1
    for text in ("".join(f"c{i:04d}<c{i + 1:04d}\n" for i in range(size - 1)),
                 "".join(f"0<a{i:04d}\n" for i in range(size - 1))):
        path = tmp_path / "big.cov"
        path.write_text(text)
        start = time.perf_counter()
        assert cli.run(["lattice", "--covers", str(path), *sd]) == 1
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err == f"error: {size} elements exceed the lattice analysis cap " \
            f"{order.ANALYSIS_CAP}\n"


@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_size_cap_on_cover_files(tmp_path, capsys, dot):
    # one label over the materialization cap: refused before any table is built
    size = order.DEFAULT_SIZE_CAP + 1
    path = tmp_path / "chain.cov"
    path.write_text("".join(f"c{i:04d}<c{i + 1:04d}\n" for i in range(size - 1)))
    start = time.perf_counter()
    assert cli.run(["lattice", "--covers", str(path), *dot]) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cover file has {size} elements, over the " \
        f"materialization cap {order.DEFAULT_SIZE_CAP}\n"


@pytest.mark.parametrize("verb", ["classes", "quotient"])
@pytest.mark.parametrize("text,size", [("3,3,2", 560), ("2,2,2,2,2", 113400)])
def test_classes_cap_refuses_before_enumerating(capsys, verb, text, size):
    start = time.perf_counter()
    assert cli.run([verb, "-v", text, "-S", "-"]) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: |L({text})| = {size} exceeds the congruence classes " \
        f"cap {congruence.CLASSES_CAP}\n"


@pytest.mark.parametrize("argv,message", [
    (["theorem", "-v", "1000000,1000000"], "2000000 letters exceed the witness cap 80"),
    (["sd", "-v", "1000000,1000000", "-n", "1", "--exhaustive"],
     f"|L(1000000,1000000)| exceeds materialization cap {order.DEFAULT_SIZE_CAP}"),
    (["classes", "-v", "1000000,1000000", "-S", "-"],
     f"|L(1000000,1000000)| exceeds the congruence classes cap {congruence.CLASSES_CAP}"),
    (["elements", "-v", ",".join(["1"] * 10)],
     f"|L({','.join(['1'] * 10)})| = 3628800 exceeds the listing cap of "
     f"{order.listing_cap(10)} words of 10 letters"),
    (["elements", "-v", "0,100000000"],
     "|L(0,100000000)| = 1 exceeds the listing cap of 0 words of 100000000 letters"),
    (["ji", "-v", "100,100,100"],
     f"1030000 join irreducibles exceed the listing cap of {order.listing_cap(300)} "
     "words of 300 letters"),
    (["mi", "-v", ",".join(["1"] * 20), "--vectors"],
     f"1048555 meet irreducibles exceed the listing cap of {order.listing_cap(20)} "
     "vectors of 20 entries"),
])
def test_huge_sizes_and_listings_are_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_listing_caps_admit_up_to_the_cap(capsys, monkeypatch):
    # 6 words of 4 letters in L(2,2), 9 join irreducibles of 6 letters in L(3,3)
    for argv, lines, letters in ((["elements", "-v", "2,2"], 6, 4),
                                 (["ji", "-v", "3,3"], 9, 6), (["mi", "-v", "3,3"], 9, 6),
                                 (["ji", "-v", "3,3", "--vectors"], 9, 2)):
        monkeypatch.setattr(order, "LISTING_CAP", lines * (letters + 20))
        assert len(run_ok(capsys, *argv).splitlines()) == lines
        monkeypatch.setattr(order, "LISTING_CAP", lines * (letters + 20) - 1)
        assert cli.run(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert run_ok(capsys, "ji", "-v", "3,3", "--count") == "9\n"


def test_huge_sd_levels_are_clamped(tmp_path, capsys):
    # L(2,2) has a longest chain of 4 steps, n5 one of 3: the scan stops at twice that
    start = time.perf_counter()
    huge = json.loads(run_ok(capsys, "sd", "-v", "2,2", "-n", "1000000000", "--exhaustive"))
    assert time.perf_counter() - start < 1.0
    assert huge == {**json.loads(run_ok(capsys, "sd", "-v", "2,2", "-n", "8", "--exhaustive")),
                    "n": 1000000000}
    run_ok(capsys, "seed-fixtures", str(tmp_path))
    cov = str(tmp_path / "n5.cov")
    start = time.perf_counter()
    huge = json.loads(run_ok(capsys, "lattice", "--covers", cov, "--sd", "1000000000"))
    assert time.perf_counter() - start < 1.0
    assert huge == {**json.loads(run_ok(capsys, "lattice", "--covers", cov, "--sd", "6")),
                    "sd_n": 1000000000}


def test_exhaustive_sd_on_a_long_dimension_two_vector(capsys):
    data = json.loads(run_ok(capsys, "sd", "-v", "1,1000", "-n", "0", "--exhaustive"))
    assert data["sd_holds"] is False and len(data["failure"]) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.run(["join", "-v", "2,1", "aab"])  # missing second word
    assert exc.value.code == 2


def test_parser_survives_consecutive_runs(capsys):
    assert run_ok(capsys, "join", "-v", "2,1", "aba", "aab") == "aba\n"
    with pytest.raises(SystemExit) as exc:
        cli.run(["meet", "-v", "2,1", "aba"])  # missing second word
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: multilat meet")
    assert run_ok(capsys, "meet", "-v", "2,1", "aba", "baa") == "aba\n"
    assert cli.run(["ji", "-v", "3,x"]) == 1
    assert capsys.readouterr().err == "error: cannot parse multiplicity vector '3,x'\n"
    assert run_ok(capsys, "ji", "-v", "3,3", "--count") == "9\n"


def test_readme_examples(tmp_path, monkeypatch, capsys):
    """Every ``multilat`` line of the README runs cleanly and prints its ``# ->`` value."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines()
             if line.startswith("multilat ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)  # seed-fixtures writes into the working directory
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.run(argv) == 0, line
        captured = capsys.readouterr()
        assert captured.err == "", line
        if "# ->" in line:
            assert captured.out.strip() == line.split("# ->")[1].strip(), line


@pytest.mark.parametrize("argv", [["sd", "-v", "1,1,1", "-n", "-1", "--exhaustive"],
                                  ["sd", "-v", "1,1,1", "-n", "-1", "--witness"],
                                  ["lattice", "--covers", "{n5}", "--sd", "-5"]])
def test_negative_sd_level_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "n5.cov"
    path.write_text(finite_lattice.n5().to_cover_file())
    assert cli.run([a.replace("{n5}", str(path)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: n must be >= 0\n")


def record_scans(monkeypatch):
    """The x stepped by each SD scan, one list per sd_holds call."""
    scans = []
    holds, failures = finite_lattice.FiniteLattice.sd_holds, finite_lattice._SdScan.failures

    def counted_holds(self, n):
        scans.append([])
        return holds(self, n)

    def counted_failures(self, lo, hi, level):
        scans[-1].extend(range(lo, hi))
        return failures(self, lo, hi, level)

    monkeypatch.setattr(finite_lattice.FiniteLattice, "sd_holds", counted_holds)
    monkeypatch.setattr(finite_lattice._SdScan, "failures", counted_failures)
    return scans


def test_sd_exhaustive_scans_every_triple(monkeypatch, capsys):
    def certificate(self, n):
        raise AssertionError("sd --exhaustive took the D-path certificate")

    monkeypatch.setattr(finite_lattice.FiniteLattice, "sd_verdict", certificate)
    scans = record_scans(monkeypatch)
    for n in (2, 3, 10):  # above the longest D-path, 1, of L(2,1,1)
        data = json.loads(run_ok(capsys, "sd", "-v", "2,1,1", "-n", str(n), "--exhaustive"))
        assert data["sd_holds"] is True
    assert scans == [list(range(12))] * 3


def test_theorem_exhaustive_certifies_the_holding_side(monkeypatch, capsys):
    scans = record_scans(monkeypatch)
    data = json.loads(run_ok(capsys, "theorem", "-v", "1,1,1,1", "--method", "exhaustive"))
    assert (data["sd_fail_level"], data["sd_hold_level"]) == (2, 3)
    assert scans == []


@pytest.mark.parametrize("text", ["1,1,1,1,1,1", "2,2,2,2"])
def test_theorem_exhaustive_answers_past_the_scan_cap(monkeypatch, capsys, text):
    # a scan to level dim - 1 would be over the scan cap, but none runs
    v = mn.parse_vector(text)
    with pytest.raises(CapExceeded):
        mn.check_scan_cap(v, v.dimension - 1)
    scans = record_scans(monkeypatch)
    assert run_ok(capsys, "theorem", "-v", text, "--method", "exhaustive") == \
        oracle_theorem_reply(v, "exhaustive")
    assert scans == []


# Vectors of 2-4 entries in 0..2 of dimension at least 2, and a few more.
REPLY_VECTORS = [",".join(map(str, e)) for k in range(2, 5)
                 for e in itertools.product(range(3), repeat=k)
                 if sum(1 for c in e if c) >= 2] + ["1,1,2,1,1", "2,0,2,2,1", "3,1,0,2"]


def oracle_theorem_reply(v, method):
    """The ``theorem`` reply with its levels from the oracles: the witness
    words walked in L(v) and the longest path of the tuple-built D-graph."""
    n = v.dimension
    words = sd_engine.witness_words(v)
    failing = [m for m in range(n + 1) if oracle_sd_fails_on_words(*words, m)]
    assert failing == list(range(n - 1))
    return json.dumps({
        "v": list(v.entries), "dim": n, "sd_fail_level": failing[-1],
        "sd_hold_level": oracle_longest_simple_path(oracle_d_graph(v)) + 1,
        "witness_words": [mn.word_str(w) for w in words], "method": method,
    }, indent=2) + "\n"


@pytest.mark.parametrize("text", REPLY_VECTORS)
def test_theorem_and_witness_replies_match_the_oracles(capsys, text):
    v = mn.parse_vector(text)
    methods = ["dpath-bound"] + (["exhaustive"] if v.size() <= 200 else [])
    for method in methods:
        assert run_ok(capsys, "theorem", "-v", text, "--method", method) == \
            oracle_theorem_reply(v, method)
    words = sd_engine.witness_words(v)
    for n in range(v.dimension + 1):
        assert run_ok(capsys, "sd", "-v", text, "-n", str(n), "--witness") == json.dumps({
            "v": list(v.entries), "n": n, "mode": "witness",
            "witness_words": [mn.word_str(w) for w in words],
            "sd_fails_on_witness": oracle_sd_fails_on_words(*words, n)}, indent=2) + "\n"


@pytest.mark.parametrize("text", REPLY_VECTORS + ["3,0,2,1,3", ",".join(["1"] * 13)])
def test_theorem_report_is_the_json_module_layout(text):
    report = sd_engine.theorem_check(mn.parse_vector(text), "dpath-bound")
    for method in ("dpath-bound", "exhaustive"):
        report = dataclasses.replace(report, method=method)
        assert report.to_json() == json.dumps({
            "v": list(report.v.entries), "dim": report.dim,
            "sd_fail_level": report.sd_fail_level, "sd_hold_level": report.sd_hold_level,
            "witness_words": list(report.witness_words), "method": method}, indent=2) + "\n"


def test_dpath_bound_builds_no_d_graph_and_walks_no_words(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("theorem built a D-graph or walked the witness words")

    for name in ("d_graph", "_ji_walk", "_successors"):
        monkeypatch.setattr(ir, name, refuse)
    monkeypatch.setattr(mn, "inversions_word", refuse)  # behind every word join and meet
    for text in ("1,1,2,1,1", "2,0,2,2,1", "60,0,2", ",".join(["1"] * 13)):
        v = mn.parse_vector(text)
        data = json.loads(run_ok(capsys, "theorem", "-v", text))
        assert data["method"] == "dpath-bound"
        assert (data["sd_fail_level"], data["sd_hold_level"]) == (v.dimension - 2,
                                                                  v.dimension - 1)


def test_lattice_sd_scans_only_up_to_the_longest_d_path(tmp_path, monkeypatch, capsys):
    # benzene: meet semidistributive, longest D-path 1, SD_1 fails and SD_2 holds
    path = tmp_path / "benzene.cov"
    path.write_text(finite_lattice.benzene().to_cover_file())
    scans = record_scans(monkeypatch)
    holds = [json.loads(run_ok(capsys, "lattice", "--covers", str(path), "--sd", str(n)))
             ["sd_holds"] for n in range(5)]
    assert holds == [False, False, True, True, True]
    assert len(scans) == 2


def test_replies_that_fill_no_meet_table(tmp_path, monkeypatch, capsys):
    # the order, the covers, the join fill and D answer these; the meet
    # table is filled only when a scan or a prime-quotient descent reads it
    argvs = [["theorem", "-v", "2,2,2", "--method", "exhaustive"]]
    for i, text in enumerate(LATTICE_FILES.values()):
        path = tmp_path / f"{i}.cov"
        path.write_text(text, encoding="utf-8")
        argvs += [["lattice", "--covers", str(path)], ["lattice", "--covers", str(path), "--dot"]]
    # levels above the longest D-path, which the certificate decides
    for name, make, n in [("chain", lambda: finite_lattice.chain(7), 5),
                          ("benzene", finite_lattice.benzene, 2),
                          ("L1111", lambda: mn.to_finite_lattice(mn.parse_vector("1,1,1,1")), 3)]:
        path = tmp_path / f"{name}.cov"
        path.write_text(make().to_cover_file())
        argvs.append(["lattice", "--covers", str(path), "--sd", str(n)])
    expected = [run_ok(capsys, *argv) for argv in argvs]
    assert expected[0] == oracle_theorem_reply(mn.parse_vector("2,2,2"), "exhaustive")
    assert all(json.loads(out)["sd_holds"] for out in expected[-3:])

    def refuse(self):
        raise AssertionError("a meet table was filled")

    monkeypatch.setattr(finite_lattice.FiniteLattice, "meet_table", property(refuse))
    assert [run_ok(capsys, *argv) for argv in argvs] == expected


def test_graph_verbs_build_no_node_or_edge_tuples(monkeypatch, capsys):
    argvs = [["dgraph", "-v", "3,0,2,1,3"], ["dgraph", "-v", "1,1,1,1", "--dot"],
             ["congruences", "-v", "1,2,1"], ["congruences", "-v", "1,1,1,1", "--count"],
             ["classes", "-v", "3,3", "-S", "0,3;1,2"], ["quotient", "-v", "2,2,1", "-S", "-"],
             ["classes", "-v", "2,1,1", "-S", "0,0,1"]]
    expected = [(cli.run(argv), capsys.readouterr()) for argv in argvs]

    def refuse(self):
        raise AssertionError("a verb built the node or edge tuples of the D-graph")

    monkeypatch.setattr(ir.DGraph, "nodes", property(refuse))
    monkeypatch.setattr(ir.DGraph, "edges", property(refuse))
    assert [(cli.run(argv), capsys.readouterr()) for argv in argvs] == expected
    assert [code for code, _ in expected] == [0, 0, 0, 0, 0, 0, 1]


# A child interpreter that imports this checkout's package.
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(multilat.__file__).resolve().parents[1])}

# Verbs that answer from words, vectors and the vector-coded D-graph alone;
# quotient from the covers of L(v) that cross classes.
NUMPY_FREE_ARGVS = [
    ["join", "-v", "2,1", "aba", "aab"], ["meet", "-v", "2,1", "aba", "baa"],
    ["order", "-v", "2,1", "aab", "aba"], ["elements", "-v", "1,1,1"],
    ["ji", "-v", "3,3"], ["mi", "-v", "3,3", "--vectors"], ["kappa", "-v", "3,3", "aabbab"],
    ["dgraph", "-v", "1,1,1"], ["congruences", "-v", "2,2", "--count"],
    ["congruences", "-v", "1,1,1"], ["classes", "-v", "3,3", "-S", "0,3;1,2"],
    ["quotient", "-v", "3,3", "-S", "0,3;1,2"],
    ["sd", "-v", "1,1,1", "-n", "1", "--witness"],
    ["theorem", "-v", "1,1,2,1,1", "--method", "dpath-bound"],
]


# The modules each verb imports when it runs, among those that
# `import multilat.cli` leaves out.
IRR, CONG, SD = "multilat.irreducibles", "multilat.congruence", "multilat.sd_engine"
VERB_LOADS = {"ji": {IRR}, "mi": {IRR}, "kappa": {IRR}, "dgraph": {IRR},
              "congruences": {IRR, CONG}, "classes": {IRR, CONG}, "quotient": {IRR, CONG},
              "sd": {IRR, SD}, "theorem": {IRR, SD}}


def test_numpy_stays_out_of_startup():
    for argvs in [
        NUMPY_FREE_ARGVS,
        # join, meet, order and elements load none of them, dgraph only irreducibles
        NUMPY_FREE_ARGVS[:4] + [["dgraph", "-v", "1,1,1"]],
    ]:
        check_startup_loads(argvs)


def check_startup_loads(argvs):
    """In a fresh interpreter, `import multilat.cli` and then each argv load
    exactly the modules of VERB_LOADS, and numpy only once FiniteLattice is
    read."""
    script = f"""
import contextlib, io, sys
import multilat
import multilat.cli as cli
lazy = {{"numpy", {IRR!r}, {CONG!r}, {SD!r}}}
loaded = set()
assert lazy & set(sys.modules) == loaded, "import"
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
    loaded |= {VERB_LOADS!r}.get(argv[0], set())
    assert lazy & set(sys.modules) == loaded, (argv, lazy & set(sys.modules))
assert not hasattr(multilat, "no_such_name")
from multilat import *
assert FiniteLattice is multilat.FiniteLattice is multilat.finite_lattice.FiniteLattice
assert "numpy" in sys.modules
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], env=SRC_ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# A valid argv tail of each verb.
VERB_ARGS = {
    "elements": ["-v", "1,1"], "order": ["-v", "2,1", "aab", "aba"],
    "join": ["-v", "2,1", "aab", "aba"], "meet": ["-v", "2,1", "aab", "aba"],
    "ji": ["-v", "2,1"], "mi": ["-v", "2,1", "--count"], "kappa": ["-v", "3,3", "aabbab"],
    "dgraph": ["-v", "1,1,1"], "congruences": ["-v", "1,1,1"],
    "classes": ["-v", "3,3", "-S", "0,3"], "quotient": ["-v", "3,3", "-S", "0,3"],
    "sd": ["-v", "1,1,1", "-n", "1", "--witness"], "theorem": ["-v", "1,1,1"],
    "lattice": ["--covers", "f.cov"], "seed-fixtures": ["fixtures"],
}
PARSE_ARGVS = [
    *([verb, *args] for verb, args in VERB_ARGS.items()),
    *([verb, "-h"] for verb in VERB_ARGS),
    *([verb] + args[:-1] for verb, args in VERB_ARGS.items()),  # the last one missing
    *([verb, *args, "--no-such-option"] for verb, args in VERB_ARGS.items()),
    *([verb, *args, "extra"] for verb, args in VERB_ARGS.items()),
    ["theorem", "-v", "1,1,1", "--method", "x"], ["theorem", "--method", "exhaustive"],
    ["lattice", "--covers", "f", "--dot", "--sd", "1"], ["lattice", "--sd", "x", "--covers", "f"],
    [], ["-h"], ["--help"], ["no-such-verb"], ["-v", "2,1", "join", "aab", "aba"],
    ["sd", "-n", "-1"], ["sd", "-v", "1,1", "-n", "-1"], ["sd", "-v", "1,1", "-n", "-1", "--witness"],
    ["sd", "-v", "1,1", "-n", "1", "--witness", "--exhaustive"],
    ["join", "-v", "2,1", "--", "aab", "aba"], ["join", "-v", "2,1", "--", "aab", "aba", "x"],
    ["ji", "--vec", "2,1", "--cou"], ["ji", "--vec", "2,1", "--cou", "x", "-y"],
    ["kappa", "-v3,3", "aabbab", "--dual"], ["order", "--vector=2,1", "aab", "aba", "-h"],
]


def parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=shlex.join)
def test_one_parse_matches_the_nested_parse(argv):
    """Parsing with the verb's own parser gives the nested parse's namespace,
    and `run` its help, usage errors and exit codes, byte for byte."""
    expected = parse_outcome(cli.build_parser().parse_args, argv)
    if isinstance(expected, dict):
        assert parse_outcome(cli._parse_args, argv) == expected
    else:
        assert expected[0] in (0, 2) and expected[1] + expected[2]
        assert parse_outcome(cli.run, argv) == expected


@pytest.mark.parametrize("argv", [
    ["theorem", "-v", "1,2,1,1"], ["theorem", "-v", "1,1,1,1", "--method", "exhaustive"],
    ["sd", "-v", "2,1,1,1", "-n", "1", "--witness"],
])
def test_theorem_and_witness_build_the_witness_once(monkeypatch, capsys, argv):
    built = []

    def counted(k, pairs):
        built.append(k)
        return inv_set(k, pairs)

    monkeypatch.setattr(sd_engine, "inv_set", counted)
    sd_engine.perm_witness.cache_clear()
    run_ok(capsys, *argv)
    assert built == [4, 4, 4]  # x, y and z of the one triple of Perm(4)


class ReadOnce(io.StringIO):
    """A stdout whose reader leaves after the first write: a second write
    raises BrokenPipeError, as a pipe into `grep -q` may."""

    writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("argv", NUMPY_FREE_ARGVS + [
    ["elements", "-v", "1,1,1,1"], ["mi", "-v", "2,2,2"], ["dgraph", "-v", "1,1,1", "--dot"],
    ["seed-fixtures", "{dir}"], ["lattice", "--covers", "{dir}/n5.cov"],
    ["lattice", "--covers", "{dir}/n5.cov", "--dot"],
    ["lattice", "--covers", "{dir}/benzene.cov", "--sd", "1"],
    ["sd", "-v", "1,1,1", "-n", "1", "--exhaustive"],
    ["theorem", "-v", "2,1,1", "--method", "exhaustive"],
])
def test_every_reply_is_one_write(tmp_path, capsys, argv):
    run_ok(capsys, "seed-fixtures", str(tmp_path))
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    expected = run_ok(capsys, *argv)
    out = ReadOnce()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    assert (out.getvalue(), out.writes) == (expected, 1)


def test_dot_and_sd_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "n5.cov"
    path.write_text(finite_lattice.n5().to_cover_file())
    with pytest.raises(SystemExit) as exc:
        cli.run(["lattice", "--covers", str(path), "--dot", "--sd", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: multilat lattice [-h] --covers FILE [--sd N | --dot]\n")
    assert captured.err.endswith("error: argument --sd: not allowed with argument --dot\n")


def test_a_reader_that_leaves_early_gets_no_traceback():
    # 40,320 lines, far more than a pipe buffers, so the writer meets the closed pipe
    proc = subprocess.Popen([sys.executable, "-c", "from multilat.cli import main; main()",
                             "elements", "-v", "1,1,1,1,1,1,1,1"], env=SRC_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"abcdefgh\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


VERBS = ("elements", "order", "join", "meet", "ji", "mi", "kappa", "dgraph", "congruences",
         "classes", "quotient", "sd", "theorem", "lattice", "seed-fixtures")
ODD_TEXTS = ["", ",", "1,,1", "-1,2", "3,-1", "2,x", " 2 , 1", "0", "0,0", "1,0,0,2",
             "100000000", "0,100000000", "1,1000", "1" * 40]
LEVELS = st.one_of(st.integers(-2, 6).map(str),
                   st.sampled_from(["1000000000", str(10 ** 30), "-1000000000", "x", ""]))


def small_vectors():
    """Small multiplicity vectors with zeros, or a text that may not parse."""
    entries = st.lists(st.integers(0, 3), min_size=1, max_size=4)
    return st.one_of(entries, entries, st.sampled_from(ODD_TEXTS), st.text(max_size=6))


@st.composite
def words_of(draw, entries):
    """A word of L(entries), often a join or meet irreducible one, a long
    word, or a text that may not be a word."""
    if isinstance(entries, list) and draw(st.integers(0, 3)):
        v = mn.MultVector(tuple(entries))
        irreducible = ir.enumerate_ji(v) + ir.enumerate_mi(v)
        if irreducible and draw(st.booleans()):
            j = draw(st.sampled_from(irreducible))
            return mn.word_str(ir.ji_word(j) if j.kind == ir.JOIN else ir.mi_word(j))
        return "".join(draw(st.permutations(mn.word_str(mn.bottom(v)))))
    return draw(st.one_of(st.text("abcdz ", max_size=8), st.just("ab" * 500)))


@st.composite
def ji_sets_of(draw, entries):
    """A set of join irreducibles of L(entries) as -S text, often D-closed."""
    if isinstance(entries, list) and draw(st.integers(0, 2)):
        graph = ir.d_graph(mn.MultVector(tuple(entries)))
        members = set(draw(st.sets(st.integers(0, len(graph.nodes) - 1), max_size=4))
                      if graph.nodes else ())
        while draw(st.integers(0, 3)):  # close under D, mostly completely
            grown = members | {t for s, t, _ in graph.edges if s in members}
            if grown == members:
                break
            members = grown
        return ";".join(str(graph.nodes[i]) for i in sorted(members)) or "-"
    return draw(st.one_of(
        st.sampled_from(["-", "", "0,3;1,2", "1,x", "9,9", "1,0;0,1"]),
        st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=4)
                 .map(lambda x: ",".join(map(str, x))), max_size=3).map(";".join)))


@st.composite
def cli_argvs(draw, files):
    verb = draw(st.sampled_from(VERBS))
    flags = []
    if verb == "seed-fixtures":
        return [verb, draw(st.sampled_from(files["directories"]))]
    if verb == "lattice":
        argv = [verb, "--covers", draw(st.sampled_from(files["covers"]))]
        if draw(st.booleans()):
            argv += ["--sd", draw(LEVELS)]
        return argv + draw(st.lists(st.just("--dot"), max_size=1))
    if verb in ("join", "meet", "order") and draw(st.integers(0, 4)) == 0:
        # long words: m copies of two letters, in two random orders
        m = draw(st.integers(20, 300))
        rng = draw(st.randoms(use_true_random=False))
        pair = [rng.sample("ab" * m, 2 * m) for _ in range(2)]
        return [verb, "-v", f"{m},{m}", *("".join(w) for w in pair)]
    entries = draw(small_vectors())
    vector = ",".join(map(str, entries)) if isinstance(entries, list) else entries
    argv = [verb, "-v", vector]
    if verb in ("join", "meet", "order"):
        argv += [draw(words_of(entries)), draw(words_of(entries))]
    elif verb == "kappa":
        argv.append(draw(words_of(entries)))
        flags = ["--dual"]
    elif verb in ("ji", "mi"):
        flags = ["--count", "--vectors"]
    elif verb == "dgraph":
        flags = ["--dot"]
    elif verb == "congruences":
        flags = ["--count"]
    elif verb in ("classes", "quotient"):
        argv += ["-S", draw(ji_sets_of(entries))]
    elif verb == "sd":
        argv += ["-n", draw(LEVELS), *draw(st.sampled_from(
            [["--witness"], ["--exhaustive"], ["--exhaustive", "--dual"], ["--witness", "--dual"],
             [], ["--witness", "--exhaustive"]]))]
    elif verb == "theorem":
        argv += draw(st.sampled_from([[], ["--method", "exhaustive"],
                                      ["--method", "dpath-bound"], ["--method", "bogus"]]))
    return argv + (draw(st.lists(st.sampled_from(flags), unique=True)) if flags else [])


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory) -> dict:
    """Cover files, good and bad, and fixture directories, writable or not."""
    root = tmp_path_factory.mktemp("fuzz")
    covers = {"n5.cov": finite_lattice.n5().to_cover_file(),
              "m3.cov": finite_lattice.m3().to_cover_file(),
              "cycle.cov": "a<b\nb<a\n", "garbage.cov": "a<b\nnonsense\n",
              "empty.cov": "", "two_tops.cov": "0<a\n0<b\n"}
    for name, text in covers.items():
        (root / name).write_text(text)
    (root / "latin1.cov").write_bytes(b"\xff<\xfe\n")
    return {"covers": [str(root / name) for name in [*covers, "latin1.cov", "missing.cov"]]
            + [str(root)],
            "directories": [str(root / "fixtures"), str(root / "n5.cov"),
                            str(root / "n5.cov" / "sub")]}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_every_argv_exits_cleanly(fuzz_paths, data):
    """Exit 0, 1 or 2 in bounded time, with no traceback: stderr is empty,
    one ``error:`` line, or argparse usage ending in its error line."""
    argv = data.draw(cli_argvs(fuzz_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code
    assert time.perf_counter() - start < 20.0
    text = err.getvalue()
    assert rc in (0, 1, 2)
    assert rc == 0 or out.getvalue() == ""
    if rc == 0:
        assert text == ""
    elif rc == 1:
        assert re.fullmatch(r"error: [^\n]*\n", text), text
    else:
        assert text.startswith("usage: multilat"), text
        assert re.search(r"\nmultilat[^\n]*: error: [^\n]*\n\Z", text), text
