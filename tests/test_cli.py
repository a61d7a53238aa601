import json
import shlex
import time
from pathlib import Path

import pytest

from multilat import cli, congruence, finite_lattice


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


def test_classes_and_quotient(capsys):
    out = json.loads(run_ok(capsys, "classes", "-v", "3,3", "-S", "0,3;1,2"))
    assert len(out["blocks"]) == 3
    cov = run_ok(capsys, "quotient", "-v", "3,3", "-S", "0,3;1,2")
    assert cov.count("<") == 2  # a 3-chain


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


def test_domain_error_exit_code(capsys):
    assert cli.run(["join", "-v", "2,1", "abb", "aab"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("name", ["missing.cov", "."])
def test_unreadable_cover_file(tmp_path, capsys, name):
    assert cli.run(["lattice", "--covers", str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read cover file") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["classes", "-v", "3,3", "-S", "9,9"], "error: vector (9, 9) outside [0, 3,3]\n"),
    (["ji", "-v", "3,-1"], "error: negative multiplicity in (3, -1)\n"),
    (["ji", "-v", "3,x"], "error: cannot parse multiplicity vector '3,x'\n"),
    (["classes", "-v", "3,3", "-S", "1,x"], "error: cannot parse irreducible vector '1,x'\n"),
])
def test_parse_errors_keep_their_message(capsys, argv, message):
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("verb", ["theorem", "dgraph"])
def test_d_graph_cap_refuses_huge_vectors(capsys, verb):
    assert cli.run([verb, "-v", ",".join(["1"] * 20)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1048555 join irreducibles exceed the D-graph cap")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["theorem", "-v", "200,200,200"], "error: 8120000 join irreducibles exceed the D-graph cap"),
    (["theorem", "--method", "exhaustive", "-v", "2,2,2,2,2"],
     "error: |L(2,2,2,2,2)| = 113400 exceeds materialization cap"),
    (["theorem", "--method", "exhaustive", "-v", "1,2000"],
     "error: 2001 letters exceed the witness cap"),
    (["sd", "-v", "300,300,300", "-n", "1", "--witness"],
     "error: 900 letters exceed the witness cap"),
])
def test_caps_refuse_before_any_witness_work(capsys, argv, message):
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
    (["theorem", "--method", "exhaustive", "-v", "1,1,1,1,1,1"],
     "error: SD scan of 720 elements to level 5 takes"),
])
def test_sd_scan_cap_refuses_before_materializing(capsys, argv, message):
    start = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_sd_scan_cap_on_cover_files(tmp_path, capsys):
    path = tmp_path / "chain.cov"
    path.write_text("".join(f"c{i:04d}<c{i + 1:04d}\n" for i in range(1299)))
    assert cli.run(["lattice", "--covers", str(path), "--sd", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SD scan of 1300 elements to level 1 takes") and \
        err.count("\n") == 1


@pytest.mark.parametrize("sd", [[], ["--sd", "0"]])
def test_analysis_cap_on_cover_files(tmp_path, capsys, sd):
    # one element over the cap; an SD_0 scan of it is under the scan cap,
    # so the analysis cap refuses it, before the scan runs
    size = finite_lattice.ANALYSIS_CAP + 1
    path = tmp_path / "chain.cov"
    path.write_text("".join(f"c{i:04d}<c{i + 1:04d}\n" for i in range(size - 1)))
    start = time.perf_counter()
    assert cli.run(["lattice", "--covers", str(path), *sd]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err == f"error: {size} elements exceed the lattice analysis cap " \
        f"{finite_lattice.ANALYSIS_CAP}\n"


@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_size_cap_on_cover_files(tmp_path, capsys, dot):
    # one label over the materialization cap: refused before any table is built
    size = finite_lattice.DEFAULT_SIZE_CAP + 1
    path = tmp_path / "chain.cov"
    path.write_text("".join(f"c{i:04d}<c{i + 1:04d}\n" for i in range(size - 1)))
    start = time.perf_counter()
    assert cli.run(["lattice", "--covers", str(path), *dot]) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cover file has {size} elements, over the " \
        f"materialization cap {finite_lattice.DEFAULT_SIZE_CAP}\n"


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
    holds, climb = finite_lattice.FiniteLattice.sd_holds, finite_lattice._SdScan.climb

    def counted_holds(self, n):
        scans.append([])
        return holds(self, n)

    def counted_climb(self, lo, hi):
        scans[-1].extend(range(lo, hi))
        return climb(self, lo, hi)

    monkeypatch.setattr(finite_lattice.FiniteLattice, "sd_holds", counted_holds)
    monkeypatch.setattr(finite_lattice._SdScan, "climb", counted_climb)
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


def test_lattice_sd_scans_only_up_to_the_longest_d_path(tmp_path, monkeypatch, capsys):
    # benzene: meet semidistributive, longest D-path 1, SD_1 fails and SD_2 holds
    path = tmp_path / "benzene.cov"
    path.write_text(finite_lattice.benzene().to_cover_file())
    scans = record_scans(monkeypatch)
    holds = [json.loads(run_ok(capsys, "lattice", "--covers", str(path), "--sd", str(n)))
             ["sd_holds"] for n in range(5)]
    assert holds == [False, False, True, True, True]
    assert len(scans) == 2
