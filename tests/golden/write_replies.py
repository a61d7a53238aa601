"""Write the golden reply corpus, ``replies.tsv``, that ``tests/test_golden.py``
replays.

    PYTHONPATH=src python tests/golden/write_replies.py

Run it only when replies are meant to change, and list in CHANGES.md each
line that changed and why.  The argvs are:

- every verb on the 120 vectors of 1-4 entries in 0..2, with ``classes``
  and ``quotient`` only where |L(v)| <= 30, and once each (they check a
  partition with 4 N^2 word operations), the SD scans of ``sd --exhaustive`` only where
  |L(v)| <= 200, and ``theorem --method exhaustive`` only where
  |L(v)| <= 630;
- the README examples, every cap refusal, a failing SD scan past the
  scan cap, and a few parse and usage errors;
- the fixtures through ``lattice --covers``, alone, with ``--dot`` and
  with ``--sd 0..3``, and the cover files of ``test_golden.make_inputs``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from math import factorial, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from test_golden import CORPUS, digest, make_inputs, replay  # noqa: E402

VECTORS = [v for k in range(1, 5) for v in itertools.product(range(3), repeat=k)]


def size(v) -> int:
    return factorial(sum(v)) // prod(factorial(e) for e in v)


def vector_argvs(v, tmp: Path) -> list[list[str]]:
    """The argvs on L(v), words and irreducibles read off its own listings."""
    vec = ",".join(map(str, v))
    words, jis, mis, ji_vectors = (replay([verb, "-v", vec] + flags, tmp)[1].splitlines()
                                   for verb, flags in (("elements", []), ("ji", []), ("mi", []),
                                                       ("ji", ["--vectors"])))
    n = len(words)
    a, b = words[n // 3], words[2 * n // 3]
    out = [["elements", "-v", vec]]
    out += [[verb, "-v", vec] + flags for verb in ("ji", "mi")
            for flags in ([], ["--count"], ["--vectors"])]
    out += [["order", "-v", vec, words[0], words[-1]], ["order", "-v", vec, words[-1], words[0]],
            ["order", "-v", vec, a, b], ["order", "-v", vec, b, a]]
    out += [[verb, "-v", vec, x, y] for verb in ("join", "meet")
            for x, y in ((words[0], words[-1]), (a, b))]
    out += [["kappa", "-v", vec, w] for w in (jis[:1] + jis[-1:] or words[:1])]
    out += [["kappa", "-v", vec, w, "--dual"] for w in (mis[:1] + mis[-1:] or words[:1])]
    out += [["dgraph", "-v", vec], ["dgraph", "-v", vec, "--dot"],
            ["congruences", "-v", vec], ["congruences", "-v", vec, "--count"]]
    if size(v) <= 30:
        out += [["classes", "-v", vec, "-S", (ji_vectors or ["-"])[0]],
                ["quotient", "-v", vec, "-S", "-"]]
    out += [["sd", "-v", vec, "-n", str(level), "--witness"] for level in range(3)]
    if size(v) <= 200:
        out += [["sd", "-v", vec, "-n", str(level), "--exhaustive"] for level in range(3)]
        out += [["sd", "-v", vec, "-n", "1", "--exhaustive", "--dual"]]
    out += [["theorem", "-v", vec], ["theorem", "-v", vec, "--method", "dpath-bound"]]
    if size(v) <= 630:
        out += [["theorem", "-v", vec, "--method", "exhaustive"]]
    return out


FIXED = [
    # the fixtures, written first, then read
    ["seed-fixtures", "{tmp}"],
    *[["lattice", "--covers", f"{{tmp}}/{name}.cov"] + flags
      for name in ("n5", "m3", "benzene")
      for flags in ([], ["--dot"], *(["--sd", str(n)] for n in range(4)))],
    *[["lattice", "--covers", f"{{tmp}}/{name}.cov"] + flags
      for name in ("tr", "bowtie", "fanbowtie", "two", "refl", "cycle", "label", "missing")
      for flags in ([], ["--dot"])],
    # the README examples
    ["elements", "-v", "1,1,1"],
    ["join", "-v", "2,1", "aba", "aab"],
    ["meet", "-v", "2,2", "abba", "baab"],
    ["order", "-v", "1,1,1", "bac", "acb"],
    ["order", "-v", "2,1", "aab", "aba"],
    ["kappa", "-v", "3,3", "aabbab"],
    ["ji", "-v", "3,3", "--count"],
    ["dgraph", "-v", "1,1,1", "--dot"],
    ["dgraph", "-v", "3,0,2,1,3"],
    ["congruences", "-v", "2,2", "--count"],
    ["congruences", "-v", "1,2,1"],
    ["congruences", "-v", "1,1,1,1", "--count"],
    ["congruences", "-v", "4,6", "--count"],
    ["classes", "-v", "3,3", "-S", "0,3;1,2"],
    ["quotient", "-v", "3,3", "-S", "0,3;1,2"],
    ["sd", "-v", "1,1,1", "-n", "1", "--witness"],
    ["sd", "-v", "2,1,1", "-n", "1", "--exhaustive", "--dual"],
    ["theorem", "-v", "1,1,2,1,1"],
    ["theorem", "-v", "1,1,2,1,1", "--method", "exhaustive"],
    ["theorem", "-v", "2,0,2,2,1"],
    ["theorem", "-v", ",".join(["1"] * 13)],
    ["theorem", "-v", "1,1,1,1,1,1", "--method", "exhaustive"],
    ["lattice", "--covers", "{tmp}/n5.cov", "--sd", "1"],
    # every cap refusal
    ["theorem", "-v", "1000000,1000000"],
    ["theorem", "-v", "200,200,200"],
    ["sd", "-v", "81", "-n", "1", "--witness"],
    ["sd", "-v", "1000000,1000000", "-n", "1", "--exhaustive"],
    ["classes", "-v", "1000000,1000000", "-S", "-"],
    ["classes", "-v", "2,2,2,1", "-S", "-"],
    ["quotient", "-v", "2,2,2,1", "-S", "-"],
    ["theorem", "-v", "3,30", "--method", "exhaustive"],
    ["sd", "-v", "1,1,1,1,1,1", "-n", "5", "--exhaustive"],
    ["elements", "-v", ",".join(["1"] * 10)],
    ["ji", "-v", "100,100,100"],
    ["mi", "-v", "100,100,100"],
    ["ji", "-v", "100,100,100", "--vectors"],
    ["dgraph", "-v", ",".join(["1"] * 13)],
    ["congruences", "-v", "1,1,1,1,1"],
    ["congruences", "-v", "1,1,1,1,1", "--count"],
    ["congruences", "-v", "3,1,3"],
    ["congruences", "-v", "1,17"],
    ["lattice", "--covers", "{tmp}/chain901.cov"],
    ["lattice", "--covers", "{tmp}/chain5001.cov"],
    ["lattice", "--covers", "{tmp}/chain5001.cov", "--dot"],
    ["lattice", "--covers", "{tmp}/m898.cov", "--sd", "2"],
    ["lattice", "--covers", "{tmp}/m898.cov", "--dot"],
    # a failing SD scan whose every x would be over the scan cap, answered
    # by the x where SD_n can fail
    ["sd", "-v", "2,2,2,2", "-n", "2", "--exhaustive"],
    # parse and usage errors
    ["sd", "-v", "1,1,1", "-n", "-1", "--witness"],
    ["sd", "-v", "1,1,1", "-n", "-1", "--exhaustive"],
    ["lattice", "--covers", "{tmp}/n5.cov", "--sd", "-1"],
    ["sd", "-v", "1,1,1", "-n", "1", "--witness", "--dual"],
    ["join", "-v", "x", "a", "b"],
    ["join", "-v", "2,1", "abc", "aab"],
    ["join", "-v", "2,1", "abb", "aab"],
    ["kappa", "-v", "3,3", "ababab"],
    ["classes", "-v", "3,3", "-S", "9,9"],
    ["lattice", "--covers", "{tmp}/n5.cov", "--sd", "1", "--dot"],
    ["sd", "-v", "1,1", "-n", "1"],
    ["frobnicate"],
    [],
]


def main() -> None:
    os.environ["COLUMNS"] = "80"  # as the test sets it: argparse wraps to it
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        make_inputs(tmp)
        argvs = FIXED + [argv for v in VECTORS for argv in vector_argvs(v, tmp)]
        rows = []
        for argv in argvs:
            code, out, err = replay(argv, tmp)
            rows.append("\t".join(json.dumps(field) for field in (argv, code, digest(out), err)))
    CORPUS.write_text("\n".join(rows) + "\n")
    print(f"{len(rows)} replies written to {CORPUS}")


if __name__ == "__main__":
    main()
