"""The golden reply corpus: every argv in ``golden/replies.tsv`` answers
with its recorded exit code, stdout and stderr, byte for byte.

Each line of the corpus holds four tab-separated JSON values: the argv,
the exit code, the first 16 hex digits of the sha256 of stdout, and
stderr.  ``{tmp}`` in an argv stands for a scratch directory, which
:func:`make_inputs` fills with the cover files the argvs read, and it
stands back in for that directory in stdout and stderr.  The corpus is
replayed in order, so its ``seed-fixtures {tmp}`` line writes the
fixture files that later lines read.  ``golden/write_replies.py``
writes the corpus; a change that means to change replies edits only
their lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from multilat import cli

CORPUS = Path(__file__).parent / "golden" / "replies.tsv"


def make_inputs(tmp: Path) -> None:
    """The cover files the corpus reads besides the fixtures: chains just
    over the analysis cap and the materialization cap, M_898 (whose SD_2
    scan is over the scan cap), an order with two minimal upper bounds,
    a line with two '<', a transitive pair, and a reflexive line."""
    def chain(n):
        return "".join(f"c{i:04d}<c{i + 1:04d}\n" for i in range(n - 1))

    files = {
        "chain901.cov": chain(901),
        "chain5001.cov": chain(5001),
        "m898.cov": "".join(f"0<a{i:03d}\na{i:03d}<1\n" for i in range(898)),
        "bowtie.cov": "0<a\n0<b\na<c\na<d\nb<c\nb<d\nc<1\nd<1\n",
        "two.cov": "a<b<c\nb<c\n",
        "tr.cov": "a<b\nb<c\na<c\n",
        "refl.cov": "x<x\n",
        "cycle.cov": "a<b\nb<c\nc<a\n",
        "label.cov": 'a<"b"\n',
    }
    for name, text in files.items():
        (tmp / name).write_text(text)


def replay(argv: list[str], tmp: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.run`` on ``argv``, with ``{tmp}``
    standing for ``tmp`` in all three; a usage error's exit code is that
    of its SystemExit."""
    here = str(tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run([arg.replace("{tmp}", here) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().replace(here, "{tmp}"), err.getvalue().replace(here, "{tmp}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_corpus() -> list[tuple[list[str], int, str, str]]:
    return [tuple(json.loads(field) for field in line.split("\t"))
            for line in CORPUS.read_text().splitlines()]


def test_golden_replies(tmp_path, monkeypatch):
    # argparse wraps usage messages to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    make_inputs(tmp_path)
    wrong = []
    for argv, code, out_digest, err in read_corpus():
        got_code, out, got_err = replay(argv, tmp_path)
        if (got_code, digest(out), got_err) != (code, out_digest, err):
            wrong.append(f"{argv}: exit {got_code}, stderr {got_err!r}; "
                         f"recorded exit {code}, stderr {err!r}")
    assert not wrong, f"{len(wrong)} replies differ:\n" + "\n".join(wrong[:20])


def test_golden_corpus_covers_every_verb_and_exit_code():
    corpus = read_corpus()
    assert set(cli._parsers()[1]) <= {argv[0] for argv, *_ in corpus if argv}
    assert {code for _, code, *_ in corpus} == {0, 1, 2}
