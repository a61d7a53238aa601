"""Command-line front end.

Every verb maps onto one library operation and returns deterministic
text, DOT, or JSON, which :func:`run` writes to stdout in one write;
diagnostics go to stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.

:func:`run` parses an argv that starts with a verb once, with that verb's
own parser from :func:`build_parser`.  The top-level parser answers only a
missing or unknown verb and ``-h``, and reports arguments the verb's parser
leaves over, so every usage message is the nested parse's.  Each verb
imports the modules it uses when it runs: ``join``, ``meet``, ``order`` and
``elements`` load neither ``irreducibles``, ``congruence`` nor
``sd_engine``, and only the table verbs load numpy.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import multinomial, order
from .errors import MultilatError
from .multinomial import parse_vector, parse_word, word_str


def _vector_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--vector", required=True, metavar="V",
                        help="multiplicity vector, e.g. 2,1,1")


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by name, the parser of each verb under it."""
    parser = argparse.ArgumentParser(
        prog="multilat",
        description="multinomial lattices: joins, irreducibles, congruences, SD levels")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("elements", help="list the words of L(v)")
    _vector_arg(p)

    p = sub.add_parser("order", help="compare two words of L(v)")
    _vector_arg(p)
    p.add_argument("words", nargs=2)

    for verb in ("join", "meet"):
        p = sub.add_parser(verb, help=f"{verb} of two words of L(v)")
        _vector_arg(p)
        p.add_argument("words", nargs=2)

    for verb, what in (("ji", "join"), ("mi", "meet")):
        p = sub.add_parser(verb, help=f"{what} irreducible elements of L(v)")
        _vector_arg(p)
        p.add_argument("--count", action="store_true", help="print the count only")
        p.add_argument("--vectors", action="store_true",
                       help="print vector encodings instead of words")

    p = sub.add_parser("kappa", help="the meet irreducible paired with a join irreducible")
    _vector_arg(p)
    p.add_argument("word")
    p.add_argument("--dual", action="store_true",
                   help="map a meet irreducible word to its join irreducible")

    p = sub.add_parser("dgraph", help="join dependency graph of L(v)")
    _vector_arg(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    p = sub.add_parser("congruences", help="congruences of L(v) as D-closed sets")
    _vector_arg(p)
    p.add_argument("--count", action="store_true")

    p = sub.add_parser("classes", help="equivalence classes of the congruence for S")
    _vector_arg(p)
    p.add_argument("-S", required=True, metavar="SET",
                   help="semicolon-separated join irreducible vectors, e.g. 0,3;1,2")

    p = sub.add_parser("quotient", help="quotient lattice for S, as a cover list")
    _vector_arg(p)
    p.add_argument("-S", required=True, metavar="SET")

    p = sub.add_parser("sd", help="evaluate the SD_n(meet) equation in L(v)")
    _vector_arg(p)
    p.add_argument("-n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--witness", action="store_true",
                      help="evaluate the explicit witness triple only")
    mode.add_argument("--exhaustive", action="store_true",
                      help="scan all triples of the materialized lattice")
    p.add_argument("--dual", action="store_true",
                   help="check the dual equation SD_n(join) (exhaustive mode)")

    p = sub.add_parser("theorem", help="dimension verdict for L(v)")
    _vector_arg(p)
    p.add_argument("--method", choices=[order.EXHAUSTIVE, order.DPATH_BOUND])

    p = sub.add_parser("lattice", help="analyse a lattice given by a cover file")
    p.add_argument("--covers", required=True, metavar="FILE")
    reply = p.add_mutually_exclusive_group()
    reply.add_argument("--sd", type=int, metavar="N",
                       help="also evaluate SD_N(meet) over all triples")
    reply.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")

    p = sub.add_parser("seed-fixtures", help="dump built-in lattice fixtures as cover files")
    p.add_argument("directory", nargs="?", default=".")

    return parser, sub.choices


# Built once per process: parse_args leaves the parsers unchanged.
_parsers = functools.cache(_build_parsers)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with one parse of the verb's
    arguments by the verb's parser where the nested parse makes two."""
    top, verbs = _parsers()
    verb = argv[0] if argv else None
    if verb not in verbs:
        return top.parse_args(argv)  # no verb, an unknown one, or -h
    args, extras = verbs[verb].parse_known_args(argv[1:])
    if extras:
        return top.parse_args(argv)  # names them under the top-level usage
    args.verb = verb
    return args


def run(argv: list[str]) -> int:
    args = _parse_args(argv)
    try:
        reply = _dispatch(args)
    except MultilatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(reply)
    return 0


def _dispatch(args: argparse.Namespace) -> str:
    """The reply to one parsed command line, each line ending in a newline."""
    verb = args.verb
    if verb == "seed-fixtures":
        from . import finite_lattice  # loads numpy, which only table lattices need
        directory, reply = Path(args.directory), ""
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for name, make in finite_lattice.FIXTURES.items():
                path = directory / f"{name}.cov"
                path.write_text(f"# fixture {name}\n" + make().to_cover_file())
                reply += f"{path}\n"
        except OSError as exc:
            raise MultilatError(f"cannot write fixtures to {args.directory}: "
                                f"{exc.strerror or exc}") from exc
        return reply
    if verb == "lattice":
        try:
            text = Path(args.covers).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise MultilatError(f"cannot read cover file {args.covers}: "
                                f"{getattr(exc, 'strerror', None) or exc}") from exc
        labels, covers = order.parse_cover_file(text)
        if not args.dot:
            order.check_analysis_cap(len(labels))
        from .finite_lattice import FiniteLattice  # loads numpy, once the caps pass
        lattice = FiniteLattice.from_covers(covers, labels)
        return lattice.to_dot() if args.dot else _lattice_reply(lattice, args.sd)

    v = parse_vector(args.vector)
    if verb == "elements":
        return "".join(f"{word_str(w)}\n" for w in multinomial.enumerate_words(v))
    if verb == "order":
        w, u = (parse_word(v, t) for t in args.words)
        return "true\n" if multinomial.leq(w, u) else "false\n"
    if verb in ("join", "meet"):
        w, u = (parse_word(v, t) for t in args.words)
        op = multinomial.mjoin if verb == "join" else multinomial.mmeet
        return f"{word_str(op(w, u))}\n"
    if verb == "sd":
        return _run_sd(v, args)
    if verb == "theorem":
        from . import sd_engine
        return sd_engine.theorem_check(v, method=args.method).to_json()
    if verb in ("congruences", "classes", "quotient"):
        return _run_congruence(verb, v, args)

    from . import irreducibles  # ji, mi, kappa and dgraph
    if verb in ("ji", "mi") and args.count:
        return f"{irreducibles.count_ji(v)}\n"  # x -> v - x pairs the two kinds
    if verb in ("ji", "mi"):
        irreducibles.check_listing_cap(v, "join" if verb == "ji" else "meet", not args.vectors)
        items = irreducibles.enumerate_ji(v) if verb == "ji" else irreducibles.enumerate_mi(v)
        to_word = irreducibles.ji_word if verb == "ji" else irreducibles.mi_word
        return "".join(f"{j if args.vectors else word_str(to_word(j))}\n" for j in items)
    if verb == "kappa":
        w = parse_word(v, args.word)
        if args.dual:
            u = irreducibles.ji_word(irreducibles.kappa_d(irreducibles.parse_mi_word(w)))
        else:
            u = irreducibles.mi_word(irreducibles.kappa(irreducibles.parse_ji_word(w)))
        return f"{word_str(u)}\n"
    if verb == "dgraph":
        graph = irreducibles.d_graph(v)
        return graph.to_dot() if args.dot else graph.to_json()
    raise MultilatError(f"unknown verb {verb!r}")  # pragma: no cover - argparse checks it


def _run_congruence(verb: str, v, args) -> str:
    from . import congruence

    if verb == "congruences" and args.count:
        return f"{congruence.count_d_closed(v)}\n"
    if verb == "congruences":
        return congruence.congruences_json(*congruence.d_closed_masks(v))
    s = congruence.parse_ji_set(v, args.S)
    if verb == "classes":
        return congruence.congruence_from_S(v, s).to_json()
    return order.cover_file(*congruence.quotient(v, s))


def _lattice_reply(lattice, sd_n: int | None) -> str:
    """The ``lattice --covers`` reply: ``json.dumps(info, indent=2)`` of its
    analyses and a newline, byte for byte, written without the pure-Python
    encoder.

    Each label goes through ``json.dumps`` once.  A cover file's elements
    are indexed in label order (``FiniteLattice.from_covers`` sorts the
    labels), so the D edges, up to about N^2 of them, sorted as pairs of
    indices by ``bruteforce_D``, are ordered as the pairs of labels.
    """
    import json

    from .order import _json_array

    verdict = None if sd_n is None else lattice.sd_verdict(sd_n)
    quoted = [json.dumps(label) for label in lattice.labels]
    edges = lattice.bruteforce_D()
    fields = [
        ("elements", lattice.n),
        ("join_irreducibles", len(lattice.join_irreducibles())),
        ("meet_irreducibles", len(lattice.meet_irreducibles())),
        ("d_edges", _json_array(
            (f"[\n      {quoted[a]},\n      {quoted[b]}\n    ]" for a, b in edges), 2)),
        ("distributive", json.dumps(lattice.is_distributive())),
        ("semidistributive", json.dumps(lattice.is_semidistributive())),
        ("bounded", json.dumps(lattice.is_bounded())),
    ]
    if sd_n is not None:
        fields += [("sd_n", sd_n), ("sd_holds", json.dumps(verdict is True))]
        if verdict is not True:
            fields.append(("sd_failure", _json_array(
                (quoted[i] for i in verdict), 2)))
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}\n"


def _run_sd(v, args) -> str:
    import json

    n = args.n
    order.check_sd_level(n)
    if args.witness:
        if args.dual:
            raise MultilatError("--dual applies to exhaustive mode only")
        from . import sd_engine
        return json.dumps({
            "v": list(v.entries), "n": n, "mode": "witness",
            "witness_words": [word_str(w) for w in sd_engine.witness_words(v)],
            "sd_fails_on_witness": sd_engine.witness_fails(v, n),
        }, indent=2) + "\n"
    multinomial.check_scan_cap(v, n)
    lattice = multinomial.to_finite_lattice(v)
    if args.dual:
        lattice = lattice.dual()
    verdict = lattice.sd_holds(n)
    out = {"v": list(v.entries), "n": n,
           "mode": "exhaustive" + ("-dual" if args.dual else ""),
           "sd_holds": verdict is True}
    if verdict is not True:
        out["failure"] = [lattice.labels[i] for i in verdict]
    return json.dumps(out, indent=2) + "\n"


def main() -> None:
    # buffered even under PYTHONUNBUFFERED, which would hand a long reply to a
    # pipe in one call and drop, with no error, what a reader that left did not take
    sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                      errors=sys.stdout.errors, closefd=False)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`multilat elements ... | head`): stop without
        # a traceback, and keep the interpreter's final flush off the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
