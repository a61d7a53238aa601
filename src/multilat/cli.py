"""Command-line front end.

Every verb maps onto one library operation and writes deterministic
text, DOT, or JSON to stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import congruence, irreducibles, multinomial, order, sd_engine
from .errors import MultilatError
from .multinomial import parse_vector, parse_word, word_str


def _vector_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--vector", required=True, metavar="V",
                        help="multiplicity vector, e.g. 2,1,1")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--method", choices=[sd_engine.EXHAUSTIVE, sd_engine.DPATH_BOUND])

    p = sub.add_parser("lattice", help="analyse a lattice given by a cover file")
    p.add_argument("--covers", required=True, metavar="FILE")
    p.add_argument("--sd", type=int, metavar="N",
                   help="also evaluate SD_N(meet) over all triples")
    p.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")

    p = sub.add_parser("seed-fixtures", help="dump built-in lattice fixtures as cover files")
    p.add_argument("directory", nargs="?", default=".")

    return parser


# Built once per process: parse_args leaves the parser unchanged.
_parser = functools.cache(build_parser)


def run(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        _dispatch(args)
    except MultilatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _dispatch(args: argparse.Namespace) -> None:
    verb = args.verb
    if verb == "seed-fixtures":
        from . import finite_lattice  # loads numpy, which only table lattices need
        directory = Path(args.directory)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for name, make in finite_lattice.FIXTURES.items():
                path = directory / f"{name}.cov"
                path.write_text(f"# fixture {name}\n" + make().to_cover_file())
                print(path)
        except OSError as exc:
            raise MultilatError(f"cannot write fixtures to {args.directory}: "
                                f"{exc.strerror or exc}") from exc
        return
    if verb == "lattice":
        try:
            text = Path(args.covers).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise MultilatError(f"cannot read cover file {args.covers}: "
                                f"{getattr(exc, 'strerror', None) or exc}") from exc
        covers = order.parse_cover_file(text)
        if not args.dot:
            order.check_analysis_cap(len({x for pair in covers for x in pair}))
        from .finite_lattice import FiniteLattice  # loads numpy, once the caps pass
        lattice = FiniteLattice.from_covers(covers)
        if args.dot:
            sys.stdout.write(lattice.to_dot())
            return
        print(_lattice_reply(lattice, args.sd))
        return

    v = parse_vector(args.vector)
    if verb == "elements":
        for w in multinomial.enumerate_words(v):
            print(word_str(w))
    elif verb == "order":
        w, u = (parse_word(v, t) for t in args.words)
        print("true" if multinomial.leq(w, u) else "false")
    elif verb in ("join", "meet"):
        w, u = (parse_word(v, t) for t in args.words)
        op = multinomial.mjoin if verb == "join" else multinomial.mmeet
        print(word_str(op(w, u)))
    elif verb in ("ji", "mi") and args.count:
        print(irreducibles.count_ji(v))  # x -> v - x pairs the two kinds
    elif verb in ("ji", "mi"):
        irreducibles.check_listing_cap(v, "join" if verb == "ji" else "meet", not args.vectors)
        items = irreducibles.enumerate_ji(v) if verb == "ji" else irreducibles.enumerate_mi(v)
        to_word = irreducibles.ji_word if verb == "ji" else irreducibles.mi_word
        for j in items:
            print(str(j) if args.vectors else word_str(to_word(j)))
    elif verb == "kappa":
        w = parse_word(v, args.word)
        if args.dual:
            print(word_str(irreducibles.ji_word(
                irreducibles.kappa_d(irreducibles.parse_mi_word(w)))))
        else:
            print(word_str(irreducibles.mi_word(
                irreducibles.kappa(irreducibles.parse_ji_word(w)))))
    elif verb == "dgraph":
        graph = irreducibles.d_graph(v)
        sys.stdout.write(graph.to_dot() if args.dot else graph.to_json() + "\n")
    elif verb == "congruences" and args.count:
        print(congruence.count_d_closed(v))
    elif verb == "congruences":
        graph, masks = congruence.d_closed_masks(v)
        # node indices ascend with the vectors, so each set comes out sorted
        print(json.dumps(
            {"v": list(v.entries),
             "congruences": sorted([list(graph.nodes[i].x)
                                    for i in congruence.mask_members(mask)]
                                   for mask in masks)},
            indent=2))
    elif verb == "classes":
        s = congruence.parse_ji_set(v, args.S)
        print(congruence.congruence_from_S(v, s).to_json())
    elif verb == "quotient":
        s = congruence.parse_ji_set(v, args.S)
        sys.stdout.write(order.cover_file(*congruence.quotient(v, s)))
    elif verb == "sd":
        _run_sd(v, args)
    elif verb == "theorem":
        print(sd_engine.theorem_check(v, method=args.method).to_json())
    else:  # pragma: no cover - argparse enforces the verb set
        raise MultilatError(f"unknown verb {verb!r}")


def _lattice_reply(lattice, sd_n: int | None) -> str:
    """The ``lattice --covers`` reply: ``json.dumps(info, indent=2)`` of its
    analyses, byte for byte, written without the pure-Python encoder.

    Each label goes through ``json.dumps`` once.  A cover file's elements
    are indexed in label order (``FiniteLattice.from_covers`` sorts the
    labels), so the D edges, up to about N^2 of them, sorted as pairs of
    indices by ``bruteforce_D``, are ordered as the pairs of labels.
    """
    verdict = None if sd_n is None else lattice.sd_verdict(sd_n)
    quoted = [json.dumps(label) for label in lattice.labels]
    edges = lattice.bruteforce_D()
    fields = [
        ("elements", lattice.n),
        ("join_irreducibles", len(lattice.join_irreducibles())),
        ("meet_irreducibles", len(lattice.meet_irreducibles())),
        ("d_edges", irreducibles._json_array(
            (f"[\n      {quoted[a]},\n      {quoted[b]}\n    ]" for a, b in edges), 2)),
        ("distributive", json.dumps(lattice.is_distributive())),
        ("semidistributive", json.dumps(lattice.is_semidistributive())),
        ("bounded", json.dumps(lattice.is_bounded())),
    ]
    if sd_n is not None:
        fields += [("sd_n", sd_n), ("sd_holds", json.dumps(verdict is True))]
        if verdict is not True:
            fields.append(("sd_failure", irreducibles._json_array(
                (quoted[i] for i in verdict), 2)))
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}"


def _run_sd(v, args) -> None:
    n = args.n
    order.check_sd_level(n)
    if args.witness:
        if args.dual:
            raise MultilatError("--dual applies to exhaustive mode only")
        print(json.dumps({
            "v": list(v.entries), "n": n, "mode": "witness",
            "witness_words": [word_str(w) for w in sd_engine.witness_words(v)],
            "sd_fails_on_witness": sd_engine.witness_fails(v, n),
        }, indent=2))
        return
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
    print(json.dumps(out, indent=2))


def main() -> None:
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
