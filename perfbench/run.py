"""Benchmark for multilat: seeded request streams through ``multilat.cli.run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload sd_tables --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

One process and one thread drive a closed loop: each request is sent only
after the previous one returned.  Requests go through ``multilat.cli.run``
in-process with stdout and stderr captured, and every reply is checked by
``oracle.py``, which does not import multilat.

A run sends blocks of at least 100 requests until ``--seconds`` would be
exceeded; it sets up once before the first block and again after every
block, and reports the median set-up time.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced blocks and prints the per-layer metrics and
the tracing overhead.  Human-readable detail (input properties, environment,
fail_frac, sample counts) comes first; the last line of stdout is the result
object.  Result, detail and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from streams import WORKLOADS, Request  # noqa: E402

MIN_BLOCKS = 2
COLD_IMPORT = f"import sys; sys.path.insert(0, {str(SRC)!r}); import multilat.cli"

END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
              "answered_frac": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.requests": "count", "cli.self_s": "s", "cli.exit_nonzero": "count",
    "sd_engine.self_s": "s", "sd_engine.theorem_check.calls": "count",
    "sd_engine.theorem_check.s": "s", "sd_engine.witness_words.s": "s",
    "congruence.self_s": "s", "congruence.congruence_from_S.calls": "count",
    "congruence.congruence_from_S.s": "s", "congruence.is_d_closed.s": "s",
    "congruence.quotient.s": "s", "congruence.d_closed_sets.s": "s",
    "congruence.d_closed_sets.sets": "count",
    "irreducibles.self_s": "s", "irreducibles.d_graph.calls": "count",
    "irreducibles.d_graph.s": "s", "irreducibles.d_graph.edges": "count",
    "irreducibles.d_rel.calls": "count", "irreducibles.d_rel.yield": "ratio",
    "irreducibles.enumerate_ji.calls": "count", "irreducibles.longest_simple_path.s": "s",
    "finite_lattice.self_s": "s", "finite_lattice.from_covers.calls": "count",
    "finite_lattice.from_covers.s": "s", "finite_lattice.from_covers.elements": "count",
    "finite_lattice.sd_holds.calls": "count", "finite_lattice.sd_holds.s": "s",
    "finite_lattice.sd_holds.triples": "count", "finite_lattice.bruteforce_D.s": "s",
    "finite_lattice.is_semidistributive.s": "s",
    "multinomial.self_s": "s", "multinomial.mjoin.calls": "count",
    "multinomial.mmeet.calls": "count", "multinomial.leq.calls": "count",
    "multinomial.leq.s": "s", "multinomial.covers.calls": "count",
    "multinomial.enumerate_words.s": "s", "multinomial.to_finite_lattice.s": "s",
    "perm_core.self_s": "s", "perm_core.closure.calls": "count", "perm_core.closure.s": "s",
    "perm_core.clopen_to_perm.calls": "count", "perm_core.clopen_to_perm.s": "s",
    "perm_core.inversions.calls": "count",
    "trace.overhead_s": "s",
}
WARMUP = {
    "sd_tables": [["sd", "-v", "1,1,1", "-n", "1", "--exhaustive"],
                  ["theorem", "-v", "1,1,1", "--method", "exhaustive"],
                  ["lattice", "--covers", "{warmup_covers}", "--sd", "1"]],
    "dpath_vectors": [["theorem", "-v", "1,1,1"], ["dgraph", "-v", "1,1,1"],
                      ["congruences", "-v", "1,1,1", "--count"]],
    "word_classes": [["join", "-v", "1,1", "ab", "ba"], ["meet", "-v", "1,1", "ab", "ba"],
                     ["order", "-v", "1,1", "ab", "ba"], ["classes", "-v", "2,2", "-S", "-"],
                     ["quotient", "-v", "2,2", "-S", "-"]],
}


class Client:
    """Sends one argv to ``multilat.cli.run`` with stdout and stderr captured."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, argv: list[str]) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.run(argv)  # looked up per call, so tracing sees it
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed request, not a harness error
                rc = None
                traceback.print_exc(file=err)
        return rc, out.getvalue(), err.getvalue()


def speed_probe() -> float:
    """Time a fixed pure-Python loop.  The host's speed drifts (see
    rationale.json); the probe, taken before each block, shows by how much."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - t0


def block_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def set_up(workload, seed: int, client: Client, workdir: Path):
    """One set-up: a cold ``import multilat.cli`` in a fresh interpreter,
    the seeded input pool (cover files, S sets), block 0 and a warm-up."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", COLD_IMPORT], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = SimpleNamespace(workdir=workdir, seed=seed, call=client.call)
    pool = workload.build_pool(ctx)
    first = workload.block(pool, block_rng(workload.name, seed, 0))
    warm_covers = workdir / "warmup.cov"
    warm_covers.write_text(oracle.cover_file((1, 1, 1)))
    for argv in WARMUP[workload.name]:
        client.call([a.replace("{warmup_covers}", str(warm_covers)) for a in argv])
    return perf_counter() - t0, pool, first


def tally(outcomes: list[str]) -> dict:
    c = Counter(outcomes)
    attempted = len(outcomes)
    failed = attempted - c["ok"]
    return {"attempted": attempted, "failed": failed, "refused": c["refused"],
            "wrong": c["wrong"], "fail_frac": failed / attempted if attempted else 0.0}


def run_blocks(workload, pool, first, seed: int, seconds: float, trace: bool,
               client: Client, multilat, after_block):
    tr = tracing.Tracer()
    blocks = []
    est = {False: 0.0, True: 0.0}
    start = perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if index >= MIN_BLOCKS and perf_counter() - start + est[traced] > seconds:
            break
        t_block = perf_counter()
        reqs = first if index == 0 else workload.block(pool, block_rng(workload.name, seed, index))
        gc.collect()
        probe = speed_probe()
        replies = []
        n_roots = len(tr.requests)
        if traced:
            tr.install(multilat)
        t0 = perf_counter()
        for req in reqs:
            if traced:
                tr.begin_request(len(tr.requests))
            s = perf_counter()
            rc, out, err = client.call(req.argv)
            replies.append((req, rc, out, err, perf_counter() - s))
            if traced:
                tr.end_request()
        wall = perf_counter() - t0
        if traced:
            tr.uninstall()
        results = [oracle.check(req, rc, out, err) for req, rc, out, err, _ in replies]
        blocks.append({
            "index": index, "traced": traced, "wall_s": wall, "probe_s": probe,
            "latencies": [r[4] for r in replies],
            "requests": [r[0] for r in replies],
            "rcs": [r[1] for r in replies],
            "outcomes": [o for o, _ in results],
            "problems": [(req.argv, why) for (req, *_), (o, why) in zip(replies, results)
                         if o == "wrong"][:5],
            "roots": tr.requests[n_roots:],
        })
        after_block()
        est[traced] = perf_counter() - t_block
        index += 1
    return blocks


def input_properties(requests: list[Request]) -> dict:
    seen_v, seen_argv = set(), set()
    v_repeat = argv_repeat = 0
    for r in requests:
        v_repeat += r.v in seen_v
        argv_repeat += tuple(r.argv) in seen_argv
        seen_v.add(r.v)
        seen_argv.add(tuple(r.argv))
    n = len(requests)

    def span(values):
        return [min(values), max(values)]

    return {
        "requests": n,
        "requests_per_verb": dict(sorted(Counter(r.verb for r in requests).items())),
        "requests_per_rung": dict(sorted(Counter(r.rung for r in requests).items())),
        "lattice_size_range": span([oracle.lattice_size(r.v) for r in requests]),
        "count_ji_range": span([oracle.count_ji(r.v) for r in requests]),
        "k_range": span([sum(r.v) for r in requests]),
        "v_repeat_share": v_repeat / n,
        "argv_repeat_share": argv_repeat / n,
        "zero_entry_share": sum(1 for r in requests if not all(r.v)) / n,
        "known_refusal_share": sum(1 for r in requests if r.known_refusal) / n,
    }


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "multilat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    import numpy
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": models[0] if models else platform.processor(),
            "platform": platform.platform(),
            "seed": seed}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(blocks, setup_times) -> tuple[dict, dict]:
    plain = [b for b in blocks if not b["traced"]]
    lat = sorted(x for b in plain for x in b["latencies"])
    outcomes = [o for b in blocks for o in b["outcomes"]]
    t = tally(outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": _median([b["wall_s"] for b in plain]),
        "req_p50_ms": 1000 * statistics.median(lat),
        "req_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "answered_frac": 1 - t["fail_frac"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"latency_samples": len(lat), "latency_samples_above_p90":
              sum(1 for x in lat if 1000 * x > values["req_p90_ms"]),
              "untraced_blocks": len(plain),
              "block_walls_s": [b["wall_s"] for b in plain],
              "speed_probe_ms": [1000 * b["probe_s"] for b in blocks],
              "setup_rounds_s": setup_times, **t}
    return values, detail


def per_layer(blocks) -> tuple[dict, dict]:
    traced = [b for b in blocks if b["traced"]]
    plain = [b for b in blocks if not b["traced"]]
    rows = []
    for b in traced:
        m = tracing.layer_metrics([root for _, root in b["roots"]])
        m["cli.requests"] = m.get("cli.run.calls", 0)
        m["cli.exit_nonzero"] = sum(1 for rc in b["rcs"] if rc != 0)
        calls = m.get("irreducibles.d_rel.calls", 0)
        m["irreducibles.d_rel.yield"] = (m.get("irreducibles.d_graph.edges", 0) / calls
                                         if calls else 0.0)
        rows.append(m)
    values = {name: _median([row.get(name, 0) for row in rows]) for name in PER_LAYER}
    values["trace.overhead_s"] = (_median([b["wall_s"] for b in traced])
                                  - _median([b["wall_s"] for b in plain]))
    detail = {"traced_blocks": len(traced), "untraced_blocks": len(plain),
              "traced_wall_s": [b["wall_s"] for b in traced],
              "untraced_wall_s": [b["wall_s"] for b in plain]}
    return values, detail


def write_spans(path: Path, blocks) -> int:
    origin = min((child.first for b in blocks for _, root in b["roots"]
                  for child in root.children.values()), default=0.0)
    records = [s for b in blocks for rid, root in b["roots"]
               for s in tracing.spans(rid, root, origin)]
    path.write_text(json.dumps(records))
    return len(records)


def self_test(client: Client) -> int:
    """Feed one genuine and one corrupted reply per verb through the checks."""
    corrupt = {
        "sd": lambda r, o: _edit_json(o, lambda d: d.update(sd_holds=not d["sd_holds"])),
        "theorem": lambda r, o: _edit_json(o, lambda d: d.update(sd_hold_level=d["sd_hold_level"] + 1)),
        "lattice": lambda r, o: _edit_json(o, lambda d: d.update(bounded=False)),
        "dgraph": lambda r, o: _edit_json(o, lambda d: d["edges"].append(
            {"source": d["edges"][0]["target"], "target": d["edges"][0]["source"], "tag": "LA"})),
        "congruences": lambda r, o: f"{int(o) + 1}\n",
        "classes": lambda r, o: _edit_json(o, lambda d: d.update(
            blocks=[d["blocks"][0] + d["blocks"][1]] + d["blocks"][2:])),
        "quotient": lambda r, o: o + f"{o.splitlines()[-1].partition('<')[2] if o else 'a'}<extra\n",
        "order": lambda r, o: "false\n" if o.strip() == "true" else "true\n",
        "join": lambda r, o: oracle.word_text(sorted(r.params["words"][0])) + "\n",
        "meet": lambda r, o: oracle.word_text(sorted(r.params["words"][0], reverse=True)) + "\n",
    }
    workdir = OUT / f"selftest-{os.getpid()}"
    genuine, corrupted, rows = [], [], []
    try:
        for name, workload in WORKLOADS.items():
            ctx = SimpleNamespace(workdir=workdir, seed=0, call=client.call)
            pool = workload.build_pool(ctx)
            done = set()
            for req in workload.block(pool, block_rng(name, 0, 0)):
                if req.verb in done or (req.verb == "classes" and req.params["s_size"] < 1):
                    continue
                rc, out, err = client.call(req.argv)
                if rc != 0:
                    continue
                good = oracle.check(req, rc, out, err)[0]
                bad, why = oracle.check(req, rc, corrupt[req.verb](req, out), err)
                genuine.append(good)
                corrupted.append(bad)
                rows.append({"verb": req.verb, "argv": req.argv, "genuine": good,
                             "corrupted": bad, "why": why})
                done.add(req.verb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for row in rows:
        print(json.dumps(row))
    t = tally(genuine + corrupted)
    ok = (set(corrupt) == {r["verb"] for r in rows} and all(g == "ok" for g in genuine)
          and all(c == "wrong" for c in corrupted) and t["failed"] == len(corrupted))
    print(json.dumps({"self_test_passed": ok, "verbs": len(rows), **t}))
    return 0 if ok else 1


def _edit_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every verb's corrupted reply is counted as failed")
    args = parser.parse_args()
    if not (SRC / "multilat" / "__init__.py").is_file():
        print(f"error: no multilat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import multilat
    import multilat.cli
    client = Client(multilat.cli)
    if args.self_test:
        return self_test(client)
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    setup_times = []

    def set_up_once():
        elapsed, pool, first = set_up(workload, args.seed, client, workdir)
        setup_times.append(elapsed)
        return pool, first

    try:
        # Set-up is repeated after every block, so its samples span the
        # run as the blocks do and one slow moment of the host does not
        # decide the median.
        pool, first = set_up_once()
        blocks = run_blocks(workload, pool, first, args.seed, args.seconds,
                            bool(args.trace), client, multilat, set_up_once)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, e2e_detail = end_to_end(blocks, setup_times)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": workload.name, "seconds": args.seconds,
              "environment": environment(args.seed),
              "inputs": input_properties([r for b in blocks for r in b["requests"]]),
              "end_to_end": e2e, **e2e_detail,
              "wrong_examples": [p for b in blocks for p in b["problems"]][:5]}
    if args.trace:
        values, layer_detail = per_layer(blocks)
        detail.update(layer_detail)
        detail["spans"] = write_spans(OUT / f"spans-{tag}.json", blocks)
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": detail["wrong"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    detail["result"] = result
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps({k: v for k, v in detail.items() if k != "result"}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
