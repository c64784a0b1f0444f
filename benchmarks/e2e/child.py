"""The processes the benchmark measures, started fresh for every pass.

``child.py serve``   bench-owned launcher around the public
                     ``ServingServer(...).run()``;
``child.py worker``  library worker: JSON commands on stdin, one JSON
                     reply per command on stdout, every call timed
                     inside the worker so pipe latency never counts;
``child.py probe``   the traced run's library-level replay and config
                     probes (see ``layers.py``).

Only public names of ``repro`` are called; README.md lists them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

if __name__ == "__main__" and os.environ.get("E2E_CHILD_CPUS"):
    # Set by procs.steady_cpus(): leave the generator's core to it,
    # before the imports below do their second of work on it.
    os.sched_setaffinity(0, {int(c) for c in os.environ["E2E_CHILD_CPUS"].split(",")})

from repro import KeywordSearchEngine
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.durability import DurableEngine, recover_engine
from repro.serving.server import ServingServer

K = 10

#: ``generate_bibliographic_db(seed=7, ...)`` sizes per dataset name.
DATASETS = {
    "biblio-150": dict(n_authors=60, n_conferences=8, n_papers=150),
    "biblio-300": dict(n_authors=100, n_conferences=10, n_papers=300),
}

#: Admission set so the server never sheds: the benchmark measures
#: service time, BENCH_api owns overload behaviour.
NO_SHED = dict(
    max_concurrency=4,
    max_queue_depth=32,
    tenant_rate=1e6,
    tenant_burst=1e6,
    target_latency_ms=10000.0,
    default_timeout_ms=30000.0,
)


#: WAL fsync policy of the timed children.  Not the shipped default
#: (``always``): on this VM one fsync swung between 0.2 ms and 5-7 ms
#: for ten minutes at a time, 25x on a number no code change can move.
#: The end-to-end insert metrics gate the code's share of an insert;
#: what ``always`` costs is the layer metric ``durability.insert_ms``.
#: A process kill loses nothing either way: every append reaches the OS.
FSYNC = "never"


def build_db(dataset: str):
    return generate_bibliographic_db(seed=7, **DATASETS[dataset])


def is_populated(path: str) -> bool:
    return os.path.isdir(path) and bool(os.listdir(path))


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve(args: argparse.Namespace) -> int:
    if args.durable_dir and is_populated(args.durable_dir):
        engine, _ = recover_engine(args.durable_dir, trace=False)
    else:
        engine = KeywordSearchEngine(build_db(args.dataset))
    settings = {} if args.shipped_defaults else NO_SHED
    server = ServingServer(
        engine, port=0, durable_dir=args.durable_dir, **settings
    )
    if server.durable is not None:
        # ServingServer has no fsync knob: set it on the log it opened.
        server.durable.wal.fsync_policy = FSYNC
    return server.run()  # prints the bound port, blocks until killed


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def signature(results) -> List[Any]:
    """What the golden check compares: scores, tuple ids, degraded."""
    return [
        [r.score for r in results],
        [[[tid.table, tid.rowid] for tid in r.tuple_ids()] for r in results],
        bool(results.degraded),
    ]


class Answers:
    """Distinct answers per golden key, and which one each position got,
    so the parent can check every answer without every (mostly
    repeated) result set going through the pipe."""

    def __init__(self) -> None:
        self.sigs: Dict[str, List[Any]] = {}
        self.sig_idx: Dict[int, int] = {}

    def note(self, pos: int, key: str, results) -> None:
        sig = signature(results)
        seen = self.sigs.setdefault(key, [])
        if sig not in seen:
            seen.append(sig)
        self.sig_idx[pos] = seen.index(sig)


class Worker:
    """Holds one engine (optionally durable) and runs op batches."""

    def __init__(self) -> None:
        self.engine = None
        self.durable = None

    def build(self, cmd: Dict[str, Any]) -> Dict[str, Any]:
        start = time.perf_counter()
        durable_dir = cmd.get("durable_dir")
        if durable_dir and is_populated(durable_dir):
            self.durable, _ = DurableEngine.recover(durable_dir, fsync=FSYNC, trace=False)
            self.engine = self.durable.engine
        else:
            self.engine = KeywordSearchEngine(build_db(cmd["dataset"]))
            self.engine.index  # setup ends when the index is built
            if durable_dir:
                self.durable = DurableEngine(self.engine, durable_dir, fsync=FSYNC)
        db = self.engine.db
        rows = {name: len(db.table(name)) for name in db.schema.table_names}
        return {"build_s": time.perf_counter() - start, "rows": rows}

    def run(self, cmd: Dict[str, Any]) -> Dict[str, Any]:
        """Run ops in order, timing each public call."""
        engine, durable = self.engine, self.durable
        perf = time.perf_counter
        starts: List[float] = []
        lat_ms: List[float] = []
        answers = Answers()
        errors: List[List[Any]] = []
        acked: Dict[int, List[Any]] = {}
        spans: List[Dict[str, Any]] = []
        trace = cmd.get("trace", False)
        for pos, op in enumerate(cmd["ops"]):
            try:
                if op[0] == "s":
                    _, text, method, use_cache, key = op
                    t0 = perf()
                    results = engine.search(
                        text, k=K, method=method, use_cache=use_cache
                    )
                    t1 = perf()
                    answers.note(pos, key, results)
                else:
                    table, values = op[1], op[2]
                    t0 = perf()
                    tid = durable.insert(table, **values)
                    t1 = perf()
                    acked[pos] = [tid.table, tid.rowid]
            except Exception as exc:  # an op failure is a counted outcome
                t1 = perf()
                errors.append([pos, f"{type(exc).__name__}: {exc}"])
            starts.append(t0)
            lat_ms.append((t1 - t0) * 1000.0)
            if trace:
                rid = len(spans) + 1
                call = "core.search" if op[0] == "s" else "durability.insert"
                spans.append({"id": rid, "name": "request", "start": t0, "end": t1,
                              "parent": None, "request": str(pos)})
                spans.append({"id": rid + 1, "name": call, "start": t0, "end": t1,
                              "parent": rid, "request": str(pos)})
        return {
            # Busy time inside the public calls: the answer checks that
            # run between calls are the benchmark's cost, not the engine's.
            "wall_s": sum(lat_ms) / 1000.0,
            "starts": starts,
            "lat_ms": lat_ms,
            "sigs": answers.sigs,
            "sig_idx": answers.sig_idx,
            "acked": acked,
            "errors": errors,
            "spans": spans,
        }

    def search_many(self, cmd: Dict[str, Any]) -> Dict[str, Any]:
        """One ``engine.search_many`` over the ops' texts."""
        ops = cmd["ops"]
        t0 = time.perf_counter()
        results = self.engine.search_many(
            [op[1] for op in ops], k=K, method="schema", max_workers=cmd["workers"]
        )
        wall_s = time.perf_counter() - t0
        answers = Answers()
        for pos, (op, result) in enumerate(zip(ops, results)):
            answers.note(pos, op[4], result)
        return {"wall_s": wall_s, "start": t0,
                "sigs": answers.sigs, "sig_idx": answers.sig_idx}

    def cache_stats(self, cmd: Dict[str, Any]) -> Dict[str, Any]:
        return {"stats": self.engine.cache_stats()["results"]}

    def fsck(self, cmd: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        report = self.durable.fsck()
        return {
            "clean": report.ok,
            "summary": report.summary(),
            "fsck_ms": (time.perf_counter() - t0) * 1000.0,
        }


def worker(args: argparse.Namespace) -> int:
    state = Worker()
    out = sys.stdout
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "exit":
            break
        try:
            reply = getattr(state, cmd["cmd"])(cmd)
            reply["ok"] = True
        except Exception as exc:  # reported to the parent, which fails the pass
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    if state.durable is not None:
        state.durable.close()
    return 0


# ----------------------------------------------------------------------
# probe
# ----------------------------------------------------------------------
def probe(args: argparse.Namespace) -> int:
    import layers

    spec = json.loads(sys.stdin.read())
    print(json.dumps(layers.run_probes(spec)))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--dataset", default="biblio-150", choices=sorted(DATASETS))
    p.add_argument("--durable-dir", default=None)
    p.add_argument("--shipped-defaults", action="store_true")
    p.set_defaults(func=serve)
    sub.add_parser("worker").set_defaults(func=worker)
    sub.add_parser("probe").set_defaults(func=probe)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
