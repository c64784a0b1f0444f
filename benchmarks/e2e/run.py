"""One end-to-end benchmark: four workloads, eleven metrics, a per-layer table.

Driver form (one run, one JSON line last on stdout)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Suite form (every workload, untraced then traced, tables + out/result.json)::

    python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--smoke]
        [--no-trace] [--selfcheck] [--write-golden [--force]]

README.md defines the workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("benchmarks/e2e/run.py: src/repro not found; run from a full checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

import golden  # noqa: E402
import procs  # noqa: E402
from spans import SpanLog  # noqa: E402
from targets import HttpTarget, LibTarget, PassLog, make_target  # noqa: E402
from workloads import WORKLOADS, Plan, op_id  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

MIN_PASSES = 3
MAX_PASSES = 6
#: spawn -> ready and SIGKILL -> first answer are timed this often per run
SPAWN_SAMPLES = 5
BATCH_WORKERS = 2


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]; 0 when every op
    failed and there is nothing to take it over."""
    if not values:
        return 0.0
    ordered = sorted(values)
    at = q * (len(ordered) - 1)
    lo = int(math.floor(at))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (at - lo)


def rate(n: int, seconds: float) -> float:
    """``n`` per second; 0 when every op failed and nothing was timed."""
    return n / seconds if seconds > 0 else 0.0


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def check_answers(ops: Sequence[Sequence[Any]], log: PassLog,
                  expected: Dict[str, List[Any]]) -> None:
    """Mark every position whose answer is not the golden one as failed."""
    bad: Dict[Any, str] = {}
    for key, seen in log.sigs.items():
        for idx, sig in enumerate(seen):
            want = expected.get(key)
            problem = "no golden answer" if want is None else golden.mismatch(sig, want)
            if problem:
                bad[(key, idx)] = problem
    if bad:
        for pos, idx in log.sig_idx.items():
            problem = bad.get((ops[pos][4], idx))
            if problem and pos not in log.fails:
                log.fails[pos] = f"golden mismatch for {ops[pos][4]}: {problem}"


def check_findable(find_ops: List[List[Any]], log: PassLog,
                   acked: List[List[Any]]) -> None:
    """Each search must return the tuple its insert was acknowledged as."""
    for pos, (op, tid) in enumerate(zip(find_ops, acked)):
        if pos in log.fails:
            continue
        _, tuples, degraded = log.sigs[op[4]][log.sig_idx[pos]]
        if degraded or not any(tid in result_tuples for result_tuples in tuples):
            log.fails[pos] = f"acknowledged {tid} not found by {op[2]} {op[1]!r}"


class PassResult:
    """Logs and timings of one pass; ``phases`` are the checked logs."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.recover_s: List[float] = []
        self.peak_rss_mb = 0.0
        self.disk_bytes = 0
        self.acked = 0
        #: the read phase as sent: ``read`` gives the throughput,
        #: ``lat`` the latencies (the same lap unless clients > 1)
        self.read_ops: List[List[Any]] = []
        self.read: Optional[PassLog] = None
        self.lat_ops: List[List[Any]] = []
        self.lat: Optional[PassLog] = None
        self.burst: Optional[PassLog] = None
        self.batch_wall_s = 0.0  # lib_warm_zipf: the search_many call
        self.cache_stats: Dict[str, Any] = {}
        self.server_metrics: Dict[str, Any] = {}
        self.fsck: Optional[Dict[str, Any]] = None
        self.phases: List[PassLog] = []

    @property
    def attempted(self) -> int:
        return sum(len(log.lat_ms) for log in self.phases)

    @property
    def failed(self) -> int:
        return sum(len(log.fails) for log in self.phases)


def run_pass(plan: Plan, expected: Dict[str, List[Any]], label: str, clients: int,
             pass_index: int = 0, spans: Optional[SpanLog] = None,
             want_fsck: bool = False, restarts: int = 1) -> PassResult:
    """Fresh child -> reads and writes -> SIGKILL -> recover -> verify.

    ``restarts`` > 1 repeats the SIGKILL + restart that many times in
    all, for more ``recover_s`` samples from the same directory.
    """
    out = PassResult()
    ddir = procs.make_dir(label)
    target = make_target(plan.front, plan.dataset, ddir, label)
    root = None
    try:
        out.setup_s = target.start()
        if spans is not None:
            root = spans.add("pass", target.child.spawned_at, 0.0, workload=plan.workload)
        if plan.warm:  # untimed: fills the caches the read phase hits
            warm = target.run(plan.warm)
            check_answers(plan.warm, warm, expected)
            out.phases.append(warm)
        if plan.burst_first:
            out.burst = target.run(plan.burst, 1, spans, root)
        out.read_ops = plan.read_ops(pass_index)
        out.read = target.run(out.read_ops, clients, spans, root)
        check_answers(out.read_ops, out.read, expected)
        out.lat_ops, out.lat = out.read_ops, out.read
        if clients > 1:
            # Under the GIL two closed-loop clients double and scatter
            # each other's latencies (p50 repeated within 18%; alone,
            # within 5%).  The concurrent lap gives the throughput, a
            # second lap by one client, in another order, the latencies.
            out.lat_ops = plan.read_ops(pass_index + MAX_PASSES)
            out.lat = target.run(out.lat_ops, 1)
            check_answers(out.lat_ops, out.lat, expected)
            out.phases.append(out.lat)
        if plan.batch:
            batch = target.search_many(plan.batch, BATCH_WORKERS)
            check_answers(plan.batch, batch, expected)
            out.phases.append(batch)
            out.batch_wall_s = batch.wall_s
            out.cache_stats = target.cache_stats()
            if spans is not None:
                spans.add("perf.search_many", batch.starts[0],
                          batch.starts[0] + batch.wall_s, root)
        if not plan.burst_first:
            out.burst = target.run(plan.burst, 1, spans, root)
        out.phases += [out.burst, out.read]
        if isinstance(target, HttpTarget):
            out.server_metrics = target.server_metrics()

        # Durability: every acknowledged insert is findable, now and
        # after SIGKILL + restart on the same directory.
        inserts = [
            (op, log.acked[pos])
            for ops, log in ((plan.burst, out.burst), (out.read_ops, out.read))
            for pos, op in enumerate(ops) if pos in log.acked
        ]
        out.acked = len(inserts)
        find_ops = [plan.findable_op(op) for op, _ in inserts]
        tids = [tid for _, tid in inserts]
        found = target.run(find_ops)
        check_findable(find_ops, found, tids)
        out.phases.append(found)
        out.disk_bytes = procs.dir_bytes(ddir)
        for n in range(restarts):
            out.peak_rss_mb = max(out.peak_rss_mb, target.sample_rss())
            killed_at = time.perf_counter()
            target.kill()
            target = make_target(plan.front, plan.dataset, ddir, f"{label}-restart{n}")
            target.start()
            first = target.run(find_ops[:1])
            out.recover_s.append(time.perf_counter() - killed_at)
            check_findable(find_ops[:1], first, tids[:1])
            out.phases.append(first)
            if spans is not None:
                spans.add("durability.recover", killed_at, killed_at + out.recover_s[-1], root)
        again = target.run(find_ops)
        check_findable(find_ops, again, tids)
        out.phases.append(again)
        out.peak_rss_mb = max(out.peak_rss_mb, target.sample_rss())
        if spans is not None:
            spans.spans[root - 1]["end"] = time.perf_counter()
        if want_fsck:
            if isinstance(target, HttpTarget):
                # The server exposes no fsck: stop it and audit the same
                # directory through the library.
                target.kill()
                target = LibTarget(plan.dataset, ddir, label + "-fsck")
                target.start()
            out.fsck = target.fsck()
    finally:
        target.kill()
        procs.remove_dir(ddir)
    return out


def setup_samples(plan: Plan, n: int) -> List[float]:
    """``n`` more spawn -> ready timings, each on a fresh directory."""
    samples = []
    for i in range(n):
        label = f"{plan.workload}-setup{i}"
        ddir = procs.make_dir(label)
        target = make_target(plan.front, plan.dataset, ddir, label)
        try:
            samples.append(target.start())
        finally:
            target.kill()
            procs.remove_dir(ddir)
    return samples


# ----------------------------------------------------------------------
# End-to-end metrics from several passes
# ----------------------------------------------------------------------
def best_by_op(per_pass: List[List[Any]]) -> Dict[str, float]:
    """The minimum over every sample an op got in any pass.

    *per_pass* holds each pass's ``[(ops, log), ...]``.  Samples are
    pooled by op identity (``workloads.op_id``), failed ops excluded.
    Noise on this box only ever adds time: neighbours slow half of all
    4 ms slices by 10-100%, for a second or for ten.  The minimum over
    samples spread across the run is the one statistic that sees
    through that (1-5% between seeds where medians gave 20-40%).  A
    slower query or insert path moves its minimum too.
    """
    best: Dict[str, float] = {}
    for phases in per_pass:
        for ops, log in phases:
            for pos, op in enumerate(ops):
                if pos not in log.fails:
                    key = op_id(op)
                    best[key] = min(best.get(key, math.inf), log.lat_ms[pos])
    return best


def best_latencies(ops: Sequence[Sequence[Any]], best: Dict[str, float],
                   kind: Optional[str] = None) -> List[float]:
    """One latency per request in *ops* (of *kind*, if given): its op's best."""
    return [
        best[op_id(op)] for op in ops
        if (kind is None or op[0] == kind) and op_id(op) in best
    ]


def end_to_end(plan: Plan, passes: List[PassResult], setup_s: List[float]) -> Dict[str, float]:
    first = passes[0]
    best = best_by_op([[(plan.burst, p.burst), (p.lat_ops, p.lat)] for p in passes])
    timed = list(plan.burst) + list(first.lat_ops)
    search = best_latencies(timed, best, "s")
    insert = best_latencies(timed, best, "i")
    searches = sum(1 for op in plan.read if op[0] == "s") + len(plan.batch)
    if plan.clients > 1:
        # Two clients' requests delay each other; a request's best time
        # is one the other client left it alone in.  Whole laps only.
        read_wall_s = min(p.read.wall_s for p in passes)
    else:
        # One closed-loop client: a lap's wall is the sum of its round
        # trips, and the lap nothing disturbed is the sum of their bests.
        read_wall_s = sum(best_latencies(first.read_ops, best)) / 1000.0
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setup_s),
        "search_p50_ms": percentile(search, 0.50),
        "search_p90_ms": percentile(search, 0.90),
        "search_qps": rate(searches, read_wall_s + min(p.batch_wall_s for p in passes)),
        "insert_p50_ms": percentile(insert, 0.50),
        "insert_p90_ms": percentile(insert, 0.90),
        "insert_qps": rate(len(plan.burst), sum(best_latencies(plan.burst, best)) / 1000.0),
        "recover_s": min(t for p in passes for t in p.recover_s),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "disk_bytes_per_insert": statistics.median(
            p.disk_bytes / max(1, p.acked) for p in passes),
        "ok_share": 1.0 - failed / attempted,
    }


def load_expected(plan: Plan, golden_dir: str, record: Dict[str, Any]) -> Dict[str, List[Any]]:
    expected = golden.load(plan, golden_dir)
    record["golden"] = expected is not None
    if expected is None:
        t0 = time.perf_counter()
        expected = golden.reference(plan)
        record["reference_s"] = round(time.perf_counter() - t0, 3)
    return expected


def base_record(plan: Plan) -> Dict[str, Any]:
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "smoke": plan.smoke,
        "dataset": plan.dataset,
        "rows": plan.rows,
        "ops_per_pass": {
            "read": len(plan.read), "burst": len(plan.burst),
            "warm": len(plan.warm), "batch": len(plan.batch),
        },
        "crash_semantics": "process kill (SIGKILL) only, not power loss: "
                           "the OS page cache survives",
    }


def collect_failures(passes: List[PassResult], record: Dict[str, Any]) -> int:
    failed = sum(p.failed for p in passes)
    samples = [
        reason for p in passes for log in p.phases for reason in log.fails.values()
    ]
    if samples:
        record["failure_samples"] = samples[:10]
    return failed


def measure(plan: Plan, seconds: float, golden_dir: str) -> Dict[str, Any]:
    """The untraced run: whole passes until ``seconds`` have gone by,
    at least three; then spawn-only samples for ``setup_s``."""
    record = base_record(plan)
    expected = load_expected(plan, golden_dir, record)
    passes: List[PassResult] = []
    low, high = (1, 1) if plan.smoke else (MIN_PASSES, MAX_PASSES)
    started = time.perf_counter()
    pass_s: List[float] = []
    while len(passes) < low or (
        time.perf_counter() - started < seconds and len(passes) < high
    ):
        n = len(passes)
        # The last mandatory pass restarts more often: recover_s samples.
        more = SPAWN_SAMPLES - low if n == low - 1 and not plan.smoke else 0
        t0 = time.perf_counter()
        passes.append(run_pass(plan, expected, f"{plan.workload}-pass{n}", plan.clients,
                               pass_index=n, want_fsck=n == 0, restarts=1 + more))
        pass_s.append(time.perf_counter() - t0)
    setup_s = [p.setup_s for p in passes]
    if not plan.smoke:
        setup_s += setup_samples(plan, max(0, SPAWN_SAMPLES - len(passes)))
    metrics = end_to_end(plan, passes, setup_s)
    fsck = passes[0].fsck
    walls = [p.read.wall_s for p in passes]
    record.update({
        "passes": len(passes),
        "pass_total_s": [round(t, 3) for t in pass_s],
        "pass_read_wall_s": [round(w, 4) for w in walls],
        "pass_lat_wall_s": [round(p.lat.wall_s, 4) for p in passes],
        "pass_vs_fastest_pct": [round((w / min(walls) - 1.0) * 100.0, 2) for w in walls],
        "setup_s": [round(t, 4) for t in setup_s],
        "recover_s": [round(t, 4) for p in passes for t in p.recover_s],
        "inserts_acked_per_pass": passes[0].acked,
        "fsck": fsck,
    })
    attempted = sum(p.attempted for p in passes)
    failed = collect_failures(passes, record)
    return {
        "correct": failed == 0 and bool(fsck and fsck["clean"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def run_probe_child(plan: Plan, traced: PassResult) -> Dict[str, Any]:
    """Stage replay + config probes in a fresh ``child.py probe``."""
    # The stages are what an HTTP /search runs on every request; library
    # workloads either never call schema search or only hit the cache.
    counts: Dict[str, int] = {}
    for pos, op in enumerate(traced.read_ops if plan.front == "http" else ()):
        if op[0] == "s" and pos not in traced.read.fails:
            counts[op[1]] = counts.get(op[1], 0) + 1
    tmp = procs.make_dir(f"{plan.workload}-probe")
    spec = {
        "workload": plan.workload, "dataset": plan.dataset, "smoke": plan.smoke,
        "tmp": tmp, "stage_queries": list(counts), "stage_weights": list(counts.values()),
        "pre_inserts": plan.burst if plan.burst_first else [],
    }
    child = procs.Child(["probe"], f"{plan.workload}-probe")
    try:
        child.proc.stdin.write(json.dumps(spec).encode("utf-8"))
        child.proc.stdin.close()
        return json.loads(child.read_line(procs.COMMAND_TIMEOUT_S))
    finally:
        child.kill()
        procs.remove_dir(tmp)


def default_shed_share(plan: Plan) -> float:
    """Share of the read sequence a shipped-defaults server answers 429."""
    ops = [op for op in plan.read if op[0] == "s"]
    target = HttpTarget(plan.dataset, None, f"{plan.workload}-defaults",
                        shipped_defaults=True)
    try:
        target.start()
        log = target.run(ops, clients=1)
    finally:
        target.kill()
    return sum(1 for r in log.fails.values() if r.startswith("status 429")) / len(ops)


def per_layer(plan: Plan, std: PassResult, traced: PassResult,
              probe: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric; 0 where the layer is off this workload's path.

    *std* is the untraced pass; its 1-client lap (``std.lat``) is what
    the traced 1-client pass and the 2-client lap are compared with.
    """
    m = {name: 0.0 for name in PER_LAYER}
    m.update(probe["metrics"])
    read, ops = traced.read, traced.read_ops
    ok_search = [i for i, op in enumerate(ops) if op[0] == "s" and i not in read.fails]
    mean_ms = statistics.fmean(read.lat_ms[i] for i in ok_search)
    m["obs.bench_trace_overhead_pct"] = (
        (traced.read.wall_s - std.lat.wall_s) / std.lat.wall_s * 100.0)
    stage_sum = probe["stage_sum_ms"]
    if plan.front == "http":
        transport = [read.lat_ms[i] - read.server_ms[i] for i in ok_search]
        m["serving.transport_ms"] = statistics.median(transport)
        m["serving.server_request_ms"] = traced.server_metrics["serve.request_ms"]["mean"]
        m["serving.response_bytes"] = statistics.median(read.body_bytes[i] for i in ok_search)
        m["serving.default_shed_share"] = default_shed_share(plan)
        if plan.clients > 1:
            m["serving.concurrency_penalty"] = std.read.wall_s / std.lat.wall_s
        stage_sum += statistics.fmean(transport)
    if stage_sum:
        m["attributed_share"] = stage_sum / mean_ms
        m["unattributed_ms"] = mean_ms - stage_sum
    if plan.workload == "http_insert_search":
        after = [i for i in ok_search if ops[i - 1][0] == "i"]
        others = [i for i in ok_search if ops[i - 1][0] != "i"]
        m["core.post_insert_penalty"] = (
            statistics.median(read.lat_ms[i] for i in after)
            / statistics.median(read.lat_ms[i] for i in others))
    if plan.workload == "lib_methods_grid":
        for method in {op[2] for op in ops}:
            lat = [read.lat_ms[i] for i in ok_search if ops[i][2] == method]
            layer = "core" if method == "index_only" else "graph_search"
            m[f"{layer}.{method}_ms"] = statistics.fmean(lat)
    if plan.workload == "lib_warm_zipf":
        m["core.cache_hit_us"] = statistics.median(read.lat_ms[i] for i in ok_search) * 1000.0
        stats = traced.cache_stats
        m["perf.result_cache_hit_rate"] = stats["hits"] / (stats["hits"] + stats["misses"])
        m["perf.search_many_qps"] = len(plan.batch) / traced.batch_wall_s
    return m


def trace(plan: Plan, golden_dir: str) -> Dict[str, Any]:
    """One untraced pass for the baselines, one traced 1-client pass,
    then the library-level probes; writes ``out/trace-<workload>.json``."""
    record = base_record(plan)
    expected = load_expected(plan, golden_dir, record)
    spans = SpanLog()
    name = plan.workload
    std = run_pass(plan, expected, f"{name}-untraced", plan.clients)
    traced = run_pass(plan, expected, f"{name}-traced", 1, spans=spans, want_fsck=True)
    probe = run_probe_child(plan, traced)
    spans.adopt(probe["spans"], None)
    metrics = per_layer(plan, std, traced, probe)
    path = os.path.join(procs.OUT, f"trace-{name}.json")
    spans.dump(path)
    passes = [std, traced]
    failed = collect_failures(passes, record)
    record.update({
        "trace_file": os.path.relpath(path, ROOT),
        "spans": len(spans.spans),
        "self_ms_by_span": {k: round(v, 3) for k, v in sorted(spans.self_ms().items())},
        "fsck": traced.fsck,
    })
    return {
        "correct": failed == 0 and traced.fsck["clean"],
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def driver_line(result: Dict[str, Any], spec: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": meta["unit"]}
            for name, meta in spec.items()
        },
    })


def write_record(results: Dict[str, Any], args: argparse.Namespace) -> None:
    os.makedirs(procs.OUT, exist_ok=True)
    record = {
        "commit": procs.git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "smoke": args.smoke,
        "runs": results,
    }
    with open(os.path.join(procs.OUT, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def print_table(title: str, spec: Dict[str, Dict[str, Any]],
                by_workload: Dict[str, Dict[str, float]]) -> None:
    names = list(by_workload)
    print(f"\n== {title} ==")
    print(f"{'metric':34s} {'unit':8s} " + " ".join(f"{n:>20s}" for n in names))
    for metric, meta in spec.items():
        cells = " ".join(f"{by_workload[n][metric]:20.6g}" for n in names)
        print(f"{metric:34s} {meta['unit']:8s} {cells}")


def suite(args: argparse.Namespace, workloads: List[str]) -> Dict[str, Any]:
    """Every workload, untraced then (unless ``--no-trace``) traced."""
    results: Dict[str, Any] = {}
    for name in workloads:
        plan = Plan(name, args.seed, args.smoke)
        t0 = time.perf_counter()
        results[name] = {"end_to_end": measure(plan, args.seconds, args.golden_dir)}
        if not args.no_trace:
            results[name]["per_layer"] = trace(plan, args.golden_dir)
        print(f"{name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return results


def selfcheck(args: argparse.Namespace, workloads: List[str]) -> int:
    """Run the suite twice; every metric pair must agree within its bound."""
    args.no_trace = True
    first, second = suite(args, workloads), suite(args, workloads)
    worst = 0
    print(f"{'workload':20s} {'metric':24s} {'run 1':>14s} {'run 2':>14s} {'diff':>8s} {'bound':>7s}")
    for name in workloads:
        a = first[name]["end_to_end"]["metrics"]
        b = second[name]["end_to_end"]["metrics"]
        for metric, meta in END_TO_END.items():
            diff = abs(a[metric] - b[metric]) / max(abs(a[metric]), abs(b[metric]))
            flag = "" if diff <= meta["bound"] else "  <-- beyond bound"
            worst += bool(flag)
            print(f"{name:20s} {metric:24s} {a[metric]:14.6g} {b[metric]:14.6g} "
                  f"{diff:8.2%} {meta['bound']:7.2%}{flag}")
    write_record({"selfcheck": [first, second]}, args)
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one untraced pass over quarter-size sequences "
                             "(the traced run only in the driver form, --trace 1)")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--force", action="store_true")
    parser.add_argument("--golden-dir", default=golden.GOLDEN_DIR)
    args = parser.parse_args()
    procs.install_signal_handlers()
    procs.steady_cpus()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    args.no_trace = args.no_trace or args.smoke

    if args.write_golden:
        written = set()  # the two zipf workloads share one pool file
        for name in workloads:
            seeds = golden.GOLDEN_SEEDS if name == "http_insert_search" else (args.seed,)
            for seed in seeds:
                plan = Plan(name, seed)
                if golden.golden_path(plan, args.golden_dir) in written:
                    continue
                path, n = golden.write(plan, args.golden_dir, args.force)
                written.add(path)
                print(f"wrote {n} answers to {os.path.relpath(path, ROOT)}")
        return 0
    if args.selfcheck:
        return selfcheck(args, workloads)
    if args.trace is not None and args.workload:
        plan = Plan(args.workload, args.seed, args.smoke)
        if args.trace:
            result, spec = trace(plan, args.golden_dir), PER_LAYER
        else:
            result, spec = measure(plan, args.seconds, args.golden_dir), END_TO_END
        write_record({args.workload: result}, args)
        if result["record"].get("failure_samples"):
            print("\n".join(result["record"]["failure_samples"]), file=sys.stderr)
        print(driver_line(result, spec))
        return 0

    results = suite(args, workloads)
    write_record(results, args)
    print_table("end to end", END_TO_END,
                {n: r["end_to_end"]["metrics"] for n, r in results.items()})
    if not args.no_trace:
        print_table("per layer (traced run)", PER_LAYER,
                    {n: r["per_layer"]["metrics"] for n, r in results.items()})
    ok = True
    for name, runs in results.items():
        for kind, run in runs.items():
            print(f"{name:20s} {kind:10s} attempted={run['attempted']} "
                  f"failed={run['failed']} correct={run['correct']} "
                  f"golden={run['record']['golden']}")
            ok = ok and run["correct"]
    print("crash semantics: process kill (SIGKILL) only, not power loss")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
