"""One benchmark workload, run in a process of its own by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR --trace-dir DIR

Prints human-readable lines, then one JSON object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
     "report": {...}}

``report`` holds figures for people (raw timings, percentiles with their
sample counts, per-type latencies, the layer table); ``run.py`` prints it
and leaves it out of its own JSON line.

The engine sees only the files generated here from ``--seed`` and the
statements the workload sends.  Output checks run after the timed part:
a pipeline run must reproduce the histograms and check verdicts of the
plain-Python inspection of the same data exactly; a write-mix operation
must return the right rows, and the table's final ``count(*)`` and
``sum(balance)`` must match what the clients saw acknowledged.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from measure import (
    MachineSpeed,
    MixLedger,
    check_mix_invariants,
    median,
    peak_rss_mb,
    percentile,
    supported_percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))

#: set-up repetitions per run; setup_s is their median
SETUP_REPEATS = 3
#: the measured time is split into this many windows; a traced run
#: alternates untraced and traced ones
WINDOWS = 8


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tmp: str
    trace_dir: str


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    report: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


# -- server processes -----------------------------------------------------


class ServerProcess:
    """``serve.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, profile: str, wal_path: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "serve.py"), "--profile", profile]
        if wal_path is not None:
            command += ["--wal-path", wal_path]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.port = int(self._expect("READY"))
        self.report: Optional[dict] = None

    def _expect(self, word: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(word):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server process said {line!r}, expected {word}")
        return line[len(word):].strip()

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def trace(self, path: str) -> None:
        self.command(f"trace {path}")
        self._expect("TRACING")

    def untrace(self) -> None:
        self.command("untrace")
        self._expect("UNTRACED")

    def kernel_s(self) -> float:
        """The calibration kernel's time in the server process."""
        self.command("speed")
        return float(self._expect("SPEED"))

    def collect(self) -> dict:
        """Wait for the ``DONE`` report of a shutdown already requested."""
        if self.report is None:
            self.report = json.loads(self._expect("DONE"))
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        return self.report


def shutdown_all(servers: list[ServerProcess]) -> dict:
    """Ask every server to stop at once (each waits out its own shutdown
    in parallel) and return the report of the first one."""
    for server in servers:
        server.command("shutdown")
    reports = [server.collect() for server in servers]
    return reports[0]


def setup_repeated(
    setup: Callable[[int], Any], speed: MachineSpeed
) -> tuple[Any, list[float], list[Any]]:
    """Run ``setup(i)`` SETUP_REPEATS times, timing each; returns the last
    result, the times and the earlier results (for the caller to release)."""
    times, results = [], []
    for i in range(SETUP_REPEATS):
        speed.sample()
        gc.collect()
        started = time.perf_counter()
        results.append(setup(i))
        times.append(time.perf_counter() - started)
    return results[-1], times, results[:-1]


# -- tracing (imported only by traced runs) ---------------------------------


class TracedPhase:
    """Turns the layer wrappers on and off in this process (and in the
    server, if any) and makes per-layer metrics of the spans at the end.

    A traced run alternates untraced and traced windows of equal length,
    so the overhead estimate compares runs made under the same conditions
    rather than an early block with a late one."""

    def __init__(self, ctx: Context, name: str, engine: bool,
                 server: Optional[ServerProcess]) -> None:
        from tracer import Tracer

        self.ctx, self.name, self.server, self.engine = ctx, name, server, engine
        self.tracer = Tracer()
        self.server_path = os.path.join(ctx.tmp, "server-spans.json.gz")

    def start(self) -> None:
        from layers import install

        if self.server is not None:
            self.server.trace(self.server_path)
        install(self.tracer, client=True, engine=self.engine, server=False)

    def stop(self) -> None:
        self.tracer.set_op(None)
        self.tracer.uninstall()
        if self.server is not None:
            self.server.untrace()

    def finish(self, roots: tuple[str, ...], n_ops: int, extras: dict) -> tuple[dict, dict]:
        """Per-layer metrics and self seconds per layer per operation;
        the spans are written to the trace directory.  *extras* carries
        what spans cannot (see :func:`layers.per_layer_metrics`)."""
        from layers import layer_table, per_layer_metrics
        from tracer import load

        client_spans = self.tracer.spans
        engine_spans = (
            load(self.server_path) if self.server is not None else client_spans
        )
        metrics = per_layer_metrics(client_spans, engine_spans, roots, n_ops, extras)
        base = os.path.join(self.ctx.trace_dir, f"{self.name}-seed{self.ctx.seed}")
        self.tracer.dump(base + "-client.json.gz")
        if self.server is not None:
            shutil.copyfile(self.server_path, base + "-server.json.gz")
        return metrics, layer_table(client_spans, engine_spans, n_ops)


def _hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# -- pipeline workloads ---------------------------------------------------


@dataclass
class PipelineSpec:
    pipeline: str
    sensitive: list[str]
    generate: Callable[[str, int, int], Any]
    size: int
    profile: str
    materialize: bool
    remote: bool


def _generate_healthcare(directory: str, size: int, seed: int) -> None:
    from repro.datasets import generate_healthcare

    generate_healthcare(directory, size, seed)


def _generate_adult(directory: str, size: int, seed: int) -> None:
    from repro.datasets import generate_adult

    # the sklearn part reads only the training file
    generate_adult(directory, size, 1, seed)


HEALTHCARE = PipelineSpec(
    "healthcare", ["race", "age_group"], _generate_healthcare,
    size=20_000, profile="postgres", materialize=True, remote=False,
)
ADULT = PipelineSpec(
    "adult_complex", ["race"], _generate_adult,
    size=10_000, profile="umbra", materialize=False, remote=True,
)


def _canonical(result) -> tuple[dict, dict]:
    """The non-empty histograms keyed by (pipeline line, operator type),
    and the verdict per check.  The SQL and Python DAGs differ in their
    sklearn nodes, so histograms are compared where both have the key."""
    histograms = {}
    for node, per_node in result.dag_node_to_inspection_results.items():
        for value in per_node.values():
            if isinstance(value, dict) and value:
                histograms[(node.lineno, node.operator_type.name)] = value
    verdicts = {repr(check): res for check, res in result.check_to_check_results.items()}
    return histograms, verdicts


def _mismatch(output: tuple[dict, dict], reference: tuple[dict, dict]) -> Optional[str]:
    """Why a SQL run's inspection output differs from the Python
    reference (exact equality of counts and of the checks' ratios)."""
    histograms, verdicts = output
    if verdicts != reference[1]:
        return "check verdicts or ratios differ from Python's"
    compared = 0
    for key, per_column in histograms.items():
        for column, counts in per_column.items():
            if column in reference[0].get(key, {}):
                if counts != reference[0][key][column]:
                    return f"histogram of {column!r} at {key} differs from Python's"
                compared += 1
    if compared == 0:
        return "no histogram comparable with Python's"
    return None


def measure_windows(
    ctx: Context, phase: Optional[TracedPhase], window: Callable[[int, bool], Any]
) -> list[tuple[bool, Any]]:
    """Call ``window(i, traced)`` WINDOWS times, each meant to last
    ``ctx.seconds / WINDOWS``; in a traced run every second window runs
    with the wrappers installed.  Returns (traced, result) per window."""
    results = []
    for i in range(WINDOWS):
        traced = phase is not None and i % 2 == 1
        if traced:
            phase.start()
        results.append((traced, window(i, traced)))
        if traced:
            phase.stop()
    return results


@dataclass
class PipelineRun:
    seconds: float
    output: tuple[dict, dict]
    retries: int
    #: plan-cache hits and misses of an in-process run's fresh engine
    cache: Optional[tuple[int, int]]


def run_pipeline(spec: PipelineSpec, ctx: Context) -> Outcome:
    from repro.core.connectors import ProfileConnector, RemoteConnector
    from repro.inspection import NoBiasIntroducedFor, PipelineInspector
    from repro.pipelines import PIPELINE_BUILDERS
    from repro.sqldb.profile import profile_by_name

    profile = profile_by_name(spec.profile)

    def setup(i: int):
        directory = os.path.join(ctx.tmp, f"data{i}")
        spec.generate(directory, spec.size, ctx.seed)
        if spec.remote:
            server = ServerProcess(spec.profile)
            connector = RemoteConnector(port=server.port)
        else:
            server = None
            connector = ProfileConnector(profile)
        connector.connection  # dial the server / create the engine
        return directory, connector, server

    speed = MachineSpeed()
    (directory, connector, server), setup_times, spares = setup_repeated(setup, speed)
    for old_dir, old_connector, _ in spares:
        if spec.remote:
            old_connector.close()
        else:
            old_connector.connection.close()
        shutil.rmtree(old_dir)
    # idle spare servers are stopped together with the measured one
    spare_servers = [old_server for _, _, old_server in spares if old_server]
    source = PIPELINE_BUILDERS[spec.pipeline](directory, upto="sklearn")

    def inspector():
        return PipelineInspector.on_pipeline_from_string(
            source, filename=f"<{spec.pipeline}>"
        ).add_check(NoBiasIntroducedFor(spec.sensitive))

    teardowns = []

    def release_engine() -> None:
        """Close the in-process engine and free it; timed as shutdown."""
        nonlocal connector
        started = time.perf_counter()
        connector.connection.close()
        connector = None
        gc.collect()
        teardowns.append(time.perf_counter() - started)

    def one_run(i: int) -> PipelineRun:
        nonlocal connector
        if not spec.remote and i > 0:
            # a fresh engine and plan cache per run, as when a user runs
            # the inspected pipeline script once (a served engine keeps
            # its plan cache across the runs of its clients)
            release_engine()
            connector = ProfileConnector(profile)
        retries = connector.retries
        pipeline = inspector()
        speed.sample(server)
        gc.collect()
        started = time.perf_counter()
        result = pipeline.execute_in_sql(
            dbms_connector=connector, mode="VIEW", materialize=spec.materialize
        )
        elapsed = time.perf_counter() - started
        cache = None
        if not spec.remote:
            stats = connector.plan_cache_stats
            cache = (stats["hits"], stats["misses"])
        return PipelineRun(elapsed, _canonical(result), connector.retries - retries, cache)

    phase = (
        TracedPhase(ctx, spec.pipeline, engine=not spec.remote, server=server)
        if ctx.trace else None
    )
    done: list[PipelineRun] = []

    def window(i: int, traced: bool) -> list[PipelineRun]:
        runs = []
        started = time.perf_counter()
        while not runs or time.perf_counter() - started < ctx.seconds / WINDOWS:
            if traced:
                phase.tracer.set_op(f"run{len(done)}")
            runs.append(one_run(len(done)))
            done.append(runs[-1])
        return runs

    windows = measure_windows(ctx, phase, window)
    runs = [run for traced, part in windows if traced == ctx.trace for run in part]
    times = [run.seconds for run in runs]

    if spec.remote:
        connector.close()
        report = shutdown_all([server] + spare_servers)
    else:
        report = {"peak_rss_mb": peak_rss_mb(), "threads_after_shutdown": 0}
        release_engine()
        # closing and freeing an engine is CPU work, scaled like the other
        # timings (a server's shutdown is a timeout, reported as measured)
        report["shutdown_s"] = speed.seconds(median(teardowns))

    # the reference: plain-Python inspection of the same files, computed
    # after every figure above (peak RSS included) was taken
    reference = _canonical(inspector().execute())
    problems = []
    for i, run in enumerate(done):
        mismatch = _mismatch(run.output, reference)
        if mismatch is not None:
            problems.append(f"run {i}: {mismatch}")
        if run.retries:
            problems.append(f"run {i}: the connector retried {run.retries} times")

    summary = {
        "size": spec.size,
        "verdict": next(iter(reference[1].values())).status.value,
        "machine_slowdown": speed.slowdown,
        "setup_s_raw": setup_times,
        "pipeline_s_raw": times,
    }
    if phase is not None:
        if spec.remote:
            hits, misses = report["plan_cache_hits"], report["plan_cache_misses"]
        else:
            hits = sum(run.cache[0] for run in runs)
            misses = sum(run.cache[1] for run in runs)
        metrics, summary["layers_self_s_per_run"] = phase.finish(
            ("inspection.execute_in_sql",), len(runs), {
                "connector.retries": sum(run.retries for run in runs),
                "plan_cache.hit_ratio": _hit_ratio(hits, misses),
                "server.threads_after_shutdown": report["threads_after_shutdown"],
                "trace.overhead": median(times) / median(
                    [run.seconds for traced, part in windows if not traced for run in part]
                ) - 1.0,
            },
        )
    else:
        metrics = {
            "setup_s": speed.seconds(median(setup_times)),
            "latency_p50_ms": speed.seconds(median(times)) * 1000.0,
            # pipeline runs per second of pipeline time (one at a time)
            "throughput_ops_s": speed.rate(len(times) / sum(times)),
            "shutdown_s": report["shutdown_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    failed_runs = {p.split(":")[0] for p in problems}
    return Outcome(len(done), len(failed_runs), metrics, summary, problems)


# -- oltp-mix ---------------------------------------------------------------

MIX_ROWS = 20_000
MIX_CLIENTS = 2
MIX_OWNERS = 64
#: one round of a client: 5/8 point SELECT, 1/8 each aggregate, UPDATE, INSERT
MIX_ROUND = ("select",) * 5 + ("aggregate", "update", "insert")
MIX_SQL = {
    "select": "SELECT id, owner, balance, region FROM accounts WHERE id = %s",
    "aggregate": "SELECT owner, count(*), sum(balance) FROM accounts "
                 "WHERE owner = %s GROUP BY owner",
    "update": "UPDATE accounts SET balance = balance + %s WHERE id = %s",
    "insert": "INSERT INTO accounts (id, owner, balance, region) "
              "VALUES (%s, %s, %s, %s)",
}


def _write_accounts(path: str, seed: int) -> int:
    """The table's CSV (with a header line); returns the balance sum."""
    rng = random.Random(seed)
    ids = list(range(MIX_ROWS))
    rng.shuffle(ids)
    total = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "owner", "balance", "region"])
        for account in ids:
            balance = rng.randrange(10_000)
            total += balance
            writer.writerow([
                account, f"owner{rng.randrange(MIX_OWNERS):03d}", balance,
                f"region{rng.randrange(8)}",
            ])
    return total


def _mix_client(connection, client: int, window: int, seed: int, deadline_box: list,
                start: threading.Barrier, latencies: dict, ledger: MixLedger,
                tracer=None) -> None:
    """A closed loop: each statement waits for the previous reply; whole
    rounds only, so the mix holds exactly.  Fresh ids for INSERT are
    unique per client and per measurement window."""
    rng = random.Random((seed * 1009 + client) * 31 + window)
    cursor = connection.cursor()
    next_id = MIX_ROWS + window * 1_000_000 + client
    op = 0
    start.wait()
    while time.perf_counter() < deadline_box[0]:
        kinds = list(MIX_ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            if tracer is not None:
                tracer.set_op(f"c{client}-{op}")
            op += 1
            if kind == "select":
                params = (rng.randrange(MIX_ROWS),)
            elif kind == "aggregate":
                params = (f"owner{rng.randrange(MIX_OWNERS):03d}",)
            elif kind == "update":
                params = (rng.randrange(1, 100), rng.randrange(MIX_ROWS))
            else:
                params = (next_id, f"owner{rng.randrange(MIX_OWNERS):03d}",
                          rng.randrange(10_000), "region9")
                next_id += MIX_CLIENTS
            started = time.perf_counter()
            try:
                cursor.execute(MIX_SQL[kind], params)
                rows = cursor.fetchall() if kind in ("select", "aggregate") else None
                rowcount = cursor.rowcount
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                latencies[kind].append(time.perf_counter() - started)
                ledger.wrong.append(f"{kind}{params}: {type(exc).__name__}: {exc}")
                continue
            latencies[kind].append(time.perf_counter() - started)
            if rows is not None:  # exactly the requested row or group
                ok = len(rows) == 1 and rows[0][0] == params[0]
            else:
                ok = rowcount == 1
            if not ok:
                ledger.wrong.append(f"{kind}{params}: got rows={rows} rowcount={rowcount}")
            elif kind == "update":
                ledger.update_delta += params[0]
            elif kind == "insert":
                ledger.inserts += 1
                ledger.inserted_balance += params[2]


def run_mix(ctx: Context) -> Outcome:
    from repro.sqldb import client

    def setup(i: int):
        path = os.path.join(ctx.tmp, f"accounts{i}.csv")
        loaded_sum = _write_accounts(path, ctx.seed)
        server = ServerProcess("postgres", wal_path=os.path.join(ctx.tmp, f"wal{i}.log"))
        connection = client.connect("127.0.0.1", server.port)
        cursor = connection.cursor()
        cursor.execute(
            "CREATE TABLE accounts (id integer, owner text, balance integer, region text)"
        )
        # explicit HEADER: the engine's default (true) differs from
        # PostgreSQL's, and the count check below guards the load
        cursor.execute(f"COPY accounts FROM '{path}' WITH (FORMAT csv, HEADER true)")
        cursor.execute("CREATE UNIQUE INDEX accounts_id ON accounts (id)")
        cursor.execute("SELECT count(*) FROM accounts")
        loaded = cursor.fetchall()[0][0]
        if loaded != MIX_ROWS:
            raise RuntimeError(f"COPY loaded {loaded} rows, expected {MIX_ROWS}")
        return server, connection, loaded_sum

    speed = MachineSpeed()
    (server, setup_connection, loaded_sum), setup_times, spares = setup_repeated(setup, speed)
    for _, old_connection, _ in spares:
        old_connection.close()
    spare_servers = [old_server for old_server, _, _ in spares]

    connections = [client.connect("127.0.0.1", server.port) for _ in range(MIX_CLIENTS)]

    def closed_loop(seconds: float, window: int, tracer=None) -> tuple[dict, MixLedger, float]:
        latencies = {kind: [] for kind in MIX_SQL}
        ledgers = [MixLedger() for _ in range(MIX_CLIENTS)]
        start = threading.Barrier(MIX_CLIENTS + 1)
        deadline = [float("inf")]
        threads = [
            threading.Thread(
                target=_mix_client,
                args=(connections[c], c, window, ctx.seed, deadline, start,
                      latencies, ledgers[c], tracer),
            )
            for c in range(MIX_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        started = time.perf_counter()
        deadline[0] = started + seconds
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        ledger = MixLedger()
        for part in ledgers:
            ledger = ledger.merge(part)
        return latencies, ledger, wall

    phase = TracedPhase(ctx, "oltp-mix", engine=False, server=server) if ctx.trace else None

    def window(i: int, traced: bool):
        speed.sample(server)
        return closed_loop(ctx.seconds / WINDOWS, i, phase.tracer if traced else None)

    windows = measure_windows(ctx, phase, window)
    speed.sample(server)
    ledger = MixLedger()
    latencies = {kind: [] for kind in MIX_SQL}
    wall = other_wall = 0.0
    other_ops = 0
    for traced, (done, part, elapsed) in windows:
        ledger = ledger.merge(part)
        if traced == ctx.trace:
            for kind in MIX_SQL:
                latencies[kind] += done[kind]
            wall += elapsed
        else:
            other_ops += sum(len(v) for v in done.values())
            other_wall += elapsed
    all_latencies = [x for kind in MIX_SQL for x in latencies[kind]]
    n_ops = len(all_latencies)

    cursor = setup_connection.cursor()
    cursor.execute("SELECT count(*), sum(balance) FROM accounts")
    final_count, final_sum = cursor.fetchall()[0]
    broken_state = check_mix_invariants(
        MIX_ROWS, loaded_sum, ledger, final_count, final_sum
    )
    for connection in connections + [setup_connection]:
        connection.close()
    report = shutdown_all([server] + spare_servers)

    attempted = n_ops + other_ops
    summary = {
        "rows": MIX_ROWS,
        "clients": MIX_CLIENTS,
        "machine_slowdown": speed.slowdown,
        "setup_s_raw": setup_times,
        "throughput_ops_s_raw": n_ops / wall,
    }
    # the median and p95, or the highest percentile with ten samples
    # beyond it when p95 has fewer
    for q in sorted({50.0, min(95.0, supported_percentile(n_ops) or 50.0)}):
        value, n = percentile(all_latencies, q)
        summary[f"op_p{q:.0f}_ms"] = {"value": speed.seconds(value) * 1000.0, "samples": n}
    for kind in MIX_SQL:
        p50, n = percentile(latencies[kind], 50.0)
        summary[f"{kind}_p50_ms"] = {"value": speed.seconds(p50) * 1000.0, "samples": n}
    if phase is not None:
        metrics, summary["layers_self_s_per_op"] = phase.finish(
            ("wire.cursor_execute",), n_ops, {
                "connector.retries": 0,
                "plan_cache.hit_ratio": _hit_ratio(
                    report["plan_cache_hits"], report["plan_cache_misses"]
                ),
                "server.threads_after_shutdown": report["threads_after_shutdown"],
                "trace.overhead": (other_ops / other_wall) / (n_ops / wall) - 1.0,
            },
        )
    else:
        metrics = {
            "setup_s": speed.seconds(median(setup_times)),
            # the mix's headline operation is the single-row INSERT: its
            # cost is the engine's (a whole-table append), while a read's
            # median depends on how often it queues behind the other
            # client's write, which moves between runs by 10 to 20%
            "latency_p50_ms": speed.seconds(median(latencies["insert"])) * 1000.0,
            "throughput_ops_s": speed.rate(n_ops / wall),
            "shutdown_s": report["shutdown_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    # a wrong final state spoils every acknowledged write: it fails the
    # whole run, not a count of operations
    failed = attempted if broken_state else len(ledger.wrong)
    return Outcome(attempted, failed, metrics, summary, ledger.wrong + broken_state)


WORKLOADS = {
    "healthcare-inspect": lambda ctx: run_pipeline(HEALTHCARE, ctx),
    "adult-remote": lambda ctx: run_pipeline(ADULT, ctx),
    "oltp-mix": run_mix,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_SQL_"))
    if leaked:
        raise SystemExit(f"workload process must not see {leaked}")
    ctx = Context(args.seed, args.seconds, bool(args.trace), args.tmp, args.trace_dir)
    outcome = WORKLOADS[args.workload](ctx)
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "report": outcome.report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
