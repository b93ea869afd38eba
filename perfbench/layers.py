"""Which functions the traced run wraps, and the per-layer metrics.

A span is named ``<layer>.<what>``; the layers are this repository's
modules:

=============  ===========================================================
inspection     ``repro.inspection`` (tracker, monkeypatching, transpiling)
connector      ``repro.core.connectors``
wire           ``repro.sqldb.protocol``, ``client`` and ``server``
engine         ``repro.sqldb.engine`` dispatch, result conversion, commit
parse          lexer / parser / prepared (plan-cache lookups included)
planner        ``repro.sqldb.planner``
optimizer      ``repro.sqldb.optimizer``
executor       ``repro.sqldb.executor`` (with ``functions``)
hashing        ``repro.sqldb.hashing``
catalog        ``repro.sqldb.catalog``
vector         ``repro.sqldb.vector.from_values``
wal            ``repro.sqldb.wal``
latch, locks   ``repro.sqldb.locks`` (catalog latch, table locks)
=============  ===========================================================

The transpiler (``sql_backend``, ``translators``, ``query_container``)
runs inside the inspection layer's time; it is counted by the scripts
and SQL bytes it hands to the connector.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Optional

from tracer import END, NAME, START, VALUE, Tracer, outermost, self_times


def _sized(value) -> Optional[int]:
    return len(value) if hasattr(value, "__len__") else None


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _sql_bytes(args, kwargs, result):
    sql = _arg(args, kwargs, 1, "sql")
    return len(sql.encode("utf-8")) if isinstance(sql, str) else None


def _statements(args, kwargs, result):
    return _sized(result)


def _batch_rows(args, kwargs, result):
    return getattr(result, "length", None)


def _join_key_rows(args, kwargs, result):
    pairs = _arg(args, kwargs, 0, "column_pairs")
    return len(pairs[0][0]) + len(pairs[0][1]) if pairs else 0


def _group_rows(args, kwargs, result):
    vectors = _arg(args, kwargs, 0, "vectors")
    return len(vectors[0]) if vectors else 0


def _frame_bytes(args, kwargs, result):
    return _sized(result)


def _appended_columns(args, kwargs, result):
    return _arg(args, kwargs, 2, "n_new")


def _appended_rows(args, kwargs, result):
    return _sized(_arg(args, kwargs, 1, "rows"))


def _items(args, kwargs, result):
    return _sized(_arg(args, kwargs, 0, "items"))


#: (module, function or Class.method, span name, measure)
CLIENT_TARGETS = [
    ("repro.inspection.inspector", "PipelineInspector.execute_in_sql",
     "inspection.execute_in_sql", None),
    ("repro.core.connectors", "DBConnector.run", "connector.run", _sql_bytes),
    ("repro.core.connectors", "RemoteConnector.run", "connector.run", _sql_bytes),
    ("repro.core.connectors", "DBConnector.query_rows", "connector.query_rows",
     _sql_bytes),
    ("repro.sqldb.client", "RemoteCursor.execute", "wire.cursor_execute", None),
    ("repro.sqldb.protocol", "encode_frame", "wire.encode", _frame_bytes),
    ("repro.sqldb.protocol", "recv_frame", "wire.recv", None),
]

ENGINE_TARGETS = [
    ("repro.sqldb.engine", "Database.run_script", "engine.run_script", _statements),
    ("repro.sqldb.engine", "Database.execute", "engine.execute", lambda *a: 1),
    ("repro.sqldb.parser", "parse_script", "parse.parse_script", None),
    ("repro.sqldb.prepared", "normalize_sql", "parse.normalize", None),
    ("repro.sqldb.planner", "Planner.plan_select", "planner.plan_select", None),
    ("repro.sqldb.optimizer", "optimize_select_plan", "optimizer.optimize", None),
    ("repro.sqldb.optimizer", "prune_plan", "optimizer.prune", None),
    ("repro.sqldb.optimizer", "prune_shared_plans", "optimizer.prune", None),
    ("repro.sqldb.executor", "execute_plan", "executor.execute_plan", _batch_rows),
    ("repro.sqldb.executor", "join_batches", "executor.join", None),
    ("repro.sqldb.executor", "index_join_batch", "executor.join", None),
    ("repro.sqldb.executor", "aggregate_batch", "executor.aggregate", None),
    ("repro.sqldb.executor", "filter_batch", "executor.filter", None),
    ("repro.sqldb.executor", "project_batch", "executor.project", None),
    ("repro.sqldb.hashing", "factorize_columns", "hashing.factorize", _join_key_rows),
    ("repro.sqldb.hashing", "group_codes", "hashing.group_codes", _group_rows),
    ("repro.sqldb.catalog", "Table.append_columns", "catalog.append",
     _appended_columns),
    ("repro.sqldb.catalog", "Table.append_rows", "catalog.append", _appended_rows),
    ("repro.sqldb.catalog", "Catalog.refresh_indexes", "catalog.index_refresh",
     None),
    ("repro.sqldb.catalog", "Catalog.snapshot", "catalog.snapshot", None),
    ("repro.sqldb.catalog", "Catalog.fork", "catalog.snapshot", None),
    ("repro.sqldb.wal", "WriteAheadLog.sync", "wal.sync", None),
    ("repro.sqldb.locks", "LockManager.acquire", "locks.acquire", None),
]

SERVER_TARGETS = [
    ("repro.sqldb.protocol", "encode_frame", "wire.encode", _frame_bytes),
    ("repro.sqldb.protocol", "result_to_wire", "wire.result_encode", None),
]


def install(tracer: Tracer, client: bool, engine: bool, server: bool) -> None:
    """Wrap the layer entry points this process runs (see module doc).
    A process is a client, or a server, never both: both lists wrap
    ``encode_frame``."""
    targets = []
    if client:
        targets += CLIENT_TARGETS
    if engine:
        targets += ENGINE_TARGETS
    if server:
        targets += SERVER_TARGETS
    for module, name, span, measure in targets:
        importlib.import_module(module)
        tracer.patch(
            module, name,
            lambda fn, span=span, measure=measure: tracer.wrap(fn, span, measure),
        )
    if server:
        tracer.patch(
            "repro.sqldb.server", "_ClientHandler._handle_request",
            lambda fn: tracer.wrap(fn, "wire.server_request", new_op="srv"),
        )
    if engine:
        _install_engine_specials(tracer)


def _install_engine_specials(tracer: Tracer) -> None:
    """Wrappers that need more than a span per call."""

    def listify(fn):
        # from_values accepts any iterable; hand it a list so the traced
        # call can count its items (it makes the same list first thing)
        traced = tracer.wrap(fn, "vector.from_values", _items)

        @functools.wraps(fn)
        def from_values(items):
            return traced(items if isinstance(items, list) else list(items))

        return from_values

    tracer.patch("repro.sqldb.vector", "from_values", listify)

    def wal_append(fn):
        @functools.wraps(fn)
        def append(log, record):
            before = log._size
            start = time.perf_counter_ns()
            try:
                return fn(log, record)
            finally:
                tracer.record(
                    "wal.append", start, time.perf_counter_ns(),
                    log._size - before,
                )

        return append

    tracer.patch("repro.sqldb.wal", "WriteAheadLog.append", wal_append)
    for method in ("ReadWriteLock.read", "ReadWriteLock.write"):
        tracer.patch(
            "repro.sqldb.locks", method,
            lambda fn: tracer.wrap_enter(fn, "latch.wait"),
        )


# -- metrics --------------------------------------------------------------

#: (metric, unit) in report order
PER_LAYER_METRICS = [
    ("inspection.self_s", "s"),
    ("transpiler.scripts", "count"),
    ("transpiler.sql_bytes", "B"),
    ("connector.calls", "count"),
    ("connector.s", "s"),
    ("connector.self_s", "s"),
    ("connector.retries", "count"),
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("wire.encode_s", "s"),
    ("wire.recv_s", "s"),
    ("wire.result_encode_s", "s"),
    ("wire.self_s", "s"),
    ("engine.statements", "count"),
    ("engine.s", "s"),
    ("engine.self_s", "s"),
    ("parse.calls", "count"),
    ("parse.s", "s"),
    ("plan_cache.hit_ratio", "ratio"),
    ("planner.s", "s"),
    ("optimizer.s", "s"),
    ("executor.s", "s"),
    ("executor.self_s", "s"),
    ("executor.join_s", "s"),
    ("executor.aggregate_s", "s"),
    ("executor.filter_s", "s"),
    ("executor.project_s", "s"),
    ("executor.rows_out", "count"),
    ("hashing.s", "s"),
    ("hashing.rows", "count"),
    ("catalog.append_s", "s"),
    ("catalog.rows_appended", "count"),
    ("catalog.index_refresh_s", "s"),
    ("catalog.snapshot_s", "s"),
    ("catalog.self_s", "s"),
    ("vector.from_values_s", "s"),
    ("vector.from_values_items", "count"),
    ("wal.records", "count"),
    ("wal.bytes", "B"),
    ("wal.append_s", "s"),
    ("wal.syncs", "count"),
    ("wal.sync_s", "s"),
    ("latch.wait_s", "s"),
    ("locks.wait_s", "s"),
    ("server.threads_after_shutdown", "count"),
    ("trace.op_s", "s"),
    ("trace.accounted_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
]


def _outer_s(spans: list[tuple], *names: str) -> float:
    """Seconds in the outermost spans among *names* (nested calls once)."""
    return sum(s[END] - s[START] for s in outermost(spans, set(names))) / 1e9


def _count(spans: list[tuple], *names: str) -> int:
    return sum(1 for s in spans if s[NAME] in names)


def _value(spans: list[tuple], *names: str) -> float:
    return sum(s[VALUE] or 0 for s in spans if s[NAME] in names)


def layer_self_s(spans: list[tuple]) -> dict[str, float]:
    """Layer -> summed self time (s) over the spans of one process."""
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span in spans:
        out[span[NAME].split(".", 1)[0]] += own[span[0]] / 1e9
    return out


def per_layer_metrics(
    client_spans: list[tuple],
    engine_spans: list[tuple],
    roots: tuple[str, ...],
    n_ops: int,
    extras: dict[str, float],
) -> dict[str, float]:
    """Per-operation layer metrics from one traced phase.

    *client_spans* come from the process that issues the operations
    (its root spans are named in *roots*); *engine_spans* from the
    process running the engine (the same list when it runs in-process,
    the server's spans otherwise).  Times and counts are per operation:
    one pipeline run, or one statement of the write mix.  *extras*
    supplies, as they are, what spans cannot: ``connector.retries`` (a
    total), ``plan_cache.hit_ratio``, ``server.threads_after_shutdown``
    and ``trace.overhead``.
    """
    # span ids are unique within one process only: analyse each on its own
    processes = (
        [client_spans] if engine_spans is client_spans else [client_spans, engine_spans]
    )
    self_s: dict[str, float] = defaultdict(float)
    for spans in processes:
        for layer, seconds in layer_self_s(spans).items():
            self_s[layer] += seconds
    root_s = _outer_s(client_spans, *roots)
    # every client-process span of an operation nests under its root, so
    # the client layers' self times partition the operation's time
    accounted = sum(layer_self_s(client_spans).values())

    def both(measure, *names):
        return sum(measure(spans, *names) for spans in processes)

    connector_calls = outermost(
        client_spans, {"connector.run", "connector.query_rows"}
    )
    e = engine_spans
    raw = {
        "inspection.self_s": self_s["inspection"],
        # every connector call of a pipeline run carries a script the
        # transpiler generated
        "transpiler.scripts": len(connector_calls),
        "transpiler.sql_bytes": _value(
            connector_calls, "connector.run", "connector.query_rows"
        ),
        "connector.calls": len(connector_calls),
        "connector.s": _outer_s(client_spans, "connector.run", "connector.query_rows"),
        "connector.self_s": self_s["connector"],
        "wire.frames": both(_count, "wire.encode"),
        "wire.bytes": both(_value, "wire.encode"),
        "wire.encode_s": both(_outer_s, "wire.encode"),
        "wire.recv_s": _outer_s(client_spans, "wire.recv"),
        "wire.result_encode_s": _outer_s(e, "wire.result_encode"),
        "wire.self_s": self_s["wire"],
        "engine.statements": _value(
            outermost(e, {"engine.run_script", "engine.execute"}),
            "engine.run_script", "engine.execute",
        ),
        "engine.s": _outer_s(e, "engine.run_script", "engine.execute"),
        "engine.self_s": self_s["engine"],
        "parse.calls": _count(e, "parse.parse_script"),
        "parse.s": _outer_s(e, "parse.parse_script", "parse.normalize"),
        "planner.s": _outer_s(e, "planner.plan_select"),
        "optimizer.s": _outer_s(e, "optimizer.optimize", "optimizer.prune"),
        "executor.s": _outer_s(e, "executor.execute_plan"),
        "executor.self_s": self_s["executor"],
        "executor.join_s": _outer_s(e, "executor.join"),
        "executor.aggregate_s": _outer_s(e, "executor.aggregate"),
        "executor.filter_s": _outer_s(e, "executor.filter"),
        "executor.project_s": _outer_s(e, "executor.project"),
        "executor.rows_out": _value(
            outermost(e, {"executor.execute_plan"}), "executor.execute_plan"
        ),
        "hashing.s": _outer_s(e, "hashing.factorize", "hashing.group_codes"),
        "hashing.rows": _value(e, "hashing.factorize", "hashing.group_codes"),
        "catalog.append_s": _outer_s(e, "catalog.append"),
        "catalog.rows_appended": _value(e, "catalog.append"),
        "catalog.index_refresh_s": _outer_s(e, "catalog.index_refresh"),
        "catalog.snapshot_s": _outer_s(e, "catalog.snapshot"),
        "catalog.self_s": self_s["catalog"],
        "vector.from_values_s": _outer_s(e, "vector.from_values"),
        "vector.from_values_items": _value(
            outermost(e, {"vector.from_values"}), "vector.from_values"
        ),
        "wal.records": _count(e, "wal.append"),
        "wal.bytes": _value(e, "wal.append"),
        "wal.append_s": _outer_s(e, "wal.append"),
        "wal.syncs": _count(e, "wal.sync"),
        "wal.sync_s": _outer_s(e, "wal.sync"),
        "latch.wait_s": self_s["latch"],
        "locks.wait_s": self_s["locks"],
        "trace.op_s": root_s,
        "trace.spans": sum(len(spans) for spans in processes),
    }
    metrics = {name: value / n_ops for name, value in raw.items()}
    metrics.update(extras)
    metrics["trace.accounted_share"] = accounted / root_s if root_s else 0.0
    return {name: metrics[name] for name, _ in PER_LAYER_METRICS}


def layer_table(client_spans, engine_spans, n_ops) -> dict[str, float]:
    """Self seconds per layer per operation, for the human-readable
    report.  With a server the keys say which process: the client's
    layers add up to the operation's time (its ``wire`` includes waiting
    for replies), the server's break that wait down."""
    if engine_spans is client_spans:
        return {layer: s / n_ops for layer, s in layer_self_s(client_spans).items()}
    table = {f"client/{layer}": s / n_ops for layer, s in layer_self_s(client_spans).items()}
    table.update(
        {f"server/{layer}": s / n_ops for layer, s in layer_self_s(engine_spans).items()}
    )
    return table
