"""Self time over nested and overlapping spans, and wrapper installation."""

import sys
import threading
import types

from tracer import END, NAME, PARENT, START, SID, Tracer, outermost, self_times


def span(sid, name, start, end, parent=0):
    return (sid, name, start, end, parent, "op1", 1, None)


def test_self_time_of_nested_spans():
    spans = [
        span(1, "a.root", 0, 100),
        span(2, "b.child", 10, 40, parent=1),
        span(3, "c.grandchild", 15, 25, parent=2),
        span(4, "b.child", 50, 60, parent=1),
    ]
    assert self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_counts_overlapping_children_once():
    # children of one parent that overlap (e.g. two threads) cover the
    # union of their intervals, not the sum
    spans = [
        span(1, "a.root", 0, 100),
        span(2, "b.x", 10, 50, parent=1),
        span(3, "b.y", 30, 70, parent=1),
        span(4, "b.z", 60, 65, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == 100 - 60
    assert all(value >= 0 for value in own.values())


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, "a.root", 0, 100), span(2, "b.late", 90, 130, parent=1)]
    assert self_times(spans) == {1: 90, 2: 40}


def test_self_times_partition_the_root():
    spans = [
        span(1, "a.root", 0, 1000),
        span(2, "b.x", 100, 400, parent=1),
        span(3, "c.y", 150, 300, parent=2),
        span(4, "c.y", 500, 900, parent=1),
        span(5, "d.z", 600, 700, parent=4),
    ]
    assert sum(self_times(spans).values()) == 1000


def test_outermost_skips_recursive_calls():
    spans = [
        span(1, "executor.plan", 0, 100),
        span(2, "hashing.h", 5, 10, parent=1),
        span(3, "executor.plan", 20, 80, parent=1),
        span(4, "executor.plan", 30, 40, parent=3),
        span(5, "executor.plan", 200, 210),
    ]
    assert [s[SID] for s in outermost(spans, {"executor.plan"})] == [1, 5]


def test_wrap_records_parents_ops_and_values():
    tracer = Tracer()
    inner = tracer.wrap(lambda n: list(range(n)), "b.inner", lambda a, k, r: len(r))
    outer = tracer.wrap(lambda: inner(3) + inner(2), "a.outer")
    tracer.set_op("run7")
    assert outer() == [0, 1, 2, 0, 1]
    first, second, root = tracer.spans
    assert root[NAME] == "a.outer" and root[PARENT] == 0
    assert first[PARENT] == root[SID] and second[PARENT] == root[SID]
    assert (first[-1], second[-1]) == (3, 2)
    assert {s[5] for s in tracer.spans} == {"run7"}
    assert root[START] <= first[START] <= first[END] <= second[START] <= root[END]


def test_wrap_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.wrap(boom, "a.boom")
    try:
        traced()
    except KeyError:
        pass
    assert [s[NAME] for s in tracer.spans] == ["a.boom"]


def test_new_op_numbers_each_call_and_restores_the_callers_op():
    tracer = Tracer()
    handle = tracer.wrap(lambda: None, "wire.request", new_op="srv")
    tracer.set_op("outer")
    handle()
    handle()
    assert [s[5] for s in tracer.spans] == ["srv1", "srv2"]
    tracer.record("a.after", 0, 1)
    assert tracer.spans[-1][5] == "outer"


def test_spans_of_threads_do_not_nest_into_each_other():
    tracer = Tracer()
    started = threading.Barrier(2)

    def work():
        started.wait()
        return 1

    traced = tracer.wrap(work, "a.work")
    threads = [threading.Thread(target=traced) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert [s[PARENT] for s in tracer.spans] == [0, 0]


def test_patch_function_reaches_every_name_the_callers_use():
    def original():
        return "real"

    defining = types.ModuleType("repro._perfbench_probe_a")
    defining.probe = original
    importing = types.ModuleType("repro._perfbench_probe_b")
    importing.probe_alias = original  # ``from a import probe as probe_alias``
    sys.modules[defining.__name__] = defining
    sys.modules[importing.__name__] = importing
    try:
        tracer = Tracer()
        tracer.patch_function(defining.__name__, "probe", lambda fn: tracer.wrap(fn, "a.probe"))
        assert defining.probe() == "real" and importing.probe_alias() == "real"
        assert len(tracer.spans) == 2
        tracer.uninstall()
        assert defining.probe is original and importing.probe_alias is original
    finally:
        del sys.modules[defining.__name__], sys.modules[importing.__name__]


def test_wrap_enter_times_only_the_entry():
    tracer = Tracer()
    events = []

    class Latch:
        def __enter__(self):
            events.append("enter")

        def __exit__(self, *exc):
            events.append("exit")

    guarded = tracer.wrap_enter(lambda: Latch(), "latch.wait")
    with guarded():
        assert [s[NAME] for s in tracer.spans] == ["latch.wait"]
    assert events == ["enter", "exit"]
