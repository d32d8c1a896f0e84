import hashlib
import heapq
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overnym.simnet import (
    TRACE_CHUNK_LINES,
    Delivery,
    LinkModel,
    Node,
    Simulator,
    StepCapExceeded,
    Timer,
    Trace,
    UnknownTarget,
    record,
)


class Recorder(Node):
    """Collects everything it is handed, in order."""

    kind = "user"

    def __init__(self, name):
        super().__init__(name)
        self.log = []

    def handle(self, payload, now):
        self.log.append((now, payload))


class Echo(Node):
    kind = "user"

    def handle(self, payload, now):
        if isinstance(payload, Delivery):
            self.sim.send(self.name, payload.src, payload.message)


def two_node_sim(seed=1):
    sim = Simulator(seed)
    a, b = Recorder("a"), Recorder("b")
    sim.add_node(a)
    sim.add_node(b)
    return sim, a, b


class TestEventOrder:
    def test_equal_time_lower_seq_first(self):
        # One tick holding timers, a fault arm and a delivery runs them in
        # the order they were scheduled, whatever their kind.
        sim, a, _ = two_node_sim()
        sim.links.add_delay("a", "b", 4)
        a.handle = lambda payload, now: sim.trace.emit(
            "handled", now, what=payload.tag if isinstance(payload, Timer) else payload.message)
        sim.schedule(5, "a", Timer("first"))
        sim.inject_fault("delay-link", {"a": "a", "b": "b", "extra": 1}, at_time=5)
        sim.send("b", "a", "ping")  # arrives at 5
        sim.schedule(5, "a", Timer("second"))
        sim.run_until_idle()
        order = [(r["time"], r.get("what", r.get("fault"))) for r in sim.trace.records
                 if r["kind"] in ("handled", "fault")]
        assert order == [(5, "first"), (5, "delay-link"), (5, "ping"), (5, "second")]

    def test_time_orders_over_insertion(self):
        sim, a, _ = two_node_sim()
        sim.schedule(9, "a", Timer("late"))
        sim.schedule(2, "a", Timer("early"))
        sim.run_until_idle()
        assert [p.tag for _, p in a.log] == ["early", "late"]

    def test_cannot_schedule_into_the_past(self):
        sim, a, _ = two_node_sim()
        sim.schedule(3, "a", Timer("x"))
        a.handle = lambda payload, now: sim.schedule(now - 1, "a", Timer("y"))
        with pytest.raises(ValueError, match="past"):
            sim.run_until_idle()

    def test_unknown_target_rejected(self):
        sim, _, _ = two_node_sim()
        with pytest.raises(UnknownTarget):
            sim.schedule(1, "ghost", Timer("x"))

    def test_step_cap_detects_livelock(self):
        sim = Simulator(1, step_cap=50)
        looper = Recorder("loop")
        sim.add_node(looper)

        def reschedule(payload, now):
            sim.schedule(now + 1, "loop", Timer("again"))

        looper.handle = reschedule
        sim.schedule(0, "loop", Timer("start"))
        with pytest.raises(StepCapExceeded):
            sim.run_until_idle()


    def test_a_raising_handler_leaves_the_rest_of_its_tick_queued(self):
        # The event that raised is spent; the next one runs exactly once, on
        # the next drain, and a same-tick event scheduled in between still
        # runs in that tick, after it.
        sim, a, b = two_node_sim()
        sim.schedule(1, "a", Timer("boom"))
        sim.schedule(1, "b", Timer("next"))
        sim.schedule(2, "b", Timer("later"))

        def handle(payload, now):
            if payload.tag == "boom":
                raise RuntimeError("handler failed")

        a.handle = handle
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run_until_idle()
        assert b.log == [] and sim.now == 1
        sim.schedule(1, "b", Timer("same-tick"))
        sim.run_until_idle()
        sim.run_until_idle()
        assert [(now, p.tag) for now, p in b.log] == [(1, "next"), (1, "same-tick"), (2, "later")]

    def test_a_raising_last_event_of_a_tick_leaves_nothing_behind(self):
        sim, a, b = two_node_sim()
        sim.schedule(1, "a", Timer("boom"))
        sim.schedule(3, "b", Timer("later"))
        a.handle = lambda payload, now: 1 / 0
        with pytest.raises(ZeroDivisionError):
            sim.run_until_idle()
        sim.run_until_idle()
        assert [(now, p.tag) for now, p in b.log] == [(3, "later")]


# An action is (kind, src, dst, delay, children). kind "schedule" queues a
# Timer for dst at now + delay, "send" sends from src to dst over the link
# model, "call_at" queues a control event at now + delay. children are the
# actions the resulting event performs when it runs, so handlers and control
# events schedule too, same-tick ones (delay 0, self-sends) included.
event_names = st.sampled_from("abc")


def event_actions(children):
    return st.tuples(st.sampled_from(["schedule", "send", "call_at"]), event_names,
                     event_names, st.integers(0, 2), children)


event_leaf = event_actions(st.just(()))
event_mid = event_actions(st.lists(event_leaf, max_size=3).map(tuple))
event_top = event_actions(st.lists(event_mid | event_leaf, max_size=3).map(tuple))


@settings(max_examples=150, deadline=None)
@given(st.lists(event_top | event_mid | event_leaf, max_size=6),
       st.none() | st.integers(0, 4),
       st.integers(1, 3), st.integers(1, 3))
def test_events_run_in_reference_time_seq_order(actions, crash_at, ab_latency, bc_latency):
    sim = Simulator(7)
    nodes = {name: sim.add_node(Recorder(name)) for name in "abc"}
    sim.links.add_delay("a", "b", ab_latency - 1)
    sim.links.add_delay("b", "c", bc_latency - 1)
    plans = {}

    # The reference: every accepted schedule call, keyed by (time, call
    # order), popped from a heap of its own once the simulator is idle.
    reference, schedule = [], sim.schedule

    def recording(time, target, payload):
        schedule(time, target, payload)
        heapq.heappush(reference, (time, len(reference), target, payload))

    sim.schedule = recording

    def perform(action, now):
        kind, src, dst, delay, children = action
        label = f"e{len(plans)}"
        plans[label] = children
        if kind == "schedule":
            sim.schedule(now + delay, dst, Timer(label))
        elif kind == "send":
            sim.send(src, dst, label)
        else:
            def control():
                sim.trace.emit("control", sim.now, label=label)
                for child in children:
                    perform(child, sim.now)
            control.label = label
            sim.call_at(now + delay, control)

    def handle(name):
        def run(payload, now):
            label = payload.tag if isinstance(payload, Timer) else payload.message
            sim.trace.emit("handled", now, node=name, label=label)
            for child in plans[label]:
                perform(child, now)
        return run

    for name, node in nodes.items():
        node.handle = handle(name)
    if crash_at is not None:
        sim.inject_fault("crash-node", {"node": "c"}, at_time=crash_at)
    for action in actions:
        perform(action, 0)
    sim.run_until_idle()

    expected, crashed = [], False
    while reference:
        time, _, target, payload = heapq.heappop(reference)
        if target not in nodes:
            label = getattr(payload, "label", None)
            if label is None:  # the crash fault's control event
                crashed = True
                expected.append(("fault", time, "c"))
            else:
                expected.append(("control", time, label))
        elif crashed and target == "c":
            if isinstance(payload, Delivery):  # a timer vanishes untraced
                expected.append(("discard", time, "c"))
        else:
            label = payload.tag if isinstance(payload, Timer) else payload.message
            expected.append(("handled", time, target, label))
    observed = []
    for r in sim.trace.records:
        if r["kind"] == "handled":
            observed.append(("handled", r["time"], r["node"], r["label"]))
        elif r["kind"] == "control":
            observed.append(("control", r["time"], r["label"]))
        elif r["kind"] == "fault":
            observed.append(("fault", r["time"], r["node"]))
        elif r["kind"] == "discard":
            observed.append(("discard", r["time"], r["dst"]))
    assert observed == expected


class TestLinks:
    def test_latency_one_between_distinct_nodes(self):
        sim, a, b = two_node_sim()
        sim.send("a", "b", "ping")
        sim.run_until_idle()
        assert b.log[0][0] == 1

    def test_self_delivery_same_tick(self):
        sim, a, _ = two_node_sim()
        sim.send("a", "a", "note")
        sim.run_until_idle()
        assert a.log[0][0] == 0

    def test_latency_floor_is_one(self):
        links = LinkModel()
        links.add_delay("a", "b", -5)
        assert links.link("a", "b") == (1, 0.0)
        assert links.link("b", "a") == (1, 0.0)

    def test_full_drop_kills_all_deliveries(self):
        sim, a, b = two_node_sim()
        sim.links.set_drop("a", "b", 1.0)
        for _ in range(20):
            sim.send("a", "b", "ping")
        sim.run_until_idle()
        assert b.log == []
        assert len(sim.trace.find("drop")) == 20

    def test_partial_drop_is_seeded(self):
        def count_drops(seed):
            sim, _, _ = two_node_sim(seed)
            sim.links.set_drop("a", "b", 0.5)
            for _ in range(100):
                sim.send("a", "b", "ping")
            sim.run_until_idle()
            return len(sim.trace.find("drop"))

        assert count_drops(5) == count_drops(5)
        assert 10 < count_drops(5) < 90

    def test_delay_adds_to_latency(self):
        sim, a, b = two_node_sim()
        sim.links.add_delay("a", "b", 4)
        sim.send("a", "b", "slow")
        sim.run_until_idle()
        assert b.log[0][0] == 5


class TestFaults:
    def test_crash_discards_deliveries(self):
        sim, a, b = two_node_sim()
        sim.inject_fault("crash-node", {"node": "b"}, at_time=2)
        sim.schedule(3, "a", Timer("go"))
        a.handle = lambda payload, now: sim.send("a", "b", "after-crash") if isinstance(payload, Timer) else None
        sim.run_until_idle()
        assert b.log == []
        assert sim.trace.find("discard", dst="b")

    def test_fault_on_unknown_node(self):
        sim, _, _ = two_node_sim()
        with pytest.raises(UnknownTarget):
            sim.inject_fault("crash-node", {"node": "ghost"}, at_time=1)
        with pytest.raises(UnknownTarget):
            sim.inject_fault("drop-link", {"a": "a", "b": "ghost"}, at_time=1)

    def test_unknown_fault_kind(self):
        sim, _, _ = two_node_sim()
        with pytest.raises(ValueError):
            sim.inject_fault("meteor", {"node": "a"}, at_time=1)

    def test_fault_takes_effect_at_time(self):
        sim, a, b = two_node_sim()
        sim.inject_fault("drop-link", {"a": "a", "b": "b"}, at_time=5)
        sim.send("a", "b", "early")          # at t=0, before the fault
        sim.schedule(6, "a", Timer("late"))
        a.handle = lambda payload, now: (
            sim.send("a", "b", "late-ping") if isinstance(payload, Timer) else None)
        sim.run_until_idle()
        assert [m for _, m in b.log if isinstance(m, Delivery)]
        assert sim.trace.find("drop", src="a", dst="b")


class CountingSimulator(Simulator):
    """Notes each schedule call, which the benchmark counts as events."""

    def __init__(self, seed):
        super().__init__(seed)
        self.scheduled = 0

    def schedule(self, time, target, payload):
        self.scheduled += 1
        super().schedule(time, target, payload)


def test_every_queued_event_enters_through_schedule():
    sim, ran = CountingSimulator(1), []
    sim.add_node(Recorder("a"))
    sim.add_node(Recorder("b"))
    # Each step and the number of events it queues.
    steps = [
        (lambda: sim.send("a", "b", "no rule yet"), 1),
        (lambda: sim.send("a", "a", "to itself"), 1),
        (lambda: sim.schedule(3, "a", Timer("tick")), 1),
        (lambda: sim.call_at(2, lambda: ran.append(sim.now)), 1),
        (lambda: sim.links.add_delay("a", "b", 2), 0),
        (lambda: sim.send("a", "b", "delayed"), 1),
        (lambda: sim.links.set_drop("b", "a", 1.0), 0),
        (lambda: sim.send("b", "a", "dropped"), 0),
    ]
    for step, events in steps:
        before = (sim.scheduled, sum(len(bucket) for bucket in sim._buckets.values()))
        step()
        after = (sim.scheduled, sum(len(bucket) for bucket in sim._buckets.values()))
        assert (after[0] - before[0], after[1] - before[1]) == (events, events)
    sim.run_until_idle()
    assert ran == [2]
    assert len(sim.nodes["a"].log) + len(sim.nodes["b"].log) + len(ran) == sim.scheduled == 5


class TestRngAndTrace:
    def test_per_node_streams_independent_of_additions(self):
        draws = {}
        for extra in (False, True):
            sim = Simulator(42)
            node = Recorder("stable")
            sim.add_node(node)
            if extra:
                sim.add_node(Recorder("newcomer"))
            draws[extra] = [node.rng.random() for _ in range(5)]
        assert draws[False] == draws[True]

    def test_trace_digest_stable(self):
        def run():
            sim, a, b = two_node_sim(9)
            for i in range(10):
                sim.send("a", "b", f"m{i}")
            sim.run_until_idle()
            return sim.trace.digest()

        assert run() == run()

    def test_trace_jsonl_one_record_per_line(self):
        trace = Trace()
        trace.emit("x", 0, value=1)
        trace.emit("y", 1, value=2)
        lines = trace.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("{") for line in lines)


# Values the trace can hold: everything strict JSON encodes, including
# non-ASCII text. A NaN or infinite float is refused at emit
# (test_a_failed_emit_leaves_nothing_behind).
json_keys = st.text(max_size=8)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(json_keys, children, max_size=3),
    max_leaves=8,
)


def assert_reads_back(trace: Trace, records: list[dict]) -> None:
    """The trace's lines are the records' json.dumps bytes, and records
    gives the same dicts back by iteration and by either sign of index."""
    assert trace.to_jsonl() == "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    assert len(trace.records) == len(records)
    assert list(trace.records) == records
    assert [trace.records[i] for i in range(len(records))] == records
    assert [trace.records[i - len(records)] for i in range(len(records))] == records


field_keys = json_keys.filter(lambda key: key not in ("kind", "time"))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=8), json_values,
                          st.dictionaries(field_keys, json_values, max_size=4)), max_size=4))
def test_to_jsonl_matches_json_dumps(emitted):
    trace = Trace()
    for kind, time, fields in emitted:
        trace.emit(kind, time, **fields)
    assert_reads_back(trace, [{"kind": kind, "time": time, **fields}
                              for kind, time, fields in emitted])


def test_to_jsonl_unserialisable_value_raises_like_json_dumps():
    trace = Trace()
    trace.emit("ok", 0, value=[1, {"x": "y"}])
    nested = {"blob": [b"raw"]}
    with pytest.raises(TypeError) as expected:
        json.dumps({"kind": "bad", "time": 1, "nested": nested},
                   sort_keys=True, separators=(",", ":"))
    with pytest.raises(TypeError) as got:
        trace.emit("bad", 1, nested=nested)
    assert str(got.value) == str(expected.value)
    assert getattr(got.value, "__notes__", None) == getattr(expected.value, "__notes__", None)
    # The containers open when encoding failed encode again once fixed:
    # the failed emit leaves no false "circular reference" behind.
    nested["blob"][0] = "raw"
    trace.emit("bad", 1, nested=nested)
    assert trace.to_jsonl() == ('{"kind":"ok","time":0,"value":[1,{"x":"y"}]}\n'
                                '{"kind":"bad","nested":{"blob":["raw"]},"time":1}\n')


def test_a_failed_emit_leaves_nothing_behind():
    trace = Trace()
    trace.emit_send(0, "a", "b", "m")
    trace.emit("ok", 0, value=1)
    before, count = trace.to_jsonl(), len(trace.records)
    loop: list = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        trace.emit("loop", 1, value=loop)
    value = [[1], object()]
    with pytest.raises(TypeError):
        trace.emit("bad", 1, value=value)
    # A line is strict JSON: a non-finite float raises as json.dumps does
    # with allow_nan=False, in a field or as a send's time.
    for number in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as expected:
            json.dumps({"value": [number]}, allow_nan=False)
        with pytest.raises(ValueError) as got:
            trace.emit("bad", 1, value=[{"x": number}])
        assert str(got.value) == str(expected.value)
        with pytest.raises(ValueError) as got:
            trace.emit_send(number, "a", "b", "m")
        assert str(got.value) == str(expected.value)
    assert len(trace.records) == count and trace.to_jsonl() == before
    assert trace.find("loop") == [] and trace.find("bad") == []
    value[1] = 2
    trace.emit("bad", 2, value=value)
    trace.emit_send(2, "a", "b", "m")
    assert trace.to_jsonl() == before + ('{"kind":"bad","time":2,"value":[[1],2]}\n'
                                         '{"dst":"b","kind":"send","msg":"m","src":"a","time":2}\n')
    assert trace.find("bad") == [trace.records[-2]]


def test_reads_follow_the_lines_not_the_emitted_objects():
    trace = Trace()
    value = [1]
    trace.emit("note", 0, value=value)
    text = trace.to_jsonl()
    value.append(2)
    written = {"kind": "note", "time": 0, "value": [1]}
    assert trace.find("note") == [written]
    assert list(trace.records) == [written] and trace.records[0] == written
    assert trace.to_jsonl() == text == '{"kind":"note","time":0,"value":[1]}\n'


# Send-shaped records: most go through emit_send and its tick lines,
# and the rest are one key short, carry a note, hold a time that is not an
# int, or hold values that are not strings. 1, True and 1.0 hash alike,
# so a cache that skipped the type checks would mix them up. A small text
# pool makes (src, dst, msg) triples repeat.
send_text = (st.sampled_from(["ap1", "u", 'q"uote', "back\\slash", "caf\u00e9", "\u2603"])
             | st.text(max_size=6))
send_values = send_text | st.sampled_from([1, True, 1.0, None])
send_times = (st.integers(min_value=0, max_value=10**6) | st.booleans() | finite_floats
              | st.integers(min_value=2**64, max_value=2**200))


@st.composite
def send_records(draw):
    record = {"kind": draw(st.sampled_from(["send", "send", "drop"])), "time": draw(send_times),
              "src": draw(send_values), "dst": draw(send_values), "msg": draw(send_values)}
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        record["note"] = draw(send_text)
    missing = draw(st.sampled_from([None, None, None, "src", "dst", "msg"]))
    if missing is not None:
        del record[missing]
    return record


@settings(max_examples=300, deadline=None)
@given(st.lists(send_records(), max_size=12))
@example([{"kind": "send", "time": t, "src": src, "dst": "b", "msg": "m"}
          for t in (3, True, 2.0) for src in ("1", 1, True, 1.0)])
# One triple back to back at times that are equal but of other types: the
# line of tick 1 must not serve True or 1.0.
@example([{"kind": "send", "time": t, "src": "a", "dst": "b", "msg": "m"}
          for t in (1, True, 1.0)])
# A tick revisited: each tick's lines serve that tick only.
@example([{"kind": "send", "time": t, "src": src, "dst": "b", "msg": "m"}
          for t in (2, 3, 2) for src in ("a", "c")])
def test_to_jsonl_send_records_match_json_dumps(records):
    trace = Trace()
    for record in records:
        fields = dict(record)
        kind, time = fields.pop("kind"), fields.pop("time")
        if kind == "send" and fields.keys() == {"src", "dst", "msg"}:
            trace.emit_send(time, **fields)
        else:
            trace.emit(kind, time, **fields)
    assert_reads_back(trace, records)
    for kind in ("send", "drop"):
        assert trace.find(kind) == [r for r in records if r["kind"] == kind]


def test_identical_sends_in_one_tick_share_one_line():
    trace = Trace()
    for time in (4, 4, 5, 5):
        trace.emit_send(time, "a", "b", "m")
        trace.emit_send(time, "a", "c", "m")
    lines = trace._lines
    assert lines[0] is lines[2] and lines[1] is lines[3]
    assert lines[4] is lines[6] and lines[5] is lines[7]
    assert lines[0] is not lines[1] and lines[4] is not lines[0]
    assert trace.to_jsonl() == "".join(
        f'{{"dst":"{dst}","kind":"send","msg":"m","src":"a","time":{time}}}\n'
        for time in (4, 4, 5, 5) for dst in "bc")


def test_chunks_and_digest_cover_the_trace_in_pieces():
    trace = Trace()
    assert list(trace.chunks()) == []
    assert trace.digest() == hashlib.sha256(b"").hexdigest()
    for i in range(2 * TRACE_CHUNK_LINES + 3):
        if i % 7:
            trace.emit_send(i // 10, f"n{i % 5}", "d", "m")
        else:
            trace.emit("note", i // 10, value=i)
    chunks = list(trace.chunks())
    assert [chunk.count("\n") for chunk in chunks] == [TRACE_CHUNK_LINES] * 2 + [3]
    assert "".join(chunks) == trace.to_jsonl()
    assert trace.digest() == hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest()


def test_send_with_a_note_is_recorded_with_it():
    sim, a, b = two_node_sim(3)
    sim.send("a", "b", "m", "why")
    sim.send("a", "b", "m")
    assert list(sim.trace.records) == [
        {"kind": "send", "time": 0, "src": "a", "dst": "b", "msg": "str", "note": "why"},
        {"kind": "send", "time": 0, "src": "a", "dst": "b", "msg": "str"},
    ]
    assert sim.trace.find("send", note="why") == [sim.trace.records[0]]


class Count(int):
    """An int that is not of type int: json encodes it as the int it is,
    whatever its repr says."""

    def __repr__(self):
        return f"Count({int(self)})"


# What a writer may be handed: text with non-ASCII characters and lone
# surrogates, ints past 64 bits either way, bools and an int subclass
# (equal to ints, but no int), None, any float (NaN and the infinities
# are refused), lists, nested dicts and bytes (refused).
writer_text = st.text(st.characters() | st.integers(0xD800, 0xDFFF).map(chr), max_size=6)
writer_scalars = (writer_text | st.integers() | st.integers(min_value=2**64, max_value=2**200)
                  | st.integers(min_value=-2**200, max_value=-2**63) | st.booleans()
                  | st.integers().map(Count) | st.none() | st.floats() | st.binary(max_size=3))
writer_values = st.recursive(
    writer_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(writer_text, children, max_size=3),
    max_leaves=6,
)


@st.composite
def record_shapes(draw):
    """(kind, field names, constants) of a record writer. No name is kind
    or time, nor self, which Trace.emit cannot take as a keyword."""
    names = draw(st.lists(writer_text.filter(lambda name: name not in ("kind", "time", "self")),
                          unique=True, max_size=6))
    split = draw(st.integers(min_value=0, max_value=len(names)))
    constants = {name: draw(json_values) for name in names[split:]}
    return draw(writer_text), names[:split], constants


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(record_shapes(), st.data())
@example(("k", ["a", "b"], {"c": True}), None)
def test_a_writer_appends_what_json_dumps_gives_or_raises_what_emit_raises(shape, data):
    kind, fields, constants = shape
    write = record(kind, *fields, **constants)
    assert (write.kind, write.fields) == (kind, (*fields, *constants))
    if data is None:  # the explicit example: one of each exact type's near misses
        time, values = True, [Count(7), [1.5, None, -2**70]]
    else:
        time, *values = data.draw(st.lists(writer_values, min_size=len(fields) + 1,
                                           max_size=len(fields) + 1))
    rec = {"kind": kind, "time": time, **dict(zip(fields, values)), **constants}
    trace = Trace()
    trace.emit_send(0, "a", "b", "m")
    before = list(trace._lines)
    try:
        expected = dumps(rec)
    except (TypeError, ValueError):
        with pytest.raises((TypeError, ValueError)) as emitted:
            Trace().emit(kind, time, **dict(zip(fields, values)), **constants)
        with pytest.raises((TypeError, ValueError)) as written:
            write(trace, time, *values)
        assert type(written.value) is type(emitted.value)
        assert trace._lines == before and not trace._markers
    else:
        write(trace, time, *values)
        assert trace._lines == before + [expected]
    # The next record that strict JSON encodes is written normally.
    values = [[name] for name in fields]
    write(trace, 1, *values)
    assert trace._lines[-1] == dumps({"kind": kind, "time": 1, **dict(zip(fields, values)),
                                      **constants})


def test_a_writer_refuses_a_repeated_or_reserved_field():
    for fields, constants in [(("a", "a"), {}), (("a",), {"a": 1}), (("time",), {}),
                              ((), {"kind": "x"})]:
        with pytest.raises(ValueError, match="repeats"):
            record("k", *fields, **constants)


class ReferenceLinks:
    """The per-pair rules LinkModel applied before latency and drop
    probability were read in one call."""

    def __init__(self):
        self.extra, self.drop = {}, {}

    def add_delay(self, src, dst, extra):
        for pair in ((src, dst), (dst, src)):
            self.extra[pair] = self.extra.get(pair, 0) + extra

    def set_drop(self, src, dst, probability):
        self.drop[(src, dst)] = probability
        self.drop[(dst, src)] = probability

    def latency(self, src, dst):
        if src == dst:
            return 0
        return max(1, 1 + self.extra.get((src, dst), 0))

    def drop_probability(self, src, dst):
        return self.drop.get((src, dst), 0.0)


link_names = st.sampled_from(["a", "b", "c"])
link_steps = st.one_of(
    st.tuples(st.just("add_delay"), link_names, link_names, st.integers(-3, 4)),
    st.tuples(st.just("set_drop"), link_names, link_names, st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    st.tuples(st.just("send"), link_names, link_names),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.lists(link_steps, max_size=30))
# Sends only: no rule is ever set.
@example(7, [("send", "a", "b"), ("send", "b", "b"), ("send", "c", "a"), ("send", "a", "b")])
# A rule set between two sends on the same pair, then a drop rule.
@example(7, [("send", "a", "b"), ("add_delay", "a", "b", 2), ("send", "a", "b"),
             ("send", "b", "a"), ("send", "c", "c"), ("set_drop", "b", "c", 0.7),
             ("send", "b", "c"), ("send", "c", "b"), ("send", "c", "a")])
def test_send_matches_reference_link_rules(seed, steps):
    sim = Simulator(seed)
    nodes = {name: sim.add_node(Recorder(name)) for name in "abc"}
    reference, draws = ReferenceLinks(), Simulator(seed)
    rngs = {}
    expected = {name: [] for name in nodes}
    dropped = []
    for index, (op, src, dst, *arg) in enumerate(steps):
        if op != "send":
            getattr(sim.links, op)(src, dst, *arg)
            getattr(reference, op)(src, dst, *arg)
            continue
        message = f"m{index}"
        sim.send(src, dst, message)
        # The old order: one draw from the pair's stream only when the
        # drop probability is positive, then the latency.
        p = reference.drop_probability(src, dst)
        if p > 0.0:
            rng = rngs.setdefault((src, dst), draws.fork_rng(f"link|{src}|{dst}"))
            if rng.random() < p:
                dropped.append((src, dst))
                continue
        expected[dst].append((reference.latency(src, dst), index, src, message))
    sim.run_until_idle()
    for name, node in nodes.items():
        assert [(now, d.src, d.message, d.sent_at) for now, d in node.log] == [
            (tick, src, message, 0) for tick, _, src, message in sorted(expected[name])]
    assert [(r["src"], r["dst"]) for r in sim.trace.find("drop")] == dropped
