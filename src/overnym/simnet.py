"""Deterministic discrete-event network harness.

Events execute from a single sequential loop in (time, schedule order)
order: ticks ascend, and within a tick events run in the order they were
scheduled. The queue is one FIFO per tick plus a heap of the ticks that
have one, so the usual event, one tick ahead, costs O(1) (a calendar
queue; R. Brown, CACM 1988). An event scheduled for the tick that is
running joins the end of its FIFO: it runs in that tick, after every
event already queued for it. All randomness comes from per-node and
per-link streams forked from the scenario seed by name, so adding a node
never perturbs anyone else's draws and a (scenario, seed) pair always
yields a byte-identical trace.

Sim-time is integer ticks. Message latency is at least 1 between
distinct nodes and 0 for self-delivery.

Besides deliveries and timers, which go to a node, the queue holds
control events: harness callbacks scheduled with call_at. They enter no
node and run even when every node has crashed. Faults (drop-link,
delay-link, crash-node) activate through them, and a scenario's script
runs as them.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import json.encoder
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Any, Callable, Iterator, NamedTuple

from .hashing import TAG_RNG, owf

FAULT_KINDS = ("drop-link", "delay-link", "crash-node")
STEP_CAP = 1_000_000  # events a run may take, by default
# Trace lines per piece of text that Trace.chunks gives, so that writing or
# hashing a trace never holds it whole as one string.
TRACE_CHUNK_LINES = 1024


class UnknownTarget(Exception):
    """Event or fault aimed at a node that does not exist."""


class StepCapExceeded(Exception):
    """The event loop hit its step cap; the scenario is livelocked."""


class Delivery(NamedTuple):
    """A message as it arrives: who sent it and when. A NamedTuple,
    because every send builds one; send builds it with new_tuple."""

    src: str
    message: Any
    sent_at: int


# tuple.__new__, which a NamedTuple's generated __new__ calls with its
# fields. The per-hop paths (Simulator.send, and the Envelopes nodes
# build) call it directly, as new_tuple(Delivery, (src, message,
# sent_at)) with every field given, and skip that Python-level call.
new_tuple = tuple.__new__


@dataclass(frozen=True)
class Timer:
    """A node-local timer firing; tag selects the handler branch."""

    tag: str
    data: Any = None


class TraceRecords(Sequence):
    """A trace read back as dicts, in emission order: len, iteration and
    indexing, negative indexes included. Each read parses the record's
    line with json.loads, so it returns a new dict holding what the line
    says, and holds nothing between reads."""

    __slots__ = ("_lines",)

    def __init__(self, lines: list[str]):
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index: int) -> dict:
        return json.loads(self._lines[index])

    def __iter__(self) -> Iterator[dict]:
        return map(json.loads, self._lines)


class Trace:
    """Ordered record of everything observable, held only as the JSON
    lines it is written as: per record the bytes of json.dumps(record,
    sort_keys=True, separators=(",", ":")) and a newline, so equal runs are
    byte-identical. A line is strict JSON: a NaN or infinite float is
    refused when it is emitted.

    Each record is encoded once, when it is emitted, and no dict of it is
    kept. emit encodes a whole record with the one C encoder the trace
    owns; in a run, only a fault goes through it. Every other record has
    field names fixed where it is written, and goes through a writer that
    record built for its shape, which hands that encoder only a value
    that is not a str, an int or a bool. emit_send, which writes a send
    without a note, keeps the lines of the current int tick: a send that
    repeats an earlier (src, dst, msg) of that tick appends that send's
    line object again, and the send writer writes every other one. The
    tick's lines are dropped when the time changes. records and find read
    the lines back through json.loads.

    Only to_jsonl builds the whole trace as one string, for callers that
    want it. chunks gives it in pieces of TRACE_CHUNK_LINES lines, which
    runner.write_outputs writes and digest hashes."""

    def __init__(self):
        self._lines: list[str] = []
        # The int tick of the last send line written, and that tick's lines.
        self._tick: int | None = None
        self._tick_lines: dict[tuple[str, str, str], str] = {}
        self._records = TraceRecords(self._lines)
        # The encoder json.dumps builds for these arguments and
        # allow_nan=False, built once, by position, as
        # json.JSONEncoder.iterencode builds it. It notes the ids of the
        # containers it is inside in markers; a failed encode leaves them
        # there, so _encode_value clears them.
        self._markers: dict[int, Any] = {}
        self._encode = json.encoder.c_make_encoder(
            self._markers, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ":", ",", True, False, False,
        )

    @property
    def records(self) -> TraceRecords:
        return self._records

    def emit(self, kind: str, time: int, **fields: Any) -> None:
        """Append a record's line. One that strict JSON cannot encode
        raises here, with the error json.dumps(..., allow_nan=False)
        gives, and leaves nothing behind."""
        self._lines.append(_encode_value(self, {"kind": kind, "time": time, **fields}) + "\n")

    def emit_send(self, time: int, src: str, dst: str, msg: str) -> None:
        """Append a send record: the bytes emit("send", time, src=src,
        dst=dst, msg=msg) would give."""
        # The exact types matter: True, 1 and 1.0 are equal and hash alike
        # but encode differently. So only an int time reads the tick's
        # lines, and only a line of str names is kept in them.
        key = (src, dst, msg)
        if type(time) is int:
            if time != self._tick:
                self._tick, self._tick_lines = time, {}
            elif (line := self._tick_lines.get(key)) is not None:
                self._lines.append(line)
                return
        _trace_send(self, time, src, dst, msg)
        if type(time) is int and type(src) is str and type(dst) is str and type(msg) is str:
            self._tick_lines[key] = self._lines[-1]

    def chunks(self) -> Iterator[str]:
        """The trace's text in pieces of TRACE_CHUNK_LINES lines."""
        lines = self._lines
        for start in range(0, len(lines), TRACE_CHUNK_LINES):
            yield "".join(lines[start:start + TRACE_CHUNK_LINES])

    def to_jsonl(self) -> str:
        return "".join(self._lines)

    def digest(self) -> str:
        """SHA-256 of to_jsonl()'s UTF-8 bytes, hashed chunk by chunk."""
        h = hashlib.sha256()
        for chunk in self.chunks():
            h.update(chunk.encode("utf-8"))
        return h.hexdigest()

    def find(self, kind: str, **match: Any) -> list[dict]:
        """The records of this kind whose fields equal match, in emission
        order, read from the lines: each call parses the whole trace."""
        return [r for r in self.records
                if r["kind"] == kind and all(r.get(k) == v for k, v in match.items())]


def _encode_value(trace: Trace, value: Any) -> str:
    """value's JSON text from the trace's C encoder. A value strict JSON
    cannot encode raises the encoder's error, and the encoder is left as
    it was."""
    try:
        return "".join(trace._encode(value, 0))
    except BaseException:
        # The ids of the containers open when it failed stay in markers.
        trace._markers.clear()
        raise


# The f-string part of a writer (record) that encodes its value v: by exact
# type, with the C encoder (_other) for what is neither str, int nor bool.
_VALUE = ("f'{{_str({v}) if (cls := type({v})) is str else _int({v}) if cls is int"
          " else \"true\" if {v} is True else \"false\" if {v} is False"
          " else _other(trace, {v})}}'")


def record(kind: str, /, *fields: str, **constants: Any) -> Callable[..., None]:
    """A writer of one record shape, write(trace, time, *values), which
    appends the line trace.emit(kind, time, **dict(zip(fields, values)),
    **constants) appends, or raises what that call raises and appends
    nothing.

    The writer is built here, once, as collections.namedtuple builds its
    __new__: its body is one f-string whose constant text (the sorted
    keys, the kind and the constants) is fixed now. Each value is
    encoded by its exact type: a str by encode_basestring_ascii, an int
    (not a bool or an int subclass) by int.__repr__, True and False as
    true and false, and any other value by the trace's own C encoder.
    The writer's kind and its field names, constants included, are its
    kind and fields attributes."""
    names = ("kind", "time", *fields, *constants)
    if len(set(names)) != len(names):
        raise ValueError(f"record {kind!r}: a field repeats, or is named kind or time")
    texts = {name: json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
             for name, value in (("kind", kind), *constants.items())}
    params = ["time", *(f"v{i}" for i in range(len(fields)))]
    variables = dict(zip(("time", *fields), params))
    parts, text, comma = [], "{", ""
    for name in sorted(names):
        text += comma + json.encoder.encode_basestring_ascii(name) + ":"
        comma = ","
        if name in variables:
            parts += [repr(text), _VALUE.format(v=variables[name])]
            text = ""
        else:
            text += texts[name]
    parts.append(repr(text + "}\n"))
    source = f"def write(trace, {', '.join(params)}):\n    trace._lines.append({' '.join(parts)})\n"
    namespace = {"_str": json.encoder.encode_basestring_ascii, "_int": int.__repr__,
                 "_other": _encode_value, "__name__": __name__}
    exec(source, namespace)
    write = namespace["write"]
    write.__qualname__ = write.__name__ = f"write_{kind}"
    write.kind, write.fields = kind, (*fields, *constants)
    return write


class LinkModel:
    """Per-ordered-pair extra delay and drop probability. Distinct nodes
    are 1 tick apart plus their extra delay, and never less than 1.

    Until add_delay or set_drop first runs, both rule maps are empty:
    every link is 1 tick (0 to itself) and drops nothing. Simulator.send
    reads the two maps and, while both are empty, does not call link."""

    def __init__(self):
        self._extra: dict[tuple[str, str], int] = {}
        self._drop: dict[tuple[str, str], float] = {}

    def link(self, src: str, dst: str) -> tuple[int, float]:
        """(latency, drop probability) of the ordered pair src -> dst."""
        pair = (src, dst)
        drop = self._drop.get(pair, 0.0)
        if src == dst:
            return 0, drop
        return max(1, 1 + self._extra.get(pair, 0)), drop

    def add_delay(self, src: str, dst: str, extra: int) -> None:
        for pair in ((src, dst), (dst, src)):
            self._extra[pair] = self._extra.get(pair, 0) + extra

    def set_drop(self, src: str, dst: str, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        self._drop[(src, dst)] = probability
        self._drop[(dst, src)] = probability


class Node:
    """Base class for simulated nodes; subclasses implement handle()."""

    kind = "node"

    def __init__(self, name: str, segment: int | None = None):
        self.name = name
        self.segment = segment

    def attach(self, sim: "Simulator") -> None:
        self.sim = sim
        self.rng = sim.fork_rng(self.name)


# Trace record writers (record) for the event loop's fixed-shape records.
_trace_send = record("send", "src", "dst", "msg")
_trace_noted_send = record("send", "src", "dst", "msg", "note")
_trace_drop = record("drop", "src", "dst", "msg")
_trace_discard = record("discard", "dst", "msg")


class Simulator:
    def __init__(self, seed: int, *, step_cap: int = STEP_CAP):
        self.seed = seed
        self.now = 0
        self.step_cap = step_cap
        self.trace = Trace()
        self.links = LinkModel()
        self.nodes: dict[str, Node] = {}
        self.crashed: set[str] = set()
        # One FIFO of (target, payload) per tick with events, and a heap of
        # exactly those ticks. schedule appends to its tick's FIFO, so a tick
        # runs its events in the order they were scheduled, those scheduled
        # while it runs included: the order one (time, seq) heap would give.
        self._buckets: dict[int, deque[tuple[str, Any]]] = {}
        self._ticks: list[int] = []
        self._link_rngs: dict[tuple[str, str], Random] = {}

    # -- randomness ----------------------------------------------------------

    def fork_rng(self, name: str) -> Random:
        """Independent stream derived from (seed, name)."""
        digest = owf(TAG_RNG, str(self.seed).encode(), b"|", name.encode())
        return Random(int.from_bytes(digest, "big"))

    def _link_rng(self, src: str, dst: str) -> Random:
        pair = (src, dst)
        if pair not in self._link_rngs:
            self._link_rngs[pair] = self.fork_rng(f"link|{src}|{dst}")
        return self._link_rngs[pair]

    # -- topology ------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        node.attach(self)
        return node

    # -- scheduling and delivery ---------------------------------------------

    def schedule(self, time: int, target: str, payload: Any) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        if target not in self.nodes and target != _CONTROL:
            raise UnknownTarget(target)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque(((target, payload),))
            heapq.heappush(self._ticks, time)
        else:
            bucket.append((target, payload))

    def call_at(self, time: int, fn: Callable[[], Any]) -> None:
        """Run fn() at time as a control event: after the events already
        queued for that tick, in no node, whichever nodes have crashed."""
        self.schedule(time, _CONTROL, fn)

    def send(self, src: str, dst: str, message: Any, note: str | None = None) -> None:
        """Send over the link model: trace record, latency, drop draw.

        While the link model has no rule (neither add_delay nor set_drop
        has run), latency is 1, or 0 to itself, and there is no drop draw,
        so LinkModel.link is not called; after that, every send asks it.
        Either way the delivery is queued through schedule.

        A send is written by a record writer: with a note, by its own;
        without one, by the send writer behind Trace.emit_send's tick
        lines. No caller in this package passes a note, but the
        parameter stays: the benchmark's tracer (perfbench/tracer.py)
        wraps send and passes note by position."""
        if dst not in self.nodes:
            raise UnknownTarget(dst)
        now = self.now
        kind = type(message).__name__
        if note:
            _trace_noted_send(self.trace, now, src, dst, kind, note)
        else:
            self.trace.emit_send(now, src, dst, kind)
        links = self.links
        if links._extra or links._drop:
            latency, drop_p = links.link(src, dst)
            if drop_p > 0.0 and self._link_rng(src, dst).random() < drop_p:
                _trace_drop(self.trace, now, src, dst, kind)
                return
        else:
            latency = 0 if src == dst else 1
        self.schedule(now + latency, dst, new_tuple(Delivery, (src, message, now)))

    def run_until_idle(self) -> Trace:
        """Drain the queue in (time, schedule order) order. Raises
        StepCapExceeded if the scenario never settles. An event whose
        handler raises is spent; the events after it stay queued."""
        buckets, ticks, nodes, crashed = self._buckets, self._ticks, self.nodes, self.crashed
        step_cap = self.step_cap
        steps = 0
        while ticks:
            now = ticks[0]
            self.now = now
            bucket = buckets[now]
            # Events scheduled for now while it runs join this bucket.
            while bucket:
                steps += 1
                if steps > step_cap:
                    raise StepCapExceeded(f"exceeded {step_cap} events")
                target, payload = bucket.popleft()
                if target == _CONTROL:
                    payload()
                    continue
                if target in crashed:
                    if isinstance(payload, Delivery):
                        _trace_discard(self.trace, now, target, type(payload.message).__name__)
                    continue
                node = nodes.get(target)
                if node is None:
                    raise UnknownTarget(target)
                node.handle(payload, now)
            del buckets[now]
            heapq.heappop(ticks)
        return self.trace

    # -- faults ----------------------------------------------------------------

    def inject_fault(self, kind: str, params: dict, at_time: int) -> None:
        """Arm a fault. Targets are validated immediately; the fault
        takes effect at at_time via the normal event queue."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if kind == "crash-node":
            if params["node"] not in self.nodes:
                raise UnknownTarget(params["node"])
        else:
            for end in (params["a"], params["b"]):
                if end not in self.nodes:
                    raise UnknownTarget(end)
        if at_time < self.now:
            raise ValueError("fault time is in the past")
        self.call_at(at_time, partial(self._apply_fault, kind, dict(params)))

    def _apply_fault(self, kind: str, params: dict) -> None:
        if kind == "crash-node":
            self.crashed.add(params["node"])
        elif kind == "drop-link":
            self.links.set_drop(params["a"], params["b"], params.get("p", 1.0))
        elif kind == "delay-link":
            self.links.add_delay(params["a"], params["b"], params["extra"])
        self.trace.emit("fault", self.now, fault=kind, **dict(params))


# Synthetic target of control events, consumed by the loop itself, so they
# run even when every protocol node has crashed.
_CONTROL = "\x00control"
