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
from typing import Any, Callable, NamedTuple

from .hashing import TAG_RNG, owf

FAULT_KINDS = ("drop-link", "delay-link", "crash-node")


class UnknownTarget(Exception):
    """Event or fault aimed at a node that does not exist."""


class StepCapExceeded(Exception):
    """The event loop hit its step cap; the scenario is livelocked."""


class Delivery(NamedTuple):
    """A message as it arrives: who sent it and when. A NamedTuple,
    because every send builds one."""

    src: str
    message: Any
    sent_at: int


@dataclass(frozen=True)
class Timer:
    """A node-local timer firing; tag selects the handler branch."""

    tag: str
    data: Any = None


class TraceRecords(Sequence):
    """A trace read back as dicts, in emission order: len, iteration and
    indexing, negative indexes included. A send record's dict is rebuilt
    from its line each time it is read; nothing is cached."""

    __slots__ = ("_lines", "_emitted", "_send_fields")

    def __init__(self, lines: list[str], emitted: dict[int, dict],
                 send_fields: dict[str, tuple[str, str, str]]):
        self._lines = lines
        self._emitted = emitted
        self._send_fields = send_fields

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index: int) -> dict:
        line = self._lines[index]
        record = self._emitted.get(index % len(self._lines))
        return self._send_record(line) if record is None else record

    def __iter__(self):
        emitted, send_record = self._emitted, self._send_record
        for i, line in enumerate(self._lines):
            record = emitted.get(i)
            yield send_record(line) if record is None else record

    def _send_record(self, line: str) -> dict:
        # The line is its (src, dst, msg) prefix, the colon after "time",
        # the time, then "}\n". The time holds no colon.
        prefix, _, time = line.rpartition(":")
        src, dst, msg = self._send_fields[prefix]
        return {"kind": "send", "time": int(time[:-2]), "src": src, "dst": dst, "msg": msg}


class Trace:
    """Ordered record of everything observable, held as the JSON lines it
    is written as: per record the bytes of json.dumps(record,
    sort_keys=True, separators=(",", ":")) and a newline, so equal runs are
    byte-identical.

    Each record is encoded once, when it is emitted. A plain send record
    (emit_send) is kept only as its line: a prefix cached per (src, dst,
    msg) for the whole trace, then ":", the time and "}". Sorted, "time"
    is the last of its keys. Every other record goes through emit, which
    encodes it with the one C encoder the trace owns and keeps its dict,
    indexed by kind for find. records reads the whole trace back as dicts.
    Records are not to be mutated once emitted: their line is already
    written."""

    def __init__(self):
        self._lines: list[str] = []
        # Line index -> record, for every line that emit wrote.
        self._emitted: dict[int, dict] = {}
        self._by_kind: dict[str, list[dict]] = {}
        self._send_prefixes: dict[tuple[str, str, str], str] = {}
        self._send_fields: dict[str, tuple[str, str, str]] = {}
        self._records = TraceRecords(self._lines, self._emitted, self._send_fields)
        # The encoder json.dumps builds for these arguments, built once, by
        # position, as json.JSONEncoder.iterencode builds it. It notes the
        # ids of the containers it is inside in markers; a failed encode
        # leaves them there, so emit clears them.
        self._markers: dict[int, Any] = {}
        self._encode = json.encoder.c_make_encoder(
            self._markers, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ":", ",", True, False, True,
        )

    @property
    def records(self) -> TraceRecords:
        return self._records

    def emit(self, kind: str, time: int, **fields: Any) -> None:
        """Append a record. One that JSON cannot encode raises here, with
        the error json.dumps gives, and leaves nothing behind."""
        record = {"kind": kind, "time": time, **fields}
        try:
            chunks = self._encode(record, 0)
        except BaseException:
            self._markers.clear()
            raise
        self._emitted[len(self._lines)] = record
        self._lines.append("".join(chunks) + "\n")
        self._by_kind.setdefault(kind, []).append(record)

    def emit_send(self, time: int, src: str, dst: str, msg: str) -> None:
        """Append a send record: the bytes emit("send", time, src=src,
        dst=dst, msg=msg) would give, kept as a line only."""
        prefix = self._send_prefixes.get((src, dst, msg))
        if prefix is None or type(time) is not int:
            # The exact types matter: True, 1 and 1.0 hash alike but encode
            # differently, so only str fields are cached, and only an int
            # time is written by str().
            if not (type(src) is str and type(dst) is str and type(msg) is str
                    and type(time) is int):
                self.emit("send", time, src=src, dst=dst, msg=msg)
                return
            quote = json.encoder.encode_basestring_ascii
            prefix = self._send_prefixes[(src, dst, msg)] = (
                f'{{"dst":{quote(dst)},"kind":"send","msg":{quote(msg)},'
                f'"src":{quote(src)},"time"')
            self._send_fields[prefix] = (src, dst, msg)
        self._lines.append(f"{prefix}:{time}}}\n")

    def to_jsonl(self) -> str:
        return "".join(self._lines)

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def find(self, kind: str, **match: Any) -> list[dict]:
        """The records of this kind whose fields equal match, in emission
        order. Every kind but "send" reads its index; plain send records
        have no dict to index, so "send" scans the trace."""
        if kind == "send":
            candidates = (r for r in self.records if r["kind"] == "send")
        else:
            candidates = self._by_kind.get(kind, ())
        return [r for r in candidates if all(r.get(k) == v for k, v in match.items())]


class LinkModel:
    """Per-ordered-pair latency, extra delay, and drop probability.
    Distinct nodes are 1 tick apart until set_latency says otherwise."""

    def __init__(self):
        self._latency: dict[tuple[str, str], int] = {}
        self._extra: dict[tuple[str, str], int] = {}
        self._drop: dict[tuple[str, str], float] = {}

    def link(self, src: str, dst: str) -> tuple[int, float]:
        """(latency, drop probability) of the ordered pair src -> dst."""
        if not (self._latency or self._extra or self._drop):
            return (0 if src == dst else 1), 0.0
        pair = (src, dst)
        drop = self._drop.get(pair, 0.0)
        if src == dst:
            return 0, drop
        base = self._latency.get(pair, 1)
        return max(1, base + self._extra.get(pair, 0)), drop

    def set_latency(self, src: str, dst: str, latency: int) -> None:
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self._latency[(src, dst)] = latency
        self._latency[(dst, src)] = latency

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

    def handle(self, payload: Any, now: int) -> None:
        raise NotImplementedError


class Simulator:
    def __init__(self, seed: int, *, step_cap: int = 1_000_000):
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
        """Send over the link model: latency, drop draw, trace record.

        A send with a note goes through Trace.emit; without one, through
        Trace.emit_send. No caller in this package passes a note, but the
        parameter stays: the benchmark's tracer (perfbench/tracer.py)
        wraps send and passes note by position."""
        if dst not in self.nodes:
            raise UnknownTarget(dst)
        now = self.now
        kind = type(message).__name__
        if note:
            self.trace.emit("send", now, src=src, dst=dst, msg=kind, note=note)
        else:
            self.trace.emit_send(now, src, dst, kind)
        latency, drop_p = self.links.link(src, dst)
        if drop_p > 0.0 and self._link_rng(src, dst).random() < drop_p:
            self.trace.emit("drop", now, src=src, dst=dst, msg=kind)
            return
        self.schedule(now + latency, dst, Delivery(src, message, now))

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
                        self.trace.emit("discard", now, dst=target,
                                        msg=type(payload.message).__name__)
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
