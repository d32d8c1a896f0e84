"""Deterministic discrete-event network harness.

Events execute in (time, schedule-seq) order from a single sequential
loop; all randomness comes from per-node and per-link streams forked
from the scenario seed by name, so adding a node never perturbs anyone
else's draws and a (scenario, seed) pair always yields a byte-identical
trace.

Sim-time is integer ticks. Message latency is at least 1 between
distinct nodes and 0 for self-delivery; faults (drop-link, delay-link,
crash-node) activate at their scheduled time through the same event
queue as everything else.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import json.encoder
from dataclasses import dataclass
from random import Random
from typing import Any

from .hashing import TAG_RNG, owf

FAULT_KINDS = ("drop-link", "delay-link", "crash-node")


class UnknownTarget(Exception):
    """Event or fault aimed at a node that does not exist."""


class StepCapExceeded(Exception):
    """The event loop hit its step cap; the scenario is livelocked."""


@dataclass(frozen=True)
class Delivery:
    """A message as it arrives: who sent it and when."""

    src: str
    message: Any
    sent_at: int


@dataclass(frozen=True)
class Timer:
    """A node-local timer firing; tag selects the handler branch."""

    tag: str
    data: Any = None


class Trace:
    """Ordered record of everything observable. Serialized as JSON
    lines with sorted keys, so equal runs are byte-identical."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, kind: str, time: int, **fields: Any) -> None:
        record = {"kind": kind, "time": time}
        record.update(fields)
        self.records.append(record)

    def to_jsonl(self) -> str:
        # The bytes of json.dumps(record, sort_keys=True, separators=(",", ":"))
        # per record, from one C encoder built with the arguments json.dumps
        # gives it, instead of one encoder per record. One per call, not per
        # module: a failed encode leaves ids in the markers dict, and a shared
        # encoder would then report a false circular reference.
        encode = json.encoder.c_make_encoder(
            {}, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ":", ",", True, False, True,
        )
        return "".join("".join(encode(record, 0)) + "\n" for record in self.records)

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def find(self, kind: str, **match: Any) -> list[dict]:
        out = []
        for record in self.records:
            if record["kind"] != kind:
                continue
            if all(record.get(k) == v for k, v in match.items()):
                out.append(record)
        return out


class LinkModel:
    """Per-ordered-pair latency, extra delay, and drop probability."""

    def __init__(self, default_latency: int = 1):
        if default_latency < 1:
            raise ValueError("latency between distinct nodes is at least 1")
        self.default_latency = default_latency
        self._latency: dict[tuple[str, str], int] = {}
        self._extra: dict[tuple[str, str], int] = {}
        self._drop: dict[tuple[str, str], float] = {}

    def latency(self, src: str, dst: str) -> int:
        if src == dst:
            return 0
        base = self._latency.get((src, dst), self.default_latency)
        return max(1, base + self._extra.get((src, dst), 0))

    def set_latency(self, src: str, dst: str, latency: int) -> None:
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self._latency[(src, dst)] = latency
        self._latency[(dst, src)] = latency

    def add_delay(self, src: str, dst: str, extra: int) -> None:
        for pair in ((src, dst), (dst, src)):
            self._extra[pair] = self._extra.get(pair, 0) + extra

    def drop_probability(self, src: str, dst: str) -> float:
        return self._drop.get((src, dst), 0.0)

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

    def describe(self) -> dict:
        return {"name": self.name, "kind": self.kind, "segment": self.segment}


class Simulator:
    def __init__(self, seed: int, *, step_cap: int = 1_000_000, trace: Trace | None = None):
        self.seed = seed
        self.now = 0
        self.step_cap = step_cap
        self.trace = trace if trace is not None else Trace()
        self.links = LinkModel()
        self.nodes: dict[str, Node] = {}
        self.crashed: set[str] = set()
        # (time, seq, target, payload); seq is unique, so the heap never
        # compares targets or payloads.
        self._queue: list[tuple[int, int, str, Any]] = []
        self._seq = itertools.count()
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
        if target not in self.nodes:
            raise UnknownTarget(target)
        heapq.heappush(self._queue, (time, next(self._seq), target, payload))

    def send(self, src: str, dst: str, message: Any, note: str | None = None) -> None:
        """Send over the link model: latency, drop draw, trace record."""
        if dst not in self.nodes:
            raise UnknownTarget(dst)
        kind = type(message).__name__
        if note:
            self.trace.emit("send", self.now, src=src, dst=dst, msg=kind, note=note)
        else:
            self.trace.emit("send", self.now, src=src, dst=dst, msg=kind)
        drop_p = self.links.drop_probability(src, dst)
        if drop_p > 0.0 and self._link_rng(src, dst).random() < drop_p:
            self.trace.emit("drop", self.now, src=src, dst=dst, msg=kind)
            return
        latency = self.links.latency(src, dst)
        self.schedule(self.now + latency, dst, Delivery(src=src, message=message, sent_at=self.now))

    def run_until_idle(self) -> Trace:
        """Drain the queue in (time, seq) order. Raises StepCapExceeded
        if the scenario never settles."""
        queue, nodes, crashed = self._queue, self.nodes, self.crashed
        pop = heapq.heappop
        steps = 0
        while queue:
            steps += 1
            if steps > self.step_cap:
                raise StepCapExceeded(f"exceeded {self.step_cap} events")
            now, _, target, payload = pop(queue)
            self.now = now
            if target == _CONTROL:
                self._apply_fault(payload.kind, payload.params)
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
        heapq.heappush(self._queue, (at_time, next(self._seq), _CONTROL,
                                     _FaultArm(kind, dict(params))))

    def _apply_fault(self, kind: str, params: dict) -> None:
        if kind == "crash-node":
            self.crashed.add(params["node"])
        elif kind == "drop-link":
            self.links.set_drop(params["a"], params["b"], params.get("p", 1.0))
        elif kind == "delay-link":
            self.links.add_delay(params["a"], params["b"], params["extra"])
        self.trace.emit("fault", self.now, fault=kind, **dict(params))


# Synthetic target for fault-control events, consumed by the loop itself
# so faults land even when every protocol node has crashed.
_CONTROL = "\x00control"


@dataclass(frozen=True)
class _FaultArm:
    kind: str
    params: dict
