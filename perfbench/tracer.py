"""Spans around the simulator's public functions, recorded from outside.

``tracing()`` wraps each traced function at every binding it is reached
through: a module attribute (``identity.verify_linkage``), every other
module that imported it by name (``session.verify_linkage``), or a class
attribute for methods. Each call appends one span (name, start, end,
parent), where the parent is the span open when the call began, so work
nests under the ``nodes.<kind>.handle`` event that caused it. A span's
self time is its duration minus its children's durations.

Spans stay in memory until the run ends; ``Tracer.write`` then saves
them. The wrappers only observe: a traced run must produce the same trace
bytes as an untraced one, and the benchmark checks that it does.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

# (module, function) for module-level functions. Spans also cover helpers
# the benchmark does not report by name, so their time is charged to their
# own layer rather than to the caller's self time.
FUNCTIONS = [
    ("identity", "derive_bcadd"), ("identity", "derive_appid"),
    ("identity", "make_linkage_proof"), ("identity", "verify_linkage"),
    ("identity", "rotate"),
    ("session", "router_admit"), ("session", "authorize"),
    ("session", "verify_message"), ("session", "rotate_session"),
    ("session", "make_rotation_notice"), ("session", "heartbeat"),
    ("session", "check_alive"), ("session", "record_delivery"),
    ("neat", "lookup_global"),
    ("overlay", "segment_route"), ("overlay", "route_to_segment"),
    ("scenario", "parse_scenario"),
    ("runner", "build_simulation"), ("runner", "run_scenario"),
    ("runner", "write_outputs"),
]

# (module, class, method names) for methods, traced on the class.
METHODS = [
    ("session", "ClientHandshake", ("hello", "on_challenge", "on_response", "confirm", "session")),
    ("session", "ServerHandshake", ("on_hello", "on_confirm", "session")),
    ("neat", "BloomFilter", ("might_contain", "add")),
    ("neat", "NeatTable", ("insert", "remove", "rebuild_filter", "snapshot")),
    ("overlay", "OverlayGraph", ("neighbors", "apply_topology", "segment_of")),
    ("ledger", "Ledger", ("submit", "commit_round", "entries", "query_registration",
                          "query_owner", "query_association", "query_topology",
                          "state_hash", "export_chain", "import_chain")),
    ("simnet", "Simulator", ("schedule", "inject_fault", "run_until_idle")),
    ("simnet", "Trace", ("emit", "to_jsonl", "find")),
]

NODE_CLASSES = ("SequencerNode", "RegulatorNode", "AccessPointNode", "UserNode", "AppServerNode")

_MISSING = object()


class Tracer:
    """In-memory span store plus call counters that need no span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.sends: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn):
        """``fn`` wrapped so each call records one span named ``name``."""
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count calls only, for leaves too hot to span."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summarize(self) -> dict[str, dict[str, float]]:
        """name -> calls, inclusive seconds and self seconds."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        count = len(starts)
        duration = [ends[i] - starts[i] for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                children[parent] += duration[i]
        totals = [[0, 0.0, 0.0] for _ in self.names]
        names = self.span_name
        for i in range(count):
            row = totals[names[i]]
            row[0] += 1
            row[1] += duration[i]
            row[2] += duration[i] - children[i]
        return {name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
                for name, row in zip(self.names, totals)}

    def write(self, path: str) -> None:
        """One JSON header line, then the name ids, parent indexes, start
        and end times as raw arrays in that order (native byte order)."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "overnym" or name.startswith("overnym."))]


@contextmanager
def tracing():
    """Install span wrappers on the imported ``overnym`` package; yields
    the Tracer and restores every original binding on exit."""
    import overnym.nodes
    import overnym.simnet

    tracer = Tracer()
    patches: list[tuple[object, str, object]] = []
    modules = _modules()
    module = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    def rebind(owner, attr, value):
        patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def rebind_everywhere(original, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    rebind(mod, attr, wrapped)

    for mod_name, attr in FUNCTIONS:
        original = getattr(module[mod_name], attr)
        rebind_everywhere(original, tracer.spanned(f"{mod_name}.{attr}", original))
    owf = module["hashing"].owf
    rebind_everywhere(owf, tracer.counted("hashing.owf", owf))

    for mod_name, cls_name, methods in METHODS:
        cls = getattr(module[mod_name], cls_name)
        for method in methods:
            name = f"{mod_name}.{cls_name}.{method}"
            raw = vars(cls)[method]
            if isinstance(raw, property):
                rebind(cls, method, property(tracer.spanned(name, raw.fget)))
            elif isinstance(raw, classmethod):
                rebind(cls, method, classmethod(tracer.spanned(name, raw.__func__)))
            else:
                rebind(cls, method, tracer.spanned(name, raw))

    sends = tracer.sends
    send = overnym.simnet.Simulator.send

    def counting_send(sim, src, dst, message, note=None):
        key = type(message).__name__
        if key == "Envelope":
            key += "." + type(message.inner).__name__
        sends[key] = sends.get(key, 0) + 1
        return send(sim, src, dst, message, note)

    rebind(overnym.simnet.Simulator, "send", tracer.spanned("simnet.Simulator.send", counting_send))

    nodes = overnym.nodes
    for cls_name in NODE_CLASSES:
        cls = getattr(nodes, cls_name)
        rebind(cls, "handle", tracer.spanned(f"nodes.{cls.kind}.handle", nodes.ProtocolNode.handle))
    rebind(nodes.AccessPointNode, "_push_snapshot",
           tracer.spanned("nodes.router.push_snapshot", nodes.AccessPointNode._push_snapshot))

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
