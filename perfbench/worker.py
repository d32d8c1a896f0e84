"""Runs of one workload in a fresh process; prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
                                [--budget SECONDS | --traced]

Untraced, it makes rounds until about ``--budget`` seconds have passed.
A round times a batch of set-ups (parse_scenario + build_simulation),
then one whole run through the same public path as ``overnym run``
(parse_scenario -> run_scenario -> write_outputs into a temporary
directory under DIR), then a batch of replica catch-ups. Each is timed
raw and host-speed-normalised (hostclock.py). It also reports peak RSS
after the first round. Traced, it makes one whole run and one replica
catch-up under ``tracer.tracing()``, the run timed by the host clock,
writes the spans to DIR and reports per-layer figures. Either way it reports the
deterministic outputs of every run, which the parent compares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from hostclock import HostClock, timed  # noqa: E402
from overnym import ledger, runner, scenario  # noqa: E402

# Set-up and replica catch-up take milliseconds, too short for a steady
# host-speed estimate, so each is reported as the mean over a batch of at
# least MIN_BATCH calls lasting at least BATCH_S seconds.
MIN_BATCH = 3
BATCH_S = 0.5

# Every untraced worker makes at least this many rounds, whatever its budget.
MIN_ROUNDS = 2

# Message types the workloads send; Envelope is split by what it carries.
MESSAGES = (
    "SubmitTx", "BindRequest", "UnbindRequest", "FilterSnapshot",
    "ConnectRequest", "ConnectGrant", "ConnectRefused",
    "Envelope.HandshakeEnvelope", "Envelope.Heartbeat", "Envelope.AppPayload",
    "Envelope.PayloadReceipt", "Envelope.RotationEnvelope",
)

# Traced functions reported with their call count and self time.
LAYER_SPANS = (
    "identity.derive_bcadd", "identity.derive_appid", "identity.make_linkage_proof",
    "identity.verify_linkage", "identity.rotate",
    "session.router_admit", "session.authorize", "session.verify_message",
    "session.rotate_session",
    "neat.lookup_global", "neat.BloomFilter.might_contain", "neat.BloomFilter.add",
    "neat.NeatTable.insert", "neat.NeatTable.rebuild_filter", "neat.NeatTable.snapshot",
    "overlay.segment_route", "overlay.OverlayGraph.neighbors", "overlay.route_to_segment",
    "overlay.OverlayGraph.apply_topology", "overlay.OverlayGraph.segment_of",
    "ledger.Ledger.submit", "ledger.Ledger.commit_round", "ledger.Ledger.entries",
    "ledger.Ledger.state_hash",
    "simnet.Simulator.send", "simnet.Simulator.schedule", "simnet.Trace.emit",
    "simnet.Trace.find",
    "nodes.router.handle", "nodes.user.handle", "nodes.app-server.handle",
    "nodes.sequencer.handle", "nodes.regulator.handle", "nodes.router.push_snapshot",
)

# Called once per run: self time only.
LAYER_ONCE = (
    "scenario.parse_scenario", "runner.build_simulation", "runner.run_scenario",
    "runner.write_outputs", "simnet.Trace.to_jsonl",
    "ledger.Ledger.export_chain", "ledger.Ledger.import_chain",
)

LAYERS = ("identity", "session", "neat", "overlay", "ledger", "simnet", "nodes",
          "runner", "scenario")

HANDSHAKE_METHODS = (
    "session.ClientHandshake.hello", "session.ClientHandshake.on_challenge",
    "session.ClientHandshake.on_response", "session.ClientHandshake.confirm",
    "session.ClientHandshake.session", "session.ServerHandshake.on_hello",
    "session.ServerHandshake.on_confirm", "session.ServerHandshake.session",
)

QUERIES = ("ledger.Ledger.query_registration", "ledger.Ledger.query_owner",
           "ledger.Ledger.query_association", "ledger.Ledger.query_topology")


@contextmanager
def primary_ledger():
    """Keeps a handle on the ledger run_scenario builds, for the replica
    catch-up after the run; the ledger itself is unchanged."""
    made = []
    real = runner.Ledger

    def make():
        made.append(real())
        return made[-1]

    runner.Ledger = make
    try:
        yield made
    finally:
        runner.Ledger = real


def whole_run(text: str, workdir: str):
    """parse -> run -> write, as ``overnym run`` does. Returns the result,
    the primary ledger and the trace path."""
    trace_path = os.path.join(workdir, "run.trace.jsonl")
    with primary_ledger() as made:
        result = runner.run_scenario(scenario.parse_scenario(text))
        runner.write_outputs(result, trace_path, os.path.join(workdir, "run.metrics.json"))
    return result, made[0], trace_path


def catch_up(primary, expected: bytes) -> bool:
    """A replica catches up on the primary's chain; True when it reaches
    the primary's state hash ``expected``."""
    replica = ledger.Ledger.import_chain(primary.export_chain())
    return replica.state_hash() == expected


def percentile(values: list[int], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def deterministic_outputs(result, primary, trace_path: str) -> dict:
    """Behaviour of the run, identical for every run of a workload and
    seed unless the program's behaviour changed."""
    with open(trace_path, "rb") as handle:
        trace_bytes = handle.read()
    records = result.trace.records
    kinds = Counter(r["kind"] for r in records)
    sends = Counter(r["msg"] for r in records if r["kind"] == "send")
    connected: dict[str, int] = {}
    established: dict[str, int] = {}
    for r in records:
        if r["kind"] == "action" and r["action"] == "connect":
            connected.setdefault(r["args"][0], r["time"])
        elif (r["kind"] == "handshake" and r["phase"] == "established"
              and r["node"] in connected and r["node"] not in established):
            established[r["node"]] = r["time"]
    ticks = sorted(established[u] - connected[u] for u in established)
    m = result.metrics
    rotations_sent = kinds["rotation-sent"]
    return {
        "trace_digest": hashlib.sha256(trace_bytes).hexdigest(),
        "trace_records": len(records),
        "trace_bytes": len(trace_bytes),
        "records_by_kind": dict(sorted(kinds.items())),
        "sends_by_msg": dict(sorted(sends.items())),
        "ledger_entries": primary.head_seq + 1,
        "tx_refused": kinds["tx-refused"],
        "handshakes": m.handshakes_succeeded,
        "payloads": m.payloads_accepted,
        "rotations": m.rotations_completed,
        "connect_ticks_p50": percentile(ticks, 50) if len(ticks) > 1 else None,
        "connect_ticks_p95": percentile(ticks, 95) if len(ticks) > 1 else None,
        "attempted": m.handshakes_attempted + m.payloads_sent + rotations_sent,
        "failed": (m.handshakes_attempted - m.handshakes_succeeded
                   + m.payloads_sent - m.payloads_accepted
                   + rotations_sent - m.rotations_completed + kinds["tx-refused"]),
        "expectations_failed": [text for text, passed, _ in result.checks if not passed],
    }


def layer_metrics(spans: dict, tracer, outputs: dict, result) -> dict[str, list]:
    """Per-layer figures of one traced run: name -> [value, unit]."""
    def span(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out: dict[str, list] = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = [span(name)["calls"], "count"]
        out[f"{name}.s"] = [span(name)["self_s"], "s"]
    for name in LAYER_ONCE:
        out[f"{name}.s"] = [span(name)["self_s"], "s"]
    for label, group in (("session.handshake", HANDSHAKE_METHODS),
                         ("ledger.Ledger.query", QUERIES)):
        out[f"{label}.calls"] = [sum(span(n)["calls"] for n in group), "count"]
        out[f"{label}.s"] = [sum(span(n)["self_s"] for n in group), "s"]
    out["nodes.router.push_snapshot.total_s"] = [span("nodes.router.push_snapshot")["total_s"], "s"]

    traced_s = span("bench.run")["total_s"] + span("bench.replica_sync")["total_s"]
    for layer in LAYERS:
        own = sum(row["self_s"] for name, row in spans.items() if name.startswith(layer + "."))
        out[f"layer.{layer}.share"] = [own / traced_s, "ratio"]

    m = result.metrics
    stats = m.lookup_stats
    probes = sum(stats.probe_counts)
    sends = tracer.sends
    kinds = outputs["records_by_kind"]
    out.update({
        "session.handshake_success_ratio":
            [m.handshakes_succeeded / max(1, m.handshakes_attempted), "ratio"],
        "neat.exact_probes_per_lookup": [probes / max(1, len(stats.probe_counts)), "probes"],
        "neat.hit_ratio": [stats.hits / max(1, probes), "ratio"],
        "ledger.chain_length": [outputs["ledger_entries"], "count"],
        "ledger.tx_refused": [outputs["tx_refused"], "count"],
        "simnet.events": [span("simnet.Simulator.schedule")["calls"]
                          + span("simnet.Simulator.inject_fault")["calls"], "count"],
        "simnet.trace_records": [outputs["trace_records"], "count"],
        "simnet.trace_bytes": [outputs["trace_bytes"], "bytes"],
        "simnet.drops": [kinds.get("drop", 0), "count"],
        "simnet.discards": [kinds.get("discard", 0), "count"],
        "simnet.snapshot_send_share":
            [sends.get("FilterSnapshot", 0) / max(1, sum(sends.values())), "ratio"],
        "hashing.owf.calls": [tracer.counts["hashing.owf"], "count"],
        "bench.spans": [len(tracer.span_start), "count"],
    })
    for msg in MESSAGES:
        out[f"simnet.sends.{msg}"] = [sends.get(msg, 0), "count"]
    return out


def setup(text: str):
    """Parse and build the simulation."""
    return runner.build_simulation(scenario.parse_scenario(text))


def batch(fn, *args) -> tuple[HostClock, int, bool]:
    """Calls ``fn(*args)`` at least MIN_BATCH times and for at least
    BATCH_S raw seconds, timing only the calls (a result is dropped after
    its timing ends). Returns the clock, the number of calls and whether
    every call returned a true value."""
    clock, calls, ok = HostClock(), 0, True
    while calls < MIN_BATCH or clock.raw_s < BATCH_S:
        with clock.section():
            value = fn(*args)
        calls, ok = calls + 1, ok and bool(value)
        del value
    return clock, calls, ok


def one_round(text: str, workdir: str) -> dict:
    """A batch of set-ups, one whole run, a batch of replica catch-ups."""
    setups, setup_calls, _ = batch(setup, text)
    (result, primary, trace_path), run = timed(whole_run, text, workdir)
    syncs, sync_calls, ok = batch(catch_up, primary, primary.state_hash())
    return {
        "wall_s": run.seconds,
        "setup_s": setups.seconds / setup_calls,
        "replica_sync_s": syncs.seconds / sync_calls,
        "raw_wall_s": run.raw_s,
        "raw_setup_s": setups.raw_s / setup_calls,
        "raw_replica_sync_s": syncs.raw_s / sync_calls,
        "speed_samples": run.samples + setups.samples + syncs.samples,
        "replica_ok": ok,
        "outputs": deterministic_outputs(result, primary, trace_path),
    }


def untraced(text: str, workdir: str, budget: float) -> dict:
    """At least MIN_ROUNDS rounds, more while the next should end within
    ``budget`` seconds. Peak RSS is read after the first round, so it is
    the peak of a fresh process doing one run."""
    began = time.perf_counter()
    rounds = [one_round(text, workdir)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(rounds) < MIN_ROUNDS or (
            (time.perf_counter() - began) * (len(rounds) + 1) / len(rounds) <= budget):
        rounds.append(one_round(text, workdir))
    return {"rounds": rounds, "peak_rss_mb": peak_rss_mb}


def traced(text: str, workdir: str, spans_path: str) -> dict:
    from tracer import tracing

    clock = HostClock()
    with tracing() as tracer:
        with clock.section():
            result, primary, trace_path = tracer.spanned("bench.run", whole_run)(text, workdir)
        ok = tracer.spanned("bench.replica_sync",
                            lambda p: catch_up(p, p.state_hash()))(primary)
    outputs = deterministic_outputs(result, primary, trace_path)
    spans = tracer.summarize()
    tracer.write(spans_path)
    return {
        "wall_s": clock.seconds,
        "replica_ok": ok,
        "outputs": outputs,
        "layers": layer_metrics(spans, tracer, outputs, result),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for temporary outputs and spans")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="untraced: keep making rounds for about this many seconds")
    args = parser.parse_args(argv)

    text = workloads.generate(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix="run-", dir=args.out)
    try:
        if args.traced:
            spans_path = os.path.join(args.out, f"{args.workload}-seed{args.seed}.spans")
            report = traced(text, workdir, spans_path)
        else:
            report = untraced(text, workdir, args.budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
