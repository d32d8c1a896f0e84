"""The overnym benchmark: generated workloads, end-to-end and per-layer
metrics, and a correctness gate.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

For each workload it generates the scenario from the seed and splits
``--seconds`` between WORKERS fresh worker processes (perfbench/worker.py),
run one after another. Each worker makes rounds of set-up, one whole run
and replica catch-up until its share of the time is used. Times are
host-speed-normalised (perfbench/hostclock.py); the raw times are printed
and saved too. Each metric is the median over all rounds (peak RSS: over
workers). With ``--trace 1`` one extra traced run gives the per-layer
metrics, and the tracing overhead is the traced run's wall time minus the
untraced median.

A run is correct when every expectation holds, no ledger transaction is
refused, every replica reaches the primary's state hash, and every run
of the workload and seed, traced or not, yields identical deterministic
outputs (trace digest included). Each metric is printed with its unit;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when correct.

Every round's figures, quartiles and deterministic outputs are written to
perfbench/out/<workload>-seed<N>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

from workloads import WORKLOADS  # noqa: E402

# Untraced worker processes per workload; more than one, so determinism is
# also checked across processes.
WORKERS = 2
WORKER_TIMEOUT_S = 150

# End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "handshakes_per_s": "1/s",
    "payloads_per_s": "1/s",
    "replica_sync_s": "s",
    "peak_rss_mb": "MB",
    "connect_ticks_p50": "ticks",
    "connect_ticks_p95": "ticks",
}

# Per-layer metrics the parent adds to the traced worker's: name -> unit.
ADDED_LAYER_METRICS = {
    "simnet.events_per_s": "1/s",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead_s": "s",
}


class WorkerFailed(Exception):
    pass


def start_worker(workload: str, seed: int, *options: str) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--out", OUT, *options]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: worker ran past {WORKER_TIMEOUT_S}s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"{workload}: worker exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def problems_of(rounds: list[dict]) -> list[str]:
    """Correctness gate over every run of one workload and seed."""
    problems = []
    reference = rounds[0]["outputs"]
    for i, run in enumerate(rounds):
        outputs = run["outputs"]
        for text in outputs["expectations_failed"]:
            problems.append(f"round {i}: {text} failed")
        if outputs["tx_refused"]:
            problems.append(f"round {i}: {outputs['tx_refused']} ledger transaction(s) refused")
        if not run["replica_ok"]:
            problems.append(f"round {i}: replica state hash differs from the primary's")
        if outputs != reference:
            diff = sorted(k for k in outputs if outputs[k] != reference.get(k))
            problems.append(f"round {i}: deterministic outputs differ from round 0 in {diff}")
    return problems


def end_to_end(rounds: list[dict], rss: list[float]) -> dict[str, dict]:
    samples = {
        "wall_s": [r["wall_s"] for r in rounds],
        "setup_s": [r["setup_s"] for r in rounds],
        "handshakes_per_s": [r["outputs"]["handshakes"] / r["wall_s"] for r in rounds],
        "payloads_per_s": [r["outputs"]["payloads"] / r["wall_s"] for r in rounds],
        "replica_sync_s": [r["replica_sync_s"] for r in rounds],
        "peak_rss_mb": rss,
        "connect_ticks_p50": [r["outputs"]["connect_ticks_p50"] for r in rounds],
        "connect_ticks_p95": [r["outputs"]["connect_ticks_p95"] for r in rounds],
    }
    return {name: quartiles(values) for name, values in samples.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All rounds of one workload; returns its report."""
    started = time.monotonic()
    traced = start_worker(workload, seed, "--traced") if trace else None
    rounds: list[dict] = []
    rss: list[float] = []
    for left in range(WORKERS, 0, -1):
        budget = (seconds - (time.monotonic() - started)) / left
        report = start_worker(workload, seed, "--budget", f"{budget:.3f}")
        rounds += report["rounds"]
        rss.append(report["peak_rss_mb"])
    stats = end_to_end(rounds, rss)
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "problems": problems_of(rounds + ([traced] if traced else [])),
        "attempted": sum(r["outputs"]["attempted"] for r in rounds),
        "failed": sum(r["outputs"]["failed"] for r in rounds),
        "deterministic": rounds[0]["outputs"],
        "end_to_end": stats,
        "samples": rounds,
    }
    report["raw"] = {name: quartiles([r["raw_" + name] for r in rounds])
                     for name in ("wall_s", "setup_s", "replica_sync_s")}
    if traced:
        layers = dict(traced["layers"])
        added = {
            "simnet.events_per_s": layers["simnet.events"][0] / stats["wall_s"]["median"],
            "bench.traced_wall_s": traced["wall_s"],
            "bench.tracing_overhead_s": traced["wall_s"] - stats["wall_s"]["median"],
        }
        layers.update({k: [v, ADDED_LAYER_METRICS[k]] for k, v in added.items()})
        report["per_layer"] = layers
    return report


def show(report: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  rounds={report['rounds']}")
    for name, s in report["end_to_end"].items():
        print(f"  {name:20} {s['median']:12.6g} {END_TO_END[name]:6} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for name, s in report["raw"].items():
        print(f"  {'raw ' + name:20} {s['median']:12.6g} s      "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, not normalised)")
    for name, (value, unit) in report.get("per_layer", {}).items():
        print(f"  {name:46} {value:12.6g} {unit}")
    det = {k: v for k, v in report["deterministic"].items() if k != "expectations_failed"}
    print("  deterministic " + json.dumps(det, sort_keys=True))
    for problem in report["problems"]:
        print(f"  INCORRECT: {problem}")


def result_metrics(report: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + name: {"value": value, "unit": unit}
                for name, (value, unit) in report["per_layer"].items()}
    return {prefix + name: {"value": s["median"], "unit": END_TO_END[name]}
            for name, s in report["end_to_end"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="overnym benchmark")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="workload generator seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure each workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and report per-layer metrics")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "overnym", "runner.py")):
        print(f"error: no overnym sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            report = measure(name, args.seed, args.seconds, bool(args.trace))
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as handle:
                json.dump(report, handle, indent=1, sort_keys=True)
            show(report)
            reports.append(report)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = not any(r["problems"] for r in reports)
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        metrics.update(result_metrics(report, bool(args.trace), prefix))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
