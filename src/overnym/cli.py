"""Command line: run scenarios, check them, compare bloom FPR.

    overnym run <scenario> [--seed N] [--trace PATH] [--metrics PATH]
    overnym check <scenario>
    overnym fpr --m M --k K --n N [--trials T] [--seed S]

Strict registration is a property of the scenario, set by its
`option strict-registration on` line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from random import Random

from .neat import BloomFilter, fpr_analytic
from .runner import run_scenario, write_outputs
from .scenario import ParseError, ValidationError, parse_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overnym",
        description="Deterministic pseudonymous-overlay network simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario, write trace and metrics")
    run.add_argument("scenario", help="scenario file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--trace", default=None, help="trace output path (JSON lines)")
    run.add_argument("--metrics", default=None, help="metrics output path (JSON)")

    check = sub.add_parser("check", help="parse and validate a scenario only")
    check.add_argument("scenario", help="scenario file")

    fpr = sub.add_parser("fpr", help="analytic vs simulated bloom false-positive rate")
    fpr.add_argument("--m", type=int, required=True, help="filter bits")
    fpr.add_argument("--k", type=int, required=True, help="index hashes")
    fpr.add_argument("--n", type=int, required=True, help="inserted keys")
    fpr.add_argument("--trials", type=int, default=20000, help="absent-key probes")
    fpr.add_argument("--seed", type=int, default=0, help="probe RNG seed")
    return parser


def _load_scenario(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8: {exc}", file=sys.stderr)
        return None
    try:
        return parse_scenario(text)
    except (ParseError, ValidationError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def cmd_run(args: argparse.Namespace) -> int:
    sc = _load_scenario(args.scenario)
    if sc is None:
        return 2
    stem = Path(args.scenario).stem
    trace_path = args.trace or f"{stem}.trace.jsonl"
    metrics_path = args.metrics or f"{stem}.metrics.json"

    result = run_scenario(sc, seed=args.seed)
    try:
        write_outputs(result, trace_path, metrics_path)
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2

    # An expectation names nodes: what stdout cannot encode is escaped.
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    for text, passed, detail in result.checks:
        line = f"{'ok' if passed else 'FAILED':6} {text}  [{detail}]"
        print(line.encode(encoding, "backslashreplace").decode(encoding))
    print(f"trace   -> {trace_path}")
    print(f"metrics -> {metrics_path}")
    if result.exit_code != 0:
        failed = sum(1 for _, passed, _ in result.checks if not passed)
        print(f"error: {failed} expectation(s) failed", file=sys.stderr)
    return result.exit_code


def cmd_check(args: argparse.Namespace) -> int:
    sc = _load_scenario(args.scenario)
    if sc is None:
        return 2
    print(f"ok: {len(sc.nodes)} nodes, {len(sc.segments)} segments, "
          f"{len(sc.actions)} actions, {len(sc.expectations)} expectations, "
          f"seed {sc.seed}")
    return 0


def cmd_fpr(args: argparse.Namespace) -> int:
    if args.m < 8 or args.k < 1 or args.n < 0 or args.trials < 1:
        print("error: need m >= 8, k >= 1, n >= 0, trials >= 1", file=sys.stderr)
        return 2
    analytic = fpr_analytic(args.m, args.k, args.n)
    bloom = BloomFilter(args.m, args.k)
    rng = Random(args.seed)
    for i in range(args.n):
        bloom.add(b"member-" + i.to_bytes(8, "big"))
    false_positives = 0
    for i in range(args.trials):
        probe = b"absent-" + rng.getrandbits(64).to_bytes(8, "big") + i.to_bytes(8, "big")
        if bloom.might_contain(probe):
            false_positives += 1
    simulated = false_positives / args.trials
    print(f"m={args.m} k={args.k} n={args.n}")
    print(f"analytic  fpr: {analytic:.6f}")
    print(f"simulated fpr: {simulated:.6f}  ({false_positives}/{args.trials} probes)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "check":
        return cmd_check(args)
    return cmd_fpr(args)


if __name__ == "__main__":
    sys.exit(main())
