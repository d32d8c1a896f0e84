"""Run-path census: every function in src/overnym runs in a shipped run,
or UNREACHED names what keeps it.

The shipped runs are each scenarios/*.scn through the command line
(`check`, then `run`), one `fpr` call, and each benchmark workload at
size 20, seed 31, through parse_scenario, run_scenario and write_outputs.
They run under sys.setprofile, which sees every Python call. A code
object is named through its module's AST by (first line, name), since
co_qualname is missing before Python 3.11; a decorated function's code
starts at its first decorator.

The verify-ahead helper is held off (ahead._cpus reads 1), so the
verdict is the same on one CPU or many. What only the helper path runs
is listed as `helper`.

The same runs give the record kinds the fixtures' traces hold: each kind
that docs/wire-format.md documents is in some fixture's trace, or
UNEMITTED names why not. They also give each workload's exact operation
counts (COST_PINS), which, unlike timings, do not vary with the host.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import re
import sys
import types
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

import overnym
from overnym import ahead, cli
from overnym.hashing import owf
from overnym.runner import run_scenario, write_outputs
from overnym.scenario import parse_scenario
from overnym.simnet import Simulator

ROOT = Path(__file__).parent.parent
SRC = Path(overnym.__file__).parent
FIXTURES = sorted((ROOT / "scenarios").glob("*.scn"))
DOC = ROOT / "docs" / "wire-format.md"

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

VOCABULARY = (
    "acceptance gate", "wire contract", "benchmark", "refusal path", "helper", "safety", "import",
)

# Function -> what keeps it, for each function no shipped run calls.
# `acceptance gate`: tests/test_acceptance.py calls it. `benchmark`:
# perfbench calls it, or perfbench/tracer.py binds it by name. `wire
# contract`: a decoder, or an encoder no run needs, of a format that
# docs/wire-format.md defines. `refusal path`: only input that no
# well-formed script gives reaches it. `import`: it runs only while the
# package is imported, before the census's profiler starts. `item N`:
# ROADMAP.md item N decides.
UNREACHED = {
    "ahead.VerifyAhead.__init__": "helper",  # runs once, on import
    "ahead.VerifyAhead._drop": "helper",
    "ahead.VerifyAhead._send": "helper",
    "ahead.VerifyAhead._start": "helper",
    "ahead.VerifyAhead.close": "helper",
    "ahead._cpus": "helper",  # replaced for the census
    "ahead._spawn": "helper",
    "identity.sign_linkage_ahead": "helper",
    "identity.AttributeAttestation.to_bytes": "acceptance gate",
    "identity.Predicate.__post_init__": "acceptance gate",
    "identity.Regulator.issue_attestation": "acceptance gate",
    "identity._attestation_message": "acceptance gate",
    "identity.Predicate.holds": "item 5",
    "identity.Regulator.public_key": "item 5",
    "identity.verify_attestation": "item 5",
    "identity.APPID.from_bytes": "wire contract",
    "identity.AttributeAttestation.from_bytes": "wire contract",
    "identity.LinkageProof.from_bytes": "wire contract",
    "identity.Predicate._read": "wire contract",
    "identity.Predicate.from_bytes": "wire contract",
    "identity.Predicate.to_bytes": "wire contract",
    "identity.ServiceProps.from_bytes": "wire contract",
    "identity.IdentitySecret.__repr__": "safety",  # keeps the seed out of reprs
    "ledger.Ledger.apply_entries": "acceptance gate",
    "ledger.LedgerEntry.from_bytes": "acceptance gate",
    "ledger.LedgerEntry.to_bytes": "acceptance gate",
    "ledger._check_link": "acceptance gate",
    "ledger._payload_bytes": "acceptance gate",
    "ledger.verify_chain": "acceptance gate",
    "ledger.Ledger.export_chain": "benchmark",  # the replica catch-up
    "ledger.Ledger.import_chain": "benchmark",
    "ledger.Ledger.query_association": "benchmark",  # a stub: payload tag 2 is reserved
    "ledger._read_entry": "benchmark",
    "ledger._same_class_eq": "safety",  # no ledger value equals a plain tuple
    "ledger._same_class_ne": "safety",
    "neat.NeatTable.keys": "acceptance gate",
    "neat.BloomFilter.__eq__": "wire contract",
    "neat.BloomFilter.from_bytes": "wire contract",
    "scenario.ParseError.__init__": "refusal path",
    "scenario.ValidationError.__init__": "refusal path",
    "scenario._Parser.fail": "refusal path",
    "scenario.format_scenario": "benchmark",  # workloads are in its canonical form
    "session.handshake": "acceptance gate",
    "session.router_admit": "acceptance gate",
    "session.HandshakeMessage.from_bytes": "wire contract",
    "session.RotationNotice.from_bytes": "wire contract",
    "session.RotationNotice.to_bytes": "wire contract",
    "session._Unproven.__init__": "refusal path",
    "simnet.record": "import",  # builds the module-level record writers
    "simnet.Trace.digest": "acceptance gate",
    "simnet.Trace.to_jsonl": "benchmark",
    "simnet.TraceRecords.__getitem__": "benchmark",
    "simnet.TraceRecords.__len__": "benchmark",
    "wire.Reader.since": "wire contract",
    "wire.pack_i64": "wire contract",
    "wire._not_a": "refusal path",  # a wrong-typed field has no encoding
}

# Record kind -> why no fixture's trace holds it. Each is emitted only for
# a message that no well-formed script sends (a transaction, subject,
# locator, route or rotation notice the sender cannot encode or name, a
# rotation notice delivered again, or a holding proof that is forged,
# copied or made for another session); tests/test_nodes.py injects such
# messages for each.
UNEMITTED = {
    "tx-refused": "refusal path",
    "attributes-refused": "refusal path",
    "neat-bind-refused": "refusal path",
    "envelope-dropped": "refusal path",
    "rotation-rejected": "refusal path",
    "holding-refused": "refusal path",
}


# Operation -> what the profiler counts for it: a Python function's code,
# or the qualified name of a C method. The crypto keys load through
# Python class methods, and sign, verify and exchange are C methods.
OPERATIONS = {
    "events queued": Simulator.schedule.__code__,
    "owf": owf.__code__,
    "Ed25519 private key loads": Ed25519PrivateKey.from_private_bytes.__func__.__code__,
    "Ed25519 public key loads": Ed25519PublicKey.from_public_bytes.__func__.__code__,
    "Ed25519 signs": "Ed25519PrivateKey.sign",
    "Ed25519 verifies": "Ed25519PublicKey.verify",
    "X25519 private key loads": X25519PrivateKey.from_private_bytes.__func__.__code__,
    "X25519 public key loads": X25519PublicKey.from_public_bytes.__func__.__code__,
    "X25519 exchanges": "X25519PrivateKey.exchange",
}

# Workload -> its exact costs at size 20, seed 31, with the helper held
# off: OPERATIONS' counts, the trace's lines, and its sends by message. A
# change that moves a count re-pins it and says why in CHANGES.md.
COST_PINS = {
    "handshake_storm": {
        "events queued": 810,
        "owf": 1207,
        "Ed25519 private key loads": 37,
        "Ed25519 public key loads": 60,
        "Ed25519 signs": 60,
        "Ed25519 verifies": 60,
        "X25519 private key loads": 40,
        "X25519 public key loads": 40,
        "X25519 exchanges": 40,
        "trace lines": 1034,
        "sends": {"BindRequest": 36, "ConnectGrant": 20, "ConnectRequest": 20, "Envelope": 456,
                  "FilterSnapshot": 56, "SubmitTx": 45},
    },
    "wide_overlay": {
        "events queued": 5070,
        "owf": 2119,
        "Ed25519 private key loads": 165,
        "Ed25519 public key loads": 60,
        "Ed25519 signs": 60,
        "Ed25519 verifies": 60,
        "X25519 private key loads": 40,
        "X25519 public key loads": 40,
        "X25519 exchanges": 40,
        "trace lines": 5425,
        "sends": {"BindRequest": 52, "ConnectGrant": 20, "ConnectRequest": 20, "Envelope": 900,
                  "FilterSnapshot": 3683, "SubmitTx": 181},
    },
    "session_stream": {
        "events queued": 33289,
        "owf": 5601,
        "Ed25519 private key loads": 28,
        "Ed25519 public key loads": 60,
        "Ed25519 signs": 60,
        "Ed25519 verifies": 60,
        "X25519 private key loads": 40,
        "X25519 public key loads": 40,
        "X25519 exchanges": 40,
        "trace lines": 30406,
        "sends": {"BindRequest": 28, "ConnectGrant": 20, "ConnectRequest": 20, "Envelope": 24288,
                  "FilterSnapshot": 6, "SubmitTx": 32},
    },
    "rotation_churn": {
        "events queued": 7807,
        "owf": 6201,
        "Ed25519 private key loads": 228,
        "Ed25519 public key loads": 260,
        "Ed25519 signs": 260,
        "Ed25519 verifies": 260,
        "X25519 private key loads": 40,
        "X25519 public key loads": 40,
        "X25519 exchanges": 40,
        "trace lines": 7706,
        "sends": {"BindRequest": 228, "ConnectGrant": 20, "ConnectRequest": 20, "Envelope": 4494,
                  "FilterSnapshot": 228, "SubmitTx": 252, "UnbindRequest": 200},
    },
}


def compare(universe: set[str], reached: set[str], listed: dict[str, str]) -> list[str]:
    """What is wrong with listed, given the names in universe and those a
    run reached: a name neither reached nor listed, a listed name that is
    reached or is not in universe, and a reason outside the vocabulary."""
    problems = [f"{name}: no shipped run reaches it; delete it or list it with a reason"
                for name in sorted(universe - reached - listed.keys())]
    problems += [f"{name}: listed, but a shipped run reaches it; unlist it"
                 for name in sorted(listed.keys() & reached)]
    problems += [f"{name}: listed, but there is no such name"
                 for name in sorted(listed.keys() - universe)]
    problems += [f"{name}: reason {reason!r} is not in the vocabulary"
                 for name, reason in sorted(listed.items())
                 if reason not in VOCABULARY and not re.fullmatch(r"item [1-9][0-9]*", reason)]
    return problems


def definitions() -> dict[tuple[str, int, str], str]:
    """(real path, first line, name) of each function defined in the
    package -> its dotted name, `module.Class.function`."""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        filename = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    names[filename, first, child.name] = f"{prefix}.{child.name}"
                    visit(child, f"{prefix}.{child.name}")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return names


def name_of(code, names) -> str | None:
    return names.get((os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name))


def documented_kinds() -> set[str]:
    section = DOC.read_text(encoding="utf-8").split("## Trace records", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))


class Census(NamedTuple):
    reached: set[str]  # dotted names of the package functions the shipped runs call
    kinds: set[str]  # the record kinds the fixtures' traces hold
    costs: dict[str, dict]  # workload -> its costs, in COST_PINS' form


def costs(calls: Counter, trace) -> dict:
    """A workload's costs, from the calls counted while it ran and its trace."""
    return {**{operation: calls[key] for operation, key in OPERATIONS.items()},
            "trace lines": len(trace.records),
            "sends": dict(Counter(r["msg"] for r in trace.find("send")))}


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    out = tmp_path_factory.mktemp("census")
    # profile counts into the Counter bound to calls when an event comes:
    # a Python call by its code, a C call by its qualified name. Each
    # workload gets a new one.
    calls = fixture_calls = Counter()
    runs = {}

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
        elif event == "c_call":
            calls[arg.__qualname__] += 1

    previous = sys.getprofile()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(ahead, "_cpus", lambda: 1)
        sys.setprofile(profile)
        try:
            for path in FIXTURES:
                assert cli.main(["check", str(path)]) == 0
                assert cli.main(["run", str(path), "--trace", str(out / f"{path.stem}.jsonl"),
                                 "--metrics", str(out / "metrics.json")]) == 0
            assert cli.main(["fpr", "--m", "64", "--k", "3", "--n", "10", "--trials", "200"]) == 0
            for workload in workloads.WORKLOADS:
                calls = Counter()
                result = run_scenario(parse_scenario(workloads.generate(workload, 31, 20)))
                write_outputs(result, str(out / "workload.jsonl"), str(out / "metrics.json"))
                assert result.exit_code == 0, workload
                runs[workload] = calls, result.trace
        finally:
            sys.setprofile(previous)
    names = definitions()
    codes = {key for counted in (fixture_calls, *(c for c, _ in runs.values())) for key in counted
             if isinstance(key, types.CodeType)}
    reached = {name_of(code, names) for code in codes} - {None}
    kinds = set()
    for path in FIXTURES:
        with open(out / f"{path.stem}.jsonl", encoding="utf-8") as trace:
            kinds.update(json.loads(line)["kind"] for line in trace)
    return Census(reached, kinds, {w: costs(*run) for w, run in runs.items()})


def test_every_function_runs_or_is_listed(census):
    assert compare(set(definitions().values()), census.reached, UNREACHED) == []


def test_every_documented_kind_is_emitted_or_listed(census):
    assert compare(documented_kinds(), census.kinds, UNEMITTED) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_costs_match_their_pins(census, workload):
    assert census.costs[workload] == COST_PINS.get(workload)


def test_names_follow_decorators_and_classes():
    names = definitions()
    assert name_of(ahead.VerifyAhead.scope.__wrapped__.__code__, names) == "ahead.VerifyAhead.scope"
    assert name_of(ahead.VerifyAhead.submitting.fget.__code__, names) == "ahead.VerifyAhead.submitting"
    assert name_of(cli.main.__code__, names) == "cli.main"
    assert name_of(test_names_follow_decorators_and_classes.__code__, names) is None
    assert len(set(names.values())) == len(names)


def test_compare_flags_each_kind_of_mismatch():
    universe = {"m.run", "m.kept", "m.planted"}
    listed = {"m.kept": "wire contract"}
    assert compare(universe, {"m.run", "m.planted"}, listed) == []
    assert compare(universe, {"m.run"}, listed) == [
        "m.planted: no shipped run reaches it; delete it or list it with a reason"]
    assert compare(universe, universe, listed) == [
        "m.kept: listed, but a shipped run reaches it; unlist it"]
    assert compare(universe, {"m.run", "m.planted"}, {**listed, "m.gone": "item 9"}) == [
        "m.gone: listed, but there is no such name"]
    assert compare(universe, {"m.run", "m.planted"}, {"m.kept": "tests use it"}) == [
        "m.kept: reason 'tests use it' is not in the vocabulary"]
    assert compare(universe, {"m.run", "m.planted"}, {"m.kept": "item 07"}) == [
        "m.kept: reason 'item 07' is not in the vocabulary"]
