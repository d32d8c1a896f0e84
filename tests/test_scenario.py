import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import overnym
from overnym import ahead, simnet
from overnym.cli import main
from overnym.ledger import MAX_PAYLOAD_BYTES, NftOwnership, RegistrationTx, encode_payload
from overnym.overlay import OverlayGraph
from overnym.runner import (
    RunResult,
    _schedule_actions,
    _topology_updates,
    build_simulation,
    run_scenario,
    write_atomic,
    write_outputs,
)
from overnym.scenario import (
    ParseError,
    ValidationError,
    format_scenario,
    parse_scenario,
)
from overnym.simnet import Simulator, Trace
from overnym.wire import pack_str

SCENARIOS_DIR = Path(__file__).parent.parent / "scenarios"
FIXTURES = sorted(SCENARIOS_DIR.glob("*.scn"))

MINIMAL = """
seed 1
segment 1
node ap router 1
node seq sequencer 1
node u user 1
node s app-server 1 service=echo
at 1 register u
at 1 register s open-access
at 3 bind u
at 3 bind s
at 6 connect u s
expect handshake u s success
"""


# Four users reach a token-gated and an open server, and the token changes
# hands. READ_BOUND_CHECKS adds 30 expectations, 29 of them admitted,
# authorize and session ones, and 18 of the 30 fail.
READ_BOUND = """
seed 7
segment 1
segment 2
link 1 2 1
node ap1 router 1
node ap2 router 2
node seq sequencer 1
node alice user 1
node bob user 1
node carol user 2
node dave user 2
node shop app-server 2 service=storefront
node cafe app-server 1 service=coffee
option strict-registration on
at 1 register alice
at 1 register bob
at 1 register carol
at 1 register shop tokens gold-pass
at 1 register cafe open-access
at 4 bind alice
at 4 bind bob
at 4 bind carol
at 4 bind dave
at 4 bind shop
at 4 bind cafe
at 6 mint-nft gold-pass alice
at 9 connect alice shop
at 9 connect bob shop
at 9 connect carol cafe
at 9 connect alice cafe
at 9 connect dave cafe
at 20 authorize alice shop
at 20 authorize bob shop
at 20 authorize alice cafe
at 26 transfer-nft gold-pass bob
at 30 authorize alice shop
at 30 authorize bob shop
at 32 fault crash-node carol
"""

# Each expectation, whether it holds and what the run saw.
READ_BOUND_CHECKS = [
    ("admitted alice true", True, "last admission decision=True"),
    ("admitted bob true", True, "last admission decision=True"),
    ("admitted carol true", True, "last admission decision=True"),
    ("admitted dave true", False, "last admission decision=False"),
    ("admitted alice false", False, "last admission decision=True"),
    ("admitted dave false", True, "last admission decision=False"),
    ("admitted carol false", False, "last admission decision=True"),
    ("authorize alice shop allowed", False, "last access decision: allowed=False reason=no-token"),
    ("authorize alice shop denied", True, "last access decision: allowed=False reason=no-token"),
    ("authorize bob shop allowed", True, "last access decision: allowed=True reason=nft-owned"),
    ("authorize bob shop denied", False, "last access decision: allowed=True reason=nft-owned"),
    ("authorize alice cafe allowed", True, "last access decision: allowed=True reason=open-access"),
    ("authorize alice cafe denied", False, "last access decision: allowed=True reason=open-access"),
    ("authorize carol cafe allowed", True, "last access decision: allowed=True reason=open-access"),
    ("authorize dave cafe denied", False, "no session between the pair"),
    ("authorize dave shop denied", False, "no session between the pair"),
    ("session alice shop alive at 15", False, "probe at t=15: alive=False"),
    ("session alice shop alive at 35", True, "probe at t=35: alive=True"),
    ("session alice shop not-alive at 35", False, "probe at t=35: alive=True"),
    ("session bob shop alive at 15", False, "probe at t=15: alive=False"),
    ("session bob shop not-alive at 40", False, "probe at t=40: alive=True"),
    ("session carol cafe alive at 25", False, "probe at t=25: alive=False"),
    ("session carol cafe alive at 45", False, "probe never fired"),
    ("session alice cafe alive at 15", False, "probe at t=15: alive=False"),
    ("session alice cafe not-alive at 45", False, "probe at t=45: alive=True"),
    ("session dave cafe alive at 15", False, "probe at t=15: alive=False"),
    ("session dave cafe not-alive at 15", True, "probe at t=15: alive=False"),
    ("handshake alice shop success", True, "session established"),
    ("admitted bob true", True, "last admission decision=True"),
    ("session alice shop alive at 15", False, "probe at t=15: alive=False"),
]

_spec = importlib.util.spec_from_file_location("workloads", SCENARIOS_DIR.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class TestParse:
    def test_minimal_valid_file(self):
        sc = parse_scenario(MINIMAL)
        assert sc.seed == 1
        assert [n.kind for n in sc.nodes] == ["router", "sequencer", "user", "app-server"]
        assert len(sc.actions) == 5

    def test_undeclared_node_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL.replace("connect u s", "connect ghost s"))

    def test_decreasing_timestamps_rejected(self):
        text = MINIMAL.replace("at 6 connect u s", "at 2 connect u s")
        with pytest.raises(ValidationError, match="non-decreasing"):
            parse_scenario(text)

    def test_unknown_statement_is_parse_error_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("seed 1\nwobble 3\n")
        assert err.value.line_no == 2

    def test_two_sequencers_rejected(self):
        text = MINIMAL + "node seq2 sequencer 1\n"
        with pytest.raises(ValidationError, match="sequencer"):
            parse_scenario(text)

    def test_segmentless_user_rejected(self):
        text = MINIMAL.replace("node u user 1", "node u user 2")
        with pytest.raises(ParseError, match="not declared"):
            parse_scenario(text)

    def test_links_without_a_router_rejected(self):
        # A router publishes the declared links; without one, run had
        # nothing to publish them from, so check must refuse the file too.
        text = "seed 1\nsegment 1\nsegment 2\nlink 1 2 1\nnode seq sequencer 1\n"
        with pytest.raises(ValidationError, match="no router"):
            parse_scenario(text)

    def test_comments_and_blanks_ignored(self):
        sc = parse_scenario("# header\n\nseed 4 # trailing\nsegment 1\nnode ap router 1\nnode q sequencer 1\n")
        assert sc.seed == 4

    def test_app_server_register_needs_access_policy(self):
        with pytest.raises(ParseError, match="open-access"):
            parse_scenario(MINIMAL.replace("register s open-access", "register s"))

    def test_transfer_of_unminted_token(self):
        text = MINIMAL + "at 7 transfer-nft phantom u\n"
        with pytest.raises(ValidationError, match="never minted"):
            parse_scenario(text)

    @pytest.mark.parametrize("line", [
        "expect handshake ap s success",
        "expect payloads s u 1 complete",
        "expect authorize u ap allowed",
        "expect session u seq alive at 9",
        "expect admitted s true",
    ])
    def test_expectation_nodes_of_the_wrong_kind_rejected(self, line):
        # run looks the user and the server up among nodes of those kinds
        with pytest.raises(ValidationError, match="expected"):
            parse_scenario(MINIMAL + line + "\n")

    @pytest.mark.parametrize("old, new, line_no", [
        ("at 6 connect u s", "at 6 connect u s service=", 12),
        ("service=echo", "service=", 7),
        ("expect handshake u s success", "expect session u s alive at -3", 13),
        ("segment 1\n", "segment 1\nsegment -1\n", 4),
        ("segment 1\n", "segment 1\nsegment 18446744073709551616\n", 4),
        ("segment 1\n", "segment 1\nsegment 2\nlink 1 2 18446744073709551616\n", 5),
        ("register s open-access", "register s open-access junk", 9),
        ("node ap router 1", "node ap router 1 x=1", 4),
        ("at 6 connect u s", "at 1000001 connect u s", 12),
        ("at 6 connect u s", "at 6 connect u s\nat 7 fault delay-link u s -3", 13),
    ], ids=["connect-service=", "node-service=", "probe-at-minus-3", "segment-minus-1",
            "segment-2**64", "link-cost-2**64", "word-after-open-access", "router-property",
            "time-past-the-event-cap", "negative-delay"])
    def test_refuses_at_its_line_what_run_would_fail_on(self, old, new, line_no):
        # Each was accepted, then raised in run, had its topology refused by
        # the ledger, was silently ignored (the extra words), could not
        # finish under the simulator's event cap, or sped a link up.
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL.replace(old, new))
        assert err.value.line_no == line_no

    def test_attributes_need_a_regulator(self):
        # the user's registration sends its attributes to the regulator
        with pytest.raises(ValidationError, match="regulator"):
            parse_scenario(MINIMAL.replace("node u user 1", "node u user 1 age=25"))

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_round_trip(self, path):
        sc = parse_scenario(path.read_text())
        assert parse_scenario(format_scenario(sc)) == sc


class TestRun:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_fixtures_exit_zero(self, path):
        sc = parse_scenario(path.read_text())
        result = run_scenario(sc)
        assert result.exit_code == 0, result.checks

    # The kinds and match keys that the runner's expectations, and tests,
    # look up with find.
    FINDS = (("access", ("session",)), ("probe", ("node", "label")),
             ("admit", ("client",)), ("send", ("msg",)))

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_trace_lines_records_and_find_agree(self, path):
        trace = run_scenario(parse_scenario(path.read_text())).trace
        records = list(trace.records)
        lines = trace.to_jsonl().splitlines(keepends=True)
        assert len(lines) == len(records) == len(trace.records)
        for record, line in zip(records, lines):
            assert json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" == line

        def scan(kind, **match):
            return [r for r in records
                    if r["kind"] == kind and all(r.get(k) == v for k, v in match.items())]

        for kind in {r["kind"] for r in records} | {"send"}:
            assert trace.find(kind) == scan(kind)
        for kind, keys in self.FINDS:
            for values in {tuple(r.get(k) for k in keys) for r in scan(kind)}:
                match = dict(zip(keys, values))
                assert trace.find(kind, **match) == scan(kind, **match)

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_every_workload_line_is_canonical_strict_json(self, workload, monkeypatch):
        # The census's runs (size 20, seed 31), with no verify-ahead helper.
        monkeypatch.setattr(ahead, "_cpus", lambda: 1)
        trace = run_scenario(parse_scenario(workloads.generate(workload, 31, 20))).trace

        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        *lines, last = "".join(trace.chunks()).split("\n")
        assert last == "" and len(lines) == len(trace.records) > 0
        for line in lines:
            record = json.loads(line, parse_constant=refuse)
            assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line

    def test_verdicts_read_each_kind_of_record_once(self, monkeypatch):
        passes = []
        iterate = simnet.TraceRecords.__iter__
        monkeypatch.setattr(simnet.TraceRecords, "__iter__",
                            lambda records: passes.append(1) or iterate(records))
        result = run_scenario(parse_scenario(
            READ_BOUND + "".join(f"expect {text}\n" for text, _, _ in READ_BOUND_CHECKS)))
        assert result.checks == [(f"expect {text}", passed, saw)
                                 for text, passed, saw in READ_BOUND_CHECKS]
        # At most one pass each for the admit, access and probe records,
        # not one per expectation.
        assert len(passes) <= 3
        passes.clear()
        for name in workloads.WORKLOADS:
            assert run_scenario(parse_scenario(workloads.generate(name, 31, 20))).exit_code == 0
        assert passes == []

    def test_failed_expectation_nonzero_exit(self):
        # alive probe scheduled long after the server crashed
        text = MINIMAL + "at 10 fault crash-node s\nexpect session u s alive at 50\n"
        result = run_scenario(parse_scenario(text))
        assert result.exit_code == 1
        failed = [t for t, ok, _ in result.checks if not ok]
        assert failed == ["expect session u s alive at 50"]

    def test_same_seed_identical_outputs(self, tmp_path):
        sc = parse_scenario(MINIMAL)
        files = []
        for run in range(2):
            result = run_scenario(sc)
            trace = tmp_path / f"t{run}.jsonl"
            metrics = tmp_path / f"m{run}.json"
            write_outputs(result, str(trace), str(metrics))
            files.append((trace.read_bytes(), metrics.read_bytes()))
        assert files[0] == files[1]

    def test_outputs_are_the_trace_and_metrics_bytes(self, tmp_path):
        result = run_scenario(parse_scenario(MINIMAL))
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
        write_outputs(result, str(trace), str(metrics))
        assert trace.read_bytes() == result.trace.to_jsonl().encode("utf-8")
        assert metrics.read_bytes() == result.metrics_json().encode("utf-8")

    def test_writing_a_trace_does_not_hold_it_whole(self, tmp_path):
        trace = Trace()
        for i in range(50_000):
            trace.emit_send(i // 20, f"user-{i % 97}", f"router-{i % 13}", "Envelope")
        size = len(trace.to_jsonl())
        result = RunResult(trace, run_scenario(parse_scenario(MINIMAL)).metrics, [], 0)
        tracemalloc.start()
        try:
            write_outputs(result, str(tmp_path / "t.jsonl"), str(tmp_path / "m.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 4
        assert (tmp_path / "t.jsonl").stat().st_size == size

    def test_write_atomic_writes_utf8_whatever_the_locale(self, tmp_path):
        # In the C locale, with UTF-8 mode and locale coercion off, the
        # locale's encoding is ASCII, and a \n in text would be written as
        # os.linesep by a text file that translates newlines.
        path = tmp_path / "out.txt"
        code = ("import sys; from overnym.runner import write_atomic; "
                "write_atomic(sys.argv[1], ['caf\\u00e9\\n', 'a\\r\\nb\\n'])")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(overnym.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True, timeout=60)
        assert path.read_bytes() == b"caf\xc3\xa9\na\r\nb\n"
        write_atomic(str(path), iter(["x\n"] * 3))
        assert path.read_bytes() == b"x\nx\nx\n"

    def test_distinct_seeds_distinct_traces(self):
        sc = parse_scenario(MINIMAL)
        assert (run_scenario(sc, seed=1).trace.digest()
                != run_scenario(sc, seed=2).trace.digest())

    def test_strict_override_flips_admission(self):
        # no register action: permissive admits, strict refuses
        text = """
seed 5
{option}segment 1
node ap router 1
node seq sequencer 1
node u user 1
node s app-server 1 service=echo
at 1 register s open-access
at 3 bind s
at 6 connect u s
"""
        permissive = run_scenario(parse_scenario(text.format(option="")))
        assert permissive.metrics.handshakes_succeeded == 1
        strict = run_scenario(parse_scenario(
            text.format(option="option strict-registration on\n")))
        assert strict.metrics.handshakes_succeeded == 0
        assert strict.metrics.admissions_rejected.get("unregistered") == 1

    def test_summary_is_last_trace_record(self):
        result = run_scenario(parse_scenario(MINIMAL))
        last = result.trace.records[-1]
        assert last["kind"] == "summary"
        assert last["metrics"]["handshakes_succeeded"] == 1

    def test_trace_carries_chain_and_graph_dumps(self):
        result = run_scenario(parse_scenario(MINIMAL))
        entries = result.trace.find("ledger-entry")
        # one record per chain entry, in chain order
        [summary] = result.trace.find("summary")
        assert [e["seq"] for e in entries] == list(range(summary["ledger_head"] + 1))
        assert entries[0]["prev_hash"] == "00" * 32
        graph = result.trace.find("graph")
        assert len(graph) == 1
        assert graph[0]["segments"] == {"1": ["ap"]}

    def test_no_committed_entry_is_an_association(self):
        # Routers keep bindings in their NEAT tables only: neither the
        # first binds nor alice's rebind after her rotation at t=26 put a
        # bound key with where it attaches on the ledger. An entry carries
        # a bound key only as a registration's subject or a token's owner,
        # and no entry names a bound device.
        sc = parse_scenario((SCENARIOS_DIR / "end_to_end.scn").read_text())
        built = build_simulation(sc)
        _schedule_actions(built, sc)
        built.sim.run_until_idle()
        trace = built.sim.trace
        assert trace.find("rotation-sent", node="alice")
        binds = trace.find("neat-bind")
        assert [r for r in binds if r["device"] == "alice" and r["time"] >= 26]
        chain = [(entry.payload, encode_payload(entry.payload))
                 for entry in built.world.ledger.entries]
        for record in binds:
            key, device = bytes.fromhex(record["key"]), pack_str(record["device"])
            for payload, encoded in chain:
                if key in encoded:
                    named = payload.subject if isinstance(payload, RegistrationTx) else (
                        payload.owner if isinstance(payload, NftOwnership) else b"")
                    assert named.startswith(key), payload
            assert not [payload for payload, encoded in chain if device in encoded]

    def test_an_authorize_probe_with_no_session_is_traced_as_no_session(self):
        text = MINIMAL.replace("at 6 connect u s\n", "at 6 authorize u s\n")
        result = run_scenario(parse_scenario(text))
        [record] = result.trace.find("access")
        assert {k: record[k] for k in ("node", "peer", "allowed", "reason", "probe")} == {
            "node": "s", "peer": "u", "allowed": False, "reason": "no-session", "probe": True}

    def test_binding_leaves_the_ledger_unchanged(self):
        # Where a chain address attaches is not written to the shared
        # ledger, so a run with u's bind ends on the same chain as one
        # without it.
        def chain(text):
            summary = run_scenario(parse_scenario(text)).trace.find("summary")[0]
            return summary["ledger_head"], summary["state_hash"]

        assert "at 3 bind u\n" in MINIMAL
        assert chain(MINIMAL) == chain(MINIMAL.replace("at 3 bind u\n", ""))

    def test_finished_run_frees_its_simulator_without_the_cycle_collector(self):
        sc = parse_scenario((SCENARIOS_DIR / "end_to_end.scn").read_text())
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(sc)
            left = [obj for obj in gc.get_objects() if isinstance(obj, Simulator)]
        finally:
            gc.enable()
        assert result.exit_code == 0
        assert left == []

    def test_filter_snapshots_disseminated(self):
        # two routers: binds on one segment push byte-exact snapshots to
        # the other segment's access point
        text = """
seed 2
segment 1
segment 2
link 1 2 1
node ap1 router 1
node ap2 router 2
node seq sequencer 1
node u user 1
node s app-server 2 service=echo
at 1 register u
at 1 register s open-access
at 3 bind u
at 3 bind s
at 6 connect u s
expect handshake u s success
"""
        sc = parse_scenario(text)
        from overnym.runner import build_simulation, _schedule_actions
        built = build_simulation(sc)
        _schedule_actions(built, sc)
        built.sim.run_until_idle()
        ap1, ap2 = built.routers["ap1"], built.routers["ap2"]
        assert ap2.remote_filters[1] == built.world.tables[1].snapshot()
        assert ap1.remote_filters[2] == built.world.tables[2].snapshot()

    def test_faults_never_rewrite_committed_prefix(self):
        crashed = (SCENARIOS_DIR / "crash_server.scn").read_text()
        calm = "\n".join(line for line in crashed.splitlines()
                         if "fault" not in line and "not-alive" not in line)

        def commit_heads(text, cutoff):
            result = run_scenario(parse_scenario(text))
            return [(r["time"], r["head"]) for r in result.trace.find("commit")
                    if r["time"] < cutoff]

        assert commit_heads(crashed, 26) == commit_heads(calm, 26)

    def test_links_beyond_one_update_all_reach_the_graph(self):
        # 201 segments in a line: more links than one ledger payload carries.
        # Pair (1, 2) is declared again last, so in another update, at cost 3;
        # pair (2, 3) is declared twice in the first update and ends at cost 1.
        links = [(2, 3, 9)] + [(i, i + 1, 1) for i in range(1, 201)] + [(2, 1, 3)]
        text = "\n".join(
            ["seed 4"] + [f"segment {i}" for i in range(1, 202)]
            + [f"link {a} {b} {cost}" for a, b, cost in links]
            + ["node ap1 router 1", "node ap2 router 2", "node ap3 router 3",
               "node seq sequencer 1", "node u user 1", "node s app-server 3 service=echo",
               "at 1 register u", "at 1 register s open-access",
               "at 3 bind u", "at 3 bind s", "at 6 connect u s",
               "expect handshake u s success"])
        result = run_scenario(parse_scenario(text))
        assert result.exit_code == 0
        assert result.trace.find("tx-refused") == []
        kinds = [r["payload_kind"] for r in result.trace.find("ledger-entry")]
        assert kinds.count("TopologyUpdate") == 2
        [graph] = result.trace.find("graph")
        expected = {(i, i + 1): 1 for i in range(1, 201)} | {(1, 2): 3}
        assert {(a, b): cost for a, b, cost in graph["links"]} == expected

    def test_links_that_fit_one_update_submit_one(self):
        line = [(i, i + 1, 1) for i in range(1, 180)]
        # three u64s per link; tag, count and origin take the other 12 bytes
        assert len(_topology_updates(line[:170], "ap1")) == 1
        updates = _topology_updates(line[:171], "ap1")
        assert [len(u.links) for u in updates] == [170, 1]
        assert all(len(encode_payload(u)) <= MAX_PAYLOAD_BYTES for u in updates)
        # A pair is in one update only, so the commit order of the updates
        # cannot change its final cost.
        updates = _topology_updates([(1, 2, 5)] + line + [(2, 1, 7)], "ap1")
        for order in (updates, updates[::-1]):
            graph = OverlayGraph()
            for seg in range(1, 181):
                graph.add_segment(seg)
            graph.apply_topology(enumerate(order))
            assert graph.links()[0] == (1, 2, 7)


class TestCli:
    def test_check_ok(self, tmp_path, capsys):
        scenario = tmp_path / "ok.scn"
        scenario.write_text(MINIMAL)
        assert main(["check", str(scenario)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_check_reports_line(self, tmp_path, capsys):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("seed 1\nwobble\n")
        assert main(["check", str(scenario)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "go.scn"
        scenario.write_text(MINIMAL)
        trace = tmp_path / "out.trace.jsonl"
        metrics = tmp_path / "out.metrics.json"
        code = main(["run", str(scenario), "--trace", str(trace),
                     "--metrics", str(metrics)])
        assert code == 0
        assert trace.exists() and metrics.exists()
        payload = json.loads(metrics.read_text())
        assert payload["handshakes_succeeded"] == 1

    def test_run_seed_flag(self, tmp_path, capsys):
        scenario = tmp_path / "seeded.scn"
        scenario.write_text(MINIMAL)
        sc = parse_scenario(MINIMAL)
        trace = tmp_path / "seeded.trace.jsonl"
        assert main(["run", str(scenario), "--seed", "123", "--trace", str(trace),
                     "--metrics", str(tmp_path / "m.json")]) == 0
        assert sc.seed != 123
        assert trace.read_text() == run_scenario(sc, seed=123).trace.to_jsonl()
        assert trace.read_text() != run_scenario(sc).trace.to_jsonl()

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_run_unwritable_output(self, tmp_path, capsys, flag):
        scenario = tmp_path / "go.scn"
        scenario.write_text(MINIMAL)
        outputs = {"--trace": str(tmp_path / "t.jsonl"), "--metrics": str(tmp_path / "m.json")}
        outputs[flag] = str(tmp_path / "missing" / "out")
        args = [word for pair in outputs.items() for word in pair]
        assert main(["run", str(scenario), *args]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {outputs[flag]}: No such file or directory\n"
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")] == []

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.scn"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_a_file_that_is_not_utf8_is_refused(self, tmp_path, capsys, command):
        scenario = tmp_path / "latin1.scn"
        scenario.write_bytes(MINIMAL.replace("node ap ", "node apé ").encode("latin-1"))
        assert main([command, str(scenario)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {scenario}: ") and err.count("\n") == 1

    def test_a_utf8_scenario_reads_the_same_whatever_the_locale(self, tmp_path, capsys):
        # In the C locale, with UTF-8 mode and locale coercion off, the
        # locale's encoding is ASCII; the scenario is read as UTF-8 still.
        scenario = tmp_path / "utf8.scn"
        scenario.write_bytes(MINIMAL.replace("node ap ", "node apé ").encode("utf-8"))
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
        args = [str(scenario), "--trace", str(trace), "--metrics", str(metrics)]
        code = ("import sys; from overnym.cli import main; "
                "sys.exit(main(['check', sys.argv[1]]) or main(['run', *sys.argv[1:]]))")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(overnym.__file__).parents[1])}
        c_locale = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                                text=True, timeout=60)
        assert (c_locale.returncode, c_locale.stderr) == (0, "")
        outputs = trace.read_bytes(), metrics.read_bytes()
        assert b'"ap\\u00e9"' in outputs[0]
        assert main(["check", str(scenario)]) == 0 and main(["run", *args]) == 0
        assert capsys.readouterr().out == c_locale.stdout
        assert (trace.read_bytes(), metrics.read_bytes()) == outputs

    def test_fpr_subcommand(self, capsys):
        assert main(["fpr", "--m", "9586", "--k", "7", "--n", "1000",
                     "--trials", "4000"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out and "simulated" in out

    def test_strict_registration_flag(self, tmp_path, capsys):
        text = MINIMAL.replace("at 1 register u\n", "")
        scenario = tmp_path / "strict.scn"
        scenario.write_text("option strict-registration on\n"
                            + text.replace("expect handshake u s success",
                                           "expect handshake u s failure"))
        assert main(["run", str(scenario),
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.json")]) == 0
