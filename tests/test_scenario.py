import json
from pathlib import Path

import pytest

from overnym.cli import main
from overnym.ledger import MAX_PAYLOAD_BYTES, encode_payload
from overnym.overlay import OverlayGraph
from overnym.runner import _topology_updates, run_scenario, write_outputs
from overnym.scenario import (
    ParseError,
    ValidationError,
    format_scenario,
    parse_scenario,
)

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
        assert entries and entries[0]["seq"] == 0
        assert entries[0]["prev_hash"] == "00" * 32
        graph = result.trace.find("graph")
        assert len(graph) == 1
        assert graph[0]["segments"] == {"1": ["ap"]}

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
        from overnym.runner import build_simulation, _ActionDriver, _schedule_actions
        built = build_simulation(sc)
        _ActionDriver(built)
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

    def test_run_env_overrides(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "env.scn"
        scenario.write_text(MINIMAL)
        trace = tmp_path / "env.trace.jsonl"
        metrics = tmp_path / "env.metrics.json"
        monkeypatch.setenv("OVERNYM_TRACE", str(trace))
        monkeypatch.setenv("OVERNYM_METRICS", str(metrics))
        monkeypatch.setenv("OVERNYM_SEED", "123")
        assert main(["run", str(scenario)]) == 0
        assert trace.exists() and metrics.exists()

    def test_run_env_seed_not_an_integer(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "env.scn"
        scenario.write_text(MINIMAL)
        trace = tmp_path / "env.trace.jsonl"
        monkeypatch.setenv("OVERNYM_TRACE", str(trace))
        monkeypatch.setenv("OVERNYM_METRICS", str(tmp_path / "env.metrics.json"))
        monkeypatch.setenv("OVERNYM_SEED", "twelve")
        assert main(["run", str(scenario)]) == 2
        assert capsys.readouterr().err == "error: OVERNYM_SEED must be an integer\n"
        assert not trace.exists()

    def test_run_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        scenario = tmp_path / "pref.scn"
        scenario.write_text(MINIMAL)
        env_trace = tmp_path / "env.jsonl"
        flag_trace = tmp_path / "flag.jsonl"
        monkeypatch.setenv("OVERNYM_TRACE", str(env_trace))
        main(["run", str(scenario), "--trace", str(flag_trace),
              "--metrics", str(tmp_path / "m.json")])
        assert flag_trace.exists() and not env_trace.exists()

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.scn"]) == 2
        assert "cannot read" in capsys.readouterr().err

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
