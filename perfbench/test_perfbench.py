"""Checks on the benchmark itself: the generators are deterministic and
canonical, every workload passes its own expectations, tracing leaves the
trace unchanged, the host clock leaves no alarm behind, and BENCHMARK.json
names what the benchmark reports.

Sizes here are small so the checks run in seconds; the benchmark runs
the same generators at the sizes in workloads.WORKLOADS.
"""

import json
import os
import signal
import time

import pytest

import hostclock
import run
import tracer
import worker
import workloads
from overnym import identity, session
from overnym.runner import run_scenario
from overnym.scenario import format_scenario, parse_scenario

SMALL = {"handshake_storm": 40, "wide_overlay": 24, "session_stream": 6, "rotation_churn": 8}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_canonical(name):
    text = workloads.generate(name, 7, SMALL[name])
    assert text == workloads.generate(name, 7, SMALL[name])
    assert text != workloads.generate(name, 8, SMALL[name])
    assert format_scenario(parse_scenario(text)) == text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_workload_meets_its_expectations(name, seed):
    result = run_scenario(parse_scenario(workloads.generate(name, seed, SMALL[name])))
    assert [c for c in result.checks if not c[1]] == []
    assert result.checks, "every workload states expectations"
    assert result.trace.find("tx-refused") == []
    m = result.metrics
    assert m.handshakes_succeeded == m.handshakes_attempted == SMALL[name]
    assert m.payloads_accepted == m.payloads_sent > 0


def test_tracing_keeps_the_trace_and_restores_bindings(tmp_path):
    text = workloads.generate("rotation_churn", 3, SMALL["rotation_churn"])
    plain, primary, path = worker.whole_run(text, str(tmp_path))
    with tracer.tracing() as spans:
        traced = worker.whole_run(text, str(tmp_path))[0]
    assert traced.trace.digest() == plain.trace.digest()
    assert spans.summarize()["identity.verify_linkage"]["calls"] > 0
    assert session.verify_linkage is identity.verify_linkage
    assert not hasattr(identity.verify_linkage, "__wrapped__")


def test_host_clock_times_sections_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    for _ in range(2):
        started = time.perf_counter()
        with clock.section():
            while time.perf_counter() - started < 0.05:
                pass
    assert 0.09 < clock.raw_s <= 0.11
    assert clock.seconds > 0
    assert clock.samples >= 4
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_names_what_the_benchmark_reports(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END

    text = workloads.generate("session_stream", 1, SMALL["session_stream"])
    report = worker.traced(text, str(tmp_path), str(tmp_path / "spans"))
    reported = {name: unit for name, (_, unit) in report["layers"].items()}
    reported.update(run.ADDED_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
