"""Verdicts do not hang on the order of events within a tick.

The simulator promises only this much about a tick's order (see the simnet
module docstring): a link is FIFO per (sender, receiver), ordinary events
keep their schedule order against control events, and node timers run
after the tick's ordinary events. ShuffledSimulator keeps exactly those
promises and nothing more: it puts each new node event at a seeded random
place in its tick's FIFO, after every event there from the same sender to
the same target and after every control event. A timer's sender is its
target, so one node's timers keep their order.

Every expectation of each fixture, and of each benchmark workload at size
20, seed 31, must hold in every one of ten such orders.
"""

import importlib.util
from bisect import bisect_right
from functools import partial
from math import inf
from pathlib import Path
from random import Random

import pytest

from overnym import runner
from overnym.scenario import parse_scenario
from overnym.simnet import _CONTROL, Delivery, Node, Simulator, Timer

ROOT = Path(__file__).parent.parent
ORDERS = range(10)

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

RUNS = {path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "scenarios").glob("*.scn"))}
RUNS.update({name: workloads.generate(name, 31, 20) for name in workloads.WORKLOADS})


def _link(target, payload):
    """(sender, target) of a node event; a timer is its target's own."""
    return (payload.src if isinstance(payload, Delivery) else target), target


class ShuffledSimulator(Simulator):
    """A Simulator whose order within a tick is drawn from Random(order).

    Each new node event goes to a uniformly drawn place in its FIFO after
    the last event it must follow. To find that place fast, each FIFO has a
    sorted list of keys, one per event it has held, in FIFO order; the loop
    pops a FIFO only at its front, so the keys of the events that have run
    are the list's first ones. A new event's key lies between its new
    neighbours' keys, and a link's floor, or that of the FIFO's control
    events, is the key of its last event."""

    def __init__(self, seed, *, order, **kwargs):
        super().__init__(seed, **kwargs)
        self._order = Random(order)
        self._keys = {}  # (time, phase) -> the FIFO's keys
        self._floors = {}  # (time, phase) or (time, phase, link) -> a key

    def schedule(self, time, target, payload):
        super().schedule(time, target, payload)
        phase = isinstance(payload, Timer)
        fifo, floors = self._buckets[time][phase], self._floors
        keys = self._keys.setdefault((time, phase), [])
        event = fifo.pop()
        run = len(keys) - len(fifo)
        place, last = len(keys), (time, phase)
        if target != _CONTROL:
            last = (time, phase, _link(target, payload))
            floor = max(floors.get((time, phase), -inf), floors.get(last, -inf))
            place = self._order.randint(bisect_right(keys, floor, run), place)
        if place == len(keys):
            key = keys[-1] + 1 if keys else 0.0
        elif place == 0:
            key = keys[0] - 1
        else:
            key = (keys[place - 1] + keys[place]) / 2
            assert keys[place - 1] < key < keys[place], "no float key left between two"
        keys.insert(place, key)
        floors[last] = key
        fifo.insert(place - run, event)


@pytest.mark.parametrize("name", RUNS)
def test_every_expectation_holds_in_any_same_tick_order(name, monkeypatch):
    failed = {}
    for order in ORDERS:
        monkeypatch.setattr(runner, "Simulator", partial(ShuffledSimulator, order=order))
        result = runner.run_scenario(parse_scenario(RUNS[name]))
        failed[order] = [text for text, passed, _ in result.checks if not passed]
    assert {order: texts for order, texts in failed.items() if texts} == {}


class Recorder(Node):
    def __init__(self, name):
        super().__init__(name)
        self.log = []

    def handle(self, payload, now):
        self.log.append(payload)


def test_the_shuffle_keeps_each_link_fifo_and_control_events_first():
    sim = ShuffledSimulator(1, order=3)
    for name in "abcd":
        sim.add_node(Recorder(name))
    sim.call_at(1, lambda: sim.nodes["d"].log.append("control"))
    for i in range(30):
        src = "abc"[i % 3]
        sim.send(src, "d", i)
        sim.schedule(1, "d", Timer(i))
        sim.schedule(1, src, Timer(i))
    sim.run_until_idle()
    log = sim.nodes["d"].log
    delivered = [(p.src, p.message) for p in log if isinstance(p, Delivery)]
    # The control event first, then the deliveries, shuffled across links
    # but in order on each, then d's timers in the order scheduled.
    assert log[0] == "control" and log[31:] == [Timer(i) for i in range(30)]
    assert [m for _, m in delivered] != list(range(30))
    for src in "abc":
        assert [m for s, m in delivered if s == src] == list(range("abc".index(src), 30, 3))
        assert sim.nodes[src].log == [Timer(i) for i in range("abc".index(src), 30, 3)]
