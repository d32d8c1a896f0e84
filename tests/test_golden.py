"""Byte-level pins on the outputs of every scenario fixture.

Each pin is the sha256 of the trace JSONL and of metrics.json that
`overnym run` writes for the fixture at its own seed. A change that
moves any byte of either file must update the pin and say in CHANGES.md
why the bytes moved; a pure speed-up must not move them.
"""

import hashlib
from pathlib import Path

import pytest

from overnym.runner import run_scenario, write_outputs
from overnym.scenario import parse_scenario

ROOT = Path(__file__).parent.parent

# fixture -> (trace sha256, metrics.json sha256)
PINS = {
    "crash_server": ("84048da090197301dcf41f1cd37dfe91c6fc7e45f0dd38bed3f9b0b5ee2caefb",
                     "95af0d311f04446ffb084d7287c851f68dd98f5ee51ef584cfbbf3e54696f76a"),
    "end_to_end": ("509fd00f467a6eec9ffdede9004e1c1c3ea16e95622d80fe85c1412f3d202fa8",
                   "6a90f9df5012c211aef74e069166ad50070505244ee76dc9ec391c35c70c92d0"),
    "link_faults": ("81b75394365562443e8fb51e035ea91274ee96555b5360eecd22458d340ee74d",
                    "ae9c25754647142b7de8d123ce50d5fa5d85f5bb680110fb7b75ae6363a4fa04"),
    "sequencer_crash": ("7054db6f22227355786832ac7284309695dc8ed0e953e568d4c1e28f54d4965b",
                        "7111d79f58443bbc4042502c2f5852ebd44250ab3bd206c069e783ce9de1729c"),
    "strict_reject": ("60eaec9c15c538fd50f0652f1d6fbdcbf57c11723d5753f3cf7b287f960de488",
                      "1890c93feddaa00f7bcbacc8e0f4fceb6b8f41f9d0648e659d4d5f64e79d8daa"),
}
FIXTURES = sorted((ROOT / "scenarios").glob("*.scn"))


def test_every_fixture_is_pinned():
    assert sorted(path.stem for path in FIXTURES) == sorted(PINS)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_outputs_match_pin(path, tmp_path):
    trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.json"
    write_outputs(run_scenario(parse_scenario(path.read_text())), str(trace), str(metrics))
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (trace, metrics))
    assert digests == PINS[path.stem]

