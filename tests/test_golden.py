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
    "crash_server": ("e1a21f2fce39c0290dab945ab0f0e5ad29dec5188977c309007e2c4443795e1c",
                     "95af0d311f04446ffb084d7287c851f68dd98f5ee51ef584cfbbf3e54696f76a"),
    "end_to_end": ("fb7708cdd811f91f7ff17e6e73b4bef368a76a856f47249b393c0d67cc107d4e",
                   "6a90f9df5012c211aef74e069166ad50070505244ee76dc9ec391c35c70c92d0"),
    "link_faults": ("5ae7a3a82d1071516de94ecabc3efd61e3dc48ff8a00cbdf6eb1b8bd28055da7",
                    "ae9c25754647142b7de8d123ce50d5fa5d85f5bb680110fb7b75ae6363a4fa04"),
    "sequencer_crash": ("15b6c98769ab6e02ade12bdac40dac8be33a34a2358bacdf39336fc07e882957",
                        "7111d79f58443bbc4042502c2f5852ebd44250ab3bd206c069e783ce9de1729c"),
    "refusals": ("a761965160acb3be7640da6140ad5e4f4f8c13e0cc9e768fa57090a52b3087c4",
                 "593fcb7703472ecaaedd45f78da2aaf4ac261a7aef643ad5ea98294b93b95467"),
    "strict_reject": ("ea46b7f95479af9ceeef634303b1f256f3a9ce45d04e48924aa58a7be4c1a0d0",
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

