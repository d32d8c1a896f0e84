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
    "crash_server": ("aa5b0cb7fb8320d710c7be64faad04d42588a5d652fc8af5d6c77dd3239a1fcc",
                     "95af0d311f04446ffb084d7287c851f68dd98f5ee51ef584cfbbf3e54696f76a"),
    "end_to_end": ("408893b476d31f99987274107beadeceaa936af3150f84aa173c29a13e087c08",
                   "6a90f9df5012c211aef74e069166ad50070505244ee76dc9ec391c35c70c92d0"),
    "link_faults": ("1fba474623cfba32293705f0a819a6f5640f7b60080f5f277915ba3fe43d20b2",
                    "ae9c25754647142b7de8d123ce50d5fa5d85f5bb680110fb7b75ae6363a4fa04"),
    "sequencer_crash": ("9f1aaa1272e6387d63007a242e60081ea94ecbadd5b95d15e6d67b465d03bda3",
                        "7111d79f58443bbc4042502c2f5852ebd44250ab3bd206c069e783ce9de1729c"),
    "rotate_then_connect": ("042a7f583d4899fc336382939c779394a91545a2c185241e2ecf6bdf2cf91c04",
                            "665efc535ab12284359b86df344ca855e97a0aad17c233ac61220a375cdc5357"),
    "refusals": ("67e52778275936f43fe3740ca20750edd5d42c15c9fac898c06f56a66719b89e",
                 "593fcb7703472ecaaedd45f78da2aaf4ac261a7aef643ad5ea98294b93b95467"),
    "strict_reject": ("4d9927523a79ebe4ac106d3db8ded33a449891233c277c7a0ce5aa9cafe178a1",
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

