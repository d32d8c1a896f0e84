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
    "crash_server": ("7ee1b18bc98cf3d0865e726496f4c9c2b9048b7b0209c220d5e3b69ec4db08c3",
                     "95af0d311f04446ffb084d7287c851f68dd98f5ee51ef584cfbbf3e54696f76a"),
    "end_to_end": ("0953d0166e9a5e1da1536b4a500f39485d180d10a84039e5d96b5a9c4d088f6d",
                   "6a90f9df5012c211aef74e069166ad50070505244ee76dc9ec391c35c70c92d0"),
    "link_faults": ("df2be6585c907c2d9286e95ce1b672ca5ca39994a5502404a1b1b369520ed71d",
                    "ae9c25754647142b7de8d123ce50d5fa5d85f5bb680110fb7b75ae6363a4fa04"),
    "sequencer_crash": ("0fb40b0def8558e1a02e6d4e4ad1b5615fd7caf6ef801e5ea3c301477a2f350b",
                        "7111d79f58443bbc4042502c2f5852ebd44250ab3bd206c069e783ce9de1729c"),
    "refusals": ("30679a64e5ff2348f49c7493543de4d0675d47775167348829356556c37cee09",
                 "593fcb7703472ecaaedd45f78da2aaf4ac261a7aef643ad5ea98294b93b95467"),
    "strict_reject": ("f1289e1b798f26a9ef1a317cc860ff2cf1557fe839ec3ccabd38d147df0a3601",
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

