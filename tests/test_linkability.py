"""What each observer can link of one user's epochs (Pfitzmann & Hansen,
"A terminology for talking about privacy by data minimization", 2010).

Observer: the chain reader, who sees every ledger entry. A link is an
`NftOwnership` entry that moves a token from one chain address to another
derived from the same user's secret: whoever reads the chain then knows
that the two epochs are one user, as address clustering does on Bitcoin
(Meiklejohn et al., IMC 2013). A rotation leaves a token where it is, so
no run writes one. The router, app-server and regulator counts are still
open (ROADMAP item 12).
"""

import importlib.util
from pathlib import Path

import pytest

from overnym import runner
from overnym.identity import derive_bcadd
from overnym.ledger import Ledger, NftOwnership
from overnym.scenario import parse_scenario

from conftest import make_secret

ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def chain_reader_links(ledger: Ledger, secrets: dict) -> int:
    """NftOwnership entries of ledger that move a token between two
    addresses of one secret, for each (secret, highest epoch) in secrets'
    values."""
    whose = {derive_bcadd(secret, epoch).address: name
             for name, (secret, last) in secrets.items() for epoch in range(last + 1)}
    held, links = {}, 0
    for entry in ledger.entries:
        payload = entry.payload
        if isinstance(payload, NftOwnership):
            previous, owner = held.get(payload.token_id), payload.owner
            held[payload.token_id] = owner
            user = whose.get(previous)
            links += previous != owner and user is not None and user == whose.get(owner)
    return links


def run_links(text: str, monkeypatch) -> int:
    """Run the scenario; count the chain-reader links in its ledger."""
    built = []
    build = runner.build_simulation
    monkeypatch.setattr(runner, "build_simulation",
                        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[0])
    assert runner.run_scenario(parse_scenario(text)).exit_code == 0
    (run,) = built
    return chain_reader_links(run.world.ledger, {name: (user.secret, user.bcadd.epoch)
                                                 for name, user in run.users.items()})


@pytest.mark.parametrize("text", [
    pytest.param(workloads.generate("rotation_churn", 31, 20), id="rotation_churn"),
    pytest.param((ROOT / "scenarios" / "end_to_end.scn").read_text(encoding="utf-8"),
                 id="end_to_end"),
])
def test_the_chain_links_no_two_epochs_of_one_user(text, monkeypatch):
    assert run_links(text, monkeypatch) == 0


def test_a_token_moved_between_two_epochs_is_a_link():
    alice, bob = make_secret(1), make_secret(2)
    a0, a1, b0 = derive_bcadd(alice, 0), derive_bcadd(alice, 1), derive_bcadd(bob, 0)
    ledger = Ledger()
    token = bytes(32)
    for at, owner in enumerate((a0, a1, b0, b0)):  # mint, carry over, transfer, again
        ledger.submit(NftOwnership(token, owner.address), submitter="t", at_time=at,
                      nonce=bytes([at]) * 16)
        ledger.commit_round()
    assert chain_reader_links(ledger, {"alice": (alice, 1), "bob": (bob, 0)}) == 1
    assert chain_reader_links(ledger, {"alice": (alice, 0), "bob": (bob, 0)}) == 0
