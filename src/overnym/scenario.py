"""Line-oriented scenario files: topology, nodes, scripted actions,
expectations.

One statement per line; `#` starts a comment. Declarations (seed,
option, segment, link, node) come before use; actions are `at <t> ...`
with non-decreasing times; `expect ...` lines state what the run must
show for exit status 0.

    seed 7
    option strict-registration on
    segment 1
    segment 2
    link 1 2 1
    node ap1 router 1
    node ap2 router 2
    node seq sequencer 1
    node reg regulator 1
    node alice user 1 age=25
    node shop app-server 2 service=storefront
    at 1 register alice
    at 1 register shop tokens gold-pass
    at 3 bind alice
    at 3 bind shop
    at 4 mint-nft gold-pass alice
    at 6 connect alice shop
    at 9 send alice shop 3
    at 12 rotate alice
    at 14 send alice shop 2
    expect handshake alice shop success
    expect payloads alice shop 5 complete
    expect session alice shop alive at 16

Statements. `<int>` is an integer; `<id>` is a segment id in 0..2**64-1,
a u64 on the ledger; a time `<t>` is an int in 0..STEP_CAP (1,000,000),
the simulator's event cap, since a longer run cannot stay under it:

    seed <int>
    horizon <t>                        default: last scripted time + 15
    option strict-registration on|off
    segment <id>
    link <id> <id> <cost>              declared and distinct; cost in 1..2**64-1
    node <name> <kind> <id> [<k>=<v> ...]
    at <t> <action> ...                non-decreasing
    expect <expectation> ...

A node's kind is user, router, app-server, regulator or sequencer. A
user's distinct k=v words are its attributes, a value an int where it
reads as one, and need a regulator. An app-server takes at most
`service=<id>`, its non-empty service id, by default its name. Other
kinds take none. A user or app-server needs a router on its segment;
there is one sequencer and at most one regulator.

Actions. `<user>`, `<server>` (app-server), `<holder>` (user or
app-server) and `<node>` (any) name declared nodes. The bracketed actor
is the node the action acts as; once it has crashed the action is
skipped. A fault has no actor.

    register <user>                          [user]
    register <server> open-access            [server]
    register <server> tokens <token>...      [server]
    bind <holder>                            [holder]
    mint-nft <token> <holder>                [holder]
    transfer-nft <token> <holder>            [holder] token listed or minted before
    connect <user> <server> [service=<id>]   [user] default: the server's service id
    rotate <user>                            [user]
    send <user> <server> <count>             [user] count in 1..STEP_CAP
    authorize <user> <server>                [server]
    fault crash-node <node>
    fault drop-link <node> <node> [<p>]      p: float in [0, 1], default 1
    fault delay-link <node> <node> <extra>   extra: int >= 0, in ticks

Expectations:

    handshake <user> <server> success|failure
    authorize <user> <server> allowed|denied
    session <user> <server> alive|not-alive at <t>
    payloads <user> <server> <n> complete            n: int
    rotations <n>                                    n: int
    admitted <user> true|false

The parser converts each word once. The `values` of an Action or
Expectation are its arguments in the order written, converted to the
types above, without fixed words; a choice of two words is a bool, True
for the first. So `register shop tokens gold-pass` gives ("shop", False,
("gold-pass",)) and `register shop open-access` ("shop", True, ()). A
session expectation's probe time is its `at`; a fault's values are
(kind, params) as Simulator.inject_fault takes them. `args` keep the
words as written, for the trace and format_scenario. The runner runs the
values as given, so a file that parse_scenario (and `overnym check`)
accepts runs to the end without raising, unless it exceeds the
simulator's event cap (StepCapExceeded).

The grammar is deliberately flat: it diffs cleanly and round-trips
through format_scenario byte-for-byte up to comments and spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .simnet import STEP_CAP

NODE_KINDS = ("user", "router", "app-server", "regulator", "sequencer")

U64_MAX = 2**64 - 1

# The two words an outcome expectation chooses from, the first meaning True.
_OUTCOMES = {"handshake": ("success", "failure"), "authorize": ("allowed", "denied")}


class ParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ValidationError(ValueError):
    def __init__(self, name: str, reason: str):
        super().__init__(f"{name}: {reason}")
        self.name = name
        self.reason = reason


@dataclass
class NodeDecl:
    """A declared node: `props` as written, and what the run uses of
    them, a user's `attributes` and an app-server's `service` id."""

    name: str
    kind: str
    segment: int
    props: tuple[tuple[str, str], ...] = ()
    attributes: tuple[tuple[str, int | str], ...] = ()
    service: str | None = None


@dataclass
class Action:
    """A scripted action; `args` and `values` as the module docstring says."""

    time: int
    kind: str
    args: tuple[str, ...]
    actor: str | None
    values: tuple


@dataclass
class Expectation:
    """An expectation; `args` and `values` as the module docstring says."""

    kind: str
    args: tuple[str, ...]
    values: tuple
    at: int | None = None

    @property
    def label(self) -> str:
        return " ".join(self.args)

    @property
    def text(self) -> str:
        return f"expect {self.kind} {self.label}"


@dataclass
class Scenario:
    seed: int = 0
    horizon: int | None = None
    strict_registration: bool = False
    segments: list[int] = field(default_factory=list)
    links: list[tuple[int, int, int]] = field(default_factory=list)
    nodes: list[NodeDecl] = field(default_factory=list)
    actions: list[Action] = field(default_factory=list)
    expectations: list[Expectation] = field(default_factory=list)

    def last_time(self) -> int:
        return max([a.time for a in self.actions]
                   + [e.at for e in self.expectations if e.at is not None], default=0)

    def effective_horizon(self) -> int:
        if self.horizon is not None:
            return self.horizon
        return self.last_time() + 15  # drain window past the last scripted event


class _Parser:
    """What converting a word needs: the declarations read so far, and
    the number of the line being read, which each refusal names."""

    def __init__(self):
        self.line_no = 0
        self.nodes: dict[str, NodeDecl] = {}
        self.segments: set[int] = set()
        self.tokens: set[str] = set()

    def fail(self, reason: str) -> ParseError:
        return ParseError(self.line_no, reason)

    def shape(self, words, usage: str, lo: int, hi: int | None = None):
        """words, if there are lo to hi (default: lo) of them."""
        if not lo <= len(words) <= (hi or lo):
            raise self.fail(f"expected: {usage}")
        return words

    def choice(self, word: str, *options: str) -> bool:
        """Whether word is the first of options; a word not among them is refused."""
        if word not in options:
            raise self.fail(f"expected {' or '.join(options)}, got {word!r}")
        return word == options[0]

    def number(self, word: str, what: str, lo=None, hi=None, kind=int):
        try:
            value = kind(word)
        except ValueError:
            raise self.fail(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                            f"got {word!r}") from None
        if not ((lo is None or value >= lo) and (hi is None or value <= hi)):
            raise self.fail(f"{what} must be {f'>= {lo}' if hi is None else f'in {lo}..{hi}'}")
        return value

    def segment(self, word: str) -> int:
        seg = self.number(word, "segment id", 0, U64_MAX)
        if seg not in self.segments:
            raise self.fail(f"segment {seg} not declared")
        return seg

    def node(self, name: str, *kinds: str) -> str:
        decl = self.nodes.get(name)
        if decl is None:
            raise ValidationError(name, f"line {self.line_no}: node not declared")
        if kinds and decl.kind not in kinds:
            raise ValidationError(name, f"line {self.line_no}: is a {decl.kind}, expected {kinds}")
        return name

    def service(self, word: str) -> str:
        if not word.startswith("service=") or word == "service=":
            raise self.fail(f"expected service=<id> with a non-empty id, got {word!r}")
        return word[len("service="):]


def parse_scenario(text: str) -> Scenario:
    """Parse, validate and convert; raises ParseError / ValidationError
    with the offending line or name."""
    sc = Scenario()
    p = _Parser()
    last_action_time = 0
    seen_seed = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        p.line_no = line_no
        head, rest = words[0], words[1:]

        if head == "at":
            if len(rest) < 2:
                raise p.fail("expected: at <t> <action> ...")
            t = p.number(rest[0], "time", 0, STEP_CAP)
            if t < last_action_time:
                raise ValidationError(
                    "time", f"line {line_no}: action times must be non-decreasing "
                            f"({t} after {last_action_time})")
            last_action_time = t
            kind, args = rest[1], tuple(rest[2:])
            sc.actions.append(Action(t, kind, args, *_action(p, kind, args)))

        elif head == "expect":
            if not rest:
                raise p.fail("empty expectation")
            kind, args = rest[0], tuple(rest[1:])
            sc.expectations.append(Expectation(kind, args, *_expectation(p, kind, args)))

        elif head == "node":
            if len(rest) < 3:
                raise p.fail("expected: node <name> <kind> <id> [<k>=<v> ...]")
            name, kind, seg = rest[:3]
            if kind not in NODE_KINDS:
                raise p.fail(f"unknown node kind {kind!r}")
            if name in p.nodes:
                raise p.fail(f"node {name!r} already declared")
            p.nodes[name] = _node(p, name, kind, p.segment(seg), rest[3:])
            sc.nodes.append(p.nodes[name])

        elif head == "seed":
            (word,) = p.shape(rest, "seed <int>", 1)
            if seen_seed:
                raise p.fail("duplicate seed line")
            sc.seed = p.number(word, "seed")
            seen_seed = True

        elif head == "horizon":
            (word,) = p.shape(rest, "horizon <t>", 1)
            sc.horizon = p.number(word, "horizon", 0, STEP_CAP)

        elif head == "option":
            if rest not in (["strict-registration", "on"], ["strict-registration", "off"]):
                raise p.fail("expected: option strict-registration on|off")
            sc.strict_registration = rest[1] == "on"

        elif head == "segment":
            (word,) = p.shape(rest, "segment <id>", 1)
            seg = p.number(word, "segment id", 0, U64_MAX)
            if seg in p.segments:
                raise p.fail(f"segment {seg} already declared")
            p.segments.add(seg)
            sc.segments.append(seg)

        elif head == "link":
            a, b, cost = p.shape(rest, "link <id> <id> <cost>", 3)
            a, b, cost = p.segment(a), p.segment(b), p.number(cost, "cost", 1, U64_MAX)
            if a == b:
                raise p.fail("links cannot be self-loops")
            sc.links.append((a, b, cost))

        else:
            raise p.fail(f"unknown statement {head!r}")

    _validate(sc)
    return sc


def _node(p: _Parser, name: str, kind: str, segment: int, props: list[str]) -> NodeDecl:
    if kind == "app-server":
        if not props:
            return NodeDecl(name, kind, segment, service=name)
        (word,) = p.shape(props, "node <name> app-server <id> [service=<id>]", 1)
        service = p.service(word)
        return NodeDecl(name, kind, segment, (("service", service),), service=service)
    if kind != "user":
        p.shape(props, f"node <name> {kind} <id>", 0)
        return NodeDecl(name, kind, segment)
    pairs = tuple(word.partition("=")[::2] for word in props)
    if not all("=" in word for word in props) or len(dict(pairs)) < len(pairs):
        raise p.fail("a user's attributes are k=v words with distinct keys")
    attributes = tuple((k, _attribute(v)) for k, v in pairs)
    return NodeDecl(name, kind, segment, pairs, attributes=attributes)


def _attribute(value: str) -> int | str:
    """A user attribute's value: an int where the word reads as one."""
    try:
        return int(value)
    except ValueError:
        return value


def _action(p: _Parser, kind: str, args: tuple[str, ...]) -> tuple[str | None, tuple]:
    """The actor and the converted arguments of one action."""
    if kind == "register":
        usage = "register <user> | register <server> open-access|tokens <token>..."
        if not args:
            raise p.fail(f"expected: {usage}")
        name, policy = p.node(args[0], "user", "app-server"), args[1:]
        is_server = p.nodes[name].kind == "app-server"
        if not is_server and not policy:
            return name, (name,)
        if is_server and policy == ("open-access",):
            return name, (name, True, ())
        if is_server and policy[:1] == ("tokens",) and policy[1:]:
            p.tokens.update(policy[1:])
            return name, (name, False, policy[1:])
        raise p.fail(f"expected: {usage}")
    if kind == "bind":
        (name,) = p.shape(args, "bind <user|server>", 1)
        return p.node(name, "user", "app-server"), (name,)
    if kind in ("mint-nft", "transfer-nft"):
        token, owner = p.shape(args, f"{kind} <token> <user|server>", 2)
        if kind == "transfer-nft" and token not in p.tokens:
            raise ValidationError(token, f"line {p.line_no}: token was never minted or listed")
        p.tokens.add(token)
        return p.node(owner, "user", "app-server"), (token, owner)
    if kind == "rotate":
        (user,) = p.shape(args, "rotate <user>", 1)
        return p.node(user, "user"), (user,)
    if kind == "connect":
        user, server, *service = p.shape(args, "connect <user> <server> [service=<id>]", 2, 3)
        user, server = p.node(user, "user"), p.node(server, "app-server")
        service = p.service(service[0]) if service else p.nodes[server].service
        return user, (user, server, service)
    if kind == "send":
        user, server, count = p.shape(args, "send <user> <server> <count>", 3)
        user, server = p.node(user, "user"), p.node(server, "app-server")
        return user, (user, server, p.number(count, "count", 1, STEP_CAP))
    if kind == "authorize":
        user, server = p.shape(args, "authorize <user> <server>", 2)
        return p.node(server, "app-server"), (p.node(user, "user"), server)
    if kind != "fault":
        raise p.fail(f"unknown action {kind!r}")
    fault = args[0] if args else None
    if fault == "crash-node":
        _, node = p.shape(args, "fault crash-node <node>", 2)
        return None, (fault, (("node", p.node(node)),))
    if fault == "delay-link":
        _, a, b, extra = p.shape(args, "fault delay-link <a> <b> <extra>", 4)
        return None, (fault, (("a", p.node(a)), ("b", p.node(b)),
                              ("extra", p.number(extra, "extra delay", 0))))
    if fault == "drop-link":
        _, a, b, *drop = p.shape(args, "fault drop-link <a> <b> [p]", 3, 4)
        params = (("a", p.node(a)), ("b", p.node(b)))
        if drop:
            params += (("p", p.number(drop[0], "drop probability", 0.0, 1.0, float)),)
        return None, (fault, params)
    raise p.fail(f"unknown fault {fault!r}")


def _expectation(p: _Parser, kind: str, args: tuple[str, ...]) -> tuple[tuple, int | None]:
    """The converted arguments of one expectation, and its probe time."""
    if kind == "rotations":
        (n,) = p.shape(args, "expect rotations <n>", 1)
        return (p.number(n, "rotation count"),), None
    if kind == "admitted":
        user, word = p.shape(args, "expect admitted <user> true|false", 2)
        return (p.node(user, "user"), p.choice(word, "true", "false")), None
    if kind in _OUTCOMES:
        yes, no = _OUTCOMES[kind]
        user, server, word = p.shape(args, f"expect {kind} <user> <server> {yes}|{no}", 3)
        return (p.node(user, "user"), p.node(server, "app-server"), p.choice(word, yes, no)), None
    if kind == "payloads":
        user, server, n, word = p.shape(args, "expect payloads <user> <server> <n> complete", 4)
        p.choice(word, "complete")
        return (p.node(user, "user"), p.node(server, "app-server"),
                p.number(n, "payload count")), None
    if kind != "session":
        raise p.fail(f"unknown expectation {kind!r}")
    user, server, word, at, t = p.shape(
        args, "expect session <user> <server> alive|not-alive at <t>", 5)
    p.choice(at, "at")
    alive = p.choice(word, "alive", "not-alive")
    t = p.number(t, "probe time", 0, STEP_CAP)
    return (p.node(user, "user"), p.node(server, "app-server"), alive), t


def _validate(sc: Scenario) -> None:
    sequencers = [n for n in sc.nodes if n.kind == "sequencer"]
    if len(sequencers) != 1:
        raise ValidationError("sequencer", f"exactly one sequencer required, found {len(sequencers)}")
    regulators = [n for n in sc.nodes if n.kind == "regulator"]
    if len(regulators) > 1:
        raise ValidationError("regulator", "at most one regulator")
    routable = {n.segment for n in sc.nodes if n.kind == "router"}
    if sc.links and not routable:
        raise ValidationError("link", "links are declared but no router publishes them")
    for decl in sc.nodes:
        if decl.kind in ("user", "app-server") and decl.segment not in routable:
            raise ValidationError(decl.name, f"segment {decl.segment} has no router")
        if decl.attributes and not regulators:
            raise ValidationError(decl.name, "attributes need a regulator to register with")
    for action in sc.actions:
        if sc.horizon is not None and action.time > sc.horizon:
            raise ValidationError("horizon", f"action at t={action.time} is past the horizon")


def format_scenario(sc: Scenario) -> str:
    """Canonical text for a Scenario; parse(format(sc)) == sc."""
    lines = [f"seed {sc.seed}"]
    if sc.horizon is not None:
        lines.append(f"horizon {sc.horizon}")
    if sc.strict_registration:
        lines.append("option strict-registration on")
    for seg in sc.segments:
        lines.append(f"segment {seg}")
    for a, b, cost in sc.links:
        lines.append(f"link {a} {b} {cost}")
    for decl in sc.nodes:
        props = "".join(f" {k}={v}" for k, v in decl.props)
        lines.append(f"node {decl.name} {decl.kind} {decl.segment}{props}")
    for action in sc.actions:
        args = "".join(f" {a}" for a in action.args)
        lines.append(f"at {action.time} {action.kind}{args}")
    lines.extend(exp.text for exp in sc.expectations)
    return "\n".join(lines) + "\n"
