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

The grammar is deliberately flat: it diffs cleanly and round-trips
through format_scenario byte-for-byte up to comments and spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .simnet import FAULT_KINDS

NODE_KINDS = ("user", "router", "app-server", "regulator", "sequencer")

ACTION_KINDS = (
    "register", "bind", "mint-nft", "transfer-nft", "connect",
    "rotate", "send", "authorize", "fault",
)

EXPECT_KINDS = ("handshake", "authorize", "session", "payloads", "rotations", "admitted")


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


@dataclass(frozen=True)
class NodeDecl:
    name: str
    kind: str
    segment: int
    props: tuple[tuple[str, str], ...] = ()

    def prop(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.props:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Action:
    time: int
    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Expectation:
    kind: str
    args: tuple[str, ...]


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
        times = [a.time for a in self.actions]
        for e in self.expectations:
            if e.kind == "session" and len(e.args) >= 5:
                times.append(int(e.args[4]))
        return max(times, default=0)

    def effective_horizon(self) -> int:
        if self.horizon is not None:
            return self.horizon
        return self.last_time() + 15  # drain window past the last scripted event


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse and validate; raises ParseError / ValidationError with the
    offending line or name."""
    sc = Scenario()
    declared_nodes: dict[str, NodeDecl] = {}
    declared_segments: set[int] = set()
    declared_tokens: set[str] = set()
    last_action_time = 0
    seen_seed = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]

        if head == "seed":
            if len(rest) != 1:
                raise ParseError(line_no, "seed takes one integer")
            if seen_seed:
                raise ParseError(line_no, "duplicate seed line")
            sc.seed = _int(rest[0], line_no, "seed")
            seen_seed = True

        elif head == "horizon":
            if len(rest) != 1:
                raise ParseError(line_no, "horizon takes one integer")
            sc.horizon = _int(rest[0], line_no, "horizon")

        elif head == "option":
            if len(rest) != 2 or rest[0] != "strict-registration" or rest[1] not in ("on", "off"):
                raise ParseError(line_no, "expected: option strict-registration on|off")
            sc.strict_registration = rest[1] == "on"

        elif head == "segment":
            if len(rest) != 1:
                raise ParseError(line_no, "segment takes one id")
            seg = _int(rest[0], line_no, "segment id")
            if seg in declared_segments:
                raise ParseError(line_no, f"segment {seg} already declared")
            declared_segments.add(seg)
            sc.segments.append(seg)

        elif head == "link":
            if len(rest) != 3:
                raise ParseError(line_no, "expected: link <a> <b> <cost>")
            a = _int(rest[0], line_no, "segment id")
            b = _int(rest[1], line_no, "segment id")
            cost = _int(rest[2], line_no, "cost")
            for seg in (a, b):
                if seg not in declared_segments:
                    raise ParseError(line_no, f"segment {seg} not declared")
            if a == b:
                raise ParseError(line_no, "links cannot be self-loops")
            if cost < 1:
                raise ParseError(line_no, "cost must be >= 1")
            sc.links.append((a, b, cost))

        elif head == "node":
            if len(rest) < 3:
                raise ParseError(line_no, "expected: node <name> <kind> <segment> [k=v ...]")
            name, kind = rest[0], rest[1]
            segment = _int(rest[2], line_no, "segment id")
            if kind not in NODE_KINDS:
                raise ParseError(line_no, f"unknown node kind {kind!r}")
            if name in declared_nodes:
                raise ParseError(line_no, f"node {name!r} already declared")
            if segment not in declared_segments:
                raise ParseError(line_no, f"segment {segment} not declared")
            props = []
            for extra in rest[3:]:
                if "=" not in extra:
                    raise ParseError(line_no, f"node property must be k=v, got {extra!r}")
                k, v = extra.split("=", 1)
                props.append((k, v))
            decl = NodeDecl(name, kind, segment, tuple(props))
            declared_nodes[name] = decl
            sc.nodes.append(decl)

        elif head == "at":
            if len(rest) < 2:
                raise ParseError(line_no, "expected: at <t> <action> ...")
            t = _int(rest[0], line_no, "time")
            if t < last_action_time:
                raise ValidationError(
                    "time", f"line {line_no}: action times must be non-decreasing "
                            f"({t} after {last_action_time})")
            last_action_time = t
            kind, args = rest[1], tuple(rest[2:])
            if kind not in ACTION_KINDS:
                raise ParseError(line_no, f"unknown action {kind!r}")
            _check_action(sc, kind, args, declared_nodes, declared_tokens, line_no)
            sc.actions.append(Action(t, kind, args))

        elif head == "expect":
            if not rest:
                raise ParseError(line_no, "empty expectation")
            kind, args = rest[0], tuple(rest[1:])
            if kind not in EXPECT_KINDS:
                raise ParseError(line_no, f"unknown expectation {kind!r}")
            _check_expectation(kind, args, declared_nodes, line_no)
            sc.expectations.append(Expectation(kind, args))

        else:
            raise ParseError(line_no, f"unknown statement {head!r}")

    _validate(sc)
    return sc


def _need_node(nodes: dict[str, NodeDecl], name: str, line_no: int,
               kinds: tuple[str, ...] | None = None) -> NodeDecl:
    decl = nodes.get(name)
    if decl is None:
        raise ValidationError(name, f"line {line_no}: node not declared")
    if kinds and decl.kind not in kinds:
        raise ValidationError(name, f"line {line_no}: is a {decl.kind}, expected {kinds}")
    return decl


def _check_action(sc: Scenario, kind: str, args: tuple[str, ...],
                  nodes: dict[str, NodeDecl], tokens: set[str], line_no: int) -> None:
    def need_node(name: str, kinds: tuple[str, ...] | None = None) -> NodeDecl:
        return _need_node(nodes, name, line_no, kinds)

    if kind == "register":
        if not args:
            raise ParseError(line_no, "register needs a node")
        decl = need_node(args[0], ("user", "app-server"))
        if decl.kind == "app-server":
            if len(args) >= 2 and args[1] == "open-access":
                pass
            elif len(args) >= 2 and args[1] == "tokens":
                if len(args) < 3:
                    raise ParseError(line_no, "tokens needs at least one token name")
                tokens.update(args[2:])
            else:
                raise ParseError(line_no, "app-server register needs 'open-access' or 'tokens <t...>'")
        elif len(args) > 1:
            raise ParseError(line_no, "user register takes no extra arguments")
    elif kind == "bind":
        if len(args) != 1:
            raise ParseError(line_no, "bind takes one node")
        need_node(args[0], ("user", "app-server"))
    elif kind == "mint-nft":
        if len(args) != 2:
            raise ParseError(line_no, "expected: mint-nft <token> <owner>")
        need_node(args[1], ("user", "app-server"))
        tokens.add(args[0])
    elif kind == "transfer-nft":
        if len(args) != 2:
            raise ParseError(line_no, "expected: transfer-nft <token> <new-owner>")
        if args[0] not in tokens:
            raise ValidationError(args[0], f"line {line_no}: token was never minted or listed")
        need_node(args[1], ("user", "app-server"))
    elif kind == "connect":
        if len(args) not in (2, 3):
            raise ParseError(line_no, "expected: connect <user> <server> [service=<id>]")
        need_node(args[0], ("user",))
        need_node(args[1], ("app-server",))
        if len(args) == 3 and not args[2].startswith("service="):
            raise ParseError(line_no, "third argument must be service=<id>")
    elif kind == "rotate":
        if len(args) != 1:
            raise ParseError(line_no, "rotate takes one user")
        need_node(args[0], ("user",))
    elif kind == "send":
        if len(args) != 3:
            raise ParseError(line_no, "expected: send <user> <server> <count>")
        need_node(args[0], ("user",))
        need_node(args[1], ("app-server",))
        if _int(args[2], line_no, "count") < 1:
            raise ParseError(line_no, "count must be >= 1")
    elif kind == "authorize":
        if len(args) != 2:
            raise ParseError(line_no, "expected: authorize <user> <server>")
        need_node(args[0], ("user",))
        need_node(args[1], ("app-server",))
    elif kind == "fault":
        if not args:
            raise ParseError(line_no, "fault needs a kind")
        fault = args[0]
        if fault not in FAULT_KINDS:
            raise ParseError(line_no, f"unknown fault {fault!r}")
        if fault == "crash-node":
            if len(args) != 2:
                raise ParseError(line_no, "expected: fault crash-node <node>")
            need_node(args[1])
        elif fault == "drop-link":
            if len(args) not in (3, 4):
                raise ParseError(line_no, "expected: fault drop-link <a> <b> [p]")
            need_node(args[1])
            need_node(args[2])
            if len(args) == 4:
                try:
                    p = float(args[3])
                except ValueError:
                    raise ParseError(line_no, "drop probability must be a number") from None
                if not 0.0 <= p <= 1.0:
                    raise ParseError(line_no, "drop probability must be in [0,1]")
        elif fault == "delay-link":
            if len(args) != 4:
                raise ParseError(line_no, "expected: fault delay-link <a> <b> <extra>")
            need_node(args[1])
            need_node(args[2])
            _int(args[3], line_no, "extra delay")


def _check_expectation(kind: str, args: tuple[str, ...],
                       nodes: dict[str, NodeDecl], line_no: int) -> None:
    def need_pair() -> None:
        _need_node(nodes, args[0], line_no, ("user",))
        _need_node(nodes, args[1], line_no, ("app-server",))

    if kind == "handshake":
        if len(args) != 3 or args[2] not in ("success", "failure"):
            raise ParseError(line_no, "expected: expect handshake <user> <server> success|failure")
        need_pair()
    elif kind == "authorize":
        if len(args) != 3 or args[2] not in ("allowed", "denied"):
            raise ParseError(line_no, "expected: expect authorize <user> <server> allowed|denied")
        need_pair()
    elif kind == "session":
        if (len(args) != 5 or args[2] not in ("alive", "not-alive") or args[3] != "at"):
            raise ParseError(line_no, "expected: expect session <user> <server> alive|not-alive at <t>")
        need_pair()
        _int(args[4], line_no, "probe time")
    elif kind == "payloads":
        if len(args) != 4 or args[3] != "complete":
            raise ParseError(line_no, "expected: expect payloads <user> <server> <n> complete")
        need_pair()
        _int(args[2], line_no, "payload count")
    elif kind == "rotations":
        if len(args) != 1:
            raise ParseError(line_no, "expected: expect rotations <n>")
        _int(args[0], line_no, "rotation count")
    elif kind == "admitted":
        if len(args) != 2 or args[1] not in ("true", "false"):
            raise ParseError(line_no, "expected: expect admitted <user> true|false")
        _need_node(nodes, args[0], line_no, ("user",))


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
    for exp in sc.expectations:
        args = "".join(f" {a}" for a in exp.args)
        lines.append(f"expect {exp.kind}{args}")
    return "\n".join(lines) + "\n"
