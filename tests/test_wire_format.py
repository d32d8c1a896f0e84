"""docs/wire-format.md must describe every domain-separation tag, name
no tag that does not exist, and describe every trace record kind and
every field the shipped scenarios emit. A kind that only record writers
write must list exactly the fields those writers declare."""

import importlib
import re
import types
from pathlib import Path

from overnym import hashing
from overnym.runner import run_scenario
from overnym.scenario import parse_scenario

ROOT = Path(__file__).parent.parent
DOC = ROOT / "docs" / "wire-format.md"
SRC = Path(hashing.__file__).parent


def test_doc_names_every_tag_constant_and_value():
    doc = DOC.read_text()
    tags = {name: value for name, value in vars(hashing).items() if re.fullmatch(r"TAG_\w+", name)}
    assert tags
    for name, value in tags.items():
        assert f"`{name}`" in doc, name
        assert f"`{value.decode()}`" in doc, name


def test_tag_table_names_only_existing_constants():
    doc = DOC.read_text()
    section = doc.split("## Tagged preimages", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(TAG_\w+)` \|", section, re.MULTILINE)
    assert "TAG_BCADD" in rows
    for name in rows:
        assert isinstance(getattr(hashing, name, None), bytes), name


def trace_rows() -> dict[str, tuple[str, ...]]:
    """Each kind in the record table -> the field names its fields cell
    lists, which is backquoted names and nothing else."""
    section = DOC.read_text().split("## Trace records", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for kind, cell in re.findall(r"^\| `([^`]+)` \|[^|]*\| ([^|]*) \|", section, re.MULTILINE):
        assert re.fullmatch(r"`[^`]+`(, `[^`]+`)*", cell), kind
        rows[kind] = tuple(re.findall(r"`([^`]+)`", cell))
    return rows


def emitted_kinds() -> set[str]:
    """The kinds the package writes through Trace.emit, by its literal."""
    return {kind for path in SRC.glob("*.py")
            for kind in re.findall(r'\.emit\(\s*"([^"]+)"', path.read_text())}


def record_writers() -> list:
    """Every record writer (simnet.record) the package's modules declare."""
    modules = [importlib.import_module(f"overnym.{path.stem}") for path in SRC.glob("*.py")]
    return [value for module in modules for value in vars(module).values()
            if isinstance(value, types.FunctionType) and hasattr(value, "fields")]


def test_trace_section_names_every_emitted_kind():
    rows = trace_rows()
    emitted, written = emitted_kinds(), {writer.kind for writer in record_writers()}
    assert "fault" in emitted and "commit" in written
    for kind in emitted | written:
        assert kind in rows, kind
        assert len(set(rows[kind])) == len(rows[kind]), kind


def test_a_kind_only_writers_write_documents_exactly_their_fields():
    rows = trace_rows()
    fields: dict[str, set[str]] = {}
    for writer in record_writers():
        fields.setdefault(writer.kind, set()).update(writer.fields)
    only_written = fields.keys() - emitted_kinds()
    assert {"payload", "access", "handshake", "admit", "commit", "drop", "send", "graph"} <= only_written
    for kind in only_written:
        assert set(rows[kind]) == fields[kind], kind


def test_trace_section_documents_every_emitted_field():
    rows = trace_rows()
    undocumented = set()
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        for record in run_scenario(parse_scenario(path.read_text())).trace.records:
            undocumented.update((record["kind"], key) for key in record
                                if key not in ("kind", "time") and key not in rows[record["kind"]])
    assert not undocumented
