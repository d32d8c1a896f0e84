"""docs/wire-format.md must describe every domain-separation tag, name
no tag that does not exist, and describe every trace record kind and
every field the shipped scenarios emit."""

import re
from pathlib import Path

from overnym import hashing
from overnym.runner import run_scenario
from overnym.scenario import parse_scenario

ROOT = Path(__file__).parent.parent
DOC = ROOT / "docs" / "wire-format.md"


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


def test_trace_section_names_every_emitted_kind():
    doc = DOC.read_text()
    section = doc.split("## Trace records", 1)[1].split("\n## ", 1)[0]
    source = Path(hashing.__file__).parent
    kinds = {kind for path in source.glob("*.py")
             for kind in re.findall(r'\.emit\(\s*"([^"]+)"', path.read_text())}
    assert "commit" in kinds  # a kind whose literal sits on the next line
    for kind in kinds:
        assert f"| `{kind}` |" in section, kind


def test_trace_section_documents_every_emitted_field():
    section = DOC.read_text().split("## Trace records", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([^`]+)` \|(.*)$", section, re.MULTILINE))
    undocumented = set()
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        for record in run_scenario(parse_scenario(path.read_text())).trace.records:
            row = rows[record["kind"]]
            undocumented.update((record["kind"], key) for key in record
                                if key not in ("kind", "time") and f"`{key}`" not in row)
    assert not undocumented
