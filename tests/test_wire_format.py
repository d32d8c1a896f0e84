"""docs/wire-format.md must describe every domain-separation tag, name
no tag that does not exist, and describe every trace record kind."""

import re
from pathlib import Path

from overnym import hashing

DOC = Path(__file__).parent.parent / "docs" / "wire-format.md"


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
