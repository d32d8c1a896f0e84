"""docs/wire-format.md must describe every domain-separation tag."""

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
