"""Every Python file of the project parses as the oldest supported Python.

pyproject.toml declares requires-python >= 3.10, and the suite usually runs on a newer
interpreter, which accepts syntax that 3.10 rejects (``except*`` groups, for one).  The
standard parser checks the older grammar when given ``feature_version``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "scripts", "perfbench")
OLDEST = (3, 10)


def test_sources_parse_as_the_oldest_supported_python():
    sources = sorted(p for d in SOURCE_DIRS for p in (ROOT / d).rglob("*.py"))
    assert {p.relative_to(ROOT).parts[0] for p in sources} == set(SOURCE_DIRS)
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_the_check_rejects_newer_syntax():
    # a 3.10 interpreter rejects it as plain invalid syntax, later ones by feature_version
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
