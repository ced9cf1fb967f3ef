"""Every Python file parses as Python 3.10, the oldest version that
``pyproject.toml`` admits (``requires-python >= 3.10``).

``ast.parse`` with ``feature_version=(3, 10)`` refuses grammar added
later, such as ``except*``, on whatever interpreter runs the tests.  It
does not catch library calls added after 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests", "bench")
               for path in (ROOT / top).rglob("*.py"))


def test_every_tree_has_files():
    tops = {path.relative_to(ROOT).parts[0] for path in FILES}
    assert tops == {"src", "tests", "bench"}


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_newer_grammar_is_refused():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
