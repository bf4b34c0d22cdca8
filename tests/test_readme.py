"""README's examples run, and print what their comments say.

The "Library quick start" block is executed as it stands.  Each line whose
comment is a literal value is evaluated in the block's namespace, and its
value, printed by ``str`` or ``repr`` as the comment spells it, must be the
comment (or the comment up to a ``:`` that starts a gloss).  The
Conventions examples of exact division run too.
"""

import re

import pytest

from demimat.errors import InexactDivisionError
from demimat.poly import X

from conftest import REPO

README = (REPO / "README.md").read_text()
PROSE = " ".join(README.split())
QUICK_START = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S).group(1)

# The quick start's lines whose comment is a literal, and how it prints the value.
LITERAL_COMMENTS = {
    "tutte.tutte(m)": str,
    "weights.wei_hierarchy(m)": repr,
    "weights.wei_hierarchy(ops.dual(m)).d": repr,
    "complex_to_demimatroid(cx).rank": str,
}


def _comments(block: str) -> dict[str, str]:
    """Each line's code and its comment, for the lines that have both."""
    pairs = (line.split("  #", 1) for line in block.splitlines() if "  #" in line)
    return {code.strip(): comment.strip() for code, comment in pairs}


@pytest.fixture(scope="module")
def quick_start() -> dict:
    """The namespace the quick start leaves once it has run."""
    namespace: dict = {}
    exec(compile(QUICK_START, "README quick start", "exec"), namespace)
    return namespace


@pytest.mark.parametrize("code", LITERAL_COMMENTS)
def test_each_literal_comment_is_what_the_line_prints(quick_start, code):
    comment = _comments(QUICK_START)[code]
    printed = LITERAL_COMMENTS[code](eval(code, quick_start))
    assert comment == printed or comment.startswith(printed + ":")


def test_the_conventions_division_examples():
    assert "`(4*X).divide_exact(2)` is `2*x`" in PROSE
    assert "`(2*X).divide_exact(4)` raises `InexactDivisionError`" in PROSE
    assert str((4 * X).divide_exact(2)) == "2*x"
    with pytest.raises(InexactDivisionError):
        (2 * X).divide_exact(4)
