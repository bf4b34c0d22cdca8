"""Every module stays under CPython's parser token threshold.

The parser grows its token array in powers of two, so compiling a module of
4096 or more tokens takes about 0.35 MB more memory when no bytecode cache
is kept, which moves the start-up time and peak RSS of every fresh
interpreter.  New code goes into a module of its own before any module
reaches the threshold.
"""

import tokenize
from pathlib import Path

import pytest

import demimat

THRESHOLD = 4096
MODULES = sorted(Path(demimat.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_the_module_stays_under_the_parser_token_threshold(path):
    with path.open("rb") as source:
        count = sum(1 for _ in tokenize.tokenize(source.readline))
    assert count < THRESHOLD, f"{path.name} has {count} tokens"
