"""Every public function and method of ``demimat`` is reached from the
program, not only from the tests.

The roots of the scan are the names that module-level package code reads,
identifier strings included (so the name-based dispatch of
``ops.apply_operator`` and ``verify.IDENTITIES`` counts); the names package
modules import by name (the ``__init__`` exports and ``core``'s re-exports);
and the names and attributes that ``benchmark/*.py`` and ``scripts/*.py``
read.  A reached function reaches every name its body reads, so a function
that only unreached ones call is unreached.  Dunder methods run by protocol.
A method is reached through an attribute or a string, never a bare name, as
a local variable is.  Names match without their module or class, which can
pass a function, never fail one.  A reference that only tests compare
against belongs in ``oracles``.
"""

import ast
from pathlib import Path

import demimat

PACKAGE = Path(demimat.__file__).resolve().parent
READERS = [PACKAGE.parent.parent / folder for folder in ("benchmark", "scripts")]


def _names_read(nodes, strings=True, members=False) -> set[str]:
    """The names ``nodes`` read: a bare name as itself (or, in a class body,
    also as ``.name``), an attribute as ``.name`` and as ``name``, and, with
    ``strings``, an identifier string both ways."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.update((sub.id, "." + sub.id) if members else (sub.id,))
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
            elif isinstance(sub, ast.Attribute):
                names.update((sub.attr, "." + sub.attr))
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    names.update((sub.value, "." + sub.value))
    return names


def unreached(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The public functions and methods of ``modules`` (name -> source) that
    nothing reaches, as ``module.name`` or ``module.Class.name``.  Only the
    names ``readers`` (sources outside the package) read count, not their
    strings."""
    bodies: dict[str, list] = {}  # key -> the definitions' bodies
    public: dict[str, str] = {}  # qualified name -> key
    roots: set[str] = set()

    def visit(statements, prefix, in_class=False):
        for statement in statements:
            if isinstance(statement, ast.FunctionDef):
                key = "." * in_class + statement.name
                bodies.setdefault(key, []).append([statement.args, *statement.body])
                roots.update(_names_read(statement.decorator_list))
                if statement.name.startswith("__") and statement.name.endswith("__"):
                    roots.add(key)
                elif not statement.name.startswith("_"):
                    public[f"{prefix}.{statement.name}"] = key
            elif isinstance(statement, ast.ClassDef):
                roots.update(_names_read([*statement.bases, *statement.keywords,
                                          *statement.decorator_list], members=in_class))
                visit(statement.body, f"{prefix}.{statement.name}", in_class=True)
            else:
                roots.update(_names_read([statement], members=in_class))

    for module, source in modules.items():
        visit(ast.parse(source).body, module)
    for source in readers:
        roots.update(_names_read([ast.parse(source)], strings=False))
    reached, pending = set(roots), list(roots)
    while pending:
        for body in bodies.get(pending.pop(), ()):
            new = _names_read(body) - reached
            reached |= new
            pending.extend(new)
    return sorted(q for q, key in public.items() if key not in reached)


def _sources():
    modules = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    return modules, [path.read_text() for folder in READERS for path in folder.glob("*.py")]


def test_every_public_function_of_the_package_is_reached():
    assert unreached(*_sources()) == []


PLANTED = """
def orphan():
    return helper()

def helper():
    return 1

class Box:
    def lonely(self):
        return 2

    def __len__(self):
        return used()

def used():
    lonely = 3
    return lonely
"""


def test_the_scan_reports_a_planted_orphan_and_what_only_it_reaches():
    modules, readers = _sources()
    modules["planted"] = PLANTED
    assert unreached(modules, readers) == ["planted.Box.lonely", "planted.helper",
                                           "planted.orphan"]
    modules["planted"] = PLANTED + "\nVALUE = orphan()\n"
    assert unreached(modules, readers) == ["planted.Box.lonely"]
    modules["planted"] = PLANTED
    box_reader = "demimat.planted.Box().lonely()\n"
    assert unreached(modules, [*readers, box_reader]) == ["planted.helper", "planted.orphan"]
    # A reader's strings are not reads: the tracer names functions in strings.
    assert "planted.orphan" in unreached(modules, [*readers, 'KEY = "orphan"\n'])
