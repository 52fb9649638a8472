"""Every module of the package uses each name it imports, and every
name it defines is read somewhere.

No linter ships with the project, so this walks syntax trees:

- a name bound by an import must be read somewhere in that module;
  ``__init__.py`` is exempt, since it imports only to re-export;
- a top-level function, class or constant of the package must be read
  somewhere in ``src/``, ``tests/`` or ``perfbench/``, outside its own
  definition and the re-exports of ``__init__.py``.  Click commands are
  exempt: the command group reaches them;
- and it must be read in ``src/`` itself, unless it is one of the
  paper's library features in ``LIBRARY_FEATURES``.  A reference or
  convenience that only tests read belongs in the tests;
- a field, method or enum member of a package class, dunders apart,
  must be read as an attribute somewhere in ``src/``, ``tests/`` or
  ``perfbench/``.  Attributes are matched by name alone, whatever
  object they are read from;
- every function the benchmark's span tracer wraps
  (``perfbench/spans.py``) is defined under its traced name.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpfuzz"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py")
                 if p != PACKAGE / "__init__.py")
# Features of the paper that the package offers as a library, though
# only tests call them.
LIBRARY_FEATURES = ("vulnerability_matrix", "simulate_xt8a",
                    "classify_tp_fp", "dedup")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    assert MODULES, f"no modules found under {PACKAGE}"
    src = "import os\nfrom typing import List, Dict as D\nx: List = os.sep\n"
    assert unused_imports(src) == [(2, "D")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _is_command(node) -> bool:
    """A function decorated by `<group>.command(...)` or `click.group()`."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and \
                func.attr in ("command", "group"):
            return True
    return False


def definitions(tree):
    """(name, node) of each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not _is_command(node):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id, node


def reads(tree, skip=frozenset()):
    """Every name read as a variable or an attribute in `tree`, outside
    the subtrees in `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def dead_names(modules, readers):
    """(module, name) of each definition in `modules` that no file of
    `readers` reads outside the definition itself."""
    trees = {p: ast.parse(p.read_text()) for p in set(modules) | set(readers)}
    defs = {p: list(definitions(trees[p])) for p in modules}
    read = set()
    for p in readers:
        read |= reads(trees[p], {node for _, node in defs.get(p, ())})
    # What a definition reads counts, except its own names.
    for p, pairs in defs.items():
        for _, node in pairs:
            read |= reads(node) - {name for name, n in pairs if n is node}
    return sorted((p.name, name) for p, pairs in defs.items()
                  for name, _ in pairs if name not in read)


def test_dead_name_checker_flags_an_unread_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import click\nA = 1\nB = A\n"
                   "def f():\n    return f()\n"
                   "@click.group()\ndef main():\n    pass\n"
                   "@main.command()\ndef cmd():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import B\nprint(B)\n")
    assert dead_names([mod], [mod, user]) == [("mod.py", "f")]


def test_every_definition_is_read():
    assert dead_names(MODULES, READERS) == []


def test_every_definition_is_read_by_the_package():
    assert [(mod, name) for mod, name in dead_names(MODULES, MODULES)
            if name not in LIBRARY_FEATURES] == []


def members(tree):
    """(class, name) of each field, method and enum member defined in the
    body of a class in `tree`, dunders apart."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield cls.name, name


def dead_members(modules, readers):
    """(module, class, name) of each class member in `modules` that no
    file of `readers` reads as an attribute.

    It matches attribute names only, not the type of the object read: a
    dead member whose name a live member of any class shares, such as
    `key`, `to_json`, `kind` or `count`, is never flagged.  Telling the
    two apart would need each reader's type."""
    read = {node.attr for p in readers
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute) and
            isinstance(node.ctx, ast.Load)}
    return sorted((p.name, cls, name) for p in modules
                  for cls, name in members(ast.parse(p.read_text()))
                  if name not in read)


def test_dead_member_checker_flags_an_unread_member(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import enum\n"
                   "class Kind(enum.Enum):\n    A = 1\n    B = 2\n"
                   "class Box:\n    size: int\n    spare: int = 0\n"
                   "    def __init__(self):\n        self.spare = 1\n"
                   "    def grow(self):\n        return self.size\n"
                   "    def shrink(self):\n        pass\n"
                   "print(Kind.A, Box().grow())\n")
    assert dead_members([mod], [mod]) == [
        ("mod.py", "Box", "shrink"), ("mod.py", "Box", "spare"),
        ("mod.py", "Kind", "B")]


def test_every_class_member_is_read():
    assert dead_members(MODULES, READERS) == []


def test_every_traced_span_names_a_package_function():
    # Renaming a traced name, such as `symbolize_state`, would otherwise
    # only print a "not traced" line in the benchmark.  The tracer looks
    # a name up in its module's or class's own namespace.
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    unresolved = []
    for span, modname, attr, _ in spans.SPANS:
        owner = importlib.import_module(modname)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if not callable(getattr(owner, "__dict__", {}).get(name)):
            unresolved.append(span)
    assert unresolved == []
