"""Every name imported into an lcdeco module is used in that module,
every private module-level name of lcdeco is read somewhere in lcdeco,
every name lcdeco exports resolves, and lcdeco opens a file for writing
in one place only.

The only exceptions to the first are names that the benchmark's span
tracer (perfbench/spans.py) patches at that module: they must stay
importable there even where the module no longer calls them, so the
list of such imports is the tracer's own.
"""

import ast
import importlib
import os

from test_tracer_contract import _load_spans

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "lcdeco")


def _modules():
    """{module name: parsed tree} of every lcdeco module."""
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                trees["lcdeco" if name == "__init__.py"
                      else "lcdeco." + name[:-3]] = ast.parse(fh.read())
    return trees


def _unused_imports(module, tree):
    """Names an import binds in the module that nothing in it reads (a
    name listed in __all__ counts as read; __all__ is read from the
    imported module, since lcdeco builds it from its export table)."""
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(importlib.import_module(module).__all__)
    return bound - read


def test_every_import_is_used_or_traced():
    spans = _load_spans()
    traced = {(mod, attr) for mod, attr, _ in spans._FUNCTIONS}
    traced |= {(mod, cls) for mod, cls, _, _ in spans._METHODS}
    dead = []
    for module, tree in _modules().items():
        dead += [(module, imported)
                 for imported in sorted(_unused_imports(module, tree))
                 if (module, imported) not in traced]
    assert dead == []


def _write_opens(tree, exempt=None):
    """Line numbers of the open(...) calls in tree, outside the function
    named exempt, whose mode (second positional argument or mode=) may
    write: it holds w, a, x or +, or is not a string literal."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            skipped.update(map(id, ast.walk(node)))
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and id(node) not in skipped
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords
                                  if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            lines.append(node.lineno)
    return lines


def test_one_writer():
    """emit.write_text is the only place lcdeco opens a file to write, so
    how an output file is written is decided there alone."""
    trees = _modules()
    writers = {module: _write_opens(
        tree, "write_text" if module == "lcdeco.emit" else None)
        for module, tree in trees.items()}
    assert {m: lines for m, lines in writers.items() if lines} == {}
    assert len(_write_opens(trees["lcdeco.emit"])) == 1   # write_text's


def _private_names(tree):
    """Names starting with one underscore that the module binds at its top
    level: functions, classes and assigned constants."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in bound if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read():
    """A private helper, class or constant is read in its own module or
    imported by another lcdeco module, whose reading of it the import
    check above enforces: a helper a simplification leaves without a
    caller fails here."""
    trees = _modules()
    imported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module):
                imported.update(("lcdeco." + node.module, a.name)
                                for a in node.names)
    dead = []
    for module, tree in trees.items():
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        dead += [(module, name) for name in sorted(_private_names(tree))
                 if name not in read and (module, name) not in imported]
    assert dead == []


def test_every_exported_name_resolves():
    """lcdeco re-exports its names lazily: each in __all__ resolves to
    its module's own object, and a star import binds them all."""
    import lcdeco

    for name in lcdeco.__all__:
        module = lcdeco._EXPORTS.get(name, "version")
        owner = importlib.import_module("lcdeco." + module)
        expected = (owner.VERSION if name == "__version__"
                    else getattr(owner, name))
        assert getattr(lcdeco, name) is expected, name
    assert set(lcdeco.__all__) <= set(dir(lcdeco))
    assert not hasattr(lcdeco, "no_such_name")
    namespace = {}
    exec("from lcdeco import *", namespace)
    assert set(lcdeco.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(lcdeco, name)
               for name in lcdeco.__all__)
