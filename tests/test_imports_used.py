"""Every name imported into an lcdeco module is used in that module.

The only exceptions are names that the benchmark's span tracer
(perfbench/spans.py) patches at that module: they must stay importable
there even where the module no longer calls them, so the list of such
imports is the tracer's own.
"""

import ast
import os

from test_tracer_contract import _load_spans

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "lcdeco")


def _unused_imports(path):
    """Names an import binds in the module at path that nothing in it
    reads (a name listed in __all__ counts as read)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
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
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_every_import_is_used_or_traced():
    spans = _load_spans()
    traced = {(mod, attr) for mod, attr, _ in spans._FUNCTIONS}
    traced |= {(mod, cls) for mod, cls, _, _ in spans._METHODS}
    dead = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        module = "lcdeco" if name == "__init__.py" else "lcdeco." + name[:-3]
        dead += [(module, imported) for imported
                 in sorted(_unused_imports(os.path.join(SRC, name)))
                 if (module, imported) not in traced]
    assert dead == []
