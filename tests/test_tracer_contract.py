"""The benchmark's span tracer (perfbench/spans.py) patches lcdeco
functions at the module attributes where their callers look them up.
These tests keep every such attribute in place, so that refactors that
move or drop an import do not silently break traced benchmark runs."""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "spans.py")


def _load_spans():
    # loaded by path: perfbench is not a package and imports only the
    # standard library
    spec = importlib.util.spec_from_file_location("lcdeco_bench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    """(owner, attribute) of every patch the tracer installs."""
    out = [(importlib.import_module(mod), attr)
           for mod, attr, _ in spans._FUNCTIONS]
    out += [(getattr(importlib.import_module(mod), cls), attr)
            for mod, cls, attr, _ in spans._METHODS]
    return out


def test_every_traced_name_resolves():
    for owner, attr in _targets(_load_spans()):
        assert callable(getattr(owner, attr, None)), \
            "%s.%s" % (owner.__name__, attr)


def test_install_then_uninstall_restores_originals():
    spans = _load_spans()
    targets = _targets(spans)
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), fn in zip(targets, originals):
            assert getattr(owner, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(targets, originals):
        assert getattr(owner, attr) is fn, attr
