"""The benchmark's span tracer must find every library name it wraps.

``lpvbench/spans.py`` patches named functions in the lpvembed modules that
call them.  A refactor that moves or drops one of those names breaks
``lpvbench/run.py --trace 1``; this test catches that without running the
benchmark.
"""

import importlib
from pathlib import Path

LPVBENCH = Path(__file__).resolve().parent.parent / "lpvbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(LPVBENCH))
    spans = importlib.import_module("spans")
    sites = [(owner, name) for owner, names in spans.CALL_SITES.items()
             for name in names]
    assert len(sites) == 31
    sites += list(spans.HOT_METHODS)
    originals = [owner.__dict__[name] for owner, name in sites]
    tracer = spans.Tracer("test")
    try:
        tracer.install(spans.Lib())
        wrapped = [owner.__dict__[name] for owner, name in sites]
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert [owner.__dict__[name] for owner, name in sites] == originals
