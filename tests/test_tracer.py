"""perfbench's tracer against the library it wraps.

`perfbench/tracer.py` binds each name in its TRACED list through the owner's
`__dict__`, so a library change that renames or removes one of them breaks
`perfbench/run.py --trace 1` with a KeyError.  The tracer is loaded by path,
without writing bytecode, so that perfbench/ is left as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import kinderlab

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_patched_and_restored(monkeypatch):
    listing = sorted(p.name for p in PERFBENCH.iterdir())
    tracer = _load_tracer(monkeypatch)
    owners = {}
    for name in tracer.TRACED:
        modname, *path = name.split(".")
        owner = importlib.import_module("kinderlab." + modname)
        for part in path[:-1]:
            owner = getattr(owner, part)
        owners[name] = (owner, path[-1], owner.__dict__[path[-1]])
    tr = tracer.Tracer()
    try:
        tr.install(kinderlab)
        unpatched = [name for name, (owner, attr, raw) in owners.items() if owner.__dict__[attr] is raw]
    finally:
        tr.restore()
    assert unpatched == []
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in owners.values())
    assert sorted(p.name for p in PERFBENCH.iterdir()) == listing
