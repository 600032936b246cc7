"""Every name the benchmark harness patches or imports still resolves.

`bench/tracing.patched` reads each patched name from its owner's own
namespace, `vars(owner)[attr]`, so a name renamed away in `src/` makes
every `bench/run.py` run fail. These tests fail first.
"""

import importlib
from pathlib import Path

import pytest

import lanegame

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_every_patched_name_is_in_its_owners_namespace(monkeypatch):
    layers = _bench_module("layers", monkeypatch)
    tracing = _bench_module("tracing", monkeypatch)
    patches = layers.patches(tracing.Tracer(), lanegame)
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("name", ["checks", "inputs"])
def test_bench_imports_resolve(name, monkeypatch):
    _bench_module(name, monkeypatch)
