"""The traced benchmark run wraps package functions at fixed module
attributes (bench/tracing.py SITES); a refactor that drops one of those names
would make the traced run fail on install. Every site must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def sites(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracing imports workloads
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_site_resolves(sites):
    assert sites
    for module_name, attr, _, _ in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
