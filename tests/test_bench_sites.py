"""The benchmark reaches into the package in two ways that a refactor can
break without any other test noticing. The traced run wraps package
functions at fixed module attributes (bench/tracing.py SITES): every site
must resolve. The workloads (bench/workloads.py) build their inputs and check
their ops through package names and attributes: one op of each must run and
pass its check."""

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


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_traced_site_resolves(sites):
    assert sites
    for module_name, attr, _, _ in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_first_op_of_each_workload_passes_its_check(workloads, tmp_path):
    assert workloads.WORKLOADS
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(str(tmp_path))
        x = workload.inputs(42)[0]
        outcome = workload.check(x, workload.run(x))
        assert outcome.ok and not outcome.raised, (name, outcome)
