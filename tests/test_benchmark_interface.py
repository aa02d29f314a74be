"""The names the benchmark harness in perfbench/ reaches into the package by.

perfbench/spans.py times layers by rebinding the module attributes listed in
its TRACED table, and the batch workload calls batch_report with keyword
arguments.  A rename in src/ that misses one of them would only show up in
a traced benchmark run, so it is pinned here.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from grasp_eq.batch import batch_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    # spans.py imports only the standard library
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("spans")
    sys.modules.pop("spans", None)


def test_traced_names_resolve_to_callables(spans):
    assert spans.TRACED
    for module, attribute, _ in spans.TRACED:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute}"


def test_batch_report_takes_the_workload_keywords():
    params = inspect.signature(batch_report).parameters
    for name in ("threads", "use_keypoints", "out_dir"):
        assert name in params, name
