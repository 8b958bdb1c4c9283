from __future__ import annotations

import sys
from types import ModuleType

import pytest

from gtx.suite import load_fixture_grammar

#: the gtx modules that the collected test modules imported
_COLLECTED_GTX: dict[str, ModuleType] = {}


def _gtx_modules() -> dict[str, ModuleType]:
    return {name: module for name, module in sys.modules.items()
            if name == "gtx" or name.startswith("gtx.")}


def pytest_collection_finish():
    _COLLECTED_GTX.update(_gtx_modules())


@pytest.fixture(autouse=True)
def collected_gtx():
    """Put the collected gtx modules back if a test has imported gtx afresh,
    as ``perfbench/run.import_gtx`` does when both suites run in one
    process: a fresh module's enum members and classes are not the ones
    the test modules hold."""
    if _COLLECTED_GTX and sys.modules.get("gtx") is not _COLLECTED_GTX["gtx"]:
        for name in _gtx_modules():
            del sys.modules[name]
        sys.modules.update(_COLLECTED_GTX)


@pytest.fixture(scope="session")
def counting_grammar():
    return load_fixture_grammar("counting")


@pytest.fixture
def counting_host(counting_grammar):
    # fresh copy per test; rules never mutate their input, but tests might
    return counting_grammar.start.copy()
