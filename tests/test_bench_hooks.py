"""The traced benchmark run looks package functions up by name.

perfbench/traced_cli.py wraps functions at the module attributes their
callers use and reads each lru_cache's statistics. A refactor that renames
or moves one of them would break ``perfbench/run.py --trace 1`` without
failing any other test, so these tests load the script and resolve every
name it uses.
"""

import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


@pytest.fixture(scope="module")
def traced_cli():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(traced_cli):
    for module, attr, span, _ in traced_cli.SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_every_traced_cache_reports_its_statistics(traced_cli):
    assert len(traced_cli.CACHES) == 7
    for name, cached in traced_cli.CACHES.items():
        info = cached.cache_info()
        assert info.maxsize, name
