"""Import-level smoke tests for the example scripts.

Each example runs minutes of experiments, so tests only import them
(catching syntax errors, stale APIs and bad imports); `main()` bodies
are exercised manually / in CI's example stage.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_present(self):
        assert {p.stem for p in EXAMPLE_FILES} == {
            "carbon_budget_scheduling",
            "green_datacenter_tradeoff",
            "profiling_heterogeneity",
            "quickstart",
            "webgraph_compression",
        }

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_imports_cleanly(self, path):
        module = _load(path)
        assert callable(getattr(module, "main", None)), f"{path.stem} has no main()"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_has_docstring(self, path):
        module = _load(path)
        assert module.__doc__ and len(module.__doc__.strip()) > 40
