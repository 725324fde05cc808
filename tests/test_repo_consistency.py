"""Repository consistency checks: docs reference real artifacts, the
public API surface imports, every example is syntactically valid."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


class TestDocsReferenceRealFiles:
    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.findall(r"`examples/(\w+\.py)`", readme):
            assert (REPO / "examples" / match).exists(), match

    def test_design_bench_targets_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for match in re.findall(r"`benchmarks/(bench_\w+\.py)`", design):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_docs_directory_files_exist(self):
        for name in (
            "modeling_guide.md",
            "internals.md",
            "json_reference.md",
            "resilience.md",
        ):
            assert (REPO / "docs" / name).exists()

    def test_spec_directory_complete(self):
        spec = REPO / "specs" / "two_tier"
        for name in ("machines.json", "graph.json", "path.json", "client.json"):
            assert (spec / name).exists(), name
        assert list((spec / "services").glob("*.json"))


class TestPublicApiSurface:
    PACKAGES = [
        "repro",
        "repro.analysis",
        "repro.apps",
        "repro.bighouse",
        "repro.config",
        "repro.distributions",
        "repro.engine",
        "repro.experiments",
        "repro.faults",
        "repro.hardware",
        "repro.power",
        "repro.resilience",
        "repro.scaling",
        "repro.service",
        "repro.telemetry",
        "repro.testbed",
        "repro.topology",
        "repro.workload",
    ]

    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports_and_all_resolves(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol}"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), name


class TestExamplesParse:
    @pytest.mark.parametrize(
        "path", sorted((REPO / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_example_is_valid_python_with_main(self, path):
        tree = ast.parse(path.read_text())
        names = {
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in names, f"{path.name} has no main()"
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"


class TestPublicClassesDocumented:
    def test_every_public_class_and_function_has_docstring(self):
        missing = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:  # top-level only
                if isinstance(
                    node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        missing.append(f"{path.name}:{node.name}")
        assert not missing, f"undocumented public items: {missing}"


def _markdown_table(text, first_header):
    """The rows (lists of stripped cells) of the markdown table whose
    header row starts with the cell *first_header*; row 0 is the
    header."""
    rows = []
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not rows:
            if line.startswith("|") and cells[0] == first_header:
                rows.append(cells)
        elif line.startswith("|"):
            if not set(line) <= set("|-: "):
                rows.append(cells)
        else:
            break
    return rows


class TestExecutionOptionsTable:
    """docs/operations.md § Execution options documents every RunOptions
    field and, per registered experiment, exactly the options its
    runner supports."""

    @pytest.fixture(scope="class")
    def doc(self):
        return (REPO / "docs" / "operations.md").read_text()

    def test_every_field_documented(self, doc):
        from dataclasses import fields

        from repro.experiments.options import RunOptions

        rows = _markdown_table(doc, "field")
        assert [r[0].strip("`") for r in rows[1:]] == [
            f.name for f in fields(RunOptions)
        ]

    def test_capability_table_matches_registry(self, doc):
        from dataclasses import fields

        from repro.experiments import registry
        from repro.experiments.options import RunOptions

        header, *rows = _markdown_table(doc, "experiment")
        names = [cell.strip("`") for cell in header[1:]]
        assert names == [f.name for f in fields(RunOptions)]
        documented = {
            row[0].strip("`"): {n for n, c in zip(names, row[1:]) if c}
            for row in rows
        }
        actual = {
            spec.exp_id: {n for n in names if spec.supports(n)}
            for spec in registry.all_experiments()
        }
        assert documented == actual
