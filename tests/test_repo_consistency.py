"""Repository consistency checks: docs reference real artifacts, the
public API surface imports, every example is syntactically valid."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


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

    def test_docs_repro_references_resolve(self):
        """Every backticked dotted ``repro.…`` path in docs/*.md is a
        module, or an attribute of the longest module prefix that
        imports."""
        unresolved = []
        for path in sorted((REPO / "docs").glob("*.md")):
            for ref in re.findall(
                r"`(repro(?:\.[A-Za-z_]\w*)+)`", path.read_text()
            ):
                if not _resolves(ref):
                    unresolved.append(f"{path.name}: {ref}")
        assert not unresolved, unresolved

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
        "repro.controlplane",
        "repro.distributions",
        "repro.engine",
        "repro.experiments",
        "repro.faults",
        "repro.hardware",
        "repro.power",
        "repro.resilience",
        "repro.runner",
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
            assert symbol in dir(module), f"{name}.{symbol}"

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
        assert [row[0].strip("`") for row in rows] == [
            spec.exp_id for spec in registry.all_experiments()
        ]
        for row in rows:
            spec = registry.get(row[0].strip("`"))
            assert len(row) == len(header), spec.exp_id
            for name, cell in zip(names, row[1:]):
                assert cell in ("", "✓"), (spec.exp_id, name, cell)
                assert (cell == "✓") == spec.supports(name), (
                    spec.exp_id, name)


class TestExecutionOptionsTravelAsOneObject:
    """Below the entry points that callers reach with keywords, the
    execution options travel as one ``RunOptions``: no other public
    function of the measurement layers takes an option, ``trace`` or a
    journal path as a keyword of its own. A helper that acts on one
    value takes it under its own name (``arm_faults(world, plan)``);
    the shard adapter's executors take a shard count positionally only,
    as shorthand folded into their options."""

    #: The entry points beside the registry runners. Each picks its
    #: keywords into one ``RunOptions``.
    ENTRY_POINTS = {
        "repro.experiments.loadsweep.load_latency_sweep",
        "repro.experiments.loadsweep.measure_at_load",
        "repro.experiments.replication.replicate_at_load",
        "repro.experiments.tail_at_scale.measure_tail_at_scale",
    }

    def test_only_entry_points_take_option_keywords(self):
        import inspect
        import pkgutil
        from dataclasses import fields

        import repro.experiments
        from repro.experiments import registry
        from repro.experiments.options import RunOptions

        forbidden = {f.name for f in fields(RunOptions)} | {
            "trace", "journal_path", "shard_journal_dir",
        }
        allowed = self.ENTRY_POINTS | {
            f"{spec.runner.__module__}.{spec.runner.__qualname__}"
            for spec in registry.all_experiments()
        }
        modules = [
            f"repro.experiments.{info.name}"
            for info in pkgutil.iter_modules(repro.experiments.__path__)
        ] + ["repro.shard.adapter"]
        offenders = []
        for name in modules:
            module = importlib.import_module(name)
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                qualified = f"{name}.{attr}"
                if (attr.startswith("_") or fn.__module__ != name
                        or qualified in allowed):
                    continue
                taken = forbidden & {
                    param.name
                    for param in inspect.signature(fn).parameters.values()
                    if param.kind is not param.POSITIONAL_ONLY
                }
                if taken:
                    offenders.append(f"{qualified}{sorted(taken)}")
        assert not offenders, offenders
