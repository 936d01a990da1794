"""The benchmark's ``desk_grid`` workload measures the documented desk
pipeline: it runs the configuration of ``scripts/run_desk_pipeline.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_constant(path: Path, name: str):
    """The value of the module-level literal ``name`` in ``path``, read with
    ``ast`` so that the module is not imported."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == name
                                                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def test_desk_grid_workload_runs_the_desk_pipeline_configuration():
    workload = module_constant(ROOT / "perfbench" / "workload.py", "DESK_GRID_CONFIG")
    script = module_constant(ROOT / "scripts" / "run_desk_pipeline.py", "DESK_CONFIG")
    assert workload == script
