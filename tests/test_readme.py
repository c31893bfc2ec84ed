"""The README's code blocks must actually work."""

from __future__ import annotations

import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


def test_readme_has_python_examples():
    assert len(python_blocks()) >= 1


def test_readme_quickstart_executes():
    namespace: dict = {}
    for block in python_blocks():
        exec(compile(block, "<README>", "exec"), namespace)  # noqa: S102
    # The quickstart leaves a timed result behind.
    assert "result" in namespace
    assert namespace["result"].gteps() > 0


def test_readme_mentions_the_deliverables():
    for anchor in (
        "DESIGN.md",
        "EXPERIMENTS.md",
        "repro-bench",
        "pytest benchmarks/ --benchmark-only",
        "examples/quickstart.py",
    ):
        assert anchor in README, anchor


def test_readme_experiment_ids_exist():
    from repro.bench.experiments import EXPERIMENTS

    for exp_id in re.findall(r"repro-bench (fig\d+|table\d+)", README):
        assert exp_id in EXPERIMENTS, exp_id


def test_version_consistency():
    """``repro.__version__`` matches the version ``pyproject.toml``
    declares.  Read from the source tree, not installed metadata, so the
    check holds under ``PYTHONPATH=src`` without a ``pip install``."""
    import sys

    import repro

    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        declared = tomllib.loads(pyproject)["project"]["version"]
    else:
        project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
        declared = re.search(
            r'^version\s*=\s*"([^"]+)"', project.group(1), re.M
        ).group(1)
    assert repro.__version__ == declared


def test_design_doc_module_inventory_is_real():
    """Every module DESIGN.md's inventory names must exist on disk."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    design = (root / "DESIGN.md").read_text()
    for module in re.findall(r"^\s{4}(\w+\.py)", design, flags=re.MULTILINE):
        hits = list((root / "src" / "repro").rglob(module))
        assert hits, f"DESIGN.md names {module} but no such file exists"


def test_experiments_doc_covers_every_experiment():
    from pathlib import Path

    from repro.bench.experiments import EXPERIMENTS

    root = Path(__file__).resolve().parent.parent
    text = (root / "EXPERIMENTS.md").read_text()
    for exp_id in EXPERIMENTS:
        assert f"`{exp_id}`" in text, f"{exp_id} missing from EXPERIMENTS.md"
