"""The package as a user meets it: a fresh import, and README's library example."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import electionpulse

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter from the repository root on the package this
    suite imports."""
    package_parent = str(Path(electionpulse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_parent, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_import_loads_no_dataclasses_or_inspect() -> None:
    # Both cost start-up time on every run and the package needs neither.
    done = run_python(
        "-c",
        "import sys, electionpulse.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_library_example_runs() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "PipelineConfig(" in example and "pattern_score(" in example
    done = run_python("-c", example)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "{'raw': " in done.stdout  # the example's per-group count line
