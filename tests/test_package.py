"""The package as a user meets it: a fresh import, README's library example, and
README's configuration and flag tables checked against the code."""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import electionpulse
from electionpulse.cli import _build_parser, main
from electionpulse.config import validate_config

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


def loaded_of(names: tuple[str, ...], *imports: str) -> str:
    """Which of ``names`` a fresh interpreter holds after importing ``imports``."""
    code = "; ".join(["import sys", *(f"import {module}" for module in imports)])
    done = run_python("-c", f"{code}; print(sorted(m for m in {names!r} if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_dataclasses_or_inspect() -> None:
    # Both cost start-up time on every run and the package needs neither.
    # Compared with a bare interpreter, since a site hook may load either.
    names = ("dataclasses", "inspect")
    assert loaded_of(names, "electionpulse.cli") == loaded_of(names)


def test_cli_import_loads_no_decimal_or_zoneinfo() -> None:
    # Percentages are rounded in integers, and timestamps are read in one
    # fixed offset, so neither module is needed.
    names = ("decimal", "zoneinfo")
    assert loaded_of(names, "electionpulse.cli") == loaded_of(names)


def test_readme_library_example_runs() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "PipelineConfig(" in example and "pattern_score(" in example
    done = run_python("-c", example)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "{'raw': " in done.stdout  # the example's per-group count line


def test_readme_quick_start_commands_exit_0(tmp_path, monkeypatch) -> None:
    # Every command README's Quick start shows must run as shown; each writes
    # into its own directory under tmp_path instead of the one it names.
    monkeypatch.chdir(ROOT)
    blocks = _readme_section("## Quick start").split("```sh\n")[1:]
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.split("```", 1)[0].splitlines()
        if line.startswith("electionpulse ")
    ]
    assert [argv[0] for argv in commands].count("topics") == 1  # both blocks were read
    for n, argv in enumerate(commands):
        assert main([*argv, "--output", str(tmp_path / str(n))]) == 0, argv


def _readme_section(heading: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def _table_rows(text: str) -> list[list[str]]:
    """The cells of each Markdown table row in ``text``; ``\\|`` stays in its cell."""
    return [
        [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in text.splitlines()
        if line.startswith("| `")
    ]


def test_readme_config_table_lists_exactly_the_configuration_keys() -> None:
    snapshot = validate_config(str(ROOT / "fixtures" / "config.ini")).snapshot
    keys = {section: set(entries) for section, entries in snapshot.items()}
    documented = {}
    for section, cell in _table_rows(_readme_section("## Configuration")):
        documented[section.strip("`")] = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))
    assert documented == keys


def test_readme_flag_table_names_only_defined_flags() -> None:
    parser = _build_parser()
    (subparsers,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    defined = {
        flag
        for subparser in [parser, *subparsers.choices.values()]
        for action in subparser._actions
        for flag in action.option_strings
    }
    section = _readme_section("## CLI")
    named = {flag for row in _table_rows(section) for flag in re.findall(r"--[\w-]+", row[0])}
    listed = section.split("Common flags", 1)[1].split("|", 1)[0]
    named |= set(re.findall(r"--[\w-]+", listed))
    assert "--seed" in named
    assert named <= defined, sorted(named - defined)
