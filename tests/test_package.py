"""The package as a user meets it: a fresh import, README's library example,
README's configuration and flag tables checked against the code, text inputs
saved with a byte-order mark, and the names the benchmark harness reaches into."""

from __future__ import annotations

import argparse
import configparser
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import electionpulse
from electionpulse.actors import load_actor_file
from electionpulse.cli import _build_parser, main
from electionpulse.config import validate_config
from electionpulse.ingest import ParseReport, parse_tweet_stream
from electionpulse.preprocess import load_stopwords
from electionpulse.sentiment import load_negators, load_pattern_lexicon, load_sense_lexicon
from electionpulse.spelling import load_dictionary
from electionpulse.topics import TopicModel

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


# Each text input's loader, and content whose first line a leading BOM would
# change: None stands for the bundled config with absolute paths.
BOM_INPUTS = {
    "stopwords": (load_stopwords, "the\nand\n"),
    "negators": (load_negators, "not\nnever\n"),
    "dictionary": (lambda path: dict(load_dictionary(path)), "election\t10\nvote\t5\n"),
    "pattern_lexicon": (load_pattern_lexicon, "good,0.7,0.6\nbad,-0.7,0.6\n"),
    "sense_lexicon": (load_sense_lexicon, "a\t00001001\t0.75\t0.0\tgood#1\tpositive\n"),
    "actors": (
        lambda path: load_actor_file(path).actors,
        "[obiano]\nkind = candidate\naliases = obiano\n",
    ),
    "config": (lambda path: validate_config(path)._replace(actor_set=None), None),
    "tweets": (
        lambda path: parse_tweet_stream(path)[0],
        '{"id_str": "1", "created_at": "Sat Nov 18 09:00:00 +0000 2017", "text": "vote"}\n',
    ),
}


@pytest.mark.parametrize("name", BOM_INPUTS)
def test_text_inputs_may_start_with_a_byte_order_mark(name, config_factory, tmp_path) -> None:
    load, content = BOM_INPUTS[name]
    if content is None:
        content = Path(config_factory()).read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(content, encoding="utf-8")
    marked.write_text("\ufeff" + content, encoding="utf-8")
    assert load(str(marked)) == load(str(plain))


def _load_bench_module(name: str):
    """Import ``bench/<name>.py`` by path, as ``python3 bench/<name>.py`` runs it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_reaches_only_names_the_package_defines(monkeypatch) -> None:
    # The harness wraps these functions, reads these fields and rewrites these
    # config keys; a rename in the package would otherwise fail only a traced run.
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))
    loaded = set(sys.modules)
    try:
        tracer = _load_bench_module("tracer")
        run = _load_bench_module("run")
    finally:
        for module_name in set(sys.modules) - loaded:
            if str(bench) in str(getattr(sys.modules[module_name], "__file__", "")):
                del sys.modules[module_name]
    for table in (tracer.SPANS, tracer.ITEMS):
        for module_name, functions in table.items():
            module = importlib.import_module(f"electionpulse.{module_name}")
            missing = [name for name in functions if not callable(getattr(module, name, None))]
            assert not missing, (module_name, missing)
    # What the tracer's observers read off a result.
    assert hasattr(TopicModel, "doc_lengths") and hasattr(TopicModel, "iterations")
    assert hasattr(ParseReport, "lines_read") and hasattr(ParseReport, "lines_skipped")
    config = configparser.ConfigParser(interpolation=None)
    config.read(ROOT / "fixtures" / "config.ini", encoding="utf-8")
    assert all(config.has_option(section, key) for section, key in run.PATH_KEYS)
