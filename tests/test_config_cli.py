"""Configuration validation and the command-line workflow."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import electionpulse.cli as cli_module
from electionpulse import actors as actors_module
from electionpulse import preprocess as preprocess_module
from electionpulse import sentiment as sentiment_module
from electionpulse import stemming as stemming_module
from electionpulse.cli import main, run
from electionpulse.config import ConfigError, validate_config
from electionpulse.ingest import SKIP_CAUSES, parse_tweet_stream
from electionpulse.preprocess import (
    MIN_CORRECTION_LENGTH,
    clean,
    process_tokens,
    text_tokens,
    tokenize,
)
from electionpulse.spelling import correct_spelling

ALL_ARTIFACTS = {
    "tweets.csv",
    "scores.csv",
    "compare.csv",
    "counts.json",
    "clouds.json",
    "timeseries.csv",
    "heatmap.json",
    "topics.json",
}


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def record_calls(monkeypatch, module, name: str, keep=lambda args, kwargs: args[0]) -> list:
    """Wrap ``module.name`` under every name the package bound it to, the
    way the benchmark tracer does; returns what ``keep`` takes from each call."""
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(keep(args, kwargs))
        return original(*args, **kwargs)

    for module_name, holder in list(sys.modules.items()):
        if module_name.startswith("electionpulse"):
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, recording)
    return calls


# The fixture config's manifest ``config`` section, paths relative to
# fixtures/. It holds every key, including the ones only the file can set.
FIXTURE_SNAPSHOT = {
    "input": {"path": "tweets_50.jsonl", "timezone": "+01:00", "field_map": {}},
    "actors": {
        "path": "actors.ini",
        "scope": ["willie_obiano_apga", "tony_nwoye_apc", "oseloka_obaze_pdp"],
    },
    "lexicons": {
        "pattern": "pattern_lexicon.csv",
        "senses": "sense_lexicon.tsv",
        "negators": "negators.txt",
        "nbc_corpus": "nbc_corpus.csv",
    },
    "preprocess": {
        "stopwords": "stopwords.txt",
        "dictionary": "dictionary.txt",
        "spellcheck": True,
        "stem": True,
        "extra_stopwords_from_actors": True,
    },
    "sentiment": {"engine": "pattern", "subjectivity_threshold": 0.5, "polarity_scale": 100.0},
    "topics": {
        "k": 5,
        "alpha": 0.1,
        "beta": 0.01,
        "iterations": 500,
        "top_words": 10,
        "min_doc_len": 1,
        "labels": {"0": "logistics", "1": "results", "2": "security", "3": "turnout", "4": "mood"},
    },
    "analytics": {"top_n": 10},
    "output": {"dir": "../out"},
    "run": {"seed": 42},
}


class TestValidateConfig:
    def test_fixture_snapshot_is_pinned(self, fixtures_dir, monkeypatch) -> None:
        monkeypatch.delenv("ELECTIONPULSE_SEED", raising=False)
        snapshot = validate_config(str(fixtures_dir / "config.ini")).snapshot
        relative = {
            section: {
                key: os.path.relpath(value, fixtures_dir)
                if isinstance(value, str) and os.path.isabs(value) else value
                for key, value in entries.items()
            }
            for section, entries in snapshot.items()
        }
        assert relative == FIXTURE_SNAPSHOT
        # JSON types too: 100.0 is not 100, and true is not 1.
        assert json.dumps(relative, sort_keys=True) == json.dumps(FIXTURE_SNAPSHOT, sort_keys=True)

    def test_diagnostics_are_pinned_in_order(self, config_factory, monkeypatch) -> None:
        monkeypatch.delenv("ELECTIONPULSE_SEED", raising=False)
        path = config_factory(**{
            "actors.scope": "willie_obiano_apga, peter_obi",
            "lexicons.negators": "/nowhere/negators.txt",
            "preprocess.stem": "maybe",
            "sentiment.engine": "vader",
            "topics.iterations": "many",
            "run.seed": "x",
        })
        with pytest.raises(ConfigError) as err:
            validate_config(path, {"topics.alpha": "-1"}, "topics", {"group": "nobody"})
        assert err.value.diagnostics == [
            "[actors] scope id 'peter_obi' is not a configured actor",
            "--group 'nobody' is not a configured actor",
            "[lexicons] negators: no such file: /nowhere/negators.txt",
            "[preprocess] stem = 'maybe' is not a boolean",
            "[sentiment] engine = 'vader' must be one of pattern, swn",
            "[topics] alpha = -1.0 must be positive and finite",
            "[topics] iterations = 'many' is not a valid int",
            "seed 'x' is not an integer",
        ]

    def test_fixture_config_loads(self, config_factory) -> None:
        config = validate_config(config_factory())
        assert config.scope == ["willie_obiano_apga", "tony_nwoye_apc", "oseloka_obaze_pdp"]
        assert config.engine == "pattern"
        assert config.seed == 42
        assert config.lda_k == 5
        assert config.topic_labels == {
            0: "logistics", 1: "results", 2: "security", 3: "turnout", 4: "mood",
        }
        assert os.path.isabs(config.input_path)
        assert os.path.isfile(config.pattern_lexicon_path)
        assert config.snapshot["run"]["seed"] == 42

    def test_all_violations_reported_together(self, config_factory) -> None:
        path = config_factory(**{
            "sentiment.engine": "vader",
            "lexicons.pattern": "/nowhere/pattern.csv",
        })
        with pytest.raises(ConfigError) as err:
            validate_config(path)
        text = err.value.diagnostics
        assert any("engine" in d for d in text)
        assert any("pattern" in d and "no such file" in d for d in text)
        assert len(text) == 2

    def test_unreadable_file_is_one_diagnostic(self, tmp_path) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(str(tmp_path / "missing.ini"))
        assert len(err.value.diagnostics) == 1

    def test_scope_defaults_to_every_combined_actor(self, config_factory) -> None:
        config = validate_config(config_factory(**{"actors.scope": None}))
        assert config.scope == [
            "willie_obiano_apga",
            "tony_nwoye_apc",
            "oseloka_obaze_pdp",
            "godwin_ezeemo_ppa",
            "osita_chidoka_upp",
        ]

    def test_unknown_scope_id(self, config_factory) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{"actors.scope": "peter_obi"}))
        assert any("peter_obi" in d for d in err.value.diagnostics)

    def test_spellcheck_requires_dictionary(self, config_factory) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{"preprocess.dictionary": None}))
        assert any("dictionary is required" in d for d in err.value.diagnostics)
        # Turning spellcheck off lifts the requirement.
        config = validate_config(config_factory(**{
            "preprocess.dictionary": None,
            "preprocess.spellcheck": "false",
        }))
        assert config.dictionary_path is None

    def test_broken_actor_file_diagnostics_name_the_actor(self, config_factory, tmp_path) -> None:
        actors = tmp_path / "broken_actors.ini"
        actors.write_text(
            "[willie_obiano]\nkind = candidate\naliases = obiano\n"
            "[willie_obiano_apga]\nkind = combined\naliases = obiano\n"
            "components = willie_obiano, apga\n",
            encoding="utf-8",
        )
        path = config_factory(**{"actors.path": str(actors), "actors.scope": None})
        with pytest.raises(ConfigError) as err:
            validate_config(path)
        assert any(
            "willie_obiano_apga" in d and "apga" in d and "missing" in d
            for d in err.value.diagnostics
        )

    def test_topic_labels_must_reference_live_topics(self, config_factory) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{"topics.k": "2"}))
        complaints = [d for d in err.value.diagnostics if "topic" in d]
        assert len(complaints) == 3  # labels 2, 3 and 4 point past k = 2

    def test_numeric_constraints(self, config_factory) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{
                "topics.alpha": "0",
                "topics.iterations": "0",
                "sentiment.subjectivity_threshold": "1.5",
                "analytics.top_n": "0",
            }))
        assert len(err.value.diagnostics) == 4

    @pytest.mark.parametrize("key", ["topics.alpha", "topics.beta", "sentiment.polarity_scale"])
    def test_infinite_constants_rejected(self, key, config_factory) -> None:
        section, _, name = key.partition(".")
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{key: "inf"}))
        assert err.value.diagnostics == [f"[{section}] {name} = inf must be positive and finite"]

    def test_bad_timezone(self, config_factory) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{"input.timezone": "+25:99"}))
        assert any("timezone" in d for d in err.value.diagnostics)

    def test_iana_timezone_accepted(self, config_factory) -> None:
        config = validate_config(config_factory(**{"input.timezone": "Africa/Lagos"}))
        assert config.timezone_name == "Africa/Lagos"

    def test_seed_precedence(self, config_factory, monkeypatch) -> None:
        path = config_factory()
        assert validate_config(path).seed == 42
        monkeypatch.setenv("ELECTIONPULSE_SEED", "7")
        assert validate_config(path).seed == 7
        # An explicit override (the CLI flag) beats the environment.
        assert validate_config(path, {"run.seed": "9"}).seed == 9


def _missing_config(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["counts", "--config", str(tmp_path / "none.ini")]


def _unknown_actor(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["cloud", "--config", config_factory(), "--actor", "peter_obi"]


def _unknown_group(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["topics", "--config", config_factory(), "--group", "nobody"]


def _train_nbc_without_corpus(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["train-nbc", "--config", config_factory(**{"lexicons.nbc_corpus": None})]


def _train_nbc_zero_alpha(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["train-nbc", "--config", config_factory(), "--alpha", "0"]


def _train_nbc_negative_alpha(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["train-nbc", "--config", config_factory(), "--alpha", "-1"]


def _train_nbc_infinite_alpha(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["train-nbc", "--config", config_factory(), "--alpha", "inf"]


def _unknown_group_and_bad_alpha(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["topics", "--config", config_factory(), "--group", "nobody", "--alpha", "-1"]


def _zero_alpha_and_bad_timezone(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["train-nbc", "--config", config_factory(), "--alpha", "0", "--timezone", "+99:00"]


def _unknown_actor_and_bad_top_n(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["cloud", "--config", config_factory(**{"analytics.top_n": "0"}), "--actor", "nobody"]


def _unknown_field(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["counts", "--config", config_factory(), "--field-map", "txet=body"]


def _empty_field_path(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["counts", "--config", config_factory(), "--field-map", "text"]


def _single_label_corpus(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    corpus = tmp_path / "single_label.csv"
    corpus.write_text("label,text\npos,good win\npos,great turnout\n", encoding="utf-8")
    return ["train-nbc", "--config", config_factory(**{"lexicons.nbc_corpus": str(corpus)})]


def _repeated_scope_id(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    scope = "willie_obiano_apga, willie_obiano_apga"
    return ["all", "--config", config_factory(**{"actors.scope": scope})]


def _output_is_a_file(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    return ["counts", "--config", config_factory(), "--output", str(afile)]


def _nbc_row_without_text(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    corpus = tmp_path / "nbc_corpus.csv"
    text = (fixtures_dir / "nbc_corpus.csv").read_text(encoding="utf-8")
    corpus.write_text(text + "positive\n", encoding="utf-8")
    return ["train-nbc", "--config", config_factory(**{"lexicons.nbc_corpus": str(corpus)})]


def _input_vanishes(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_bytes((fixtures_dir / "tweets_50.jsonl").read_bytes())
    validate = cli_module.validate_config

    def validate_then_delete(*args, **kwargs):
        config = validate(*args, **kwargs)
        tweets.unlink()
        return config

    monkeypatch.setattr(cli_module, "validate_config", validate_then_delete)
    return ["all", "--config", config_factory(**{"input.path": str(tweets)})]


# One row per documented failure: (id, argv maker, exit code, stderr
# fragment or tuple of fragments, manifest). Usage errors (2) stop before
# any output, so they expect no manifest; runtime failures (1) leave a
# failed manifest and nothing else, expected as (error fragment,
# input_digest prefix or None). A row with several usage errors names
# each one: all of them are reported, not just the first.
EXIT_CODE_MATRIX = [
    ("missing_config", _missing_config, 2, "config error", None),
    ("unknown_actor", _unknown_actor, 2, "peter_obi", None),
    ("unknown_group", _unknown_group, 2, "nobody", None),
    ("train_nbc_without_corpus", _train_nbc_without_corpus, 2, "nbc_corpus", None),
    ("train_nbc_zero_alpha", _train_nbc_zero_alpha, 2, "--alpha", None),
    ("train_nbc_negative_alpha", _train_nbc_negative_alpha, 2, "--alpha", None),
    ("train_nbc_infinite_alpha", _train_nbc_infinite_alpha, 2, "--alpha", None),
    ("unknown_group_and_bad_alpha", _unknown_group_and_bad_alpha, 2,
     ("--group 'nobody'", "[topics] alpha = -1.0"), None),
    ("zero_alpha_and_bad_timezone", _zero_alpha_and_bad_timezone, 2,
     ("--alpha must be positive", "[input] timezone = '+99:00'"), None),
    ("unknown_actor_and_bad_top_n", _unknown_actor_and_bad_top_n, 2,
     ("--actor 'nobody'", "[analytics] top_n = 0"), None),
    ("unknown_field", _unknown_field, 2, "'txet' is not a field", None),
    ("empty_field_path", _empty_field_path, 2, "text has an empty path", None),
    ("repeated_scope_id", _repeated_scope_id, 2,
     "[actors] scope id 'willie_obiano_apga' is repeated", None),
    ("output_is_a_file", _output_is_a_file, 2, "[output] dir: not a directory", None),
    ("single_label_nbc_corpus", _single_label_corpus, 1, "error", ("labels", "sha256:")),
    ("nbc_row_without_text", _nbc_row_without_text, 1, "nbc_corpus.csv line 10",
     ("ValueError: ", "sha256:")),
    ("input_vanishes_after_validation", _input_vanishes, 1, "error", ("FileNotFoundError", None)),
]


class TestCliExitCodes:
    @pytest.mark.parametrize(
        "argv_of,code,stderr_fragment,expected_manifest",
        [row[1:] for row in EXIT_CODE_MATRIX],
        ids=[row[0] for row in EXIT_CODE_MATRIX],
    )
    def test_documented_failure(
        self,
        argv_of,
        code,
        stderr_fragment,
        expected_manifest,
        config_factory,
        fixtures_dir,
        tmp_path,
        monkeypatch,
        capsys,
    ) -> None:
        argv = argv_of(config_factory, fixtures_dir, tmp_path, monkeypatch)
        assert main(argv) == code
        err = capsys.readouterr().err
        fragments = stderr_fragment if isinstance(stderr_fragment, tuple) else (stderr_fragment,)
        for fragment in fragments:
            assert fragment in err
        out_dir = tmp_path / "out"
        if expected_manifest is None:
            assert not out_dir.exists()
            return
        error_fragment, digest_prefix = expected_manifest
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
        manifest = read_json(out_dir / "manifest.json")
        assert manifest["status"] == "failed"
        assert error_fragment in manifest["error"]
        if digest_prefix is None:
            assert manifest["input_digest"] is None
        else:
            assert manifest["input_digest"].startswith(digest_prefix)


# One row per config-overriding flag: (subcommand, flag, value or None for
# a switch, the manifest ``config`` path the value must reach, the value
# found there). "{tmp}" stands for the test's directory. FLAG_BASE makes
# every key in the config file differ from the row's value, so a flag that
# never reaches its key fails its row.
FLAG_ROWS = [
    ("ingest", "--input", "{tmp}/tweets_50.jsonl", "input.path", "{tmp}/tweets_50.jsonl"),
    ("ingest", "--timezone", "Africa/Lagos", "input.timezone", "Africa/Lagos"),
    ("ingest", "--field-map", "text=text", "input.field_map", {"text": "text"}),
    ("ingest", "--stopwords", "{tmp}/stopwords.txt", "preprocess.stopwords", "{tmp}/stopwords.txt"),
    ("ingest", "--extra-stopwords-from-actors", None, "preprocess.extra_stopwords_from_actors", True),
    ("ingest", "--no-spellcheck", None, "preprocess.spellcheck", False),
    ("ingest", "--no-stem", None, "preprocess.stem", False),
    ("ingest", "--engine", "swn", "sentiment.engine", "swn"),
    ("ingest", "--output", "{tmp}/elsewhere", "output.dir", "{tmp}/elsewhere"),
    ("ingest", "--seed", "7", "run.seed", 7),
    ("heatmap", "--top-n", "3", "analytics.top_n", 3),
    ("topics", "--k", "6", "topics.k", 6),
    ("topics", "--alpha", "0.5", "topics.alpha", 0.5),
    ("topics", "--beta", "0.2", "topics.beta", 0.2),
    ("topics", "--iters", "7", "topics.iterations", 7),
    ("topics", "--top-words", "3", "topics.top_words", 3),
]
FLAG_BASE = {"preprocess.extra_stopwords_from_actors": "false", "topics.iterations": "5"}


class TestOverrideFlags:
    @pytest.mark.parametrize(
        "subcommand,flag,value,key,expected", FLAG_ROWS, ids=[row[1] for row in FLAG_ROWS]
    )
    def test_flag_reaches_its_config_key(
        self, subcommand, flag, value, key, expected, config_factory, fixtures_dir, tmp_path
    ) -> None:
        for name in ("tweets_50.jsonl", "stopwords.txt"):
            (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())

        def fill(item):
            return item.format(tmp=tmp_path) if isinstance(item, str) else item

        argv = [subcommand, "--config", config_factory(**FLAG_BASE), flag]
        if value is not None:
            argv.append(fill(value))
        assert main(argv) == 0
        out_dir = Path(fill(value)) if flag == "--output" else tmp_path / "out"
        found = read_json(out_dir / "manifest.json")["config"]
        for part in key.split("."):
            found = found[part]
        assert found == fill(expected)

    def test_every_override_flag_has_a_row(self) -> None:
        parser = cli_module._build_parser()
        (subparsers,) = [
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            action.option_strings[0]
            for subparser in subparsers.choices.values()
            for action in subparser._actions
            if "." in action.dest
        }
        assert flags | {"--field-map"} == {row[1] for row in FLAG_ROWS}

    def test_field_map_flag_moves_a_field(self, config_factory, fixtures_dir, tmp_path) -> None:
        moved = []
        for line in (fixtures_dir / "tweets_50.jsonl").read_text(encoding="utf-8").splitlines():
            payload = json.loads(line)
            texts = [payload.pop(key) for key in ("full_text", "text") if key in payload]
            payload["body"] = texts[0]
            moved.append(json.dumps(payload))
        tweets = tmp_path / "body.jsonl"
        tweets.write_text("\n".join(moved) + "\n", encoding="utf-8")
        path = config_factory(**{"input.path": str(tweets)})
        assert main(["counts", "--config", path, "--field-map", "text=body"]) == 0
        counts = read_json(tmp_path / "out" / "counts.json")
        assert counts["parse"] == {"lines_read": 50, "records": 50, "skipped": 0}
        assert counts["total_kept"] == 43


class TestCliRuns:
    def test_counts_artifact(self, config_factory, tmp_path) -> None:
        rc = main(["counts", "--config", config_factory()])
        assert rc == 0
        payload = read_json(tmp_path / "out" / "counts.json")
        assert payload["total_raw"] == 50
        assert payload["total_kept"] == 43
        assert payload["coverage_pct"] == 62.79
        assert payload["per_group"]["willie_obiano"] == {"raw": 10, "kept": 9}
        assert payload["parse"] == {"lines_read": 50, "records": 50, "skipped": 0}
        assert set(payload["combined_avg_polarity"]) == {
            "willie_obiano_apga",
            "tony_nwoye_apc",
            "oseloka_obaze_pdp",
            "godwin_ezeemo_ppa",
            "osita_chidoka_upp",
        }

    def test_empty_input_succeeds_with_headers_only(self, config_factory, tmp_path) -> None:
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        rc = main(["sentiment", "--config", config_factory(**{"input.path": str(empty)})])
        assert rc == 0
        lines = (tmp_path / "out" / "scores.csv").read_text(encoding="utf-8").splitlines()
        assert lines == ["id,polarity,subjectivity,polarity_class,subjectivity_class"]

    def test_manifest_records_the_run(self, config_factory, tmp_path) -> None:
        rc = main(["sentiment", "--config", config_factory()])
        assert rc == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert sorted(manifest) == [
            "config", "dataset", "error", "finished_at", "input_digest",
            "seed", "stages", "started_at", "status", "subcommand",
            "tool", "total_seconds",
        ]
        assert manifest["status"] == "ok"
        assert manifest["error"] is None
        assert manifest["subcommand"] == "sentiment"
        assert manifest["seed"] == 42
        assert manifest["input_digest"].startswith("sha256:")
        assert manifest["dataset"]["total_kept"] == 43
        stage_names = [stage["name"] for stage in manifest["stages"]]
        assert stage_names[:3] == ["load", "ingest", "preprocess"]

    def test_manifest_stage_records(self, config_factory, tmp_path) -> None:
        assert main(["all", "--config", config_factory()]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        records = {stage["name"]: stage["records"] for stage in manifest["stages"]}
        assert records == {
            "load": 5,
            "ingest": 50,
            "preprocess": 43,
            "export": 43,
            "score": 43,
            "compare": 43,
            "counts": 15,
            "cloud": 5,
            "timeseries": 3 * 8,
            "heatmap": 3,
            "topics": 5,
        }

    def test_preprocess_stage_times_dataset_stats(
        self, config_factory, tmp_path, monkeypatch
    ) -> None:
        real = cli_module.dataset_stats

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "dataset_stats", slow)
        assert main(["counts", "--config", config_factory()]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        seconds = {stage["name"]: stage["seconds"] for stage in manifest["stages"]}
        assert seconds["preprocess"] >= 0.05

    def test_stage_seconds_add_up_to_the_total(self, config_factory, tmp_path) -> None:
        assert main(["all", "--config", config_factory()]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        staged = sum(stage["seconds"] for stage in manifest["stages"])
        assert 0 <= manifest["total_seconds"] - staged <= 0.05

    @pytest.mark.parametrize("args", [["all"], ["topics", "--group", "apga"]])
    def test_each_record_is_matched_once(
        self, args, config_factory, records, monkeypatch
    ) -> None:
        cleaned = record_calls(monkeypatch, preprocess_module, "clean")
        matched = record_calls(monkeypatch, actors_module, "match_actors")
        assert main([*args, "--config", config_factory()]) == 0
        assert sorted(cleaned) == sorted(record.text for record in records)
        assert len(matched) == len(records) == 50

    def test_each_distinct_token_is_stemmed_once(
        self, config_factory, records, pipeline, actor_set, monkeypatch
    ) -> None:
        stemmed = record_calls(monkeypatch, stemming_module, "porter_stem")
        assert main(["all", "--config", config_factory()]) == 0
        assert len(stemmed) == len(set(stemmed))
        unstemmed = replace(pipeline, stemming=False)
        stemmable = {
            token
            for record in records
            if not record.is_retweet
            for token in process_tokens(text_tokens(record.text), unstemmed)
            if token.isascii() and token.isalpha()
        }
        # The kept tokens, plus the alias words the clouds leave out.
        assert set(stemmed) == stemmable | actor_set.alias_words()

    @pytest.mark.parametrize("engine", ["pattern", "swn"])
    def test_each_engine_scores_once_per_run(self, engine, config_factory, monkeypatch) -> None:
        scored = record_calls(monkeypatch, sentiment_module, "score_all", keep=lambda a, k: a[1])
        assert main(["all", "--config", config_factory(), "--engine", engine]) == 0
        # The configured engine first (scores.csv), the other for compare.csv.
        assert scored[0] == engine
        assert sorted(scored) == ["pattern", "swn"]

    def test_manifest_counts_exclusions_by_reason(self, config_factory, records, tmp_path) -> None:
        assert main(["counts", "--config", config_factory()]) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        excluded = dataset["excluded"]
        assert set(excluded) == {"retweet", "empty_after_filtering"}
        assert dataset["total_kept"] + sum(excluded.values()) == dataset["total_raw"] == 50
        assert excluded["retweet"] == sum(record.is_retweet for record in records)

    @pytest.mark.parametrize(
        "flags,hits",
        [([], {"pattern": 40, "swn": 39}), (["--no-stem"], {"pattern": 20, "swn": 19})],
    )
    def test_manifest_lexicon_coverage(self, flags, hits, config_factory, tmp_path) -> None:
        assert main(["all", "--config", config_factory(), *flags]) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        assert dataset["total_kept"] == 43
        coverage = dataset["lexicon"]
        assert {engine: entry["tweets_hit"] for engine, entry in coverage.items()} == hits
        for entry in coverage.values():
            assert 0.0 < entry["token_hit_rate"] < 1.0

    def test_manifest_reports_rejected_sense_rows(self, fixtures_dir, tmp_path) -> None:
        fixtures = tmp_path / "fixtures"
        shutil.copytree(fixtures_dir, fixtures)
        senses = fixtures / "sense_lexicon.tsv"
        rows = []
        for row in senses.read_text(encoding="utf-8").splitlines():
            if row.strip() and not row.startswith("#"):
                parts = row.split("\t")
                parts[2:4] = ["0.9", "0.9"]  # PosScore + NegScore > 1: every row is invalid
                row = "\t".join(parts)
            rows.append(row)
        senses.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["compare", "--config", str(fixtures / "config.ini")]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert manifest["status"] == "ok"
        swn = manifest["dataset"]["lexicon"]["swn"]
        assert swn["tweets_hit"] == 0
        assert swn["rows_read"] == swn["rows_rejected"] == 50
        assert "rows_read" not in manifest["dataset"]["lexicon"]["pattern"]

    def test_manifest_counts_parse_skips_by_cause(self, config_factory, tmp_path) -> None:
        argv = ["counts", "--config", config_factory(), "--field-map", "text=nonexistent.path"]
        assert main(argv) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        assert dataset["skipped"] == {**dict.fromkeys(SKIP_CAUSES, 0), "missing_field": 50}
        assert dataset["lines_read"] == dataset["total_raw"] + dataset["lines_skipped"] == 50

    def test_manifest_lexicon_lists_only_engines_scored(self, config_factory, tmp_path) -> None:
        assert main(["sentiment", "--config", config_factory(), "--engine", "swn"]) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        assert list(dataset["lexicon"]) == ["swn"]
        assert main(["counts", "--config", config_factory(), "--output", str(tmp_path / "c")]) == 0
        dataset = read_json(tmp_path / "c" / "manifest.json")["dataset"]
        assert list(dataset["lexicon"]) == ["pattern"]

    def test_input_digest_is_of_the_parsed_bytes(
        self, config_factory, fixtures_dir, tmp_path
    ) -> None:
        assert main(["ingest", "--config", config_factory()]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        expected = hashlib.sha256((fixtures_dir / "tweets_50.jsonl").read_bytes()).hexdigest()
        assert manifest["input_digest"] == "sha256:" + expected

    def test_manifest_spelling_activity(self, config_factory, fixtures_dir, dictionary, tmp_path) -> None:
        assert main(["sentiment", "--config", config_factory()]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        records, _ = parse_tweet_stream(str(fixtures_dir / "tweets_50.jsonl"))
        looked_up = [
            token
            for record in records
            if not record.is_retweet
            for token in tokenize(clean(record.text))
            if len(token) >= MIN_CORRECTION_LENGTH and token not in dictionary
        ]
        plain = dict(dictionary)
        assert manifest["dataset"]["spelling"] == {
            "lookups": len(looked_up),
            "distinct": len(set(looked_up)),
            "corrected": sum(correct_spelling(token, plain) != token for token in looked_up),
        }
        assert looked_up == ["electin"]

    def test_spelling_activity_is_zero_without_spellcheck(self, config_factory, tmp_path) -> None:
        assert main(["sentiment", "--config", config_factory(), "--no-spellcheck"]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert manifest["dataset"]["spelling"] == {"lookups": 0, "distinct": 0, "corrected": 0}

    def test_input_vanishing_after_validation_fails_with_manifest(
        self, config_factory, fixtures_dir, tmp_path, capsys
    ) -> None:
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_bytes((fixtures_dir / "tweets_50.jsonl").read_bytes())
        config = validate_config(config_factory(**{"input.path": str(tweets)}))
        tweets.unlink()
        assert run("all", config) == 1
        out_dir = tmp_path / "out"
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
        manifest = read_json(out_dir / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("FileNotFoundError")
        assert manifest["input_digest"] is None
        assert "error" in capsys.readouterr().err

    def test_cloud_actor_option_narrows_output(self, config_factory, tmp_path) -> None:
        rc = main(["cloud", "--config", config_factory(), "--actor", "willie_obiano"])
        assert rc == 0
        payload = read_json(tmp_path / "out" / "clouds.json")
        assert list(payload) == ["willie_obiano"]

    def test_cloud_defaults_to_all_candidates(self, config_factory, tmp_path) -> None:
        rc = main(["cloud", "--config", config_factory()])
        assert rc == 0
        payload = read_json(tmp_path / "out" / "clouds.json")
        assert sorted(payload) == [
            "godwin_ezeemo", "oseloka_obaze", "osita_chidoka",
            "tony_nwoye", "willie_obiano",
        ]

    def test_shrinking_k_invalidates_configured_labels(self, config_factory, capsys) -> None:
        # Overrides validate against the same rules as the file itself.
        rc = main(["topics", "--config", config_factory(), "--k", "2"])
        assert rc == 2
        assert "topic_labels" in capsys.readouterr().err

    def test_topics_group_restricts_corpus(self, config_factory, tmp_path) -> None:
        path = config_factory(**{
            "topic_labels.2": None,
            "topic_labels.3": None,
            "topic_labels.4": None,
        })
        rc = main([
            "topics", "--config", path,
            "--group", "apga", "--k", "2", "--iters", "50", "--top-words", "3",
        ])
        assert rc == 0
        payload = read_json(tmp_path / "out" / "topics.json")
        assert payload["group"] == "apga"
        assert payload["k"] == 2
        assert len(payload["topics"]) == 2
        for topic in payload["topics"]:
            assert len(topic["keywords"]) == 3

    def test_seed_flag_overrides_config(self, config_factory, tmp_path) -> None:
        rc = main(["sentiment", "--config", config_factory(), "--seed", "99"])
        assert rc == 0
        assert read_json(tmp_path / "out" / "manifest.json")["seed"] == 99

    def test_all_writes_every_artifact(self, config_factory, tmp_path) -> None:
        rc = main(["all", "--config", config_factory()])
        assert rc == 0
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == ALL_ARTIFACTS | {"manifest.json"}

    def test_reruns_are_byte_identical(self, config_factory, tmp_path) -> None:
        path = config_factory()
        assert main(["all", "--config", path]) == 0
        out_dir = tmp_path / "out"
        first = {name: (out_dir / name).read_bytes() for name in ALL_ARTIFACTS}
        assert main(["all", "--config", path]) == 0
        for name in ALL_ARTIFACTS:
            assert (out_dir / name).read_bytes() == first[name], name

    def test_no_stem_flag_changes_tokens(self, config_factory, tmp_path) -> None:
        rc = main(["ingest", "--config", config_factory(), "--no-stem"])
        assert rc == 0
        tweets = (tmp_path / "out" / "tweets.csv").read_text(encoding="utf-8")
        assert "polling" in tweets  # stemming would have cut this to "poll"
