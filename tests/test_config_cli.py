"""Configuration validation and the command-line workflow."""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

import pytest

import electionpulse.cli as cli_module
from electionpulse import _util as util_module
from electionpulse import actors as actors_module
from electionpulse import analytics as analytics_module
from electionpulse import preprocess as preprocess_module
from electionpulse import sentiment as sentiment_module
from electionpulse import spelling as spelling_module
from electionpulse import stemming as stemming_module
from electionpulse import topics as topics_module
from electionpulse.analytics import OUT_OF_RANGE
from electionpulse.cli import main, run
from electionpulse.config import ConfigError, validate_config
from electionpulse.ingest import MAX_TEXT_BYTES, SKIP_CAUSES, TweetRecord, parse_tweet_stream
from electionpulse.preprocess import (
    MIN_CORRECTION_LENGTH,
    clean,
    text_tokens,
    tokenize,
)
from electionpulse.sentiment import ENGINES
from electionpulse.spelling import SpellingDictionary, correct_spelling

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


def _series_count(out_dir: Path) -> int:
    """The tweets counted over every cell of a run's timeseries.csv."""
    with open(out_dir / "timeseries.csv", encoding="utf-8", newline="") as handle:
        return sum(int(row["count"]) for row in csv.DictReader(handle))


# The fixture config's manifest ``config`` section, paths relative to
# fixtures/. It holds every key, including the ones only the file can set.
FIXTURE_SNAPSHOT = {
    "input": {"path": "tweets_50.jsonl"},
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
    },
    "sentiment": {"engine": "pattern"},
    "topics": {"k": 5, "iterations": 500},
    "output": {"dir": "../out"},
    "run": {"seed": 42},
}


class TestValidateConfig:
    def test_fixture_snapshot_is_pinned(self, fixtures_dir) -> None:
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

    def test_diagnostics_are_pinned_in_order(self, config_factory) -> None:
        path = config_factory(**{
            "actors.scope": "willie_obiano_apga, peter_obi",
            "lexicons.negators": "/nowhere/negators.txt",
            "preprocess.spellcheck": "maybe",
            "sentiment.engine": "vader",
            "topics.iterations": "many",
            "output.dir": "",
            "run.seed": "x",
        })
        with pytest.raises(ConfigError) as err:
            validate_config(path, {"topics.k": "-1"}, "cloud")
        assert err.value.diagnostics == [
            "[actors] scope id 'peter_obi' is not a configured actor",
            "[lexicons] negators: no such file: /nowhere/negators.txt",
            "[preprocess] spellcheck = 'maybe' is not a boolean",
            "[sentiment] engine = 'vader' must be one of pattern, swn",
            "[topics] k = -1 must be at least 1",
            "[topics] iterations = 'many' is not a valid int",
            "[output] dir is empty",
            "seed 'x' is not an integer",
        ]

    def test_fixture_config_loads(self, config_factory) -> None:
        config = validate_config(config_factory())
        assert config.scope == ["willie_obiano_apga", "tony_nwoye_apc", "oseloka_obaze_pdp"]
        assert config.engine == "pattern"
        assert config.seed == 42
        assert config.lda_k == 5
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

    def test_spellcheck_requires_dictionary(self, config_factory, fixtures_dir) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{"preprocess.dictionary": None}))
        assert any("dictionary is required" in d for d in err.value.diagnostics)
        # Turning spellcheck off lifts the requirement.
        config = validate_config(config_factory(**{
            "preprocess.dictionary": None,
            "preprocess.spellcheck": "false",
        }))
        assert config.dictionary_path is None
        # With spelling off a set dictionary is not the run's, but the
        # snapshot still records the path the file gives.
        config = validate_config(config_factory(**{"preprocess.spellcheck": "false"}))
        assert config.dictionary_path is None
        assert config.snapshot["preprocess"]["dictionary"] == str(fixtures_dir / "dictionary.txt")
        assert config.snapshot["preprocess"]["spellcheck"] is False

    def test_broken_actor_file_diagnostics_name_the_actor(self, config_factory, tmp_path) -> None:
        actors = tmp_path / "broken_actors.ini"
        actors.write_text(
            "[willie_obiano]\nkind = candidate\naliases = obiano\n"
            "[willie_obiano_apga]\nkind = combined\n"
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

    def test_numeric_constraints(self, config_factory) -> None:
        with pytest.raises(ConfigError) as err:
            validate_config(config_factory(**{"topics.k": "0", "topics.iterations": "0"}))
        assert err.value.diagnostics == [
            "[topics] k = 0 must be at least 1",
            "[topics] iterations = 0 must be at least 1",
        ]

    def test_seed_precedence(self, config_factory) -> None:
        path = config_factory()
        assert validate_config(path).seed == 42
        # An explicit override (the CLI flag) beats the file.
        assert validate_config(path, {"run.seed": "9"}).seed == 9

    def test_seed_environment_variable_is_ignored(
        self, config_factory, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.setenv("ELECTIONPULSE_SEED", "7")
        assert main(["counts", "--config", config_factory()]) == 0
        assert read_json(tmp_path / "out" / "manifest.json")["seed"] == 42

    def test_known_default_key_is_no_label_or_field(self, config_factory) -> None:
        # [DEFAULT] keys reach every section's reads, and a key some read
        # asked for is no stray in any section.
        path = Path(config_factory(**{"run.seed": None}))
        path.write_text("[DEFAULT]\nseed = 1\n" + path.read_text(encoding="utf-8"))
        config = validate_config(str(path))
        assert config.seed == 1

    def test_stray_default_key_is_one_diagnostic(self, config_factory) -> None:
        path = Path(config_factory())
        path.write_text("[DEFAULT]\nstray = 1\n" + path.read_text(encoding="utf-8"))
        with pytest.raises(ConfigError) as err:
            validate_config(str(path))
        assert err.value.diagnostics == ["[DEFAULT] stray is not a configuration key"]



def _missing_config(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["counts", "--config", str(tmp_path / "none.ini")]


def _unknown_actor(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["cloud", "--config", config_factory(**{"actors.scope": "peter_obi"})]


def _train_nbc_without_corpus(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["train-nbc", "--config", config_factory(**{"lexicons.nbc_corpus": None})]


def _unknown_actor_and_zero_iterations(
    config_factory, fixtures_dir, tmp_path, monkeypatch
) -> list[str]:
    path = config_factory(**{"actors.scope": "willie_obiano_apga, nobody"})
    return ["cloud", "--config", path, "--iters", "0"]


def _unmatchable_alias(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    # Tweet tokens never end in punctuation, so "apga." could never match.
    roster = (fixtures_dir / "actors.ini").read_text(encoding="utf-8")
    actors = tmp_path / "actors.ini"
    actors.write_text(roster.replace("aliases = apga\n", "aliases = apga.\n"), encoding="utf-8")
    return ["counts", "--config", config_factory(**{"actors.path": str(actors)})]


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


def _output_under_a_file(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    return ["counts", "--config", config_factory(), "--output", str(afile / "out")]


def _nbc_row_without_text(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    corpus = tmp_path / "nbc_corpus.csv"
    text = (fixtures_dir / "nbc_corpus.csv").read_text(encoding="utf-8")
    corpus.write_text(text + "positive\n", encoding="utf-8")
    return ["train-nbc", "--config", config_factory(**{"lexicons.nbc_corpus": str(corpus)})]


def _nbc_empty_label(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    corpus = tmp_path / "nbc_corpus.csv"
    text = (fixtures_dir / "nbc_corpus.csv").read_text(encoding="utf-8")
    corpus.write_text(text + ",good win today\n", encoding="utf-8")
    return ["train-nbc", "--config", config_factory(**{"lexicons.nbc_corpus": str(corpus)})]


def _misspelled_key(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    typo = {"topics.iterations": None, "topics.iteration": "5"}
    return ["topics", "--config", config_factory(**typo)]


def _unknown_section(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["topics", "--config", config_factory(**{"topcs.iterations": "5"})]


def _topic_labels_section(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    # A [topic_labels] section left from an old config is a stray section.
    return ["topics", "--config", config_factory(**{"topic_labels.0": "logistics"})]


# Keys that no configuration has, each refused with its own diagnostic:
# a [fields] section (the parser reads Twitter's classic shape, so no key
# moves a field), entries an old manifest's snapshot would carry (a field
# map; topic labels, though a topic's index depends on the seed, the
# corpus, k and the sweep count), and inputs that became constants, each
# set to its old value (stemming always runs, the polarity column is x100,
# alias words are always stopwords, the subjectivity split, the heatmap
# rows, the Dirichlet priors, the keywords per topic and the length floor).
LEFTOVER_KEYS = {
    "fields.txet": "body",
    "fields.text": "",
    "fields.author": "user.screen_name",
    "input.field_map": "text=body",
    "input.timezone": "+01:00",
    "topics.labels": "a",
    "preprocess.stem": "false",
    "sentiment.polarity_scale": "1",
    "preprocess.extra_stopwords_from_actors": "true",
    "sentiment.subjectivity_threshold": "0.5",
    "analytics.top_n": "10",
    "topics.alpha": "0.1",
    "topics.beta": "0.01",
    "topics.top_words": "10",
    "topics.min_doc_len": "1",
}


def _leftover_keys(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["all", "--config", config_factory(**LEFTOVER_KEYS)]


def _aliases_on_combined_actor(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    roster = (fixtures_dir / "actors.ini").read_text(encoding="utf-8")
    head, marker, tail = roster.partition("[willie_obiano_apga]\n")
    actors = tmp_path / "actors.ini"
    actors.write_text(head + marker + "aliases = obiano apga ticket\n" + tail, encoding="utf-8")
    return ["counts", "--config", config_factory(**{"actors.path": str(actors)})]


def _textless_tweets(fixtures_dir, tmp_path) -> str:
    """A copy of tweets_50.jsonl with ``text`` and ``full_text`` removed."""
    lines = []
    for raw in (fixtures_dir / "tweets_50.jsonl").read_text(encoding="utf-8").splitlines():
        payload = json.loads(raw)
        payload.pop("text", None)
        payload.pop("full_text", None)
        lines.append(json.dumps(payload))
    path = tmp_path / "textless.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _all_lines_skipped(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    tweets = _textless_tweets(fixtures_dir, tmp_path)
    return ["all", "--config", config_factory(), "--input", tweets]


def _narrow_topic_group(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    # The fixture's first tweet alone: its 7 distinct terms are fewer than
    # the 10 keywords each topic reports.
    tweets = tmp_path / "one_tweet.jsonl"
    with open(fixtures_dir / "tweets_50.jsonl", encoding="utf-8") as handle:
        tweets.write_text(handle.readline(), encoding="utf-8")
    return ["topics", "--config", config_factory(), "--input", str(tweets)]


def _interrupt(*args, **kwargs):
    """Stands in for a Ctrl-C during the topic fit."""
    raise KeyboardInterrupt


def _header_only_pattern_lexicon(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    lexicon = tmp_path / "pattern_lexicon.csv"
    lexicon.write_text("lemma,polarity,subjectivity\n", encoding="utf-8")
    return ["counts", "--config", config_factory(**{"lexicons.pattern": str(lexicon)})]


def _space_separated_dictionary(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    dictionary = tmp_path / "dictionary.txt"
    dictionary.write_text("vote\t5\nelection 500\n", encoding="utf-8")
    return ["counts", "--config", config_factory(**{"preprocess.dictionary": str(dictionary)})]


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


def _bad_flag_values(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    return ["topics", "--config", config_factory(), "--k", "x", "--seed", "y", "--engine", "foo"]


def _empty_engine_and_output(config_factory, fixtures_dir, tmp_path, monkeypatch) -> list[str]:
    # Empty is not absent: neither value falls back to its key's default.
    return ["counts", "--config", config_factory(), "--engine", "", "--output", ""]


# One row per documented failure: (id, argv maker, exit code, stderr
# fragment or tuple of fragments, manifest). Usage errors (2) stop before
# any output, so they expect no manifest; runtime failures (1) leave a
# failed manifest and nothing else, expected as (error fragment,
# input_digest prefix or None). A row with several usage errors names
# each one: all of them are reported, not just the first.
EXIT_CODE_MATRIX = [
    ("missing_config", _missing_config, 2, "config error", None),
    ("unknown_actor", _unknown_actor, 2,
     "[actors] scope id 'peter_obi' is not a configured actor", None),
    ("train_nbc_without_corpus", _train_nbc_without_corpus, 2, "nbc_corpus", None),
    ("unknown_actor_and_zero_iterations", _unknown_actor_and_zero_iterations, 2,
     ("[actors] scope id 'nobody' is not a configured actor",
      "[topics] iterations = 0 must be at least 1"), None),
    ("bad_flag_values", _bad_flag_values, 2,
     ("[topics] k = 'x' is not a valid int", "seed 'y' is not an integer",
      "[sentiment] engine = 'foo' must be one of pattern, swn"), None),
    ("empty_engine_and_output", _empty_engine_and_output, 2,
     ("[sentiment] engine = '' must be one of pattern, swn", "[output] dir is empty"), None),
    ("repeated_scope_id", _repeated_scope_id, 2,
     "[actors] scope id 'willie_obiano_apga' is repeated", None),
    ("output_is_a_file", _output_is_a_file, 2, "[output] dir: not a directory", None),
    ("output_under_a_file", _output_under_a_file, 2, "[output] dir: not a directory", None),
    ("misspelled_key", _misspelled_key, 2,
     "[topics] iteration is not a configuration key", None),
    ("unknown_section", _unknown_section, 2,
     "[topcs] iterations is not a configuration key", None),
    ("leftover_topic_labels", _topic_labels_section, 2,
     "[topic_labels] 0 is not a configuration key", None),
    ("leftover_keys", _leftover_keys, 2,
     tuple(
         "[{}] {} is not a configuration key".format(*dotted.split("."))
         for dotted in LEFTOVER_KEYS
     ), None),
    ("aliases_on_combined_actor", _aliases_on_combined_actor, 2,
     "[actors] combined actor 'willie_obiano_apga' cannot have aliases", None),
    ("unmatchable_alias", _unmatchable_alias, 2,
     "[actors] actor 'apga' alias 'apga.' becomes the tokens ['apga']", None),
    ("single_label_nbc_corpus", _single_label_corpus, 1, "error", ("labels", "sha256:")),
    ("nbc_row_without_text", _nbc_row_without_text, 1, "nbc_corpus.csv line 10",
     ("ValueError: ", "sha256:")),
    ("nbc_empty_label", _nbc_empty_label, 1, "nbc_corpus.csv line 10: empty label",
     ("ValueError: ", "sha256:")),
    ("header_only_pattern_lexicon", _header_only_pattern_lexicon, 1,
     "pattern_lexicon.csv has no entry", ("ValueError: ", None)),
    ("space_separated_dictionary", _space_separated_dictionary, 1,
     "dictionary.txt line 2: 'election 500' is not one word before a tab",
     ("ValueError: ", None)),
    ("input_vanishes_after_validation", _input_vanishes, 1, "error", ("FileNotFoundError", None)),
    ("all_lines_skipped", _all_lines_skipped, 1,
     "corpus is empty: no document reached the topic model",
     ("ValueError: corpus is empty: no document reached the topic model", "sha256:")),
    ("narrow_topic_group", _narrow_topic_group, 1,
     "the topic corpus has a vocabulary of 7 words, fewer than the 10 keywords each topic reports",
     ("ValueError: the topic corpus has a vocabulary of 7 words", "sha256:")),
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
        assert manifest["promoted"] == []
        if digest_prefix is None:
            assert manifest["input_digest"] is None
        else:
            assert manifest["input_digest"].startswith(digest_prefix)

    def test_removed_no_stem_flag_is_a_usage_error(self, config_factory, tmp_path, capsys) -> None:
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "--config", config_factory(), "--no-stem"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-stem" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--extra-stopwords-from-actors"],
            ["heatmap", "--top-n", "3"],
            ["ingest", "--field-map", "author=x"],
            ["topics", "--alpha", "0.5"],
            ["topics", "--beta", "0.2"],
            ["topics", "--top-words", "3"],
            ["ingest", "--timezone", "+01:00"],
            ["topics", "--group", "apga"],
            ["train-nbc", "--alpha", "1"],
            ["cloud", "--actor", "willie_obiano"],
        ],
        ids=["--extra-stopwords-from-actors", "--top-n", "--field-map", "--alpha", "--beta",
             "--top-words", "--timezone", "--group", "train-nbc--alpha", "--actor"],
    )
    def test_removed_flags_are_usage_errors(self, argv, config_factory, tmp_path, capsys) -> None:
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--config", config_factory()])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# One row per config-overriding flag: (subcommand, flag, value or None for
# a switch, the manifest ``config`` path the value must reach, the value
# found there). "{tmp}" stands for the test's directory. Every row's value
# differs from the config file's, so a flag that never reaches its key
# fails its row; FLAG_BASE only cuts the sweeps.
FLAG_ROWS = [
    ("ingest", "--input", "{tmp}/tweets_50.jsonl", "input.path", "{tmp}/tweets_50.jsonl"),
    ("ingest", "--stopwords", "{tmp}/stopwords.txt", "preprocess.stopwords", "{tmp}/stopwords.txt"),
    ("ingest", "--no-spellcheck", None, "preprocess.spellcheck", False),
    ("ingest", "--engine", "swn", "sentiment.engine", "swn"),
    ("ingest", "--output", "{tmp}/elsewhere", "output.dir", "{tmp}/elsewhere"),
    ("ingest", "--seed", "7", "run.seed", 7),
    ("topics", "--k", "6", "topics.k", 6),
    ("topics", "--iters", "7", "topics.iterations", 7),
]
FLAG_BASE = {"topics.iterations": "5"}


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

    def test_flag_values_are_stripped_like_file_values(
        self, config_factory, fixtures_dir, tmp_path
    ) -> None:
        tweets = str(fixtures_dir / "tweets_50.jsonl")
        argv = ["counts", "--config", config_factory(), "--engine", " SWN "]
        assert main([*argv, "--input", f" {tweets}\t"]) == 0
        snapshot = read_json(tmp_path / "out" / "manifest.json")["config"]
        assert snapshot["sentiment"]["engine"] == "swn"
        assert snapshot["input"]["path"] == tweets

    def test_no_flag_converts_its_value(self) -> None:
        # Every value reaches validate_config as the string given, so it alone checks it.
        parser = cli_module._build_parser()
        (subparsers,) = [
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        ]
        typed = [
            (name, action.option_strings[0])
            for name, subparser in [("", parser), *subparsers.choices.items()]
            for action in subparser._actions
            if action.option_strings and action.type is not None
        ]
        assert typed == []

    def test_every_subcommand_takes_the_same_flags(self) -> None:
        parser = cli_module._build_parser()
        (subparsers,) = [
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            name: sorted(flag for action in subparser._actions for flag in action.option_strings)
            for name, subparser in subparsers.choices.items()
        }
        assert sorted(flags) == sorted(cli_module.SUBCOMMANDS)
        assert all(found == flags["all"] for found in flags.values()), flags
        # Each flag but --config and --help overrides one config key.
        assert all(
            "." in action.dest
            for action in subparsers.choices["all"]._actions
            if action.dest not in ("config", "help")
        )

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
        assert flags == {row[1] for row in FLAG_ROWS}


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

    def test_nbc_labels_fold_to_lowercase(self, config_factory, fixtures_dir, tmp_path) -> None:
        corpus = tmp_path / "nbc_corpus.csv"
        text = (fixtures_dir / "nbc_corpus.csv").read_text(encoding="utf-8")
        corpus.write_text(text + "Positive,great day\n", encoding="utf-8")
        argv = ["train-nbc", "--config", config_factory(**{"lexicons.nbc_corpus": str(corpus)})]
        assert main(argv) == 0
        assert read_json(tmp_path / "out" / "nbc_model.json")["labels"] == ["negative", "positive"]

    def test_alias_words_are_always_stopwords(self, config_factory, actor_set, tmp_path) -> None:
        config = config_factory()
        assert "extra_stopwords_from_actors" not in Path(config).read_text(encoding="utf-8")
        assert main(["ingest", "--config", config]) == 0
        with open(tmp_path / "out" / "tweets.csv", encoding="utf-8", newline="") as handle:
            tokens = {token for row in csv.DictReader(handle) for token in row["tokens"].split()}
        assert tokens
        assert not tokens & actor_set.alias_words()

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
            "promoted", "seed", "stages", "started_at", "status", "subcommand",
            "tool", "total_seconds",
        ]
        assert manifest["status"] == "ok"
        assert manifest["promoted"] == ["scores.csv"]
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

    def test_manifest_stage_cpu_seconds_and_peak_memory(
        self, config_factory, tmp_path, monkeypatch
    ) -> None:
        assert main(["all", "--config", config_factory()]) == 0
        stages = read_json(tmp_path / "out" / "manifest.json")["stages"]
        assert all(stage["cpu_seconds"] >= 0 for stage in stages)
        peaks = [stage["peak_rss_mb"] for stage in stages]
        if sys.platform.startswith("linux"):
            # VmHWM is the process's high-water mark, so it never falls.
            assert all(peak > 0 for peak in peaks)
            assert peaks == sorted(peaks)
        # Without /proc/self/status every peak is null and the run goes on.
        real_open = open

        def no_proc(path, *args, **kwargs):
            if path == "/proc/self/status":
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(cli_module, "open", no_proc, raising=False)
        assert main(["all", "--config", config_factory(), "--output", str(tmp_path / "no_proc")]) == 0
        stages = read_json(tmp_path / "no_proc" / "manifest.json")["stages"]
        assert [stage["peak_rss_mb"] for stage in stages] == [None] * len(stages)
        assert all(stage["cpu_seconds"] >= 0 for stage in stages)

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

    def test_stage_seconds_add_up_to_the_total(
        self, config_factory, fixtures_dir, tmp_path, monkeypatch
    ) -> None:
        # A stage that fails or is interrupted is timed too, with no records,
        # whether it is a table stage or one before the table.
        config = config_factory()
        assert main(["all", "--config", config, "--output", str(tmp_path / "ok")]) == 0
        narrow = _narrow_topic_group(config_factory, fixtures_dir, tmp_path, monkeypatch)
        assert main([*narrow, "--output", str(tmp_path / "narrow")]) == 1
        monkeypatch.setattr(topics_module, "lda_fit", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["all", "--config", config, "--output", str(tmp_path / "interrupted")])
        vanished = _input_vanishes(config_factory, fixtures_dir, tmp_path, monkeypatch)
        assert main([*vanished, "--output", str(tmp_path / "vanished")]) == 1
        last_stages = {"ok": "topics", "narrow": "topics", "interrupted": "topics",
                       "vanished": "ingest"}
        for name, last_stage in last_stages.items():
            manifest = read_json(tmp_path / name / "manifest.json")
            staged = sum(stage["seconds"] for stage in manifest["stages"])
            assert 0 <= manifest["total_seconds"] - staged <= 0.05, name
            last = manifest["stages"][-1]
            assert last["name"] == last_stage, name
            assert (last["records"] is None) == (name != "ok"), name

    def test_parsed_records_are_released_before_the_table_stages(
        self, config_factory, monkeypatch
    ) -> None:
        # The table stages read the kept tweets, so no record this run parsed
        # is alive. Records that fixtures hold are held here too, by id, so
        # that no new record can reuse one's id.
        held = {id(obj): obj for obj in gc.get_objects() if isinstance(obj, TweetRecord)}
        fit = topics_module.lda_fit
        live = []

        def count_then_fit(*args, **kwargs):
            records = [obj for obj in gc.get_objects() if isinstance(obj, TweetRecord)]
            live.append(sum(id(record) not in held for record in records))
            return fit(*args, **kwargs)

        monkeypatch.setattr(topics_module, "lda_fit", count_then_fit)
        assert main(["topics", "--config", config_factory()]) == 0
        assert live == [0]

    def test_interrupt_leaves_only_a_manifest(self, config_factory, tmp_path, monkeypatch) -> None:
        monkeypatch.setattr(topics_module, "lda_fit", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["all", "--config", config_factory()])
        out_dir = tmp_path / "out"
        assert [path.name for path in out_dir.iterdir()] == ["manifest.json"]
        manifest = read_json(out_dir / "manifest.json")
        assert manifest["status"] == "interrupted"
        assert manifest["error"] == "KeyboardInterrupt"
        assert manifest["promoted"] == []

    def test_a_failed_move_leaves_the_files_the_manifest_promoted(
        self, config_factory, tmp_path, monkeypatch
    ) -> None:
        # Artifacts move in name order, one os.replace each; the third fails.
        replace = os.replace
        moved = []

        def fail_third(source, target):
            moved.append(os.path.basename(target))
            if len(moved) == 3:
                raise OSError("no space left on device")
            replace(source, target)

        monkeypatch.setattr(os, "replace", fail_third)
        assert main(["all", "--config", config_factory()]) == 1
        out_dir = tmp_path / "out"
        manifest = read_json(out_dir / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["error"] == "OSError: no space left on device"
        assert manifest["promoted"] == ["clouds.json", "compare.csv"]
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "clouds.json", "compare.csv", "manifest.json"
        ]

    def test_each_artifact_is_written_once_by_its_format_writer(
        self, config_factory, monkeypatch
    ) -> None:
        csv_paths = record_calls(monkeypatch, util_module, "write_csv")
        json_paths = record_calls(monkeypatch, util_module, "write_json")
        assert main(["all", "--config", config_factory()]) == 0
        csv_names = [os.path.basename(path) for path in csv_paths]
        json_names = [os.path.basename(path) for path in json_paths]
        assert sorted(csv_names + json_names) == sorted(ALL_ARTIFACTS | {"manifest.json"})
        assert all(name.endswith(".csv") for name in csv_names)
        assert all(name.endswith(".json") for name in json_names)

    def test_each_record_is_matched_once(
        self, config_factory, records, actor_set, monkeypatch
    ) -> None:
        cleaned = record_calls(monkeypatch, preprocess_module, "clean")
        matched = record_calls(monkeypatch, actors_module, "match_actors")
        assert main(["all", "--config", config_factory()]) == 0
        # Loading the roster cleans each alias once, to check that it is
        # its own tokens.
        aliases = [alias for actor in actor_set for alias in actor.aliases]
        assert sorted(cleaned) == sorted([*(record.text for record in records), *aliases])
        assert len(matched) == len(records) == 50

    def test_each_kept_tweet_is_bucketed_once(self, config_factory, kept, monkeypatch) -> None:
        bucketed = record_calls(monkeypatch, analytics_module, "bucket_label")
        assert main(["all", "--config", config_factory()]) == 0
        # Once, in preprocessing; the export and the grids read the bucket.
        assert bucketed == [tweet.created_at for tweet in kept]
        assert len(bucketed) == 43

    def test_each_in_range_tweet_is_placed_once(self, config_factory, kept, monkeypatch) -> None:
        placed = record_calls(monkeypatch, actors_module, "sole_mention")
        assert main(["all", "--config", config_factory()]) == 0
        # Once, in the one grid that timeseries and heatmap both read.
        assert placed == [tweet.actors for tweet in kept if tweet.bucket != OUT_OF_RANGE]
        assert len(placed) == 41

    def test_each_distinct_token_is_stemmed_once(
        self, config_factory, records, pipeline, actor_set, monkeypatch
    ) -> None:
        stemmed = record_calls(monkeypatch, stemming_module, "porter_stem")
        assert main(["all", "--config", config_factory()]) == 0
        assert len(stemmed) == len(set(stemmed))
        fresh = SpellingDictionary(pipeline.dictionary)
        corrected = [
            correct_spelling(token, fresh)
            if len(token) >= MIN_CORRECTION_LENGTH and token not in fresh
            else token
            for record in records
            if not record.is_retweet
            for token in text_tokens(record.text)
        ]
        stemmable = {
            token
            for token in corrected
            if token not in pipeline.stopwords and token.isascii() and token.isalpha()
        }
        # The kept tokens, plus the alias words the clouds leave out.
        assert set(stemmed) == stemmable | actor_set.alias_words()

    @pytest.mark.parametrize("engine", ["pattern", "swn"])
    def test_each_engine_scores_once_per_run(
        self, engine, config_factory, monkeypatch, pattern_lexicon, negators, sense_lexicon
    ) -> None:
        scored = record_calls(monkeypatch, sentiment_module, "score_all", keep=lambda a, k: a[1:])
        assert main(["all", "--config", config_factory(), "--engine", engine]) == 0
        # Each engine's table, and negators for pattern alone: swn has no negation.
        arguments = {
            "pattern": (pattern_lexicon, negators),
            "swn": (sense_lexicon.word_scores, frozenset()),
        }
        # The configured engine first (scores.csv), the other for compare.csv.
        other = "swn" if engine == "pattern" else "pattern"
        assert scored == [arguments[engine], arguments[other]]

    def test_topics_are_fitted_once_per_run(self, config_factory, kept, monkeypatch) -> None:
        fitted = record_calls(monkeypatch, topics_module, "lda_fit")
        assert main(["all", "--config", config_factory(**{"topics.iterations": 5})]) == 0
        # One fit over every kept tweet gives every actor's row of topics.json.
        assert [len(corpus.docs) for corpus in fitted] == [len(kept)]

    def test_manifest_counts_exclusions_by_reason(self, config_factory, records, tmp_path) -> None:
        assert main(["counts", "--config", config_factory()]) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        excluded = dataset["excluded"]
        assert set(excluded) == {"retweet", "empty_after_filtering"}
        assert dataset["total_kept"] + sum(excluded.values()) == dataset["total_raw"] == 50
        assert excluded["retweet"] == sum(record.is_retweet for record in records)

    def test_manifest_counts_the_topic_corpus(self, config_factory, kept, tmp_path) -> None:
        path = config_factory(**{"topics.iterations": 5})
        out = tmp_path / "topics"
        assert main(["all", "--config", path, "--output", str(out)]) == 0
        ledger = read_json(out / "manifest.json")["dataset"]["topics"]
        # Every kept tweet reaches the topic model. Recount from tweets.csv.
        with open(out / "tweets.csv", encoding="utf-8", newline="") as handle:
            tokens = [token for row in csv.DictReader(handle) for token in row["tokens"].split()]
        assert ledger == {
            "documents": len(kept),
            "tokens": len(tokens),
            "words": len(set(tokens)),
            "token_samples": len(tokens) * 5,
        }
        assert len(kept) == 43
        assert main(["counts", "--config", config_factory()]) == 0
        assert "topics" not in read_json(tmp_path / "out" / "manifest.json")["dataset"]

    def test_manifest_lexicon_coverage(self, config_factory, tmp_path) -> None:
        assert main(["all", "--config", config_factory()]) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        assert dataset["total_kept"] == 43
        coverage = dataset["lexicon"]
        hits = {engine: entry["tweets_hit"] for engine, entry in coverage.items()}
        assert hits == {"pattern": 40, "swn": 39}
        for entry in coverage.values():
            assert 0.0 < entry["token_hit_rate"] < 1.0

    @staticmethod
    def _reject_sense_rows(fixtures_dir, tmp_path, count: int) -> str:
        """A fixtures copy whose first ``count`` sense rows are invalid; its config path."""
        fixtures = tmp_path / "fixtures"
        shutil.copytree(fixtures_dir, fixtures)
        senses = fixtures / "sense_lexicon.tsv"
        rows = []
        for row in senses.read_text(encoding="utf-8").splitlines():
            if row.strip() and not row.startswith("#") and count > 0:
                parts = row.split("\t")
                parts[2:4] = ["0.9", "0.9"]  # PosScore + NegScore > 1: the row is invalid
                row = "\t".join(parts)
                count -= 1
            rows.append(row)
        senses.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(fixtures / "config.ini")

    def test_manifest_reports_rejected_sense_rows(self, fixtures_dir, tmp_path, capsys) -> None:
        config = self._reject_sense_rows(fixtures_dir, tmp_path, 50)
        assert main(["compare", "--config", config]) == 1
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert manifest["status"] == "failed"
        assert "sense_lexicon.tsv has no usable entry: 50 of 50 rows rejected" in manifest["error"]
        assert "50 of 50 rows rejected" in capsys.readouterr().err

    def test_manifest_counts_one_rejected_sense_row(self, fixtures_dir, tmp_path) -> None:
        config = self._reject_sense_rows(fixtures_dir, tmp_path, 1)
        assert main(["compare", "--config", config]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert manifest["status"] == "ok"
        swn = manifest["dataset"]["lexicon"]["swn"]
        assert (swn["rows_read"], swn["rows_rejected"]) == (50, 1)
        assert "rows_read" not in manifest["dataset"]["lexicon"]["pattern"]

    def test_manifest_counts_parse_skips_by_cause(
        self, config_factory, fixtures_dir, tmp_path
    ) -> None:
        tweets = _textless_tweets(fixtures_dir, tmp_path)
        argv = ["counts", "--config", config_factory(), "--input", tweets]
        assert main(argv) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        assert dataset["skipped"] == {**dict.fromkeys(SKIP_CAUSES, 0), "missing_field": 50}
        assert dataset["lines_read"] == dataset["total_raw"] + dataset["lines_skipped"] == 50

    def test_manifest_ledger_balances_on_a_generated_corpus(self, config_factory, tmp_path) -> None:
        rng = random.Random(2017)

        def tweet(tweet_id: str, text: str, **fields) -> str:
            stamp = f"Sat Nov 18 {rng.randrange(24):02d}:{rng.randrange(60):02d}:00 +0000 2017"
            return json.dumps({"id_str": tweet_id, "created_at": stamp, "text": text, **fields})

        def words() -> str:
            picked = rng.sample(("obiano", "apga", "nwoye", "the", "of", "queue"), 3)
            return " ".join(picked + [rng.choice(("voters", "awka", "results"))])

        makers = {
            "invalid_json": lambda i: '{"id_str": "' + i,
            "missing_field": lambda i: json.dumps({"id_str": i, "text": "no timestamp"}),
            "duplicate_id": lambda i: tweet("0", words()),
            "empty_text": lambda i: tweet(i, " \t "),
            "oversized_text": lambda i: tweet(i, "x" * (MAX_TEXT_BYTES + 1)),
            "bad_timestamp": lambda i: tweet(
                i, words(), created_at="Sat Nov 18 09:31:00 +2400 2017"
            ),
            "retweet": lambda i: rng.choice(
                (tweet(i, "RT @inec: " + words()), tweet(i, words(), retweeted_status={}))
            ),
            # Actor names and stopwords only, or a bare link: nothing is left.
            "empty_after_filtering": lambda i: tweet(
                i, rng.choice(("obiano apga the of", "https://t.co/x #"))
            ),
            "kept": lambda i: tweet(i, words()),
        }
        kinds = list(makers) + [rng.choice(list(makers)) for _ in range(60)] + ["kept"] * 30
        rng.shuffle(kinds)
        lines = [tweet("0", words())] + [makers[kind](str(i)) for i, kind in enumerate(kinds, 1)]
        path = tmp_path / "generated.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert main(["counts", "--config", config_factory(**{"input.path": path})]) == 0
        dataset = read_json(tmp_path / "out" / "manifest.json")["dataset"]
        skipped, excluded = dataset["skipped"], dataset["excluded"]
        assert dataset["lines_read"] == dataset["total_raw"] + sum(skipped.values())
        assert dataset["total_raw"] == dataset["total_kept"] + sum(excluded.values())
        assert dataset["lines_skipped"] == sum(skipped.values())
        # Each line lands under the cause it was made for, and every cause has one.
        assert all(skipped.values()) and all(excluded.values())
        assert dataset["lines_read"] == len(lines)
        assert skipped == {cause: kinds.count(cause) for cause in SKIP_CAUSES}
        assert excluded == {cause: kinds.count(cause) for cause in excluded}
        assert set(excluded) == {"retweet", "empty_after_filtering"}
        assert dataset["total_kept"] == kinds.count("kept") + 1
        counts = read_json(tmp_path / "out" / "counts.json")
        assert counts["total_raw"] == dataset["total_raw"]
        assert counts["parse"] == {
            "lines_read": dataset["lines_read"],
            "records": dataset["total_raw"],
            "skipped": dataset["lines_skipped"],
        }
        assert counts["parse"]["records"] == dataset["lines_read"] - dataset["lines_skipped"]
        # Scoped to two candidates, the sole-mention grid places each kept
        # tweet or counts it under one cause, and every cause has a tweet.
        two_candidates = "willie_obiano, tony_nwoye"
        scoped = config_factory(**{"input.path": path, "actors.scope": two_candidates})
        assert main(["timeseries", "--config", scoped, "--output", str(tmp_path / "grid")]) == 0
        ledger = read_json(tmp_path / "grid" / "manifest.json")["dataset"]["sole_mention"]
        assert set(ledger) == {"placed", "out_of_range", "no_scope_actor", "several_scope_actors"}
        assert all(ledger.values())
        assert sum(ledger.values()) == dataset["total_kept"]
        assert ledger["placed"] == _series_count(tmp_path / "grid")
        # The analyses trust what the run hands them: one score per kept
        # tweet, in range, and one population for both engines.
        config = config_factory(**{"input.path": path})
        for engine in ENGINES:
            out = tmp_path / engine
            for command in ("sentiment", "compare"):
                argv = [command, "--config", config, "--engine", engine, "--output", str(out)]
                assert main(argv) == 0
            with open(out / "scores.csv", encoding="utf-8", newline="") as handle:
                scores = list(csv.DictReader(handle))
            assert len(scores) == dataset["total_kept"]
            for row in scores:
                assert -1.0 <= float(row["polarity"]) <= 1.0
                assert 0.0 <= float(row["subjectivity"]) <= 1.0
            with open(out / "compare.csv", encoding="utf-8", newline="") as handle:
                compare = list(csv.DictReader(handle))
            assert [row["engine"] for row in compare] == list(ENGINES)
            for row in compare:
                counts = (row["positive_count"], row["neutral_count"], row["negative_count"])
                assert sum(map(int, counts)) == dataset["total_kept"]

    def test_manifest_counts_tweets_outside_the_grid_by_cause(
        self, config_factory, tmp_path
    ) -> None:
        path = config_factory()
        ledgers = {}
        for command in ("timeseries", "heatmap", "counts"):
            out = tmp_path / command
            assert main([command, "--config", path, "--output", str(out)]) == 0
            ledgers[command] = read_json(out / "manifest.json")["dataset"].get("sole_mention")
        expected = {
            "placed": 20,
            "out_of_range": 2,
            "no_scope_actor": 21,
            "several_scope_actors": 0,
        }
        assert ledgers == {"timeseries": expected, "heatmap": expected, "counts": None}
        assert _series_count(tmp_path / "timeseries") == 20

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
        fresh = SpellingDictionary(dictionary)
        assert manifest["dataset"]["spelling"] == {
            "lookups": len(looked_up),
            "distinct": len(set(looked_up)),
            "corrected": sum(correct_spelling(token, fresh) != token for token in looked_up),
        }
        assert looked_up == ["electin"]

    def test_spelling_activity_is_zero_without_spellcheck(
        self, config_factory, tmp_path, monkeypatch
    ) -> None:
        loaded = record_calls(monkeypatch, spelling_module, "load_dictionary")
        assert main(["sentiment", "--config", config_factory(), "--no-spellcheck"]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert manifest["dataset"]["spelling"] == {"lookups": 0, "distinct": 0, "corrected": 0}
        # The configured dictionary is never read: the load stage counts
        # stopwords, pattern lexicon, negators and senses.
        assert loaded == []
        load = manifest["stages"][0]
        assert (load["name"], load["records"]) == ("load", 4)

    def test_a_file_the_run_does_not_read_may_be_missing(
        self, config_factory, tmp_path, capsys
    ) -> None:
        path = config_factory(**{
            "preprocess.dictionary": str(tmp_path / "no_dictionary.txt"),
            "lexicons.nbc_corpus": str(tmp_path / "no_corpus.csv"),
        })
        assert main(["counts", "--config", path, "--no-spellcheck"]) == 0
        manifest = read_json(tmp_path / "out" / "manifest.json")
        load = manifest["stages"][0]
        assert (load["name"], load["records"]) == ("load", 4)
        # The snapshot still records each path as configured.
        assert manifest["config"]["preprocess"]["dictionary"] == str(tmp_path / "no_dictionary.txt")
        assert manifest["config"]["lexicons"]["nbc_corpus"] == str(tmp_path / "no_corpus.csv")
        # With spelling on the dictionary is read, so it must exist.
        shutil.rmtree(tmp_path / "out")
        assert main(["counts", "--config", path]) == 2
        assert (
            f"[preprocess] dictionary: no such file: {tmp_path / 'no_dictionary.txt'}"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

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

    def test_cloud_defaults_to_all_candidates(self, config_factory, tmp_path) -> None:
        rc = main(["cloud", "--config", config_factory()])
        assert rc == 0
        payload = read_json(tmp_path / "out" / "clouds.json")
        assert sorted(payload) == [
            "godwin_ezeemo", "oseloka_obaze", "osita_chidoka",
            "tony_nwoye", "willie_obiano",
        ]

    def test_topics_rows_sum_each_actors_tweets(self, config_factory, actor_set, tmp_path) -> None:
        path = config_factory(**{"topics.k": 3, "topics.iterations": 20})
        assert main(["all", "--config", path]) == 0
        out = tmp_path / "out"
        payload = read_json(out / "topics.json")
        assert len(payload["topics"]) == payload["k"] == 3
        assert all(len(topic["keywords"]) == topics_module.TOP_WORDS for topic in payload["topics"])
        with open(out / "tweets.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # A refit with the same seed over the exported tokens: row i is document i.
        docs = [row["tokens"].split() for row in rows]
        model = topics_module.lda_fit(
            topics_module.build_corpus(docs),
            k=payload["k"], iterations=payload["iterations"], seed=payload["seed"],
        )
        expected = {}
        for actor in actor_set:
            members = [i for i, row in enumerate(rows) if row[actor.id] == "true"]
            expected[actor.id] = [
                sum(model.doc_topic_counts[i][topic] for i in members) for topic in range(model.k)
            ]
            assert sum(expected[actor.id]) == sum(len(docs[i]) for i in members), actor.id
        assert payload["actors"] == expected
        assert "group" not in payload
        # Two tweets name osita_chidoka: too few words for a fit of its own.
        assert sum(payload["actors"]["osita_chidoka"]) == 9

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
