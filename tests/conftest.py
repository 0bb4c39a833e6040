"""Shared fixtures: the bundled corpus, its lexicons, and a config factory.

Everything expensive (parsing, preprocessing, scoring) is session scoped;
tests must treat those objects as read-only and copy before mutating.
"""

from __future__ import annotations

import configparser
import itertools
import sys
from pathlib import Path

import pytest

from electionpulse.actors import ActorSet, load_actor_file
from electionpulse.ingest import Preprocessed, TweetRecord, parse_tweet_stream, preprocess_records
from electionpulse.preprocess import PipelineConfig, ProcessedTweet, load_stopwords
from electionpulse.sentiment import (
    SenseLexicon,
    SentimentScore,
    load_negators,
    load_pattern_lexicon,
    load_sense_lexicon,
    score_all,
)
from electionpulse.spelling import SpellingDictionary, load_dictionary

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SCOPE = ["willie_obiano_apga", "tony_nwoye_apc", "oseloka_obaze_pdp"]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def actor_set() -> ActorSet:
    return load_actor_file(str(FIXTURES / "actors.ini"))


@pytest.fixture(scope="session")
def scope() -> list[str]:
    return list(SCOPE)


@pytest.fixture(scope="session")
def dictionary() -> SpellingDictionary:
    return load_dictionary(str(FIXTURES / "dictionary.txt"))


@pytest.fixture(scope="session")
def pattern_lexicon() -> dict:
    return load_pattern_lexicon(str(FIXTURES / "pattern_lexicon.csv"))


@pytest.fixture(scope="session")
def negators() -> frozenset[str]:
    return load_negators(str(FIXTURES / "negators.txt"))


@pytest.fixture(scope="session")
def sense_lexicon() -> SenseLexicon:
    return load_sense_lexicon(str(FIXTURES / "sense_lexicon.tsv"))


@pytest.fixture(scope="session")
def pipeline(actor_set, dictionary) -> PipelineConfig:
    # Mirrors the CLI: every actor alias word joins the stopword list.
    stopwords = load_stopwords(str(FIXTURES / "stopwords.txt"))
    stopwords |= actor_set.alias_words()
    return PipelineConfig(stopwords=stopwords, dictionary=dictionary)


@pytest.fixture(scope="session")
def records() -> list[TweetRecord]:
    parsed, report = parse_tweet_stream(str(FIXTURES / "tweets_50.jsonl"))
    assert report.lines_skipped == 0
    return parsed


@pytest.fixture(scope="session")
def texts(records) -> dict[str, str]:
    """Each fixture record's text by id; a kept tweet carries its id, not its text."""
    return {record.id: record.text for record in records}


@pytest.fixture(scope="session")
def preprocessed(records, pipeline, actor_set) -> Preprocessed:
    return preprocess_records(records, pipeline, actor_set)


@pytest.fixture(scope="session")
def raw_counts(preprocessed) -> dict[str, int]:
    return preprocessed.raw_counts


@pytest.fixture(scope="session")
def kept(preprocessed) -> list[ProcessedTweet]:
    return preprocessed.kept


@pytest.fixture(scope="session")
def pattern_scores(kept, pattern_lexicon, negators) -> list[SentimentScore]:
    return score_all(kept, pattern_lexicon, negators).scores


@pytest.fixture(scope="session")
def write_lines(tmp_path_factory):
    """Write a list of lines (str or bytes), each ended by a newline, to a
    new file and return its path. Session scoped, so hypothesis tests can
    use it: each call gets a file of its own."""
    folder = tmp_path_factory.mktemp("lines")
    names = itertools.count()

    def write(lines) -> str:
        path = folder / f"{next(names)}.txt"
        encoded = (raw if isinstance(raw, bytes) else raw.encode("utf-8") for raw in lines)
        path.write_bytes(b"".join(raw + b"\n" for raw in encoded))
        return str(path)

    return write


@pytest.fixture()
def parse_lines(write_lines):
    """Parse a list of lines (str or bytes) from a file ``write_lines`` wrote."""

    def parse(lines):
        return parse_tweet_stream(write_lines(lines))

    return parse


@pytest.fixture()
def config_factory(tmp_path):
    """Write a run config into tmp_path, defaulting to the bundled corpus.

    Relative paths in the bundled config are rewritten to absolute ones so
    the copy works from any directory; overrides use "section.key" keys and
    a None value deletes the key.
    """

    def make(**overrides) -> str:
        parser = configparser.ConfigParser()
        parser.read(FIXTURES / "config.ini")
        path_keys = [
            ("input", "path"),
            ("actors", "path"),
            ("lexicons", "pattern"),
            ("lexicons", "senses"),
            ("lexicons", "negators"),
            ("lexicons", "nbc_corpus"),
            ("preprocess", "stopwords"),
            ("preprocess", "dictionary"),
        ]
        for section, key in path_keys:
            if parser.has_option(section, key):
                parser[section][key] = str(FIXTURES / parser[section][key])
        parser["output"]["dir"] = str(tmp_path / "out")
        for dotted, value in overrides.items():
            section, _, key = dotted.partition(".")
            if value is None:
                if parser.has_option(section, key):
                    parser.remove_option(section, key)
                continue
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = str(value)
        config_path = tmp_path / "config.ini"
        with open(config_path, "w", encoding="utf-8") as handle:
            parser.write(handle)
        return str(config_path)

    return make


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance battery's verdict lines after the test run.

    Passing tests have their stdout captured, so without this the
    per-criterion lines would only show under -s.
    """
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
