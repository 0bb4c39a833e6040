"""Command-line orchestration and artifact emission.

Every subcommand is one ``_STAGES`` row and runs as timed ``_stage``
blocks over one validated configuration, so all analyses see the same
preprocessed tweet population. Every subcommand takes the same flags, each
but ``--config`` setting one config key, and their values are checked with
the file's keys, so every usage error is reported at once. Writers hand
rows or a payload to ``_util.write_csv`` or ``write_json``, which decide
every artifact's bytes. Artifacts are staged, then moved into the output
directory one ``os.replace`` each once every stage has succeeded; the
manifest's ``promoted`` names the files moved. A run manifest is written
on success and failure alike; it is the only artifact that contains
wall-clock timestamps, keeping the data artifacts byte-stable across
reruns with the same inputs and seed.

Exit codes: 0 success, 1 pipeline failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone

from . import __version__, analytics, topics
from ._util import write_csv, write_json
from .config import ConfigError, RunConfig, validate_config
from .ingest import (
    ParseReport,
    dataset_stats,
    export_records,
    parse_tweet_stream,
    preprocess_records,
)
from .preprocess import (
    PipelineConfig,
    ProcessedTweet,
    load_stopwords,
    preprocess_pipeline,
    text_tokens,
)
from .sentiment import (
    ENGINES,
    NBC_ALPHA,
    EngineScores,
    SenseLexicon,
    SentimentScore,
    compare_classifiers,
    load_negators,
    load_pattern_lexicon,
    load_sense_lexicon,
    nbc_train,
    polarity_class,
    score_all,
    subjectivity_class,
)
from .spelling import load_dictionary


class _RunState:
    """Everything a stage needs, loaded or computed once per run."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.pipeline = PipelineConfig()
        self.report: ParseReport | None = None
        self.kept: list[ProcessedTweet] = []
        self.excluded: dict[str, int] = {}
        self.stats: dict | None = None
        # engine -> (lexicon table, negators): the arguments ``score_all`` takes
        self.lexicons: dict[str, tuple[dict, frozenset]] = {}
        self.sense_lexicon: SenseLexicon | None = None
        self.scored: dict[str, EngineScores] = {}
        self.grid: analytics.SoleMentionGrid | None = None
        self.topics: dict | None = None
        self.stages: list[dict] = []


def _load(state: _RunState) -> int:
    """Load the word lists and lexicons; returns the number of files read."""
    config = state.config
    stopwords = load_stopwords(config.stopwords_path) | config.actor_set.alias_words()
    # The path is None with spelling off: the pipeline corrects only with a dictionary.
    dictionary = load_dictionary(config.dictionary_path) if config.dictionary_path else None
    state.pipeline = PipelineConfig(stopwords=stopwords, dictionary=dictionary)
    pattern = load_pattern_lexicon(config.pattern_lexicon_path)
    if not pattern:
        raise ValueError(f"pattern lexicon {config.pattern_lexicon_path} has no entry")
    negators = load_negators(config.negators_path)
    senses = state.sense_lexicon = load_sense_lexicon(config.sense_lexicon_path)
    if not senses.word_scores:
        raise ValueError(
            f"sense lexicon {config.sense_lexicon_path} has no usable entry: "
            f"{senses.rows_rejected} of {senses.rows_read} rows rejected"
        )
    # swn has no negation: it scores with no negators.
    state.lexicons = {"pattern": (pattern, negators), "swn": (senses.word_scores, frozenset())}
    # stopwords, pattern lexicon, negators, senses, and the dictionary if any
    return 4 + (dictionary is not None)


@contextlib.contextmanager
def _stage(state: _RunState, name: str):
    """Time the block as manifest stage ``name``, whose ``records`` count the
    block sets; a block that raises is timed too, with ``records`` null."""
    stage = {"name": name, "records": None}
    state.stages.append(stage)
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        yield stage
    finally:
        stage["seconds"] = round(time.perf_counter() - started, 6)
        stage["cpu_seconds"] = round(time.process_time() - cpu_started, 6)
        stage["peak_rss_mb"] = None  # VmHWM, not ru_maxrss, which a child inherits
        with contextlib.suppress(FileNotFoundError), open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    stage["peak_rss_mb"] = round(int(line.split()[1]) / 1024, 1)


def _scored(state: _RunState, engine: str) -> EngineScores:
    """The engine's scores of the kept tweets, computed on first use."""
    if engine not in state.scored:
        state.scored[engine] = score_all(state.kept, *state.lexicons[engine])
    return state.scored[engine]


def _score(state: _RunState) -> list[SentimentScore]:
    return _scored(state, state.config.engine).scores


def _grid(state: _RunState) -> analytics.SoleMentionGrid:
    """The sole-mention grid of the kept tweets, built on first use."""
    if state.grid is None:
        config = state.config
        state.grid = analytics.sole_mention_grid(state.kept, config.actor_set, config.scope)
    return state.grid


def _stage_tweets_csv(state: _RunState, staging: str) -> int:
    export_records(state.kept, os.path.join(staging, "tweets.csv"), state.config.actor_set)
    return len(state.kept)


def _stage_scores_csv(state: _RunState, staging: str) -> int:
    scores = _score(state)
    header = ["id", "polarity", "subjectivity", "polarity_class", "subjectivity_class"]
    rows = (
        [tweet.id, repr(score.polarity), repr(score.subjectivity),
         polarity_class(score.polarity), subjectivity_class(score.subjectivity)]
        for tweet, score in zip(state.kept, scores)
    )
    write_csv(os.path.join(staging, "scores.csv"), header, rows)
    return len(scores)


def _stage_compare_csv(state: _RunState, staging: str) -> int:
    table = compare_classifiers({engine: _scored(state, engine).scores for engine in ENGINES})
    header = ["engine", "positive_count", "neutral_count", "negative_count",
              "positive_pct", "neutral_pct", "negative_pct"]
    rows = (
        [engine, *dist.counts, *(f"{value:.2f}" for value in dist.percentages)]
        for engine, dist in sorted(table.items())
    )
    write_csv(os.path.join(staging, "compare.csv"), header, rows)
    return len(state.kept)


def _stage_counts_json(state: _RunState, staging: str) -> int:
    scores = _score(state)
    combined = analytics.combined_avg_polarity(state.kept, scores, state.config.actor_set)
    payload = {
        **state.stats,
        "combined_avg_polarity": combined,
        "parse": {
            "lines_read": state.report.lines_read,
            "records": state.report.lines_read - state.report.lines_skipped,
            "skipped": state.report.lines_skipped,
        },
    }
    write_json(os.path.join(staging, "counts.json"), payload)
    return len(state.stats["per_group"])


def _stage_clouds_json(state: _RunState, staging: str) -> int:
    actor_set = state.config.actor_set
    payload = {
        actor.id: analytics.cooccurrence_cloud(state.kept, actor, actor_set)
        for actor in actor_set if actor.kind == "candidate"
    }
    write_json(os.path.join(staging, "clouds.json"), payload)
    return len(payload)


def _stage_timeseries_csv(state: _RunState, staging: str) -> int:
    series = analytics.avg_sentiment_series(_grid(state), _score(state))
    header = ["actor", "bucket", "count", "mean_polarity_x100", "mean_subjectivity"]
    rows = (
        [actor_id, label, 0, "", ""] if cell is None else
        [actor_id, label, cell.count, repr(cell.mean_polarity_x100), repr(cell.mean_subjectivity)]
        for actor_id, cells in series.items()
        for label, cell in cells.items()
    )
    write_csv(os.path.join(staging, "timeseries.csv"), header, rows)
    return len(series) * len(analytics.BUCKET_LABELS)


def _stage_heatmap_json(state: _RunState, staging: str) -> int:
    matrix = analytics.frequency_heatmap(_grid(state), state.kept)
    write_json(os.path.join(staging, "heatmap.json"), matrix)
    return len(matrix)


def _stage_topics_json(state: _RunState, staging: str) -> int:
    config = state.config
    corpus = topics.build_corpus(tweet.tokens for tweet in state.kept)
    tokens = sum(map(len, corpus.docs))
    state.topics = dict(documents=len(corpus.docs), tokens=tokens, words=len(corpus.vocabulary),
                        token_samples=tokens * config.lda_iterations)
    if len(corpus.vocabulary) < topics.TOP_WORDS:
        raise ValueError(
            f"the topic corpus has a vocabulary of {len(corpus.vocabulary)} words, "
            f"fewer than the {topics.TOP_WORDS} keywords each topic reports"
        )
    model = topics.lda_fit(
        corpus, k=config.lda_k, iterations=config.lda_iterations, seed=config.seed
    )
    entries = topics.topic_report(model)
    # Each actor's tokens per topic. Document i is state.kept[i]: every kept
    # tweet has a token, so each reached the corpus, in order.
    actors = {actor.id: [0] * model.k for actor in config.actor_set}
    for tweet, counts in zip(state.kept, model.doc_topic_counts):
        for actor_id in tweet.actors:
            actors[actor_id] = [sum(pair) for pair in zip(actors[actor_id], counts)]
    payload = {
        "actors": actors,
        "k": config.lda_k,
        "alpha": topics.ALPHA,
        "beta": topics.BETA,
        "iterations": config.lda_iterations,
        "seed": config.seed,
        "top_words": topics.TOP_WORDS,
        "topics": entries,
    }
    write_json(os.path.join(staging, "topics.json"), payload)
    return len(entries)


def _stage_nbc_model(state: _RunState, staging: str) -> int:
    corpus_path = state.config.nbc_corpus_path
    docs = []
    with open(corpus_path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].strip().lower() == "label":
                continue
            if len(row) < 2:
                raise ValueError(
                    f"{corpus_path} line {reader.line_num}: expected label,text, got {row!r}"
                )
            label, text = row[0].strip().lower(), row[1]
            if not label:
                raise ValueError(f"{corpus_path} line {reader.line_num}: empty label")
            tokens = preprocess_pipeline(text_tokens(text), state.pipeline) or ()
            docs.append((tokens, label))
    model = nbc_train(docs)
    payload = {
        "alpha": NBC_ALPHA,
        "labels": model.labels,
        "priors": model.class_priors,
        "likelihoods": model.word_likelihoods,
        "vocabulary": sorted(model.vocabulary),
    }
    write_json(os.path.join(staging, "nbc_model.json"), payload)
    return len(docs)


# Subcommand -> (manifest stage name, writer, help), in the order ``all``
# runs them; ``all`` skips train-nbc. Each writer stages its artifact and
# returns the record count the manifest reports for the stage.
_STAGES = {
    "ingest": ("export", _stage_tweets_csv, "parse, preprocess and export tweets"),
    "sentiment": ("score", _stage_scores_csv, "per-tweet polarity and subjectivity"),
    "compare": ("compare", _stage_compare_csv, "polarity distributions of both engines"),
    "counts": ("counts", _stage_counts_json, "dataset and per-actor mention counts"),
    "cloud": ("cloud", _stage_clouds_json, "co-occurring words per actor"),
    "timeseries": ("timeseries", _stage_timeseries_csv, "bucketed sentiment series"),
    "heatmap": ("heatmap", _stage_heatmap_json, "per-actor per-bucket term tables"),
    "topics": ("topics", _stage_topics_json, "LDA topic report"),
    "train-nbc": ("train-nbc", _stage_nbc_model, "train the Naive Bayes model"),
}
SUBCOMMANDS = (*_STAGES, "all")
_ALL_STAGES = tuple(stage for stage in _STAGES if stage != "train-nbc")


def run(subcommand: str, config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    started_at = datetime.now(timezone.utc)
    started_clock = time.perf_counter()
    os.makedirs(config.output_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=config.output_dir)
    status = "ok"
    error = None
    interrupt = None
    promoted: list[str] = []
    state = _RunState(config=config)
    try:
        with _stage(state, "load") as stage:
            stage["records"] = _load(state)
        with _stage(state, "ingest") as stage:
            records, state.report = parse_tweet_stream(config.input_path)
            stage["records"] = len(records)
        with _stage(state, "preprocess") as stage:
            state.kept, raw_counts, state.excluded = preprocess_records(
                records, state.pipeline, config.actor_set
            )
            state.stats = dataset_stats(len(records), state.kept, raw_counts, config.actor_set)
            stage["records"] = len(state.kept)
        del records  # the stages below read the kept tweets only
        for command in _ALL_STAGES if subcommand == "all" else (subcommand,):
            name, writer, _ = _STAGES[command]
            with _stage(state, name) as stage:
                stage["records"] = writer(state, staging)
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name), os.path.join(config.output_dir, name))
            promoted.append(name)
    except Exception as exc:  # pipeline failure: the manifest, and only what was promoted
        status = "failed"
        error = f"{type(exc).__name__}: {exc}"
    except KeyboardInterrupt as exc:  # Ctrl-C: as a failure, then re-raise
        status = "interrupted"
        error = "KeyboardInterrupt"
        interrupt = exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    manifest = {
        "tool": f"electionpulse {__version__}",
        "subcommand": subcommand,
        "status": status,
        "error": error,
        "config": config.snapshot,
        "seed": config.seed,
        "input_digest": _input_digest(state),
        "started_at": started_at.isoformat(),
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "total_seconds": round(time.perf_counter() - started_clock, 6),
        "stages": state.stages,
        "promoted": promoted,
        "dataset": _dataset_section(state),
    }
    write_json(os.path.join(config.output_dir, "manifest.json"), manifest)
    if interrupt is not None:
        raise interrupt
    if status != "ok":
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _input_digest(state: _RunState) -> str | None:
    """The digest of the input bytes the run parsed, or None if it parsed none."""
    if state.report is None:
        return None
    return "sha256:" + state.report.sha256


def _dataset_section(state: _RunState) -> dict | None:
    if state.stats is None:
        return None
    lexicon = {engine: scored.coverage() for engine, scored in state.scored.items()}
    if "swn" in lexicon:
        senses = state.sense_lexicon
        lexicon["swn"].update(rows_read=senses.rows_read, rows_rejected=senses.rows_rejected)
    dataset = {
        "lines_read": state.report.lines_read,
        "lines_skipped": state.report.lines_skipped,
        "skipped": state.report.skipped,
        "total_raw": state.stats["total_raw"],
        "total_kept": state.stats["total_kept"],
        "coverage_pct": state.stats["coverage_pct"],
        "excluded": state.excluded,
        "spelling": state.pipeline.dictionary.activity(),
        "lexicon": lexicon,
    }
    if state.grid is not None:
        dataset["sole_mention"] = state.grid.counts
    if state.topics is not None:
        dataset["topics"] = state.topics
    return dataset


def _build_parser() -> argparse.ArgumentParser:
    # Every subcommand takes these flags, and none converts its value: a flag
    # whose dest is "section.key" overrides that key with the string given,
    # and ``main`` hands it to ``validate_config``, the only check of it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="config.ini", help="run configuration INI file")
    common.add_argument("--input", dest="input.path", metavar="INPUT",
                        help="override the input JSON-lines path")
    common.add_argument("--stopwords", dest="preprocess.stopwords", metavar="STOPWORDS",
                        help="override the stopword list path")
    common.add_argument("--no-spellcheck", action="store_const", const="false",
                        dest="preprocess.spellcheck", help="skip spelling correction")
    common.add_argument("--engine", dest="sentiment.engine", metavar="ENGINE",
                        help="sentiment engine: pattern or swn")
    common.add_argument("--output", dest="output.dir", metavar="OUTPUT",
                        help="override the output directory")
    common.add_argument("--seed", dest="run.seed", metavar="SEED",
                        help="override the random seed")
    common.add_argument("--k", dest="topics.k", metavar="K", help="topic count")
    common.add_argument("--iters", dest="topics.iterations", metavar="ITERS",
                        help="Gibbs sweeps")

    parser = argparse.ArgumentParser(
        prog="electionpulse",
        description="Batch analytics over election tweet streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for command in SUBCOMMANDS:
        help_text = _STAGES[command][2] if command in _STAGES else "run the full pipeline"
        subparsers.add_parser(command, parents=[common], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    overrides = {key: value for key, value in args.items() if "." in key and value is not None}
    try:
        config = validate_config(args["config"], overrides, args["subcommand"])
    except ConfigError as exc:
        for diagnostic in exc.diagnostics:
            print(f"config error: {diagnostic}", file=sys.stderr)
        return 2
    return run(args["subcommand"], config)


if __name__ == "__main__":
    sys.exit(main())
