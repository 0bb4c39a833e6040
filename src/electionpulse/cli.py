"""Command-line orchestration and artifact emission.

Every subcommand shares one validated configuration, so all analyses run
over the same preprocessed tweet population. Artifacts are written to a
staging directory and moved into the output directory only when the run
succeeds, so a failed run never leaves partial outputs. A run manifest
is written on success and failure alike; it is the only artifact that
contains wall-clock timestamps, keeping the data artifacts byte-stable
across reruns with the same inputs and seed.

Exit codes: 0 success, 1 pipeline failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone

from . import __version__, analytics, topics
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
    process_tokens,
    text_tokens,
)
from .sentiment import (
    ENGINES,
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
from .spelling import SpellingDictionary, load_dictionary


class _RunState:
    """Everything a stage needs, loaded or computed once per run."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.pipeline = PipelineConfig()
        self.records: list = []
        self.report: ParseReport | None = None
        self.kept: list[ProcessedTweet] = []
        self.excluded: dict[str, int] = {}
        self.stats: dict | None = None
        self.pattern_lexicon: dict = {}
        self.negators: frozenset = frozenset()
        self.sense_lexicon: SenseLexicon | None = None
        self.scored: dict[str, EngineScores] = {}
        self.topics: dict | None = None
        self.stages: list[dict] = []


def _load(state: _RunState) -> int:
    """Load the word lists and lexicons; returns the number of files read."""
    config = state.config
    stopwords = load_stopwords(config.stopwords_path)
    if config.extra_stopwords_from_actors:
        stopwords |= config.actor_set.alias_words()
    if config.dictionary_path:
        dictionary = load_dictionary(config.dictionary_path)
    else:
        dictionary = SpellingDictionary()
    state.pipeline = PipelineConfig(
        stopwords=stopwords,
        dictionary=dictionary,
        spellcheck=config.spellcheck,
        stemming=config.stemming,
    )
    state.pattern_lexicon = load_pattern_lexicon(config.pattern_lexicon_path)
    if not state.pattern_lexicon:
        raise ValueError(f"pattern lexicon {config.pattern_lexicon_path} has no entry")
    state.negators = load_negators(config.negators_path)
    senses = state.sense_lexicon = load_sense_lexicon(config.sense_lexicon_path)
    if not senses.word_scores:
        raise ValueError(
            f"sense lexicon {config.sense_lexicon_path} has no usable entry: "
            f"{senses.rows_rejected} of {senses.rows_read} rows rejected"
        )
    # stopwords, pattern lexicon, negators, senses, and the dictionary if any
    return 4 + bool(config.dictionary_path)


def _timed(state: _RunState, name: str, worker) -> None:
    """Run ``worker`` and record its stage: the count it returns and its time."""
    started = time.perf_counter()
    records = worker()
    state.stages.append(
        {
            "name": name,
            "records": records,
            "seconds": round(time.perf_counter() - started, 6),
        }
    )


def _ingest(state: _RunState) -> None:
    config = state.config

    def worker():
        state.records, state.report = parse_tweet_stream(
            config.input_path, field_map=config.field_map, tz=config.tz
        )
        return len(state.records)

    _timed(state, "ingest", worker)

    def preprocess_worker():
        state.kept, raw_counts, state.excluded = preprocess_records(
            state.records, state.pipeline, config.actor_set
        )
        state.stats = dataset_stats(state.records, state.kept, raw_counts, config.actor_set)
        return len(state.kept)

    _timed(state, "preprocess", preprocess_worker)


def _scored(state: _RunState, engine: str) -> EngineScores:
    """The engine's scores of the kept tweets, computed on first use."""
    if engine not in state.scored:
        state.scored[engine] = score_all(
            state.kept,
            engine,
            pattern_lexicon=state.pattern_lexicon,
            negators=state.negators,
            sense_lexicon=state.sense_lexicon,
        )
    return state.scored[engine]


def _score(state: _RunState) -> list[SentimentScore]:
    return _scored(state, state.config.engine).scores


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _stage_tweets_csv(state: _RunState, staging: str, options: dict) -> int:
    export_records(state.kept, os.path.join(staging, "tweets.csv"), state.config.actor_set)
    return len(state.kept)


def _stage_scores_csv(state: _RunState, staging: str, options: dict) -> int:
    scores = _score(state)
    threshold = state.config.subjectivity_threshold
    with open(os.path.join(staging, "scores.csv"), "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "polarity", "subjectivity", "polarity_class", "subjectivity_class"])
        for tweet, score in zip(state.kept, scores):
            writer.writerow(
                [
                    tweet.record.id,
                    repr(score.polarity),
                    repr(score.subjectivity),
                    polarity_class(score.polarity),
                    subjectivity_class(score.subjectivity, threshold),
                ]
            )
    return len(scores)


def _stage_compare_csv(state: _RunState, staging: str, options: dict) -> int:
    table = compare_classifiers({engine: _scored(state, engine).scores for engine in ENGINES})
    with open(os.path.join(staging, "compare.csv"), "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "engine",
                "positive_count",
                "neutral_count",
                "negative_count",
                "positive_pct",
                "neutral_pct",
                "negative_pct",
            ]
        )
        for engine in sorted(table):
            dist = table[engine]
            writer.writerow(
                [engine, *dist.counts, *(f"{value:.2f}" for value in dist.percentages)]
            )
    return len(state.kept)


def _stage_counts_json(state: _RunState, staging: str, options: dict) -> int:
    scores = _score(state)
    combined = analytics.combined_avg_polarity(state.kept, scores, state.config.actor_set)
    payload = {
        **state.stats,
        "combined_avg_polarity": combined,
        "parse": {
            "lines_read": state.report.lines_read,
            "records": len(state.records),
            "skipped": state.report.lines_skipped,
        },
    }
    _write_json(os.path.join(staging, "counts.json"), payload)
    return len(state.stats["per_group"])


def _stage_clouds_json(state: _RunState, staging: str, options: dict) -> int:
    actor_set = state.config.actor_set
    actor_id = options.get("actor")
    if actor_id:
        chosen = [actor_set[actor_id]]
    else:
        chosen = [actor for actor in actor_set if actor.kind == "candidate"]
    payload = {
        actor.id: analytics.cooccurrence_cloud(state.kept, actor, actor_set) for actor in chosen
    }
    _write_json(os.path.join(staging, "clouds.json"), payload)
    return len(payload)


def _stage_timeseries_csv(state: _RunState, staging: str, options: dict) -> int:
    scores = _score(state)
    series = analytics.avg_sentiment_series(
        state.kept,
        scores,
        state.config.actor_set,
        state.config.scope,
        scale=state.config.polarity_scale,
    )
    with open(os.path.join(staging, "timeseries.csv"), "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["actor", "bucket", "count", "mean_polarity_x100", "mean_subjectivity"])
        for actor_id, cells in series.items():
            for label, cell in cells.items():
                if cell is None:
                    writer.writerow([actor_id, label, 0, "", ""])
                else:
                    writer.writerow(
                        [
                            actor_id,
                            label,
                            cell.count,
                            repr(cell.mean_polarity_x100),
                            repr(cell.mean_subjectivity),
                        ]
                    )
    return len(series) * len(analytics.BUCKET_LABELS)


def _stage_heatmap_json(state: _RunState, staging: str, options: dict) -> int:
    matrix = analytics.frequency_heatmap(
        state.kept,
        state.config.actor_set,
        state.config.scope,
        top_n=state.config.heatmap_top_n,
    )
    _write_json(os.path.join(staging, "heatmap.json"), matrix)
    return len(matrix)


def _stage_topics_json(state: _RunState, staging: str, options: dict) -> int:
    config = state.config
    group = options.get("group")
    tweets = state.kept
    if group:
        tweets = [tweet for tweet in tweets if group in tweet.actors]
    corpus = topics.build_corpus(tweets, min_doc_len=config.min_doc_len)
    state.topics = {"documents": len(corpus.docs), "dropped_docs": corpus.dropped_docs}
    if len(corpus.vocabulary) < config.top_words:
        name = f"group {group!r}" if group else "all tweets"
        raise ValueError(
            f"the topic corpus of {name} has a vocabulary of {len(corpus.vocabulary)} words, "
            f"fewer than [topics] top_words = {config.top_words}"
        )
    model = topics.lda_fit(
        corpus,
        k=config.lda_k,
        alpha=config.lda_alpha,
        beta=config.lda_beta,
        iterations=config.lda_iterations,
        seed=config.seed,
    )
    entries = topics.topic_report(model, config.top_words, config.topic_labels)
    payload = {
        "group": group or "all",
        "k": config.lda_k,
        "alpha": config.lda_alpha,
        "beta": config.lda_beta,
        "iterations": config.lda_iterations,
        "seed": config.seed,
        "top_words": config.top_words,
        "dropped_docs": corpus.dropped_docs,
        "topics": entries,
    }
    _write_json(os.path.join(staging, "topics.json"), payload)
    return len(entries)


def _stage_nbc_model(state: _RunState, staging: str, options: dict) -> int:
    corpus_path = state.config.nbc_corpus_path
    docs = []
    with open(corpus_path, encoding="utf-8", newline="") as handle:
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
            tokens = process_tokens(text_tokens(text), state.pipeline)
            docs.append((tokens, label))
    model = nbc_train(docs, options.get("alpha", 1.0))
    payload = {
        "alpha": model.alpha,
        "labels": model.labels,
        "priors": model.class_priors,
        "likelihoods": model.word_likelihoods,
        "vocabulary": sorted(model.vocabulary),
    }
    _write_json(os.path.join(staging, "nbc_model.json"), payload)
    return len(docs)


# Subcommand -> (manifest stage name, writer), in the order ``all`` runs
# them; ``all`` skips train-nbc. Each writer stages its artifact and
# returns the record count the manifest reports for the stage.
_STAGES = {
    "ingest": ("export", _stage_tweets_csv),
    "sentiment": ("score", _stage_scores_csv),
    "compare": ("compare", _stage_compare_csv),
    "counts": ("counts", _stage_counts_json),
    "cloud": ("cloud", _stage_clouds_json),
    "timeseries": ("timeseries", _stage_timeseries_csv),
    "heatmap": ("heatmap", _stage_heatmap_json),
    "topics": ("topics", _stage_topics_json),
    "train-nbc": ("train-nbc", _stage_nbc_model),
}
SUBCOMMANDS = (*_STAGES, "all")
_ALL_STAGES = tuple(stage for stage in _STAGES if stage != "train-nbc")


def run(subcommand: str, config: RunConfig, options: dict | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    options = options or {}
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    started_at = datetime.now(timezone.utc)
    started_clock = time.perf_counter()
    os.makedirs(config.output_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=config.output_dir)
    status = "ok"
    error = None
    state = _RunState(config=config)
    try:
        _timed(state, "load", lambda: _load(state))
        _ingest(state)
        stages = _ALL_STAGES if subcommand == "all" else (subcommand,)
        for stage in stages:
            stage_name, writer = _STAGES[stage]
            _timed(state, stage_name, lambda: writer(state, staging, options))
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name), os.path.join(config.output_dir, name))
    except Exception as exc:  # pipeline failure: no partial artifacts, manifest only
        status = "failed"
        error = f"{type(exc).__name__}: {exc}"
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
        "dataset": _dataset_section(state),
    }
    _write_json(os.path.join(config.output_dir, "manifest.json"), manifest)
    if status != "ok":
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _input_digest(state: _RunState) -> str | None:
    """The digest of the input bytes the run parsed, or None if it parsed none."""
    if state.report is None or state.report.sha256 is None:
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
    if state.topics is not None:
        dataset["topics"] = state.topics
    return dataset


def _build_parser() -> argparse.ArgumentParser:
    # A flag whose dest is "section.key" overrides that config key; the
    # rest (--config, --field-map, --actor, --group, train-nbc --alpha)
    # are read by ``main`` itself.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="config.ini", help="run configuration INI file")
    common.add_argument("--input", dest="input.path", metavar="INPUT",
                        help="override the input JSON-lines path")
    common.add_argument("--timezone", dest="input.timezone", metavar="TIMEZONE",
                        help="override the dataset timezone")
    common.add_argument("--field-map", action="append", default=[], metavar="FIELD=PATH",
                        help="override one ingest field path (repeatable)")
    common.add_argument("--stopwords", dest="preprocess.stopwords", metavar="STOPWORDS",
                        help="override the stopword list path")
    common.add_argument("--extra-stopwords-from-actors", action="store_const", const="true",
                        dest="preprocess.extra_stopwords_from_actors",
                        help="also treat actor and party names as stopwords")
    common.add_argument("--no-spellcheck", action="store_const", const="false",
                        dest="preprocess.spellcheck", help="skip spelling correction")
    common.add_argument("--no-stem", action="store_const", const="false",
                        dest="preprocess.stem", help="skip stemming")
    common.add_argument("--engine", choices=["pattern", "swn"], dest="sentiment.engine",
                        help="sentiment engine")
    common.add_argument("--output", dest="output.dir", metavar="OUTPUT",
                        help="override the output directory")
    common.add_argument("--seed", type=int, dest="run.seed", metavar="SEED",
                        help="override the random seed")

    parser = argparse.ArgumentParser(
        prog="electionpulse",
        description="Batch analytics over election tweet streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    subparsers.add_parser("ingest", parents=[common], help="parse, preprocess and export tweets")
    subparsers.add_parser("sentiment", parents=[common], help="per-tweet polarity and subjectivity")
    subparsers.add_parser("compare", parents=[common], help="polarity distributions of both engines")
    subparsers.add_parser("counts", parents=[common], help="dataset and per-actor mention counts")
    cloud = subparsers.add_parser("cloud", parents=[common], help="co-occurring words per actor")
    cloud.add_argument("--actor", help="emit the cloud for this actor only")
    subparsers.add_parser("timeseries", parents=[common], help="bucketed sentiment series")
    heatmap = subparsers.add_parser("heatmap", parents=[common], help="per-actor per-bucket term tables")
    heatmap.add_argument("--top-n", type=int, dest="analytics.top_n", metavar="TOP_N",
                         help="rows per heatmap cell")
    topics_cmd = subparsers.add_parser("topics", parents=[common], help="LDA topic report")
    topics_cmd.add_argument("--group", help="restrict the corpus to tweets mentioning this actor")
    topics_cmd.add_argument("--k", type=int, dest="topics.k", metavar="K", help="topic count")
    topics_cmd.add_argument("--alpha", type=float, dest="topics.alpha", metavar="ALPHA",
                            help="doc-topic smoothing")
    topics_cmd.add_argument("--beta", type=float, dest="topics.beta", metavar="BETA",
                            help="topic-word smoothing")
    topics_cmd.add_argument("--iters", type=int, dest="topics.iterations", metavar="ITERS",
                            help="Gibbs sweeps")
    topics_cmd.add_argument("--top-words", type=int, dest="topics.top_words", metavar="TOP_WORDS",
                            help="keywords per topic")
    train = subparsers.add_parser("train-nbc", parents=[common], help="train the Naive Bayes model")
    train.add_argument("--alpha", type=float, default=1.0, help="Laplace smoothing constant")
    subparsers.add_parser("all", parents=[common], help="run the full pipeline")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    overrides = {key: str(value) for key, value in args.items() if "." in key and value is not None}
    for item in args["field_map"]:
        name, _, dotted = item.partition("=")
        overrides[f"fields.{name.strip()}"] = dotted.strip()
    options = {
        key: value
        for key, value in args.items()
        if key in ("actor", "group", "alpha") and value is not None
    }
    try:
        config = validate_config(args["config"], overrides, args["subcommand"], options)
    except ConfigError as exc:
        for diagnostic in exc.diagnostics:
            print(f"config error: {diagnostic}", file=sys.stderr)
        return 2
    return run(args["subcommand"], config, options)


if __name__ == "__main__":
    sys.exit(main())
