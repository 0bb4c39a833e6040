"""Per-layer metrics, one layer per electionpulse module, from a trace.

LAYERS says, for each layer, which end-to-end metric its numbers should
move and on which workload; the benchmark prints it with the traced run.
"""

from __future__ import annotations

LAYERS = {
    "config": "setup_s on every workload",
    "ingest": "run_s and peak_rss_mb on mentions_wide",
    "preprocess": "run_s on mentions_wide",
    "spelling": "run_s on typo_zipf and part of run_s on lda_default; zero on mentions_wide",
    "stemming": "run_s on mentions_wide",
    "actors": "run_s on mentions_wide; not run_s on lda_default",
    "sentiment": "run_s on mentions_wide",
    "analytics": "run_s on mentions_wide",
    "topics": "run_s and cpu_s on lda_default; not typo_zipf",
    "cli": "run_s on mentions_wide",
}

STAGES = (
    "ingest",
    "preprocess",
    "export",
    "score",
    "compare",
    "counts",
    "cloud",
    "timeseries",
    "heatmap",
    "topics",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Trace:
    def __init__(self, payload: dict):
        self.spans = payload["spans"]
        self.items = payload["items"]
        self.observed = payload["observed"]
        self.distinct = payload["distinct"]

    def _parent_name(self, span: dict) -> str | None:
        return None if span["parent"] is None else self.spans[span["parent"]]["name"]

    def span_s(self, name: str, parent: str | None = None) -> float:
        """Total duration of the named spans, optionally only under one parent."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (parent is None or self._parent_name(s) == parent)
        )

    def span_self_s(self, name: str) -> float:
        return sum(s["self"] for s in self.spans if s["name"] == name)

    def item(self, name: str) -> tuple[int, float, float]:
        """(calls, busy seconds, self seconds) summed over every parent span."""
        rows = [row for row in self.items if row["name"] == name]
        return (
            sum(row["count"] for row in rows),
            sum(row["busy_s"] for row in rows),
            sum(row["self_s"] for row in rows),
        )

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds per module over every span and per-item call."""
        totals: dict[str, float] = {}
        for span in self.spans:
            layer = span["name"].partition(".")[0]
            totals[layer] = totals.get(layer, 0.0) + span["self"]
        for row in self.items:
            layer = row["name"].partition(".")[0]
            totals[layer] = totals.get(layer, 0.0) + row["self_s"]
        return totals


def per_layer(trace: Trace) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}
    m["config.validate_s"] = (trace.span_s("config.validate_config"), "s")

    lines = trace.observed.get("ingest.lines_read", 0)
    parse_s = trace.span_s("ingest.parse_tweet_stream")
    m["ingest.parse_s"] = (parse_s, "s")
    m["ingest.us_per_line"] = (_ratio(parse_s, lines) * 1e6, "us")
    m["ingest.skipped"] = (trace.observed.get("ingest.skipped", 0), "count")
    m["ingest.stats_s"] = (trace.span_s("ingest.dataset_stats"), "s")
    m["ingest.export_s"] = (trace.span_s("ingest.export_records"), "s")

    tweets, _, pre_self = trace.item("preprocess.preprocess_pipeline")
    kept = trace.observed.get("preprocess.kept", 0)
    m["preprocess.self_s"] = (pre_self, "s")
    m["preprocess.us_per_tweet"] = (_ratio(pre_self, tweets) * 1e6, "us")
    m["preprocess.kept"] = (kept, "count")

    calls, busy, _ = trace.item("spelling.correct_spelling")
    distinct = trace.distinct.get("spelling.correct_spelling", 0)
    m["spelling.calls"] = (calls, "count")
    m["spelling.distinct"] = (distinct, "count")
    m["spelling.repeat_share"] = (1 - _ratio(distinct, calls) if calls else 0.0, "ratio")
    m["spelling.changed_share"] = (_ratio(trace.observed.get("spelling.changed", 0), calls), "ratio")
    m["spelling.s"] = (busy, "s")
    m["spelling.ms_per_call"] = (_ratio(busy, calls) * 1e3, "ms")

    calls, busy, _ = trace.item("stemming.porter_stem")
    distinct = trace.distinct.get("stemming.porter_stem", 0)
    m["stemming.calls"] = (calls, "count")
    m["stemming.repeat_share"] = (1 - _ratio(distinct, calls) if calls else 0.0, "ratio")
    m["stemming.s"] = (busy, "s")
    m["stemming.us_per_call"] = (_ratio(busy, calls) * 1e6, "us")

    calls, busy, _ = trace.item("actors.match_actors")
    m["actors.match_calls"] = (calls, "count")
    m["actors.match_per_tweet"] = (_ratio(calls, kept), "1/tweet")
    m["actors.match_s"] = (busy, "s")
    m["actors.us_per_match"] = (_ratio(busy, calls) * 1e6, "us")
    m["actors.sole_calls"] = (trace.item("actors.sole_mention")[0], "count")

    scored = trace.observed.get("sentiment.tweets_scored", 0)
    m["sentiment.scorings_per_tweet"] = (_ratio(scored, kept), "1/tweet")
    m["sentiment.swn_word_calls"] = (trace.item("sentiment.swn_word_sentiment")[0], "count")
    m["sentiment.score_s"] = (trace.span_s("sentiment.score_all", parent="cli.run"), "s")
    m["sentiment.compare_s"] = (trace.span_s("sentiment.compare_classifiers"), "s")

    m["analytics.series_s"] = (trace.span_s("analytics.avg_sentiment_series"), "s")
    m["analytics.heatmap_s"] = (trace.span_s("analytics.frequency_heatmap"), "s")
    m["analytics.cloud_s"] = (trace.span_s("analytics.cooccurrence_cloud"), "s")
    m["analytics.combined_s"] = (trace.span_s("analytics.combined_avg_polarity"), "s")

    fit_s = trace.span_s("topics.lda_fit")
    samples = trace.observed.get("topics.token_samples", 0)
    m["topics.corpus_s"] = (trace.span_s("topics.build_corpus"), "s")
    m["topics.fit_s"] = (fit_s, "s")
    m["topics.token_samples"] = (samples, "count")
    m["topics.us_per_token_sample"] = (_ratio(fit_s, samples) * 1e6, "us")
    m["topics.report_s"] = (trace.span_s("topics.topic_report"), "s")

    m["cli.self_s"] = (trace.span_self_s("cli.run"), "s")
    return m


def manifest_metrics(manifest: dict) -> dict[str, tuple[float, str]]:
    """Stage seconds as an untraced run reports them in manifest.json."""
    stages = {stage["name"]: stage["seconds"] for stage in manifest["stages"]}
    m = {"cli.unaccounted_s": (manifest["total_seconds"] - sum(stages.values()), "s")}
    for name in STAGES:
        m[f"stage.{name}_s"] = (stages.get(name, 0.0), "s")
    return m
