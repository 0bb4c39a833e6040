"""Run ``electionpulse all`` in this process with every traced call recorded.

    python3 bench/tracer.py TRACE_JSON -- all --config CONFIG --output DIR

Before calling ``cli.main`` the tracer swaps the public functions named in
SPANS and ITEMS for recording wrappers, under every name any electionpulse
module bound them to (``match_actors`` lives in ``actors`` but is also
imported by ``ingest``, ``analytics`` and ``cli``).

Stage-level calls (SPANS) each get a span with its parent span. Per-item
calls (ITEMS) are aggregated instead: a count, busy time and self time for
each (function, parent span) pair. Self time is duration minus the time
covered by traced children. Everything stays in memory and is written to
TRACE_JSON when the run ends. The process exits with ``cli.main``'s code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

SPANS = {
    "cli": ("main", "run"),
    "config": ("validate_config",),
    "preprocess": ("load_stopwords",),
    "spelling": ("load_dictionary",),
    "ingest": ("parse_tweet_stream", "dataset_stats", "export_records"),
    "sentiment": (
        "load_pattern_lexicon",
        "load_negators",
        "load_sense_lexicon",
        "score_all",
        "compare_classifiers",
    ),
    "analytics": (
        "avg_sentiment_series",
        "frequency_heatmap",
        "cooccurrence_cloud",
        "combined_avg_polarity",
    ),
    "topics": ("build_corpus", "lda_fit", "topic_report"),
}

ITEMS = {
    "preprocess": ("preprocess_pipeline",),
    "spelling": ("correct_spelling",),
    "stemming": ("porter_stem",),
    "actors": ("match_actors", "sole_mention"),
    "sentiment": ("pattern_score", "swn_word_sentiment"),
}


class _Frame:
    __slots__ = ("span", "child")

    def __init__(self, span: int | None):
        self.span = span  # index of the innermost enclosing span
        self.child = 0.0  # time covered by traced children


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.items: dict[tuple[str, str], list] = {}
        self.observed: Counter = Counter()
        self.arguments: dict[str, Counter] = {}
        self._stack: list[_Frame] = [_Frame(None)]

    def _parent_name(self) -> str:
        span = self._stack[-1].span
        return self.spans[span]["name"] if span is not None else ""

    def span(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1]
            record = {"id": len(self.spans), "parent": parent.span, "name": name}
            self.spans.append(record)
            frame = _Frame(record["id"])
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                parent.child += end - start
                record.update(start=start, end=end, self=end - start - frame.child)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def item(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1]
            frame = _Frame(parent.span)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                parent.child += elapsed
                key = (name, self._parent_name())
                entry = self.items.get(key)
                if entry is None:
                    entry = self.items[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame.child
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def count_argument(self, name: str, value) -> None:
        self.arguments.setdefault(name, Counter())[value] += 1

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "items": [
                {"name": name, "parent": parent, "count": c, "busy_s": busy, "self_s": own}
                for (name, parent), (c, busy, own) in sorted(self.items.items())
            ],
            "observed": dict(self.observed),
            "distinct": {name: len(values) for name, values in self.arguments.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)


def _spelling(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count_argument("spelling.correct_spelling", args[0])
    tracer.observed["spelling.changed"] += result != args[0]


def _stemming(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count_argument("stemming.porter_stem", args[0])


def _preprocess(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observed["preprocess.kept"] += result is not None


def _score_all(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observed["sentiment.tweets_scored"] += len(args[0])


def _parse(tracer: Tracer, args, kwargs, result) -> None:
    report = result[1]
    tracer.observed["ingest.lines_read"] += report.lines_read
    tracer.observed["ingest.skipped"] += report.lines_skipped


def _lda_fit(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observed["topics.token_samples"] += sum(result.doc_lengths) * result.iterations


OBSERVERS = {
    "spelling.correct_spelling": _spelling,
    "stemming.porter_stem": _stemming,
    "preprocess.preprocess_pipeline": _preprocess,
    "sentiment.score_all": _score_all,
    "ingest.parse_tweet_stream": _parse,
    "topics.lda_fit": _lda_fit,
}


def install(tracer: Tracer):
    """Swap every traced function for its wrapper; returns the cli module."""
    cli = importlib.import_module("electionpulse.cli")
    package = [m for name, m in sorted(sys.modules.items()) if name.startswith("electionpulse.")]
    for table, wrap in ((SPANS, tracer.span), (ITEMS, tracer.item)):
        for module_name, functions in table.items():
            module = importlib.import_module(f"electionpulse.{module_name}")
            for function in functions:
                original = getattr(module, function)
                name = f"{module_name}.{function}"
                wrapper = wrap(name, original, OBSERVERS.get(name))
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
    return cli


def main(argv: list[str]) -> int:
    trace_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON -- <electionpulse arguments>")
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(cli_args)
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
