"""Time-bucketed sentiment series, frequency tables and co-occurrence data.

The election-day window 06:00-23:59 local time is divided into eight
buckets: seven two-hour spans plus a final "20-00" span running to the
end of the day. Earlier times are out of range. Bucket cells with no
tweets are emitted as explicit empty markers (None), never as zero means:
a fabricated zero would read as neutral sentiment.

The sentiment series and the frequency heatmap are two views of one grid,
``{scope actor: {bucket label: cell}}``, built by one function over the
tweets that name exactly one scope actor. Frequency tables and clouds are
plain ``(term, count)`` rows; a heatmap cell keeps its ``HEATMAP_TOP_N``
heaviest. Both shapes are what the CLI writes, as they are.

Which actors a tweet mentions, and which bucket it falls in, are read
from the tweet itself (``ProcessedTweet.actors`` and ``.bucket``, each
worked out once per run by ``ingest.preprocess_records``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from datetime import datetime, time
from typing import Any, NamedTuple

from ._util import ConsistencyError, float_sum
from .actors import Actor, ActorSet, sole_mention
from .preprocess import ProcessedTweet
from .sentiment import SentimentScore

OUT_OF_RANGE = "out_of_range"

BUCKET_LABELS: tuple[str, ...] = (
    "6-8", "8-10", "10-12", "12-14", "14-16", "16-18", "18-20", "20-00",
)

# Rows per heatmap cell.
HEATMAP_TOP_N = 10


def bucket_label(timestamp: datetime | time) -> str:
    """The label of the bucket holding a local-time instant; OUT_OF_RANGE before 06:00."""
    if timestamp.hour < 6:
        return OUT_OF_RANGE
    return BUCKET_LABELS[min((timestamp.hour - 6) // 2, 7)]


class SeriesCell(NamedTuple):
    count: int
    mean_polarity_x100: float
    mean_subjectivity: float


def _sole_mention_grid(
    tweets: Sequence[ProcessedTweet],
    values: Iterable,
    actors: ActorSet,
    scope: Sequence[str],
    summarize: Callable[[list], Any],
) -> dict[str, dict[str, Any]]:
    """``{scope actor: {bucket label: summarize(cell) or None}}`` in scope
    and ``BUCKET_LABELS`` order. A cell holds the ``values`` (aligned with
    ``tweets``) of the tweets that name exactly that one scope actor, in
    tweet order; tweets before 06:00 are left out, and a cell with no
    tweets is None."""
    cells: dict[tuple[str, str], list] = {}
    for tweet, value in zip(tweets, values):
        label = tweet.bucket
        if label == OUT_OF_RANGE:
            continue
        actor_id = sole_mention(tweet.actors, actors, scope)
        if actor_id is None:
            continue
        cells.setdefault((actor_id, label), []).append(value)
    return {
        actor_id: {
            label: summarize(cells[actor_id, label]) if (actor_id, label) in cells else None
            for label in BUCKET_LABELS
        }
        for actor_id in scope
    }


def avg_sentiment_series(
    tweets: Sequence[ProcessedTweet],
    scores: Sequence[SentimentScore],
    actors: ActorSet,
    scope: Sequence[str],
) -> dict[str, dict[str, SeriesCell | None]]:
    """Mean polarity times 100 and mean subjectivity per scope actor per bucket.

    Only sole mentions count: a tweet contributes to exactly the one
    scoped actor it names alone, in the bucket of its local timestamp.
    """
    if len(tweets) != len(scores):
        raise ConsistencyError(
            f"{len(tweets)} tweets but {len(scores)} scores; inputs must align one-to-one"
        )

    def summarize(cell_scores: list[SentimentScore]) -> SeriesCell:
        count = len(cell_scores)
        polarity = float_sum(score.polarity for score in cell_scores)
        subjectivity = float_sum(score.subjectivity for score in cell_scores)
        return SeriesCell(count, polarity / count * 100.0, subjectivity / count)

    return _sole_mention_grid(tweets, scores, actors, scope, summarize)


def term_frequencies(
    tweets: Iterable[ProcessedTweet],
    exclusions: Iterable[str] | None = None,
    top_n: int | None = None,
) -> list[tuple[str, int]]:
    """(term, count) rows over the group's stemmed tokens, counts
    descending, ties lexicographic. Tokens and exclusions are lowercase
    words, as ``preprocess.clean`` and the actor roster make them."""
    if top_n is not None and top_n < 1:
        raise ValueError("top_n must be at least 1")
    excluded = frozenset(exclusions or ())
    counts: Counter[str] = Counter()
    for tweet in tweets:
        counts.update(token for token in tweet.tokens if token not in excluded)
    rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return rows[:top_n] if top_n else rows


def cooccurrence_cloud(
    tweets: Sequence[ProcessedTweet], actor: Actor, actors: ActorSet
) -> list[tuple[str, int]]:
    """Term rows over tweets mentioning the actor, actor names excluded."""
    matching = [tweet for tweet in tweets if actor.id in tweet.actors]
    return term_frequencies(matching, actors.exclusion_words())


def frequency_heatmap(
    tweets: Sequence[ProcessedTweet],
    actors: ActorSet,
    scope: Sequence[str],
) -> dict[str, dict[str, list[tuple[str, int]] | None]]:
    """The ``HEATMAP_TOP_N`` top term rows per (scope actor, bucket) over
    sole-mention tweets; the same grid as ``avg_sentiment_series``."""
    return _sole_mention_grid(
        tweets, tweets, actors, scope, lambda cell: term_frequencies(cell, top_n=HEATMAP_TOP_N)
    )


def combined_avg_polarity(
    tweets: Sequence[ProcessedTweet],
    scores: Sequence[SentimentScore],
    actors: ActorSet,
) -> dict[str, float | None]:
    """Unscaled mean polarity over tweets matching each combined actor."""
    if len(tweets) != len(scores):
        raise ConsistencyError(
            f"{len(tweets)} tweets but {len(scores)} scores; inputs must align one-to-one"
        )
    sums = {actor.id: [0, 0.0] for actor in actors.combined()}
    for tweet, score in zip(tweets, scores):
        for actor_id, entry in sums.items():
            if actor_id in tweet.actors:
                entry[0] += 1
                entry[1] += score.polarity
    return {
        actor_id: (total / count if count else None)
        for actor_id, (count, total) in sums.items()
    }
