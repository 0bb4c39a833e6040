"""Time-bucketed sentiment series, frequency tables and co-occurrence data.

The election-day window 06:00-23:59 local time is divided into eight
buckets: seven two-hour spans plus a final "20-00" span running to the
end of the day. Earlier times are out of range. Bucket cells with no
tweets are emitted as explicit empty markers (None), never as zero means:
a fabricated zero would read as neutral sentiment.

Which actors a tweet mentions is read from the tweet itself
(``ProcessedTweet.actors``, matched once per run by
``ingest.preprocess_records``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from datetime import datetime, time
from typing import NamedTuple

from ._util import ConsistencyError
from .actors import Actor, ActorSet, sole_mention
from .preprocess import ProcessedTweet
from .sentiment import SentimentScore

OUT_OF_RANGE = "out_of_range"

BUCKET_LABELS: tuple[str, ...] = (
    "6-8", "8-10", "10-12", "12-14", "14-16", "16-18", "18-20", "20-00",
)


def bucket_label(timestamp: datetime | time) -> str:
    """The label of the bucket holding a local-time instant; OUT_OF_RANGE before 06:00."""
    if timestamp.hour < 6:
        return OUT_OF_RANGE
    return BUCKET_LABELS[min((timestamp.hour - 6) // 2, 7)]


class SeriesCell(NamedTuple):
    count: int
    mean_polarity_x100: float
    mean_subjectivity: float


@dataclass
class SentimentSeries:
    """Per-bucket sentiment for one actor; None cells mean no tweets."""

    actor_id: str
    cells: dict[str, SeriesCell | None]


@dataclass
class FrequencyTable:
    """Ranked (term, count) rows, counts descending, ties lexicographic."""

    key: str
    rows: list[tuple[str, int]]


def _sole_mention_cells(
    tweets: Sequence[ProcessedTweet], values: Iterable, actors: ActorSet, scope: Sequence[str]
) -> dict[tuple[str, str], list]:
    """``values`` (aligned with ``tweets``) grouped by (scope actor, bucket
    label), for the tweets that name exactly one scope actor; tweets before
    06:00 are left out. Each cell keeps tweet order."""
    cells: dict[tuple[str, str], list] = {}
    for tweet, value in zip(tweets, values):
        label = bucket_label(tweet.record.created_at)
        if label == OUT_OF_RANGE:
            continue
        actor_id = sole_mention(tweet.actors, actors, scope)
        if actor_id is None:
            continue
        cells.setdefault((actor_id, label), []).append(value)
    return cells


def avg_sentiment_series(
    tweets: Sequence[ProcessedTweet],
    scores: Sequence[SentimentScore],
    actors: ActorSet,
    scope: Sequence[str],
    scale: float = 100.0,
) -> list[SentimentSeries]:
    """Mean polarity (scaled) and subjectivity per scope actor per bucket.

    Only sole mentions count: a tweet contributes to exactly the one
    scoped actor it names alone, in the bucket of its local timestamp.
    """
    if len(tweets) != len(scores):
        raise ConsistencyError(
            f"{len(tweets)} tweets but {len(scores)} scores; inputs must align one-to-one"
        )
    grouped = _sole_mention_cells(tweets, scores, actors, scope)
    series = []
    for actor_id in scope:
        cells: dict[str, SeriesCell | None] = {}
        for label in BUCKET_LABELS:
            cell_scores = grouped.get((actor_id, label))
            if cell_scores is None:
                cells[label] = None
            else:
                count = len(cell_scores)
                polarity = sum(score.polarity for score in cell_scores)
                subjectivity = sum(score.subjectivity for score in cell_scores)
                cells[label] = SeriesCell(count, polarity / count * scale, subjectivity / count)
        series.append(SentimentSeries(actor_id, cells))
    return series


def term_frequencies(
    tweets: Iterable[ProcessedTweet],
    exclusions: Iterable[str] | None = None,
    top_n: int | None = None,
) -> FrequencyTable:
    """Descending term counts over the group's stemmed tokens."""
    if top_n is not None and top_n < 1:
        raise ValueError("top_n must be at least 1")
    excluded = _as_exclusion_set(exclusions)
    counts: Counter[str] = Counter()
    for tweet in tweets:
        counts.update(token for token in tweet.tokens if token.lower() not in excluded)
    rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return FrequencyTable(key="", rows=rows[:top_n] if top_n else rows)


def _as_exclusion_set(exclusions: Iterable[str] | None) -> set[str]:
    if exclusions is None:
        return set()
    return {word.lower() for word in exclusions}


def cooccurrence_cloud(
    tweets: Sequence[ProcessedTweet],
    actor: Actor,
    actors: ActorSet,
    exclusions: Iterable[str] | None = None,
    top_n: int | None = None,
) -> FrequencyTable:
    """Term counts over tweets mentioning the actor, actor names excluded."""
    excluded = _as_exclusion_set(exclusions) | actors.exclusion_words()
    matching = [tweet for tweet in tweets if actor.id in tweet.actors]
    table = term_frequencies(matching, excluded, top_n)
    table.key = actor.id
    return table


def frequency_heatmap(
    tweets: Sequence[ProcessedTweet],
    actors: ActorSet,
    scope: Sequence[str],
    top_n: int | None = None,
    exclusions: Iterable[str] | None = None,
) -> dict[str, dict[str, FrequencyTable | None]]:
    """One frequency table per (scope actor, bucket) over sole-mention
    tweets; cells with no tweets are None."""
    grouped = _sole_mention_cells(tweets, tweets, actors, scope)
    matrix: dict[str, dict[str, FrequencyTable | None]] = {}
    for actor_id in scope:
        row: dict[str, FrequencyTable | None] = {}
        for label in BUCKET_LABELS:
            cell_tweets = grouped.get((actor_id, label))
            if not cell_tweets:
                row[label] = None
            else:
                table = term_frequencies(cell_tweets, exclusions, top_n)
                table.key = f"{actor_id}/{label}"
                row[label] = table
        matrix[actor_id] = row
    return matrix


def combined_avg_polarity(
    tweets: Sequence[ProcessedTweet],
    scores: Sequence[SentimentScore],
    actors: ActorSet,
    pair_ids: Sequence[str] | None = None,
) -> dict[str, float | None]:
    """Unscaled mean polarity over tweets matching each combined actor."""
    if len(tweets) != len(scores):
        raise ConsistencyError(
            f"{len(tweets)} tweets but {len(scores)} scores; inputs must align one-to-one"
        )
    ids = list(pair_ids) if pair_ids is not None else [a.id for a in actors.combined()]
    for actor_id in ids:
        if actor_id not in actors or actors[actor_id].kind != "combined":
            raise ValueError(f"{actor_id!r} is not a configured combined actor")
    sums = {actor_id: [0, 0.0] for actor_id in ids}
    for tweet, score in zip(tweets, scores):
        for actor_id in ids:
            if actor_id in tweet.actors:
                sums[actor_id][0] += 1
                sums[actor_id][1] += score.polarity
    return {
        actor_id: (total / count if count else None)
        for actor_id, (count, total) in sums.items()
    }
