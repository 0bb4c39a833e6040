"""Time-bucketed sentiment series, frequency tables and co-occurrence data.

The election-day window 06:00-23:59 local time is divided into eight
buckets: seven two-hour spans plus a final "20-00" span running to the
end of the day. Earlier times are out of range. Bucket cells with no
tweets are emitted as explicit empty markers (None), never as zero means:
a fabricated zero would read as neutral sentiment.

The sentiment series and the frequency heatmap summarise the cells of one
grid, ``{scope actor: {bucket label: tweet indices}}``, that
``sole_mention_grid`` builds over the tweets that name exactly one scope
actor, counting every other tweet under its cause. Frequency tables and
clouds are plain ``(term, count)`` rows; a heatmap cell keeps its
``HEATMAP_TOP_N`` heaviest. Both shapes are what the CLI writes, as they are.

Which actors a tweet mentions, and which bucket it falls in, are read
from the tweet itself (``ProcessedTweet.actors`` and ``.bucket``, each
worked out once per run by ``ingest.preprocess_records``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from datetime import datetime, time
from typing import NamedTuple

from ._util import float_sum
from .actors import Actor, ActorSet, sole_mention
from .preprocess import ProcessedTweet
from .sentiment import SentimentScore

OUT_OF_RANGE = "out_of_range"

# Why a kept tweet is in no cell of the sole-mention grid.
SOLE_MENTION_CAUSES = (OUT_OF_RANGE, "no_scope_actor", "several_scope_actors")

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


class SoleMentionGrid(NamedTuple):
    """``cells`` is ``{scope actor: {bucket label: [tweet index, ...]}}``
    in scope and ``BUCKET_LABELS`` order. ``counts`` has ``placed`` and each
    ``SOLE_MENTION_CAUSES`` cause; they sum to the number of tweets."""

    cells: dict[str, dict[str, list[int]]]
    counts: dict[str, int]


def sole_mention_grid(
    tweets: Sequence[ProcessedTweet], actors: ActorSet, scope: Sequence[str]
) -> SoleMentionGrid:
    """Place each tweet that names exactly one scope actor in that actor's
    cell for its bucket; count the rest under the cause that leaves them
    out: before 06:00, naming no scope actor, or naming several."""
    unknown = [actor_id for actor_id in scope if actor_id not in actors]
    if unknown:
        raise ValueError(f"scope ids not configured: {unknown}")
    scope_ids = frozenset(scope)
    cells = {actor_id: {label: [] for label in BUCKET_LABELS} for actor_id in scope}
    counts = dict.fromkeys(("placed", *SOLE_MENTION_CAUSES), 0)
    for index, tweet in enumerate(tweets):
        if tweet.bucket == OUT_OF_RANGE:
            cause = OUT_OF_RANGE
        elif (actor_id := sole_mention(tweet.actors, actors, scope_ids)) is not None:
            cells[actor_id][tweet.bucket].append(index)
            cause = "placed"
        elif scope_ids.isdisjoint(tweet.actors):
            cause = "no_scope_actor"
        else:
            cause = "several_scope_actors"
        counts[cause] += 1
    return SoleMentionGrid(cells, counts)


def avg_sentiment_series(
    grid: SoleMentionGrid, scores: Sequence[SentimentScore]
) -> dict[str, dict[str, SeriesCell | None]]:
    """Mean polarity times 100 and mean subjectivity per grid cell, given the
    scores of the tweets the grid was built over; an empty cell is None."""
    def summarize(members: list[int]) -> SeriesCell:
        count = len(members)
        polarity = float_sum(scores[index].polarity for index in members)
        subjectivity = float_sum(scores[index].subjectivity for index in members)
        return SeriesCell(count, polarity / count * 100.0, subjectivity / count)

    return {
        actor_id: {label: summarize(members) if members else None for label, members in row.items()}
        for actor_id, row in grid.cells.items()
    }


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
    grid: SoleMentionGrid, tweets: Sequence[ProcessedTweet]
) -> dict[str, dict[str, list[tuple[str, int]] | None]]:
    """The ``HEATMAP_TOP_N`` top term rows per grid cell, given the tweets
    the grid was built over; an empty cell is None."""

    def top_rows(members: list[int]) -> list[tuple[str, int]]:
        return term_frequencies([tweets[index] for index in members], top_n=HEATMAP_TOP_N)

    return {
        actor_id: {label: top_rows(members) if members else None for label, members in row.items()}
        for actor_id, row in grid.cells.items()
    }


def combined_avg_polarity(
    tweets: Sequence[ProcessedTweet],
    scores: Sequence[SentimentScore],
    actors: ActorSet,
) -> dict[str, float | None]:
    """Unscaled mean polarity over tweets matching each combined actor,
    given the scores of those tweets, in order."""
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
