"""Time buckets, sentiment series, frequency tables, heatmap, pair means."""

from __future__ import annotations

from collections import Counter
from datetime import datetime, time, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from electionpulse.actors import Actor, ActorSet, match_actors, sole_mention
from electionpulse.analytics import (
    BUCKET_LABELS,
    HEATMAP_TOP_N,
    OUT_OF_RANGE,
    avg_sentiment_series,
    bucket_label,
    combined_avg_polarity,
    cooccurrence_cloud,
    frequency_heatmap,
    sole_mention_grid,
    term_frequencies,
)
from electionpulse.ingest import LOCAL_TZ
from electionpulse.preprocess import ProcessedTweet, text_tokens
from electionpulse.sentiment import SentimentScore


def make_tweet(
    record_id: str,
    text: str,
    tokens: tuple[str, ...],
    hour: int,
    minute: int = 0,
    actors: ActorSet | None = None,
) -> ProcessedTweet:
    """A synthetic tweet whose tokens are not its text's; given an actor
    set, it carries the actors its text names."""
    created_at = datetime(2017, 11, 18, hour, minute, tzinfo=LOCAL_TZ)
    matched = frozenset(named(text, actors)) if actors is not None else frozenset()
    return ProcessedTweet(record_id, created_at, bucket_label(created_at), tokens, matched)


def named(text: str, actors: ActorSet) -> set[str]:
    """The actors a tweet's raw text names, matched afresh from the text."""
    return match_actors(text_tokens(text), actors)


def pair_set() -> ActorSet:
    return ActorSet(
        [
            Actor("willie_obiano", "candidate", ("obiano",)),
            Actor("apga", "party", ("apga",)),
            Actor("willie_obiano_apga", "combined", (), components=("willie_obiano", "apga")),
        ]
    )


# The hour-range table that ``bucket_label`` replaced, kept as its oracle:
# (label, start, end), end exclusive; the last bucket runs to day end.
HOUR_RANGES = (
    ("6-8", time(6), time(8)),
    ("8-10", time(8), time(10)),
    ("10-12", time(10), time(12)),
    ("12-14", time(12), time(14)),
    ("14-16", time(14), time(16)),
    ("16-18", time(16), time(18)),
    ("18-20", time(18), time(20)),
    ("20-00", time(20), None),
)


def buckets_containing(value: time) -> list[str]:
    return [
        label for label, start, end in HOUR_RANGES
        if start <= value and (end is None or value < end)
    ]


class TestBuckets:
    def test_eight_labels_in_day_order(self) -> None:
        assert BUCKET_LABELS == (
            "6-8", "8-10", "10-12", "12-14", "14-16", "16-18", "18-20", "20-00",
        )

    @pytest.mark.parametrize(
        "hour,minute,second,expected",
        [
            (6, 0, 0, "6-8"),
            (7, 59, 59, "6-8"),
            (8, 0, 0, "8-10"),
            (14, 30, 0, "14-16"),
            (20, 0, 0, "20-00"),
            (23, 59, 59, "20-00"),
            (5, 59, 59, OUT_OF_RANGE),
            (0, 0, 0, OUT_OF_RANGE),
        ],
    )
    def test_boundary_assignment(self, hour: int, minute: int, second: int, expected: str) -> None:
        assert bucket_label(time(hour, minute, second)) == expected

    def test_datetime_uses_local_wall_clock(self) -> None:
        stamp = datetime(2017, 11, 18, 14, 30, tzinfo=LOCAL_TZ)
        assert bucket_label(stamp) == "14-16"
        assert bucket_label(stamp.astimezone(timezone.utc)) == "12-14"

    def test_before_window_is_none(self) -> None:
        assert bucket_label(time(5, 59, 59)) == OUT_OF_RANGE

    @given(st.times())
    def test_buckets_partition_the_day(self, value: time) -> None:
        containing = buckets_containing(value)
        if value < time(6):
            assert containing == []
            assert bucket_label(value) == OUT_OF_RANGE
        else:
            assert containing == [bucket_label(value)]


class TestSentimentSeries:
    def test_single_tweet_cell(self) -> None:
        actors = pair_set()
        tweets = [make_tweet("t1", "obiano visits awka", ("visit", "awka"), 13, actors=actors)]
        scores = [SentimentScore(0.25, 0.6)]
        grid = sole_mention_grid(tweets, actors, ["willie_obiano"])
        series = avg_sentiment_series(grid, scores)
        assert len(series) == 1
        cell = series["willie_obiano"]["12-14"]
        assert cell.count == 1
        assert cell.mean_polarity_x100 == pytest.approx(25.0)
        assert cell.mean_subjectivity == pytest.approx(0.6)

    def test_empty_cells_are_none_not_zero(self) -> None:
        actors = pair_set()
        tweets = [make_tweet("t1", "obiano visits awka", ("visit",), 13, actors=actors)]
        grid = sole_mention_grid(tweets, actors, ["willie_obiano"])
        series = avg_sentiment_series(grid, [SentimentScore(0.25, 0.6)])
        cells = series["willie_obiano"]
        assert set(cells) == set(BUCKET_LABELS)
        assert [label for label, cell in cells.items() if cell is not None] == ["12-14"]

    def test_out_of_range_tweets_never_contribute(self) -> None:
        actors = pair_set()
        tweets = [make_tweet("t1", "obiano early start", ("earli", "start"), 5, actors=actors)]
        grid = sole_mention_grid(tweets, actors, ["willie_obiano"])
        series = avg_sentiment_series(grid, [SentimentScore(1.0, 1.0)])
        assert all(cell is None for cell in series["willie_obiano"].values())

    def test_non_sole_tweets_never_contribute(self) -> None:
        actors = pair_set()
        # Mentions two scoped identities, so it belongs to nobody.
        tweets = [make_tweet("t1", "obiano against apga rebels", ("rebel",), 13, actors=actors)]
        scope = ["willie_obiano", "apga"]
        grid = sole_mention_grid(tweets, actors, scope)
        series = avg_sentiment_series(grid, [SentimentScore(1.0, 1.0)])
        for cells in series.values():
            assert all(cell is None for cell in cells.values())

    def test_scale_is_linear(self) -> None:
        # The series column is mean_polarity_x100: the mean polarity times 100.
        actors = pair_set()
        tweets = [make_tweet(f"t{i}", "obiano wins", ("win",), 13, actors=actors) for i in range(2)]
        scores = [SentimentScore(0.3, 0.5), SentimentScore(-0.1, 0.7)]
        grid = sole_mention_grid(tweets, actors, ["willie_obiano"])
        cell = avg_sentiment_series(grid, scores)["willie_obiano"]
        assert cell["12-14"].mean_polarity_x100 == pytest.approx(100.0 * (0.3 - 0.1) / 2)
        assert cell["12-14"].mean_subjectivity == pytest.approx((0.5 + 0.7) / 2)

    def test_fixture_matches_brute_force(
        self, kept, texts, pattern_scores, actor_set, scope
    ) -> None:
        series = avg_sentiment_series(sole_mention_grid(kept, actor_set, scope), pattern_scores)
        assert list(series) == scope
        groups: dict[tuple[str, str], list[SentimentScore]] = {}
        for tweet, score in zip(kept, pattern_scores):
            label = bucket_label(tweet.created_at)
            if label == OUT_OF_RANGE:
                continue
            owner = sole_mention(named(texts[tweet.id], actor_set), actor_set, scope)
            if owner is None:
                continue
            groups.setdefault((owner, label), []).append(score)
        for actor_id, cells in series.items():
            for label in BUCKET_LABELS:
                cell = cells[label]
                expected = groups.get((actor_id, label))
                if expected is None:
                    assert cell is None
                    continue
                assert cell.count == len(expected)
                mean_polarity = sum(s.polarity for s in expected) / len(expected)
                mean_subjectivity = sum(s.subjectivity for s in expected) / len(expected)
                assert cell.mean_polarity_x100 == pytest.approx(100 * mean_polarity, abs=1e-9)
                assert cell.mean_subjectivity == pytest.approx(mean_subjectivity, abs=1e-9)

    def test_bucket_counts_sum_to_sole_totals(
        self, kept, texts, pattern_scores, actor_set, scope
    ) -> None:
        series = avg_sentiment_series(sole_mention_grid(kept, actor_set, scope), pattern_scores)
        sole_totals = Counter()
        for tweet in kept:
            owner = sole_mention(named(texts[tweet.id], actor_set), actor_set, scope)
            if owner is not None and bucket_label(tweet.created_at) != OUT_OF_RANGE:
                sole_totals[owner] += 1
        for actor_id, cells in series.items():
            total = sum(cell.count for cell in cells.values() if cell is not None)
            assert total == sole_totals[actor_id]
        # The fixture was built so every sole mention lands inside the window.
        assert sum(sole_totals.values()) == 20


class TestSoleMentionGrid:
    def test_each_tweet_is_placed_or_counted_under_one_cause(self) -> None:
        actors = pair_set()
        texts_and_hours = [
            ("obiano wins", 13),  # placed
            ("obiano casts early", 5),  # before 06:00
            ("quiet day in awka", 9),  # names no scope actor
            ("obiano against apga rebels", 13),  # names both scope actors
            ("apga rally", 21),  # placed
        ]
        tweets = [
            make_tweet(f"t{i}", text, ("word",), hour, actors=actors)
            for i, (text, hour) in enumerate(texts_and_hours)
        ]
        grid = sole_mention_grid(tweets, actors, ["willie_obiano", "apga"])
        assert grid.counts == {
            "placed": 2,
            "out_of_range": 1,
            "no_scope_actor": 1,
            "several_scope_actors": 1,
        }
        placed = {
            (actor_id, label): members
            for actor_id, row in grid.cells.items()
            for label, members in row.items()
            if members
        }
        assert placed == {("willie_obiano", "12-14"): [0], ("apga", "20-00"): [4]}

    def test_unknown_scope_id_raises(self) -> None:
        actors = pair_set()
        tweets = [make_tweet("t1", "obiano wins", ("win",), 13, actors=actors)]
        with pytest.raises(ValueError):
            sole_mention_grid(tweets, actors, ["nobody_here"])


class TestTermFrequencies:
    def test_counts_desc_ties_lexicographic(self) -> None:
        tweets = [
            make_tweet("t1", "", ("win", "close"), 10),
            make_tweet("t2", "", ("win", "ballot"), 10),
        ]
        assert term_frequencies(tweets) == [("win", 2), ("ballot", 1), ("close", 1)]

    def test_empty_population(self) -> None:
        assert term_frequencies([]) == []

    def test_excluded_terms_are_dropped(self) -> None:
        tweets = [make_tweet("t1", "", ("win", "awka"), 10)]
        assert term_frequencies(tweets, exclusions={"awka"}) == [("win", 1)]

    def test_top_n_truncates_after_ranking(self) -> None:
        tweets = [make_tweet("t1", "", ("a", "b", "b", "c", "c", "c"), 10)]
        assert term_frequencies(tweets, top_n=2) == [("c", 3), ("b", 2)]

    def test_top_n_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            term_frequencies([], top_n=0)

    def test_fixture_matches_direct_count(self, kept) -> None:
        rows = term_frequencies(kept)
        direct = Counter()
        for tweet in kept:
            direct.update(tweet.tokens)
        assert dict(rows) == dict(direct)
        counts = [count for _, count in rows]
        assert counts == sorted(counts, reverse=True)


class TestExclusions:
    def test_contains_alias_words_and_their_stems(self, actor_set) -> None:
        excluded = actor_set.exclusion_words()
        assert "obiano" in excluded
        assert "willie" in excluded
        assert "willi" in excluded  # stem of willie
        assert "apga" in excluded


class TestCooccurrence:
    def test_actor_words_never_appear_in_their_own_cloud(self) -> None:
        actors = pair_set()
        # Tokens deliberately retain the alias word to prove the cloud
        # itself drops it.
        tokens = ("obiano", "cheer", "crowd")
        tweets = [make_tweet("t1", "obiano cheers crowd", tokens, 10, actors=actors)]
        rows = cooccurrence_cloud(tweets, actors["willie_obiano"], actors)
        assert dict(rows) == {"cheer": 1, "crowd": 1}

    def test_only_matching_tweets_count(self) -> None:
        actors = pair_set()
        tweets = [
            make_tweet("t1", "obiano cheers", ("cheer",), 10, actors=actors),
            make_tweet("t2", "quiet polling unit", ("quiet", "poll", "unit"), 11, actors=actors),
        ]
        rows = cooccurrence_cloud(tweets, actors["willie_obiano"], actors)
        assert dict(rows) == {"cheer": 1}

    def test_no_matching_tweets_is_empty(self) -> None:
        actors = pair_set()
        tweets = [make_tweet("t1", "quiet day", ("quiet", "dai"), 10, actors=actors)]
        assert cooccurrence_cloud(tweets, actors["apga"], actors) == []

    def test_fixture_running_mate_count(self, kept, actor_set) -> None:
        # Three fixture tweets pair "ojukwu" with the apga alias.
        rows = cooccurrence_cloud(kept, actor_set["apga"], actor_set)
        assert dict(rows)["ojukwu"] == 3
        assert "apga" not in dict(rows)

    def test_top_n_applies_after_exclusions(self, kept, actor_set) -> None:
        matching = [tweet for tweet in kept if "apga" in tweet.actors]
        excluded = actor_set.exclusion_words()
        rows = term_frequencies(matching, exclusions=excluded, top_n=3)
        assert len(rows) == 3
        assert not {term for term, _ in rows} & excluded
        assert rows == cooccurrence_cloud(kept, actor_set["apga"], actor_set)[:3]


class TestHeatmap:
    def test_shape_covers_scope_and_buckets(self, kept, actor_set, scope) -> None:
        matrix = frequency_heatmap(sole_mention_grid(kept, actor_set, scope), kept)
        assert list(matrix) == scope
        for row in matrix.values():
            assert tuple(row) == BUCKET_LABELS

    def test_cells_match_sole_mention_recount(self, kept, texts, actor_set, scope) -> None:
        matrix = frequency_heatmap(sole_mention_grid(kept, actor_set, scope), kept)
        grouped: dict[tuple[str, str], list] = {}
        for tweet in kept:
            label = bucket_label(tweet.created_at)
            if label == OUT_OF_RANGE:
                continue
            owner = sole_mention(named(texts[tweet.id], actor_set), actor_set, scope)
            if owner is None:
                continue
            grouped.setdefault((owner, label), []).append(tweet)
        for actor_id, row in matrix.items():
            for label, cell in row.items():
                subset = grouped.get((actor_id, label))
                if subset is None:
                    assert cell is None
                else:
                    assert cell == term_frequencies(subset, top_n=HEATMAP_TOP_N)

    def test_fixture_has_known_empty_cells(self, kept, actor_set, scope) -> None:
        matrix = frequency_heatmap(sole_mention_grid(kept, actor_set, scope), kept)
        empties = {
            actor_id: [label for label, cell in row.items() if cell is None]
            for actor_id, row in matrix.items()
        }
        assert empties["willie_obiano_apga"] == []
        assert empties["tony_nwoye_apc"] == ["10-12", "14-16"]
        assert empties["oseloka_obaze_pdp"] == ["6-8", "12-14", "18-20"]


class TestCombinedPolarity:
    def test_single_matching_tweet(self) -> None:
        actors = pair_set()
        tweets = [make_tweet("t1", "obiano thanks apga", ("thank",), 10, actors=actors)]
        means = combined_avg_polarity(tweets, [SentimentScore(0.5, 0.5)], actors)
        assert means == {"willie_obiano_apga": pytest.approx(0.5)}

    def test_no_matching_tweet_is_none(self) -> None:
        actors = pair_set()
        tweets = [make_tweet("t1", "obiano alone", ("alone",), 10, actors=actors)]
        means = combined_avg_polarity(tweets, [SentimentScore(0.5, 0.5)], actors)
        assert means == {"willie_obiano_apga": None}

    def test_fixture_matches_brute_force(self, kept, texts, pattern_scores, actor_set) -> None:
        means = combined_avg_polarity(kept, pattern_scores, actor_set)
        assert set(means) == {actor.id for actor in actor_set.combined()}
        for actor in actor_set.combined():
            values = [
                score.polarity
                for tweet, score in zip(kept, pattern_scores)
                if actor.id in named(texts[tweet.id], actor_set)
            ]
            if not values:
                assert means[actor.id] is None
            else:
                assert means[actor.id] == pytest.approx(sum(values) / len(values), abs=1e-12)


class TestMentionTable:
    def test_the_table_is_read_not_the_text(self) -> None:
        # The text names nobody; the tweet's matched set alone attributes it.
        actors = pair_set()
        tweet = make_tweet("t1", "quiet day", ("quiet",), 10)
        tweets = [tweet._replace(actors=frozenset({"willie_obiano"}))]
        assert cooccurrence_cloud(tweets, actors["willie_obiano"], actors) == [("quiet", 1)]
        grid = sole_mention_grid(tweets, actors, ["willie_obiano"])
        series = avg_sentiment_series(grid, [SentimentScore(0.5, 0.5)])
        assert series["willie_obiano"]["10-12"].count == 1
