"""End-to-end acceptance battery.

Nine checks, each emitting one ``[acceptance] <name>: PASS/FAIL`` line
with its runtime. The lines print as they happen (visible under ``-s``)
and are replayed in a terminal summary section by conftest so a plain
``pytest -v`` run shows them too. Every check carries a wall-clock
budget and fails if it runs over. Expected values come from independent
hand computation or from the reference implementations the unit suites
are frozen against.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from datetime import time as dtime

import pytest

from electionpulse.analytics import (
    BUCKET_LABELS,
    avg_sentiment_series,
    bucket_label,
    frequency_heatmap,
    sole_mention,
    term_frequencies,
)
from electionpulse.cli import main
from electionpulse.ingest import TweetRecord
from electionpulse.preprocess import ProcessedTweet
from electionpulse.sentiment import (
    SentimentScore,
    distribution,
    load_sense_lexicon,
    nbc_train,
    pattern_score,
    polarity_class,
    score_all,
    subjectivity_class,
    swn_word_sentiment,
)
from electionpulse.stemming import porter_stem
from electionpulse.topics import TopicModel, build_corpus, lda_fit

from test_analytics import buckets_containing, make_tweet, named, with_actors
from test_sentiment import load_micro, nbc_classify
from test_topics import check_invariants
from test_stemming import VECTORS


# One line per criterion, replayed by conftest.pytest_terminal_summary.
RESULTS: list[str] = []


def _report(line: str) -> None:
    RESULTS.append(line)
    print(line)


@contextmanager
def check(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _report(f"[acceptance] {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed <= budget_seconds else "FAIL"
    _report(f"[acceptance] {name}: {verdict} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed <= budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"


def test_01_polarity_distribution_arithmetic() -> None:
    with check("polarity distribution arithmetic", 1.0):
        first = distribution(
            ["positive"] * 2447 + ["neutral"] * 3971 + ["negative"] * 1012
        )
        assert first.counts == (2447, 3971, 1012)
        assert first.percentages[0] == 32.93
        # 3971/7430 sits within half a hundredth of the boundary; either
        # rounding of the neutral share is accepted.
        assert first.percentages[1] in (53.44, 53.45)
        assert first.percentages[2] == 13.62

        second = distribution(
            ["positive"] * 2916 + ["neutral"] * 3085 + ["negative"] * 1429
        )
        assert second.counts == (2916, 3085, 1429)
        assert second.percentages == (39.25, 41.52, 19.23)

        for result in (first, second):
            assert sum(result.percentages) == pytest.approx(100.0, abs=0.03)


def test_02_sense_lexicon_at_scale(fixtures_dir) -> None:
    with check("sense lexicon parsing at scale", 2.0):
        lines = []
        for i in range(10_000):
            pos = (i % 5) * 0.125
            neg = ((i // 5) % 4) * 0.125
            lines.append(f"a\t{i:08d}\t{pos}\t{neg}\tw{i}#1\tsynthetic gloss")
        bad_rows = [
            "a\t90000001\t0.9\t0.3\tover#1\tsums past one",
            "a\t90000002\t-0.1\t0.2\tneg#1\tnegative score",
            "a\t90000003\t0.4\t0.9\tover2#1\tsums past one",
            "a\t90000004\tNaNish\t0.0\tbadnum#1\tnot a number",
            "a\t90000005\t0.1\tx\tbadnum2#1\tnot a number",
            "a\t90000006\t0.1\t0.1\tbadrank#zero\tbad rank",
            "a\t90000007\t0.1\t0.1\tbadrank2#0\trank below one",
            "z\t90000008\t0.1\t0.1\tbadtag#1\tunknown pos tag",
            "a\t90000009\t0.1\t0.1\t\tno terms",
            "only\ttwo",
        ] * 2
        assert len(bad_rows) == 20
        # Interleave the bad rows through the stream.
        for offset, row in enumerate(bad_rows):
            lines.insert(offset * 500, row)

        lexicon = load_sense_lexicon(lines)
        assert lexicon.rows_read == 10_020
        assert lexicon.rows_rejected == 20
        # One rank-1 sense per good row: each lemma's pair is its row's scores.
        assert lexicon.word_scores == {
            f"w{i}": ((i % 5) * 0.125, ((i // 5) % 4) * 0.125) for i in range(10_000)
        }

        bundled = load_sense_lexicon(str(fixtures_dir / "sense_lexicon.tsv"))
        # Rank 1 (0.75, 0.0) and rank 3 (0.0, 0.0), weights 1 and 1/3.
        assert swn_word_sentiment(bundled, "estimable") == (0.5625, 0.0)


def test_03_nbc_brute_force_equivalence(fixtures_dir) -> None:
    with check("Naive Bayes brute-force equivalence", 1.0):
        rng = random.Random(4242)
        pool = ["good", "win", "great", "bad", "loss", "fail", "vote", "count", "zzz", "qqq"]
        queries: list[list[str]] = [[], ["zzz", "qqq", "unseen"]]
        while len(queries) < 25:
            queries.append([rng.choice(pool) for _ in range(rng.randint(1, 6))])

        for name in ("nbc_micro_1.csv", "nbc_micro_2.csv", "nbc_micro_3.csv"):
            model = nbc_train(load_micro(fixtures_dir / name))
            for tokens in queries:
                raw = {}
                for label in model.labels:
                    probability = model.class_priors[label]
                    for token in tokens:
                        if token in model.vocabulary:
                            probability *= model.word_likelihoods[label][token]
                    raw[label] = probability
                expected_label = max(model.labels, key=lambda lab: raw[lab])
                expected_posterior = raw[expected_label] / sum(raw.values())
                label, posterior = nbc_classify(model, tokens)
                assert label == expected_label, (name, tokens)
                assert math.isclose(posterior, expected_posterior, abs_tol=1e-9), (name, tokens)


def test_04_scoring_ranges_boundaries_negation(pattern_lexicon, negators, sense_lexicon) -> None:
    with check("scoring ranges, boundaries and negation", 5.0):
        rng = random.Random(99)
        vocabulary = sorted(pattern_lexicon) + sorted(negators) + ["crowd", "queue", "awka"]
        tweets = []
        for i in range(1_000):
            tokens = tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 12)))
            record = TweetRecord(
                id=f"s{i}",
                created_at=None,  # never consulted by the scorers
                author="",
                text=" ".join(tokens),
                is_retweet=False,
            )
            tweets.append(ProcessedTweet(record, tokens, frozenset()))

        for engine in ("pattern", "swn"):
            scored = score_all(
                tweets,
                engine,
                pattern_lexicon=pattern_lexicon,
                negators=negators,
                sense_lexicon=sense_lexicon,
            )
            polarity = [score.polarity for score in scored.scores]
            subjectivity = [score.subjectivity for score in scored.scores]
            assert len(polarity) == len(subjectivity) == 1_000
            for p, s in zip(polarity, subjectivity):
                assert -1.0 <= p <= 1.0
                assert 0.0 <= s <= 1.0
                assert polarity_class(p) in ("positive", "neutral", "negative")
                assert subjectivity_class(s) in ("subjective", "objective")

        assert polarity_class(-1e-9) == "negative"
        assert polarity_class(0.0) == "neutral"
        assert polarity_class(1e-9) == "positive"

        probes = sorted(
            lemma for lemma, entry in pattern_lexicon.items() if entry.polarity != 0.0
        )[:50]
        assert len(probes) == 50
        for lemma in probes:
            entry = pattern_lexicon[lemma]
            plain = pattern_score([lemma], pattern_lexicon, negators)
            negated = pattern_score(["not", lemma], pattern_lexicon, negators)
            assert plain.polarity == pytest.approx(entry.polarity, abs=1e-12)
            assert negated.polarity == pytest.approx(-entry.polarity / 2.0, abs=1e-12)
            assert negated.subjectivity == pytest.approx(plain.subjectivity, abs=1e-12)


def test_05_bucket_partition() -> None:
    with check("time bucket partition", 1.0):
        rng = random.Random(17)
        for _ in range(10_000):
            value = dtime(rng.randrange(24), rng.randrange(60), rng.randrange(60))
            containing = buckets_containing(value)
            if value < dtime(6):
                assert containing == []
                assert bucket_label(value) == "out_of_range"
            else:
                assert len(containing) == 1
                assert bucket_label(value) == containing[0]

        assert bucket_label(dtime(6, 0, 0)) == "6-8"
        assert bucket_label(dtime(7, 59, 59)) == "6-8"
        assert bucket_label(dtime(20, 0, 0)) == "20-00"
        assert bucket_label(dtime(23, 59, 59)) == "20-00"
        assert bucket_label(dtime(5, 59, 59)) == "out_of_range"


def _independent_bucket(hour: int) -> str | None:
    if hour < 6:
        return None
    if hour >= 20:
        return "20-00"
    start = hour - hour % 2
    return f"{start}-{start + 2}"


def test_06_series_and_heatmap_brute_force(actor_set, scope) -> None:
    with check("series and heatmap against recomputation", 5.0):
        rng = random.Random(7331)
        # Scope holds the combined actors only, so a sole mention needs a
        # candidate together with their own party; the rest are noise.
        mentions = [
            "obiano and apga celebrate",
            "apga faithful hail obiano",
            "nwoye with apc agents",
            "apc rally behind nwoye",
            "obaze thanks pdp voters",
            "pdp stands with obaze",
            "obiano holds ground",
            "apga apc pdp meet",
            "no actors at all here",
        ]
        token_pool = ["queue", "ballot", "card", "awka", "result", "turnout", "agent"]
        tweets, scores = [], []
        for i in range(200):
            hour, minute = rng.randrange(24), rng.randrange(60)
            tokens = tuple(rng.choice(token_pool) for _ in range(rng.randint(1, 5)))
            tweets.append(
                make_tweet(f"b{i}", rng.choice(mentions), tokens, hour, minute)
            )
            scores.append(
                SentimentScore(rng.uniform(-1, 1), rng.uniform(0, 1))
            )

        tweets = with_actors(tweets, actor_set)
        series = avg_sentiment_series(tweets, scores, actor_set, scope, scale=100.0)
        heatmap = frequency_heatmap(tweets, actor_set, scope, top_n=5)

        grouped: dict[tuple[str, str], list[int]] = {}
        for index, tweet in enumerate(tweets):
            label = _independent_bucket(tweet.record.created_at.hour)
            if label is None:
                continue
            owner = sole_mention(named(tweet, actor_set), actor_set, scope)
            if owner is None:
                continue
            grouped.setdefault((owner, label), []).append(index)

        assert list(series) == scope
        for actor_id, cells in series.items():
            for label in BUCKET_LABELS:
                members = grouped.get((actor_id, label))
                cell = cells[label]
                if members is None:
                    assert cell is None
                    continue
                count = len(members)
                mean_polarity = sum(scores[i].polarity for i in members) / count
                mean_subjectivity = sum(scores[i].subjectivity for i in members) / count
                assert cell.count == count
                assert math.isclose(cell.mean_polarity_x100, 100.0 * mean_polarity, abs_tol=1e-9)
                assert math.isclose(cell.mean_subjectivity, mean_subjectivity, abs_tol=1e-9)

        for actor_id in scope:
            for label in BUCKET_LABELS:
                members = grouped.get((actor_id, label))
                cell = heatmap[actor_id][label]
                if members is None:
                    assert cell is None
                    continue
                expected = term_frequencies([tweets[i] for i in members], top_n=5)
                assert cell == expected


def test_07_lda_planted_recovery() -> None:
    with check("topic recovery on a planted corpus", 60.0):
        rng = random.Random(777)
        a_words = [f"a{j}" for j in range(10)]
        b_words = [f"b{j}" for j in range(10)]
        documents = []
        for index in range(200):
            vocabulary = a_words if index % 2 == 0 else b_words
            documents.append([rng.choice(vocabulary) for _ in range(20)])
        corpus = build_corpus(documents)

        sweeps_checked: list[int] = []

        def hook(sweep: int, model: TopicModel) -> None:
            if sweep % 50 == 0:
                sweeps_checked.append(sweep)
                check_invariants(model)

        model = lda_fit(corpus, k=2, alpha=0.1, beta=0.01, iterations=500, seed=13, sweep_hook=hook)
        assert sweeps_checked == list(range(50, 501, 50))

        planted_a = {word: 0.1 for word in a_words}
        planted_b = {word: 0.1 for word in b_words}

        def tv(topic: int, planted: dict[str, float]) -> float:
            phi = model.phi(topic)
            return 0.5 * sum(
                abs(phi[i] - planted.get(word, 0.0))
                for i, word in enumerate(model.vocabulary)
            )

        pairings = [
            max(tv(0, planted_a), tv(1, planted_b)),
            max(tv(0, planted_b), tv(1, planted_a)),
        ]
        assert min(pairings) <= 0.15

        again = lda_fit(corpus, k=2, alpha=0.1, beta=0.01, iterations=500, seed=13)
        assert again.assignments == model.assignments
        assert again.word_topic_counts == model.word_topic_counts
        assert again.doc_topic_counts == model.doc_topic_counts


def test_08_stemmer_reference_vectors() -> None:
    with check("stemmer reference vectors", 1.0):
        battery = VECTORS[:30]
        assert len(battery) == 30
        for word, expected in battery:
            assert porter_stem(word) == expected, word


def test_09_cli_reproducibility_and_topic_report(config_factory, tmp_path) -> None:
    with check("CLI rerun reproducibility", 30.0):
        path = config_factory()
        out_dir = tmp_path / "out"
        artifacts = [
            "tweets.csv", "scores.csv", "compare.csv", "counts.json",
            "clouds.json", "timeseries.csv", "heatmap.json", "topics.json",
        ]

        assert main(["all", "--config", path]) == 0
        first = {name: (out_dir / name).read_bytes() for name in artifacts}
        assert main(["all", "--config", path]) == 0
        for name in artifacts:
            assert (out_dir / name).read_bytes() == first[name], name

        with open(out_dir / "topics.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        topics = payload["topics"]
        assert len(topics) == 5
        for entry in topics:
            keywords = entry["keywords"]
            assert len(keywords) == 10
            weights = [weight for _, weight in keywords]
            assert weights == sorted(weights, reverse=True)
