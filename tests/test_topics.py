"""Corpus building and the collapsed Gibbs topic sampler."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from electionpulse.topics import (
    ALPHA,
    BETA,
    TOP_WORDS,
    Corpus,
    TopicModel,
    build_corpus,
    lda_fit,
    top_keywords,
    topic_report,
)


def planted_corpus(
    docs_count: int = 200, doc_len: int = 20, seed: int = 777
) -> tuple[Corpus, dict[str, float], dict[str, float]]:
    """Even docs draw from ten a-words, odd docs from ten b-words."""
    rng = random.Random(seed)
    a_words = [f"a{j}" for j in range(10)]
    b_words = [f"b{j}" for j in range(10)]
    documents = []
    for index in range(docs_count):
        vocabulary = a_words if index % 2 == 0 else b_words
        documents.append([rng.choice(vocabulary) for _ in range(doc_len)])
    corpus = build_corpus(documents)
    planted_a = {word: 0.1 for word in a_words}
    planted_b = {word: 0.1 for word in b_words}
    return corpus, planted_a, planted_b


def theta(model: TopicModel, doc: int) -> list[float]:
    """Smoothed topic mixture of one document; sums to 1. The package
    reports topics by phi alone, so this oracle reads the fitted counts."""
    denominator = model.doc_lengths[doc] + ALPHA * model.k
    return [(count + ALPHA) / denominator for count in model.doc_topic_counts[doc]]


def check_invariants(model: TopicModel) -> None:
    """Raise AssertionError if any count or distribution is inconsistent."""
    for d, row in enumerate(model.doc_topic_counts):
        assert all(c >= 0 for c in row), f"negative doc-topic count in doc {d}"
        assert sum(row) == model.doc_lengths[d], f"doc {d} counts do not sum to its length"
    token_total = sum(model.doc_lengths)
    assert sum(model.topic_totals) == token_total, "topic totals do not cover all tokens"
    assert len(model.word_topic_counts) == len(model.vocabulary), "one count row per word"
    for t in range(model.k):
        column = [row[t] for row in model.word_topic_counts]
        assert all(c >= 0 for c in column), f"negative topic-word count in topic {t}"
        assert sum(column) == model.topic_totals[t], f"topic {t} word counts do not match its total"
        assert abs(sum(model.phi(t)) - 1.0) <= 1e-9, f"phi({t}) does not sum to 1"
    for d in range(len(model.doc_topic_counts)):
        assert abs(sum(theta(model, d)) - 1.0) <= 1e-9, f"theta({d}) does not sum to 1"


def tv_distance(model: TopicModel, topic: int, planted: dict[str, float]) -> float:
    phi = model.phi(topic)
    return 0.5 * sum(
        abs(phi[i] - planted.get(word, 0.0)) for i, word in enumerate(model.vocabulary)
    )


def aligned_tv(model_a: TopicModel, model_b: TopicModel) -> float:
    """Best-case max TV between two models' topics over topic relabelings."""
    k = model_a.k
    best = None
    for mapping in itertools.permutations(range(k)):
        worst = max(
            0.5
            * sum(
                abs(pa - pb)
                for pa, pb in zip(model_a.phi(t), model_b.phi(mapping[t]))
            )
            for t in range(k)
        )
        best = worst if best is None else min(best, worst)
    return best


class TestBuildCorpus:
    def test_vocabulary_is_sorted_and_docs_are_coded(self) -> None:
        corpus = build_corpus([["a", "b"], ["b", "c"]])
        assert corpus.vocabulary == ["a", "b", "c"]
        assert corpus.docs == [[0, 1], [1, 2]]

    def test_empty_corpus_is_an_error(self) -> None:
        with pytest.raises(ValueError, match="^corpus is empty: no document reached the topic model$"):
            build_corpus([])


class TestFitValidation:
    def test_parameter_checks(self) -> None:
        corpus = build_corpus([["a", "b"], ["b", "c"]])
        with pytest.raises(ValueError):
            lda_fit(corpus, k=0)
        with pytest.raises(ValueError):
            lda_fit(corpus, iterations=0)

    def test_small_vocabulary_warns(self) -> None:
        corpus = build_corpus([["a", "b"], ["b", "a"]])
        with pytest.warns(UserWarning):
            lda_fit(corpus, k=5, iterations=2, seed=1)


class TestSingleTopic:
    def test_phi_is_smoothed_unigram_and_theta_is_one(self) -> None:
        corpus = build_corpus([["a", "b", "b"], ["b", "c"]])
        model = lda_fit(corpus, k=1, iterations=3, seed=9)
        # counts: a=1, b=3, c=1 over 5 tokens, V=3
        denominator = 5 + BETA * 3
        assert model.phi(0) == pytest.approx(
            [(1 + BETA) / denominator, (3 + BETA) / denominator, (1 + BETA) / denominator]
        )
        for doc in range(2):
            assert theta(model, doc) == [1.0]


class TestDeterminism:
    def test_same_seed_same_model(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=30, doc_len=8)
        first = lda_fit(corpus, k=2, iterations=40, seed=5)
        second = lda_fit(corpus, k=2, iterations=40, seed=5)
        assert first.assignments == second.assignments
        assert first.word_topic_counts == second.word_topic_counts
        assert first.doc_topic_counts == second.doc_topic_counts

    def test_different_seed_differs(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=30, doc_len=8)
        first = lda_fit(corpus, k=2, iterations=5, seed=5)
        second = lda_fit(corpus, k=2, iterations=5, seed=6)
        assert first.assignments != second.assignments


def state_digest(model: TopicModel) -> str:
    """sha256 of the sampler state: assignments and both count tables, the
    word-topic one transposed to topic-major as the digests were taken."""
    topic_word_counts = [[row[t] for row in model.word_topic_counts] for t in range(model.k)]
    payload = json.dumps([model.assignments, topic_word_counts, model.doc_topic_counts])
    return hashlib.sha256(payload.encode()).hexdigest()


class TestSamplerPin:
    """Exact sampler state on planted fits, pinned so a rewrite of the sweep
    loop must reproduce every draw. k = 1 covers the single-topic scan. A fit
    of s sweeps draws the same random numbers as the first s sweeps of a
    longer fit, so the fits of 1..12 sweeps pin the state after every sweep."""

    FITS = {
        1: "597facb9015aa6c649448c0aac904caff484c08b77f3228e39620732c474adeb",
        3: "46664031eb3bb3a21b9479dff67801257e4a5b255a010f12884f3ff88999178a",
        7: "32f8a2e13a9812f50a61fe6181ece1e4a7bc299615b00440757717e796b246c7",
    }
    HOOK_FINAL = "09188172a58eff7fc30ca9c0ed813c60e0e5f36ed1a05f434edabcc9eff2ea74"
    HOOK_SWEEPS = "647d5c32cad2799853fba16add3c5d303ffbdeed7ddd56b90dd181e9c62a4103"

    @pytest.mark.parametrize("k", sorted(FITS))
    def test_fit_state_is_pinned(self, k: int) -> None:
        corpus, _, _ = planted_corpus(docs_count=40, doc_len=10)
        model = lda_fit(corpus, k=k, iterations=30, seed=11)
        assert state_digest(model) == self.FITS[k]

    def test_fit_state_is_pinned_after_every_sweep(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=40, doc_len=10)
        seen = [
            state_digest(lda_fit(corpus, k=3, iterations=sweeps, seed=11))
            for sweeps in range(1, 13)
        ]
        assert seen[-1] == self.HOOK_FINAL
        assert hashlib.sha256("".join(seen).encode()).hexdigest() == self.HOOK_SWEEPS


def reference_fit(
    corpus: Corpus, k: int, iterations: int, seed: int
) -> tuple[list[list[int]], list[list[int]], list[list[int]], list[int]]:
    """The sampler as a plain loop over the topics and int counts, the oracle
    for the float working counts and the sweep written out for k:
    (assignments, word-topic, doc-topic, topic totals)."""
    rng = random.Random(seed)
    docs = corpus.docs
    word_topic = [[0] * k for _ in range(len(corpus.vocabulary))]
    doc_topic_counts = [[0] * k for _ in range(len(docs))]
    topic_totals = [0] * k
    assignments = []
    for doc, doc_counts in zip(docs, doc_topic_counts):
        assigned = []
        for word in doc:
            topic = rng.randrange(k)
            assigned.append(topic)
            word_topic[word][topic] += 1
            doc_counts[topic] += 1
            topic_totals[topic] += 1
        assignments.append(assigned)
    alpha, beta = ALPHA, BETA
    beta_v = beta * len(corpus.vocabulary)
    denominators = [total + beta_v for total in topic_totals]
    thresholds = [0.0] * k
    last = k - 1
    for _ in range(iterations):
        for doc, doc_counts, assigned in zip(docs, doc_topic_counts, assignments):
            for i, word in enumerate(doc):
                row = word_topic[word]
                old = assigned[i]
                row[old] -= 1
                doc_counts[old] -= 1
                topic_totals[old] -= 1
                denominators[old] = topic_totals[old] + beta_v
                cumulative = 0.0
                for t in range(k):
                    cumulative += (doc_counts[t] + alpha) * (row[t] + beta) / denominators[t]
                    thresholds[t] = cumulative
                draw = rng.random() * cumulative
                new = 0
                while new < last and thresholds[new] < draw:
                    new += 1
                assigned[i] = new
                row[new] += 1
                doc_counts[new] += 1
                topic_totals[new] += 1
                denominators[new] = topic_totals[new] + beta_v
    return assignments, word_topic, doc_topic_counts, topic_totals


def count_tables(model: TopicModel) -> tuple[list[list[int]], list[list[int]], list[int]]:
    return model.word_topic_counts, model.doc_topic_counts, model.topic_totals


def all_ints(tables) -> bool:
    word_topic, doc_topic, totals = tables
    return all(type(c) is int for row in [*word_topic, *doc_topic, totals] for c in row)


class TestFloatWorkingCounts:
    """The sampler counts in floats, in a sweep written out for k; every draw
    and count must match the int loop after every sweep, and every count a
    caller sees must be an int. k = 3,000 checks that a large k compiles:
    a weight sum or search nested k deep would not."""

    @settings(max_examples=80, deadline=None)
    @given(
        docs=st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=9), min_size=1, max_size=8),
        k=st.integers(1, 16),
        iterations=st.integers(1, 6),
        seed=st.integers(0, 2**32),
    )
    @example(docs=[[0, 1, 2], [1, 2, 3], [0, 3]], k=3000, iterations=2, seed=7)
    def test_matches_the_int_loop(self, docs, k, iterations, seed) -> None:
        corpus = build_corpus([[f"w{word}" for word in doc] for doc in docs])
        for sweeps in range(1, iterations + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # vocabulary smaller than k
                fitted = lda_fit(corpus, k, sweeps, seed)
            expected = reference_fit(corpus, k, sweeps, seed)
            assert (fitted.assignments, *count_tables(fitted)) == expected
            assert all_ints(count_tables(fitted))


class TestSweepPrefix:
    def test_state_is_consistent_after_every_sweep(self) -> None:
        # A fit of s sweeps is the state after sweep s of any longer fit.
        corpus = build_corpus([["a", "b", "c"], ["b", "c", "d"], ["a", "d"]])
        for sweeps in range(1, 8):
            check_invariants(lda_fit(corpus, k=2, iterations=sweeps, seed=3))


class TestTheta:
    def test_concentrated_document_value(self) -> None:
        # One 10-token document fully assigned to topic 2 of 5:
        # theta(2) = (10 + 0.1) / (10 + 0.1 * 5)
        assert ALPHA == 0.1
        model = TopicModel(
            k=5,
            vocabulary=["w"],
            word_topic_counts=[[0, 0, 10, 0, 0]],
            doc_topic_counts=[[0, 0, 10, 0, 0]],
            topic_totals=[0, 0, 10, 0, 0],
            assignments=[[2] * 10],
            doc_lengths=[10],
            iterations=0,
        )
        mixture = theta(model, 0)
        assert mixture[2] == pytest.approx(10.1 / 10.5)
        assert mixture[2] == pytest.approx(0.9619047619047619, abs=1e-12)
        assert sum(mixture) == pytest.approx(1.0, abs=1e-9)

    def test_theta_formula_holds_on_fitted_model(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=20, doc_len=6)
        model = lda_fit(corpus, k=3, iterations=10, seed=2)
        for doc, counts in enumerate(model.doc_topic_counts):
            expected = [
                (count + ALPHA) / (model.doc_lengths[doc] + ALPHA * model.k)
                for count in counts
            ]
            assert theta(model, doc) == pytest.approx(expected)


class TestKeywords:
    def test_descending_with_lexicographic_ties(self) -> None:
        # Twelve words, so the last two singletons fall past TOP_WORDS.
        singles = [f"w{j:02d}" for j in range(9)]
        corpus = build_corpus([["pear", "apple", "apple", "mango", "apple", "mango", "pear", *singles]])
        model = lda_fit(corpus, k=1, iterations=2, seed=0)
        rows = top_keywords(model, 0)
        assert TOP_WORDS == 10
        assert [term for term, _ in rows] == ["apple", "mango", "pear", *singles[:7]]
        weights = [weight for _, weight in rows]
        assert weights == sorted(weights, reverse=True)

    def test_full_vocabulary_sums_to_one(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=10, doc_len=6)
        model = lda_fit(corpus, k=2, iterations=5, seed=1)
        for topic in range(model.k):
            phi = model.phi(topic)
            assert sum(phi) == pytest.approx(1.0, abs=1e-9)
            weights = dict(zip(model.vocabulary, phi))
            assert all(weight == weights[term] for term, weight in top_keywords(model, topic))


class TestRecovery:
    def test_planted_topics_recovered(self) -> None:
        corpus, planted_a, planted_b = planted_corpus(docs_count=100, doc_len=12)
        model = lda_fit(corpus, k=2, iterations=200, seed=13)
        pairings = [
            max(tv_distance(model, 0, planted_a), tv_distance(model, 1, planted_b)),
            max(tv_distance(model, 0, planted_b), tv_distance(model, 1, planted_a)),
        ]
        assert min(pairings) <= 0.15

    def test_document_order_does_not_change_topics(self) -> None:
        corpus, _, _ = planted_corpus()
        permutation = list(range(len(corpus.docs)))
        random.Random(99).shuffle(permutation)
        reordered_docs = [
            [corpus.vocabulary[i] for i in corpus.docs[index]] for index in permutation
        ]
        reordered = build_corpus(reordered_docs)
        assert reordered.vocabulary == corpus.vocabulary
        model_a = lda_fit(corpus, k=2, iterations=500, seed=13)
        model_b = lda_fit(reordered, k=2, iterations=500, seed=13)
        assert aligned_tv(model_a, model_b) <= 0.02


class TestReport:
    def test_shape(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=20, doc_len=8)
        model = lda_fit(corpus, k=2, iterations=10, seed=4)
        entries = topic_report(model)
        assert [entry["id"] for entry in entries] == [0, 1]
        for entry in entries:
            assert set(entry) == {"id", "keywords"}
            assert entry["keywords"] == top_keywords(model, entry["id"])
            assert len(entry["keywords"]) == TOP_WORDS
