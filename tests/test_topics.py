"""Corpus building and the collapsed Gibbs topic sampler."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from electionpulse.topics import (
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
        assert abs(sum(model.theta(d)) - 1.0) <= 1e-9, f"theta({d}) does not sum to 1"


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
        assert corpus.dropped_docs == 0

    def test_short_docs_are_dropped_and_counted(self) -> None:
        corpus = build_corpus([["a"], ["b", "c"]], min_doc_len=2)
        assert corpus.dropped_docs == 1
        assert corpus.vocabulary == ["b", "c"]  # dropped docs add no words

    def test_empty_corpus_is_an_error(self) -> None:
        with pytest.raises(ValueError, match="0 documents reached .* and 0 were dropped"):
            build_corpus([])
        with pytest.raises(ValueError, match="2 documents reached .* and 2 were dropped .* = 5"):
            build_corpus([["a"], ["b", "c"]], min_doc_len=5)

    def test_min_doc_len_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            build_corpus([["a"]], min_doc_len=0)

    def test_accepts_objects_with_tokens(self, kept) -> None:
        corpus = build_corpus(kept)
        direct = sorted({token for tweet in kept for token in tweet.tokens})
        assert corpus.vocabulary == direct
        assert len(corpus.docs) == len(kept)


class TestFitValidation:
    def test_parameter_checks(self) -> None:
        corpus = build_corpus([["a", "b"], ["b", "c"]])
        with pytest.raises(ValueError):
            lda_fit(corpus, k=0)
        with pytest.raises(ValueError):
            lda_fit(corpus, iterations=0)
        with pytest.raises(ValueError):
            lda_fit(corpus, alpha=0.0)
        with pytest.raises(ValueError):
            lda_fit(corpus, beta=-0.1)

    def test_small_vocabulary_warns(self) -> None:
        corpus = build_corpus([["a", "b"], ["b", "a"]])
        with pytest.warns(UserWarning):
            lda_fit(corpus, k=5, iterations=2, seed=1)


class TestSingleTopic:
    def test_phi_is_smoothed_unigram_and_theta_is_one(self) -> None:
        corpus = build_corpus([["a", "b", "b"], ["b", "c"]])
        model = lda_fit(corpus, k=1, iterations=3, beta=0.01, seed=9)
        # counts: a=1, b=3, c=1 over 5 tokens, V=3
        denominator = 5 + 0.01 * 3
        assert model.phi(0) == pytest.approx(
            [(1 + 0.01) / denominator, (3 + 0.01) / denominator, (1 + 0.01) / denominator]
        )
        for doc in range(2):
            assert model.theta(doc) == [1.0]


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
    loop must reproduce every draw. k = 1 covers the single-topic scan, and
    the hook fit pins the state every sweep hands to its observer."""

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

    def test_hooked_fit_state_is_pinned_every_sweep(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=40, doc_len=10)
        seen: list[str] = []

        def hook(sweep: int, model: TopicModel) -> None:
            seen.append(state_digest(model))

        model = lda_fit(corpus, k=3, iterations=12, seed=11, sweep_hook=hook)
        assert len(seen) == 12
        assert state_digest(model) == self.HOOK_FINAL
        assert hashlib.sha256("".join(seen).encode()).hexdigest() == self.HOOK_SWEEPS


class TestSweepHook:
    def test_called_once_per_sweep_with_consistent_state(self) -> None:
        corpus = build_corpus([["a", "b", "c"], ["b", "c", "d"], ["a", "d"]])
        seen: list[int] = []

        def hook(sweep: int, model: TopicModel) -> None:
            seen.append(sweep)
            check_invariants(model)

        lda_fit(corpus, k=2, iterations=7, seed=3, sweep_hook=hook)
        assert seen == list(range(1, 8))


class TestTheta:
    def test_concentrated_document_value(self) -> None:
        # One 10-token document fully assigned to topic 2 of 5:
        # theta(2) = (10 + 0.1) / (10 + 0.1 * 5)
        model = TopicModel(
            k=5,
            alpha=0.1,
            beta=0.01,
            vocabulary=["w"],
            word_topic_counts=[[0, 0, 10, 0, 0]],
            doc_topic_counts=[[0, 0, 10, 0, 0]],
            topic_totals=[0, 0, 10, 0, 0],
            assignments=[[2] * 10],
            doc_lengths=[10],
            iterations=0,
        )
        theta = model.theta(0)
        assert theta[2] == pytest.approx(10.1 / 10.5)
        assert theta[2] == pytest.approx(0.9619047619047619, abs=1e-12)
        assert sum(theta) == pytest.approx(1.0, abs=1e-9)

    def test_theta_formula_holds_on_fitted_model(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=20, doc_len=6)
        model = lda_fit(corpus, k=3, iterations=10, seed=2)
        for doc, counts in enumerate(model.doc_topic_counts):
            expected = [
                (count + model.alpha) / (model.doc_lengths[doc] + model.alpha * model.k)
                for count in counts
            ]
            assert model.theta(doc) == pytest.approx(expected)


class TestKeywords:
    def test_descending_with_lexicographic_ties(self) -> None:
        corpus = build_corpus([["pear", "apple", "apple", "mango"]])
        model = lda_fit(corpus, k=1, iterations=2, seed=0)
        rows = top_keywords(model, 0, 3)
        assert [term for term, _ in rows] == ["apple", "mango", "pear"]
        weights = [weight for _, weight in rows]
        assert weights == sorted(weights, reverse=True)

    def test_full_vocabulary_sums_to_one(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=10, doc_len=6)
        model = lda_fit(corpus, k=2, iterations=5, seed=1)
        for topic in range(model.k):
            rows = top_keywords(model, topic, len(model.vocabulary))
            assert sum(weight for _, weight in rows) == pytest.approx(1.0, abs=1e-9)

    def test_bounds_checked(self) -> None:
        corpus = build_corpus([["a", "b"]])
        model = lda_fit(corpus, k=1, iterations=1, seed=0)
        with pytest.raises(ValueError):
            top_keywords(model, 1, 1)
        with pytest.raises(ValueError):
            top_keywords(model, 0, 3)


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
    def test_shape_and_labels(self) -> None:
        corpus, _, _ = planted_corpus(docs_count=20, doc_len=8)
        model = lda_fit(corpus, k=2, iterations=10, seed=4)
        entries = topic_report(model, 5, {0: "ground game", 1: "air war"})
        assert [entry["id"] for entry in entries] == [0, 1]
        assert [entry["label"] for entry in entries] == ["ground game", "air war"]
        for entry in entries:
            assert len(entry["keywords"]) == 5

    def test_missing_labels_default_to_empty(self) -> None:
        corpus = build_corpus([["a", "b"]])
        model = lda_fit(corpus, k=1, iterations=1, seed=0)
        assert topic_report(model, 1)[0]["label"] == ""

    def test_label_for_nonexistent_topic_rejected(self) -> None:
        corpus = build_corpus([["a", "b"]])
        model = lda_fit(corpus, k=1, iterations=1, seed=0)
        with pytest.raises(ValueError):
            topic_report(model, 1, {3: "ghost"})
