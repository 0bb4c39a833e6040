"""LDA topic extraction by collapsed Gibbs sampling.

The sampler is deliberately plain Python over integer count lists: every
quantity the model exposes (phi, theta, the per-sweep invariants) is an
exact function of those counts, and a fixed seed makes the whole fit
bit-reproducible. One final sample is taken; there is no averaging over
sweeps. ``topic_report`` returns the ``topics`` list of ``topics.json``
as plain dicts.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass


@dataclass
class Corpus:
    """Integer-coded documents over a sorted vocabulary."""

    vocabulary: list[str]
    docs: list[list[int]]
    dropped_docs: int = 0


def build_corpus(documents: Iterable, min_doc_len: int = 1) -> Corpus:
    """Build a corpus from token lists (or objects with a .tokens field).

    Documents shorter than min_doc_len are dropped and counted; an empty
    result is an error because a topic model over nothing is meaningless.
    """
    if min_doc_len < 1:
        raise ValueError("min_doc_len must be at least 1")
    token_docs = []
    dropped = 0
    for document in documents:
        tokens = list(getattr(document, "tokens", document))
        if len(tokens) < min_doc_len:
            dropped += 1
            continue
        token_docs.append(tokens)
    if not token_docs:
        raise ValueError("corpus is empty after dropping short documents")
    vocabulary = sorted({token for tokens in token_docs for token in tokens})
    index = {token: i for i, token in enumerate(vocabulary)}
    docs = [[index[token] for token in tokens] for tokens in token_docs]
    return Corpus(vocabulary=vocabulary, docs=docs, dropped_docs=dropped)


@dataclass
class TopicModel:
    """Fitted sampler state: counts, assignments and hyperparameters."""

    k: int
    alpha: float
    beta: float
    vocabulary: list[str]
    topic_word_counts: list[list[int]]
    doc_topic_counts: list[list[int]]
    topic_totals: list[int]
    assignments: list[list[int]]
    doc_lengths: list[int]
    iterations: int

    def phi(self, topic: int) -> list[float]:
        """Smoothed word distribution of one topic; sums to 1."""
        counts = self.topic_word_counts[topic]
        denominator = self.topic_totals[topic] + self.beta * len(self.vocabulary)
        return [(count + self.beta) / denominator for count in counts]

    def theta(self, doc: int) -> list[float]:
        """Smoothed topic mixture of one document; sums to 1."""
        counts = self.doc_topic_counts[doc]
        denominator = self.doc_lengths[doc] + self.alpha * self.k
        return [(count + self.alpha) / denominator for count in counts]

    def check_invariants(self, tolerance: float = 1e-9) -> None:
        """Raise AssertionError if any count or distribution is inconsistent."""
        for d, row in enumerate(self.doc_topic_counts):
            assert all(c >= 0 for c in row), f"negative doc-topic count in doc {d}"
            assert sum(row) == self.doc_lengths[d], f"doc {d} counts do not sum to its length"
        token_total = sum(self.doc_lengths)
        assert sum(self.topic_totals) == token_total, "topic totals do not cover all tokens"
        for t, row in enumerate(self.topic_word_counts):
            assert all(c >= 0 for c in row), f"negative topic-word count in topic {t}"
            assert sum(row) == self.topic_totals[t], f"topic {t} word counts do not match its total"
            assert abs(sum(self.phi(t)) - 1.0) <= tolerance, f"phi({t}) does not sum to 1"
        for d in range(len(self.doc_topic_counts)):
            assert abs(sum(self.theta(d)) - 1.0) <= tolerance, f"theta({d}) does not sum to 1"


def lda_fit(
    corpus: Corpus,
    k: int = 5,
    alpha: float = 0.1,
    beta: float = 0.01,
    iterations: int = 500,
    seed: int = 0,
    sweep_hook: Callable[[int, TopicModel], None] | None = None,
) -> TopicModel:
    """Collapsed Gibbs sampling.

    Each sweep resamples every token's topic from
    p(z = t) proportional to (doc_topic[d][t] + alpha)
    * (topic_word[t][w] + beta) / (topic_total[t] + beta * V)
    with the token's own assignment removed from the counts first.
    sweep_hook, when given, observes the live model after each sweep (it
    must not mutate it). Identical inputs and seed give identical output.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    vocab_size = len(corpus.vocabulary)
    if vocab_size < k:
        warnings.warn(
            f"vocabulary of {vocab_size} terms is smaller than k={k}; "
            "some topics will stay near-empty",
            stacklevel=2,
        )
    rng = random.Random(seed)
    docs = corpus.docs
    model = TopicModel(
        k=k,
        alpha=alpha,
        beta=beta,
        vocabulary=list(corpus.vocabulary),
        topic_word_counts=[[0] * vocab_size for _ in range(k)],
        doc_topic_counts=[[0] * k for _ in range(len(docs))],
        topic_totals=[0] * k,
        assignments=[],
        doc_lengths=[len(doc) for doc in docs],
        iterations=iterations,
    )
    topic_word = model.topic_word_counts
    topic_totals = model.topic_totals
    for d, doc in enumerate(docs):
        doc_counts = model.doc_topic_counts[d]
        assigned = []
        for word in doc:
            topic = rng.randrange(k)
            assigned.append(topic)
            topic_word[topic][word] += 1
            doc_counts[topic] += 1
            topic_totals[topic] += 1
        model.assignments.append(assigned)
    beta_v = beta * vocab_size
    for sweep in range(1, iterations + 1):
        for d, doc in enumerate(docs):
            doc_counts = model.doc_topic_counts[d]
            assigned = model.assignments[d]
            for i, word in enumerate(doc):
                old = assigned[i]
                topic_word[old][word] -= 1
                doc_counts[old] -= 1
                topic_totals[old] -= 1
                cumulative = 0.0
                thresholds = []
                for t in range(k):
                    cumulative += (
                        (doc_counts[t] + alpha)
                        * (topic_word[t][word] + beta)
                        / (topic_totals[t] + beta_v)
                    )
                    thresholds.append(cumulative)
                draw = rng.random() * cumulative
                new = 0
                while new < k - 1 and thresholds[new] < draw:
                    new += 1
                assigned[i] = new
                topic_word[new][word] += 1
                doc_counts[new] += 1
                topic_totals[new] += 1
        if sweep_hook is not None:
            sweep_hook(sweep, model)
    return model


def top_keywords(model: TopicModel, topic: int, n: int) -> list[tuple[str, float]]:
    """The n heaviest words of one topic, weights descending, ties lexicographic."""
    if not 0 <= topic < model.k:
        raise ValueError(f"topic {topic} outside 0..{model.k - 1}")
    if n > len(model.vocabulary):
        raise ValueError(f"n={n} exceeds vocabulary size {len(model.vocabulary)}")
    weights = model.phi(topic)
    ranked = sorted(
        zip(model.vocabulary, weights),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:n]


def topic_report(
    model: TopicModel,
    n: int,
    labels: dict[int, str] | None = None,
) -> list[dict]:
    """One ``{"id", "label", "keywords": top_keywords(...)}`` dict per topic,
    as ``topics.json`` lists them; labels come from config, never inference."""
    labels = labels or {}
    bad = [topic for topic in labels if not 0 <= topic < model.k]
    if bad:
        raise ValueError(f"labels reference nonexistent topics: {sorted(bad)}")
    return [
        {"id": topic, "label": labels.get(topic, ""), "keywords": top_keywords(model, topic, n)}
        for topic in range(model.k)
    ]
