"""LDA topic extraction by collapsed Gibbs sampling.

The sampler is deliberately plain Python over integer count lists: every
quantity the model exposes (phi and theta) is an
exact function of those counts, and a fixed seed makes the whole fit
bit-reproducible. The word-topic counts are word-major, so a token-sample
reads one row, and the model holds that same table as
``word_topic_counts``; ``phi`` reads one column of it. The sweeps cache
each topic's denominator ``topic_total + beta * V``, recomputing the two a
move changes; each float is the expression the formula names, so the fit
is bit-identical to the plain topic-major loop. One final sample is taken;
there is no averaging over sweeps.
``topic_report`` returns the ``topics`` list of ``topics.json`` as plain
dicts.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Callable, Iterable
from typing import NamedTuple


class Corpus(NamedTuple):
    """Integer-coded documents over a sorted vocabulary."""

    vocabulary: list[str]
    docs: list[list[int]]
    dropped_docs: int = 0


def build_corpus(documents: Iterable, min_doc_len: int = 1) -> Corpus:
    """Build a corpus from token lists (or objects with a .tokens field).

    Documents shorter than min_doc_len are dropped and counted; an empty
    result is an error because a topic model over nothing is meaningless,
    and its message gives both counts, so "no documents arrived" and "every
    document was too short" read apart.
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
        raise ValueError(
            f"corpus is empty: {dropped} documents reached the topic model and {dropped} were "
            f"dropped as shorter than min_doc_len = {min_doc_len}"
        )
    vocabulary = sorted({token for tokens in token_docs for token in tokens})
    index = {token: i for i, token in enumerate(vocabulary)}
    docs = [[index[token] for token in tokens] for tokens in token_docs]
    return Corpus(vocabulary=vocabulary, docs=docs, dropped_docs=dropped)


class TopicModel(NamedTuple):
    """Fitted sampler state: counts, assignments and hyperparameters.
    ``word_topic_counts`` is word-major: one row per vocabulary word, one
    count per topic."""

    k: int
    alpha: float
    beta: float
    vocabulary: list[str]
    word_topic_counts: list[list[int]]
    doc_topic_counts: list[list[int]]
    topic_totals: list[int]
    assignments: list[list[int]]
    doc_lengths: list[int]
    iterations: int

    def phi(self, topic: int) -> list[float]:
        """Smoothed word distribution of one topic; sums to 1."""
        denominator = self.topic_totals[topic] + self.beta * len(self.vocabulary)
        return [(row[topic] + self.beta) / denominator for row in self.word_topic_counts]

    def theta(self, doc: int) -> list[float]:
        """Smoothed topic mixture of one document; sums to 1."""
        counts = self.doc_topic_counts[doc]
        denominator = self.doc_lengths[doc] + self.alpha * self.k
        return [(count + self.alpha) / denominator for count in counts]


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
    * (word_topic[w][t] + beta) / (topic_total[t] + beta * V)
    with the token's own assignment removed from the counts first.
    sweep_hook, when given, observes the model after each sweep: the
    sampler's live counts, which it must not mutate.
    Identical inputs and seed give identical output.
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
    # Word-major: one token-sample reads one row.
    word_topic = [[0] * k for _ in range(vocab_size)]
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
    model = TopicModel(
        k=k,
        alpha=alpha,
        beta=beta,
        vocabulary=list(corpus.vocabulary),
        word_topic_counts=word_topic,
        doc_topic_counts=doc_topic_counts,
        topic_totals=topic_totals,
        assignments=assignments,
        doc_lengths=[len(doc) for doc in docs],
        iterations=iterations,
    )
    beta_v = beta * vocab_size
    # denominators[t] is always topic_totals[t] + beta_v, the same float the
    # formula would compute; a move changes only the two entries it touches.
    denominators = [total + beta_v for total in topic_totals]
    thresholds = [0.0] * k
    topic_ids = range(k)
    last = k - 1
    for sweep in range(1, iterations + 1):
        for doc, doc_counts, assigned in zip(docs, doc_topic_counts, assignments):
            i = 0
            for word in doc:
                row = word_topic[word]
                old = assigned[i]
                row[old] -= 1
                doc_counts[old] -= 1
                topic_totals[old] -= 1
                denominators[old] = topic_totals[old] + beta_v
                cumulative = 0.0
                for t in topic_ids:
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
                i += 1
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
