"""LDA topic extraction by collapsed Gibbs sampling.

The sampler is deliberately plain Python over count lists: the one
distribution the model exposes, phi, is an exact function of those
counts, and a fixed seed makes the whole fit bit-reproducible. The
word-topic counts are word-major, so a token-sample reads one row, and
the model holds that same table as ``word_topic_counts``; ``phi`` reads
one column of it. While it sweeps, the sampler keeps its three count
tables as integer-valued floats changed by ``1.0``, so every add in a
token-sample is float + float, which CPython runs on its float fast
path; an int + float add takes the generic number protocol. A count
below 2**53 is exact as a float, so every weight and draw is the float
the integer formula gives, and the fit ends by turning the tables back
into ints in place. The price is memory: each touched count is its own
24-byte float object, where a small int is shared. The sweeps cache each
topic's denominator ``topic_total + BETA * V``, recomputing the two a
move changes; each float is the expression the formula names, so the fit
is bit-identical to the plain topic-major loop over int counts. One final
sample is taken; there is no averaging over sweeps. The priors are the
constants ``ALPHA`` and ``BETA``, and every topic reports its ``TOP_WORDS``
heaviest words. ``build_corpus`` takes one token sequence per document
(the CLI passes each kept tweet's tokens), and ``topic_report`` returns
the ``topics`` list of ``topics.json`` as plain dicts.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Iterable, Sequence
from typing import NamedTuple


# The Dirichlet priors of every fit and the keywords each topic reports;
# topics.json records all three.
ALPHA = 0.1
BETA = 0.01
TOP_WORDS = 10


class Corpus(NamedTuple):
    """Integer-coded documents over a sorted vocabulary."""

    vocabulary: list[str]
    docs: list[list[int]]


def build_corpus(documents: Iterable[Sequence[str]]) -> Corpus:
    """Build a corpus from token sequences, one per document.

    An empty corpus is an error because a topic model over nothing is
    meaningless.
    """
    token_docs = list(documents)
    if not token_docs:
        raise ValueError("corpus is empty: no document reached the topic model")
    vocabulary = sorted({token for tokens in token_docs for token in tokens})
    index = {token: i for i, token in enumerate(vocabulary)}
    docs = [[index[token] for token in tokens] for tokens in token_docs]
    return Corpus(vocabulary=vocabulary, docs=docs)


class TopicModel(NamedTuple):
    """Fitted sampler state: counts, assignments and the fit's settings.
    ``word_topic_counts`` is word-major: one row per vocabulary word, one
    count per topic."""

    k: int
    vocabulary: list[str]
    word_topic_counts: list[list[int]]
    doc_topic_counts: list[list[int]]
    topic_totals: list[int]
    assignments: list[list[int]]
    doc_lengths: list[int]
    iterations: int

    def phi(self, topic: int) -> list[float]:
        """Smoothed word distribution of one topic; sums to 1."""
        denominator = self.topic_totals[topic] + BETA * len(self.vocabulary)
        return [(row[topic] + BETA) / denominator for row in self.word_topic_counts]


def lda_fit(
    corpus: Corpus,
    k: int = 5,
    iterations: int = 500,
    seed: int = 0,
) -> TopicModel:
    """Collapsed Gibbs sampling.

    Each sweep resamples every token's topic from
    p(z = t) proportional to (doc_topic[d][t] + ALPHA)
    * (word_topic[w][t] + BETA) / (topic_total[t] + BETA * V)
    with the token's own assignment removed from the counts first.
    The sweeps count in integer-valued floats (see the module docstring);
    the returned model holds the same tables turned back into ints.
    Identical inputs and seed give identical output.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    vocab_size = len(corpus.vocabulary)
    if vocab_size < k:
        warnings.warn(
            f"vocabulary of {vocab_size} terms is smaller than k={k}; "
            "some topics will stay near-empty",
            stacklevel=2,
        )
    rng = random.Random(seed)
    docs = corpus.docs
    # Word-major: one token-sample reads one row. Float counts keep every
    # add of the sweep float + float; see the module docstring.
    word_topic = [[0.0] * k for _ in range(vocab_size)]
    doc_topic_counts = [[0.0] * k for _ in range(len(docs))]
    topic_totals = [0.0] * k
    assignments = []
    for doc, doc_counts in zip(docs, doc_topic_counts):
        assigned = []
        for word in doc:
            topic = rng.randrange(k)
            assigned.append(topic)
            word_topic[word][topic] += 1.0
            doc_counts[topic] += 1.0
            topic_totals[topic] += 1.0
        assignments.append(assigned)
    # Locals, so the token-sample loop does no global lookups.
    alpha, beta = ALPHA, BETA
    beta_v = beta * vocab_size
    # denominators[t] is always topic_totals[t] + beta_v, the same float the
    # formula would compute; a move changes only the two entries it touches.
    denominators = [total + beta_v for total in topic_totals]
    thresholds = [0.0] * k
    topic_ids = range(k)
    last = k - 1
    for _ in range(iterations):
        for doc, doc_counts, assigned in zip(docs, doc_topic_counts, assignments):
            i = 0
            for word in doc:
                row = word_topic[word]
                old = assigned[i]
                row[old] -= 1.0
                doc_counts[old] -= 1.0
                topic_totals[old] -= 1.0
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
                row[new] += 1.0
                doc_counts[new] += 1.0
                topic_totals[new] += 1.0
                denominators[new] = topic_totals[new] + beta_v
                i += 1
    for table in (word_topic, doc_topic_counts, [topic_totals]):
        for row in table:
            row[:] = map(int, row)
    return TopicModel(
        k=k,
        vocabulary=list(corpus.vocabulary),
        word_topic_counts=word_topic,
        doc_topic_counts=doc_topic_counts,
        topic_totals=topic_totals,
        assignments=assignments,
        doc_lengths=[len(doc) for doc in docs],
        iterations=iterations,
    )


def top_keywords(model: TopicModel, topic: int) -> list[tuple[str, float]]:
    """The TOP_WORDS heaviest words of one topic, weights descending, ties
    lexicographic."""
    weights = model.phi(topic)
    ranked = sorted(
        zip(model.vocabulary, weights),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:TOP_WORDS]


def topic_report(model: TopicModel) -> list[dict]:
    """One ``{"id", "keywords": top_keywords(...)}`` dict per topic, as
    ``topics.json`` lists them. Topics are unnamed: which theme lands on which
    index depends on the seed, the corpus, k and the sweep count."""
    return [{"id": topic, "keywords": top_keywords(model, topic)} for topic in range(model.k)]
