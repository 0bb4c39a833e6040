"""LDA topic extraction by collapsed Gibbs sampling.

The sampler is plain Python over count lists: phi is an exact function of
the counts, and a fixed seed makes the fit bit-reproducible. The
word-topic counts are word-major, so a token-sample reads one row; the
model holds that table as ``word_topic_counts`` and ``phi`` reads a
column. The sweeps count in integer-valued floats changed by ``1.0``, so
every add is float + float, CPython's fast path (int + float takes the
generic number protocol). Below 2**53 a float count is exact, so every
weight and draw is the float the int formula gives, and the fit turns the
tables back into ints; the price is a 24-byte float per touched count,
where a small int is shared. Each topic's ``topic_total + BETA * V`` is
cached and recomputed when a move changes it. Each sweep is written out
for the fit's k from the int ``k`` alone, so no config text reaches
``exec``. Every weight is the formula's expression, summed in topic
order, so the fit is bit-identical to the plain loop over int counts.
One final sample is taken, with no averaging over sweeps. ``build_corpus``
takes one token sequence per document (the CLI passes each kept tweet's
tokens), and ``topic_report`` returns ``topics.json``'s ``topics`` list.
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


def _sweep(k: int):
    """Compile the function that runs one sweep over every token for k
    topics. ``c{t}`` sums the weights of topics 0..t, and the draw takes the
    first topic whose sum reaches it, else the last. Every line is flat: a
    chain nested k deep would not compile for a large k."""
    topics = range(k)
    term = "(doc_counts[{0}] + alpha) * (row[{0}] + beta) / denominators[{0}]".format
    next_line = "\n" + " " * 12
    sums = next_line.join([f"c0 = {term(0)}", *(f"c{t} = c{t - 1} + {term(t)}" for t in topics[1:])])
    search = next_line.join(f"if draw <= c{t}: new = {t}" for t in reversed(topics[:-1]))
    source = f"""\
def sweep(docs, doc_topic_counts, assignments, word_topic, topic_totals, denominators, alpha, beta, beta_v, random):
    for doc, doc_counts, assigned in zip(docs, doc_topic_counts, assignments):
        i = 0
        for word in doc:
            row = word_topic[word]
            old = assigned[i]
            row[old] -= 1.0
            doc_counts[old] -= 1.0
            topic_totals[old] -= 1.0
            denominators[old] = topic_totals[old] + beta_v
            {sums}
            draw = random() * c{topics[-1]}
            new = {topics[-1]}
            {search}
            assigned[i] = new
            row[new] += 1.0
            doc_counts[new] += 1.0
            topic_totals[new] += 1.0
            denominators[new] = topic_totals[new] + beta_v
            i += 1
"""
    exec(source, namespace := {})
    return namespace["sweep"]


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
    The sweeps count in integer-valued floats, returned as ints, and are
    written out for k from the int alone, so no config text reaches ``exec``.
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
    beta_v = BETA * vocab_size
    denominators = [total + beta_v for total in topic_totals]
    sweep = _sweep(k)
    for _ in range(iterations):
        sweep(docs, doc_topic_counts, assignments, word_topic, topic_totals, denominators,
              ALPHA, BETA, beta_v, rng.random)
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
