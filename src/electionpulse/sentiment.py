"""Polarity and subjectivity scoring plus a Naive Bayes classifier.

Two lexicon engines share one scoring contract: each loader builds one
``SentimentScore`` per lemma, and a tweet scores the mean of its matched
tokens' scores.

- ``pattern``: a word-level lemma table of (polarity, subjectivity)
  pairs, with a 2-token negation window that flips a matched word's
  polarity sign and halves its magnitude.
- ``swn``: a SentiWordNet-3.0-format sense lexicon, folded as it is read
  into each lemma's rank-weighted (weight 1/sense_rank) positive and
  negative scores; a lemma scores (pos - neg, pos + neg), the latter
  being 1 minus its objectivity. It has no negation.

``score_all`` scores a tweet population with one table and counts its
coverage on the same pass; ``compare_classifiers`` turns the per-engine
score lists into distributions without scoring again.

The Naive Bayes model (``nbc_train``, written by ``train-nbc``) is the
multinomial, Laplace-smoothed textbook construction and exists alongside
the lexicon engines because label assignment and continuous scoring serve
different analyses; the two are never derived from each other.

Records are NamedTuples. The loaders read a file path, and they and
``nbc_train`` check what they build, so a record is valid by the time
anything reads it. Lookups take the lowercase tokens ``preprocess.clean``
makes; the loaders lowercase every lemma to match.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from ._util import float_sum, pct, read_word_list
from .preprocess import ProcessedTweet

ENGINES = ("pattern", "swn")

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"
SUBJECTIVE = "subjective"
OBJECTIVE = "objective"
SUBJECTIVITY_THRESHOLD = 0.5
NBC_ALPHA = 1.0  # Laplace (add-one) smoothing; nbc_model.json records it

_POS_TAGS = frozenset("navr")


class SentimentScore(NamedTuple):
    """Polarity in [-1, 1] and subjectivity in [0, 1]: a lemma's entry in
    a lexicon, as its loader makes it, or a tweet's mean over its matched
    lemmas, which stays in range because every entry is."""

    polarity: float
    subjectivity: float


class SenseLexicon(NamedTuple):
    """Each lemma's score from its rank-weighted (pos, neg) over all its
    senses, as (pos - neg, pos + neg), and the loader's row counts."""

    word_scores: dict[str, SentimentScore]
    rows_read: int
    rows_rejected: int


def load_sense_lexicon(path: str) -> SenseLexicon:
    """Parse a SentiWordNet-3.0-format TSV file.

    Columns: pos tag, synset id, PosScore, NegScore, space-separated
    "lemma#rank" terms, gloss. Obj is derived as 1 - Pos - Neg. A row
    whose pos tag is not one of n, v, a, r, whose rank is below 1, whose
    Pos, Neg or Obj leaves [0, 1], or that is otherwise malformed, is
    rejected whole and counted; loading never aborts on a bad row. Each
    valid row's terms are folded, in file order, into their lemma's
    weighted sums (weight 1/sense_rank); each lemma's (pos, neg) is its
    sums divided by its total weight, stored as the score
    (pos - neg, pos + neg), the sum capped at 1.
    """
    # lemma -> (total weight, weighted pos, weighted neg)
    sums: dict[str, tuple[float, float, float]] = {}
    rows_read = 0
    rejected = 0
    with open(path, encoding="utf-8-sig") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            rows_read += 1
            parts = line.split("\t")
            try:
                if len(parts) < 5:
                    raise ValueError("too few columns")
                pos_tag = parts[0].strip()
                if pos_tag not in _POS_TAGS:
                    raise ValueError(f"pos_tag {pos_tag!r} not one of n, v, a, r")
                pos_score = float(parts[2])
                neg_score = float(parts[3])
                for score in (pos_score, neg_score, 1.0 - pos_score - neg_score):
                    if not 0.0 <= score <= 1.0:
                        raise ValueError(f"score {score} outside [0, 1]")
                terms = parts[4].split()
                if not terms:
                    raise ValueError("no terms")
                senses = []
                for term in terms:
                    lemma, _, rank = term.rpartition("#")
                    if not lemma:
                        raise ValueError(f"term {term!r} has no lemma")
                    sense_rank = int(rank)
                    if sense_rank < 1:
                        raise ValueError(f"sense_rank {sense_rank} must be positive")
                    senses.append((lemma.lower(), 1.0 / sense_rank))
            except ValueError:
                rejected += 1
                continue
            for lemma, weight in senses:
                total_weight, pos, neg = sums.get(lemma, (0.0, 0.0, 0.0))
                sums[lemma] = (total_weight + weight, pos + pos_score * weight, neg + neg_score * weight)
    word_scores = {}
    for lemma, (total_weight, pos, neg) in sums.items():
        pos, neg = pos / total_weight, neg / total_weight
        # Neither mean passes 1, but their sum can round to 1 ulp past it.
        word_scores[lemma] = SentimentScore(pos - neg, min(pos + neg, 1.0))
    return SenseLexicon(word_scores, rows_read, rejected)


def swn_word_sentiment(lexicon: SenseLexicon, lemma: str) -> SentimentScore | None:
    """The lemma's score from the rank-weighted (pos, neg) over its senses
    of every pos tag, computed when the lexicon loaded, or None. The lemma
    is a lowercase token, as ``preprocess.clean`` makes them."""
    return lexicon.word_scores.get(lemma)


def load_pattern_lexicon(path: str) -> dict[str, SentimentScore]:
    """Read a "lemma,polarity,subjectivity" CSV (header optional).

    Duplicate lemma rows are averaged into a single entry; an averaged
    polarity outside [-1, 1] or subjectivity outside [0, 1], or a lemma
    holding whitespace (named with its path and line), raises ValueError.
    """
    collected: dict[str, list[tuple[float, float]]] = defaultdict(list)
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or not row[0].strip() or row[0].lstrip().startswith("#"):
                continue
            lemma = row[0].strip().lower()
            if any(ch.isspace() for ch in lemma):
                raise ValueError(f"{path} line {reader.line_num}: {lemma!r} is not one word")
            if len(row) < 3:
                raise ValueError(f"pattern lexicon row for {lemma!r} has fewer than 3 columns")
            try:
                polarity, subjectivity = float(row[1]), float(row[2])
            except ValueError:
                if lemma == "lemma":  # header row
                    continue
                raise ValueError(f"pattern lexicon row for {lemma!r} has non-numeric scores")
            collected[lemma].append((polarity, subjectivity))
    lexicon = {}
    for lemma, pairs in collected.items():
        polarity = float_sum(p for p, _ in pairs) / len(pairs)
        subjectivity = float_sum(s for _, s in pairs) / len(pairs)
        if not -1.0 <= polarity <= 1.0:
            raise ValueError(f"polarity {polarity} outside [-1, 1]")
        if not 0.0 <= subjectivity <= 1.0:
            raise ValueError(f"subjectivity {subjectivity} outside [0, 1]")
        lexicon[lemma] = SentimentScore(polarity, subjectivity)
    return lexicon


def load_negators(path: str) -> frozenset[str]:
    """One negator word per line, lowercased; blank lines and '#' comments allowed."""
    return read_word_list(path)


def pattern_score(
    tokens: Sequence[str],
    lexicon: Mapping[str, SentimentScore],
    negators: frozenset[str] | set[str] = frozenset(),
) -> SentimentScore:
    """Mean lexicon polarity/subjectivity over matched tokens.

    A negator within the two tokens preceding a matched word flips that
    word's polarity sign and halves its magnitude; subjectivity is never
    negated. No matches at all score (0, 0).
    """
    return _tweet_score(tokens, lexicon, negators)[0]


def _tweet_score(
    tokens: Sequence[str],
    lexicon: Mapping[str, SentimentScore],
    negators: frozenset[str] | set[str],
) -> tuple[SentimentScore, int]:
    # The mean of the matched tokens' scores, negated as ``pattern_score``
    # says, and their number. Each sum runs left to right from 0.0, as
    # ``float_sum`` does. No mean needs a clamp: every entry is in range (the
    # loaders reject the rest and cap swn's sum at 1), negation halves, and
    # rounding to nearest is monotone, so n values in [lo, hi] sum into
    # [n*lo, n*hi] and divide back into [lo, hi].
    polarity = subjectivity = 0.0
    hits = 0
    for index, token in enumerate(tokens):
        entry = lexicon.get(token)
        if entry is None:
            continue
        value = entry.polarity
        if negators and any(prior in negators for prior in tokens[max(0, index - 2) : index]):
            value = -value / 2.0
        polarity += value
        subjectivity += entry.subjectivity
        hits += 1
    if not hits:
        return SentimentScore(0.0, 0.0), 0
    return SentimentScore(polarity / hits, subjectivity / hits), hits


class EngineScores(NamedTuple):
    """One engine's scores, aligned with the tweets it scored, plus its
    lexicon coverage: tweets with at least one matched token, and matched
    tokens out of all tokens scored."""

    scores: list[SentimentScore]
    tweets_hit: int
    tokens_hit: int
    tokens: int

    def coverage(self) -> dict[str, int | float]:
        """The manifest's ``dataset.lexicon`` entry for this engine."""
        rate = round(self.tokens_hit / self.tokens, 6) if self.tokens else 0.0
        return {"tweets_hit": self.tweets_hit, "token_hit_rate": rate}


def score_all(
    tweets: Sequence[ProcessedTweet],
    lexicon: Mapping[str, SentimentScore],
    negators: frozenset[str] | set[str] = frozenset(),
) -> EngineScores:
    """Score every tweet as ``pattern_score`` does with one lexicon table,
    counting its coverage on the same pass; the score list aligns with the
    input. An engine without negation passes no negators."""
    scores: list[SentimentScore] = []
    tweets_hit = tokens_hit = tokens = 0
    for tweet in tweets:
        score, hits = _tweet_score(tweet.tokens, lexicon, negators)
        scores.append(score)
        tweets_hit += hits > 0
        tokens_hit += hits
        tokens += len(tweet.tokens)
    return EngineScores(scores, tweets_hit, tokens_hit, tokens)


def polarity_class(score: float) -> str:
    """positive above zero, negative below, neutral at exactly zero."""
    if score > 0.0:
        return POSITIVE
    if score < 0.0:
        return NEGATIVE
    return NEUTRAL


def subjectivity_class(score: float) -> str:
    """subjective strictly above SUBJECTIVITY_THRESHOLD (0.5), objective
    at or below it."""
    return SUBJECTIVE if score > SUBJECTIVITY_THRESHOLD else OBJECTIVE


class NBCModel(NamedTuple):
    """Multinomial Naive Bayes with Laplace smoothing.

    likelihoods[label][word] = (count(word, label) + NBC_ALPHA) /
    (count(label) + NBC_ALPHA * |V|) for every vocabulary word, so each
    label's likelihoods sum to exactly 1.
    """

    class_priors: dict[str, float]
    word_likelihoods: dict[str, dict[str, float]]
    vocabulary: frozenset[str]

    @property
    def labels(self) -> list[str]:
        return sorted(self.class_priors)


def nbc_train(docs: Sequence[tuple[Sequence[str], str]]) -> NBCModel:
    """Train from (tokens, label) pairs.

    Requires at least two distinct labels with at least one document
    each, and checks that the priors and each label's likelihoods sum to
    1 within 1e-9.
    """
    docs = list(docs)
    if not docs:
        raise ValueError("cannot train on an empty corpus")
    label_docs: Counter[str] = Counter()
    word_counts: dict[str, Counter[str]] = defaultdict(Counter)
    vocabulary: set[str] = set()
    for tokens, label in docs:
        label_docs[label] += 1
        for token in tokens:
            word_counts[label][token] += 1
            vocabulary.add(token)
    if len(label_docs) < 2:
        raise ValueError("training needs at least two distinct labels")
    total_docs = len(docs)
    priors = {label: count / total_docs for label, count in label_docs.items()}
    vocab_size = len(vocabulary)
    likelihoods: dict[str, dict[str, float]] = {}
    for label in label_docs:
        label_total = sum(word_counts[label].values())
        denominator = label_total + NBC_ALPHA * vocab_size
        likelihoods[label] = {
            word: (word_counts[label][word] + NBC_ALPHA) / denominator
            for word in vocabulary
        }
    prior_sum = float_sum(priors.values())
    if abs(prior_sum - 1.0) > 1e-9:
        raise ValueError(f"priors sum to {prior_sum}, not 1")
    for label, table in likelihoods.items():
        total = float_sum(table.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"likelihoods for {label!r} sum to {total}, not 1")
    return NBCModel(priors, likelihoods, frozenset(vocabulary))


class PolarityDistribution(NamedTuple):
    """(positive, neutral, negative) counts with half-up 2-decimal percentages."""

    counts: tuple[int, int, int]
    percentages: tuple[float, float, float]


def distribution(labels: Iterable[str]) -> PolarityDistribution:
    """Tally polarity classes into counts and percentages."""
    counts = Counter(labels)
    ordered = (counts[POSITIVE], counts[NEUTRAL], counts[NEGATIVE])
    total = sum(ordered)
    return PolarityDistribution(
        counts=ordered,
        percentages=tuple(pct(count, total) for count in ordered),
    )


def compare_classifiers(
    scores: Mapping[str, Sequence[SentimentScore]],
) -> dict[str, PolarityDistribution]:
    """Polarity distribution of each engine, from the per-tweet scores it
    gave one tweet population (``score_all(...).scores``)."""
    return {
        engine: distribution(polarity_class(score.polarity) for score in values)
        for engine, values in scores.items()
    }
