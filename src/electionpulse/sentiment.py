"""Polarity and subjectivity scoring plus a Naive Bayes classifier.

Two lexicon engines share one scoring contract:

- ``pattern``: a word-level lemma table of (polarity, subjectivity)
  pairs, averaged over matched tokens, with a 2-token negation window
  that flips a matched word's polarity sign and halves its magnitude.
- ``swn``: a SentiWordNet-3.0-format sense lexicon; per-word positive and
  negative scores are rank-weighted averages over senses (weight
  1/sense_rank). The loader folds each valid row into its lemmas'
  weighted sums as it reads, so the lexicon is one (pos, neg) pair per
  lemma and keeps no per-sense record; polarity is the mean of
  (pos - neg) over matched tokens, and subjectivity is 1 minus the mean
  objectivity of matched tokens, both from one pass.

``score_all`` scores a tweet population with one engine and counts the
engine's lexicon coverage on the same pass; ``compare_classifiers`` turns
the per-engine score lists into distributions without scoring again.

The Naive Bayes model (``nbc_train``, written by ``train-nbc``) is the
multinomial, Laplace-smoothed textbook construction and exists alongside
the lexicon engines because label assignment and continuous scoring serve
different analyses; the two are never derived from each other.

Records are NamedTuples. The loaders and ``nbc_train`` check what they
build, so a record is valid by the time anything reads it.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from typing import IO, NamedTuple

from ._util import ConsistencyError, float_sum, pct, read_word_list
from .preprocess import ProcessedTweet

ENGINES = ("pattern", "swn")

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"
SUBJECTIVE = "subjective"
OBJECTIVE = "objective"

_POS_TAGS = frozenset("navr")


class SentimentScore(NamedTuple):
    """Polarity in [-1, 1] and subjectivity in [0, 1]: ``_mean_score``,
    which makes every score, clamps both."""

    polarity: float
    subjectivity: float


class PatternEntry(NamedTuple):
    polarity: float
    subjectivity: float


class SenseLexicon(NamedTuple):
    """Each lemma's rank-weighted (pos, neg) over all its senses, for
    ``swn_word_sentiment`` to look up, and the loader's row counts."""

    word_scores: dict[str, tuple[float, float]]
    rows_read: int
    rows_rejected: int


def load_sense_lexicon(source: str | IO[str] | Iterable[str]) -> SenseLexicon:
    """Parse a SentiWordNet-3.0-format TSV file.

    Columns: pos tag, synset id, PosScore, NegScore, space-separated
    "lemma#rank" terms, gloss. Obj is derived as 1 - Pos - Neg. A row
    whose pos tag is not one of n, v, a, r, whose rank is below 1, whose
    Pos, Neg or Obj leaves [0, 1], or that is otherwise malformed, is
    rejected whole and counted; loading never aborts on a bad row. Each
    valid row's terms are folded, in file order, into their lemma's
    weighted sums (weight 1/sense_rank); each lemma's (pos, neg) is its
    sums divided by its total weight.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            return _parse_sense_rows(handle)
    return _parse_sense_rows(source)


def _parse_sense_rows(lines: Iterable[str]) -> SenseLexicon:
    # lemma -> (total weight, weighted pos, weighted neg)
    sums: dict[str, tuple[float, float, float]] = {}
    rows_read = 0
    rejected = 0
    for raw in lines:
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
    word_scores = {
        lemma: (pos / total_weight, neg / total_weight)
        for lemma, (total_weight, pos, neg) in sums.items()
    }
    return SenseLexicon(word_scores, rows_read, rejected)


def swn_word_sentiment(lexicon: SenseLexicon, lemma: str) -> tuple[float, float] | None:
    """Rank-weighted (pos, neg) over every sense of the lemma, or None.

    Senses across all pos tags participate; each contributes with weight
    1/sense_rank and the result is normalized by the total weight. The
    pair was computed when the lexicon loaded.
    """
    return lexicon.word_scores.get(lemma.lower())


def _swn_matches(tokens: Sequence[str], lexicon: SenseLexicon) -> tuple[list[float], list[float]]:
    polarity_values = []
    subjectivity_values = []
    for token in tokens:
        scores = swn_word_sentiment(lexicon, token)
        if scores is not None:
            polarity_values.append(scores[0] - scores[1])
            subjectivity_values.append(scores[0] + scores[1])
    return polarity_values, subjectivity_values


def load_pattern_lexicon(source: str | IO[str] | Iterable[str]) -> dict[str, PatternEntry]:
    """Read a "lemma,polarity,subjectivity" CSV (header optional).

    Duplicate lemma rows are averaged into a single entry; an averaged
    polarity outside [-1, 1] or subjectivity outside [0, 1] raises
    ValueError.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8", newline="") as handle:
            return _parse_pattern_rows(handle)
    return _parse_pattern_rows(source)


def _parse_pattern_rows(lines) -> dict[str, PatternEntry]:
    collected: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for row in csv.reader(lines):
        if not row or not row[0].strip() or row[0].lstrip().startswith("#"):
            continue
        lemma = row[0].strip().lower()
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
        lexicon[lemma] = PatternEntry(polarity, subjectivity)
    return lexicon


def load_negators(path: str) -> frozenset[str]:
    """One negator word per line, lowercased; blank lines and '#' comments allowed."""
    return read_word_list(path)


def pattern_score(
    tokens: Sequence[str],
    lexicon: Mapping[str, PatternEntry],
    negators: frozenset[str] | set[str] = frozenset(),
) -> SentimentScore:
    """Mean lexicon polarity/subjectivity over matched tokens.

    A negator within the two tokens preceding a matched word flips that
    word's polarity sign and halves its magnitude; subjectivity is never
    negated. No matches at all score (0, 0).
    """
    return _mean_score(*_pattern_matches(tokens, lexicon, negators))


def _pattern_matches(
    tokens: Sequence[str],
    lexicon: Mapping[str, PatternEntry],
    negators: frozenset[str] | set[str],
) -> tuple[list[float], list[float]]:
    polarity_values = []
    subjectivity_values = []
    for index, token in enumerate(tokens):
        entry = lexicon.get(token)
        if entry is None:
            continue
        value = entry.polarity
        if any(prior in negators for prior in tokens[max(0, index - 2) : index]):
            value = -value / 2.0
        polarity_values.append(value)
        subjectivity_values.append(entry.subjectivity)
    return polarity_values, subjectivity_values


def _mean_score(polarity_values: list[float], subjectivity_values: list[float]) -> SentimentScore:
    # One value per matched token, for either engine.
    if not polarity_values:
        return SentimentScore(0.0, 0.0)
    polarity = _clamp(float_sum(polarity_values) / len(polarity_values), -1.0, 1.0)
    subjectivity = _clamp(float_sum(subjectivity_values) / len(subjectivity_values), 0.0, 1.0)
    return SentimentScore(polarity, subjectivity)


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
    engine: str,
    *,
    pattern_lexicon: Mapping[str, PatternEntry] | None = None,
    negators: frozenset[str] | set[str] = frozenset(),
    sense_lexicon: SenseLexicon | None = None,
) -> EngineScores:
    """Score every tweet with one engine, counting lexicon coverage on the
    same pass; the score list aligns with the input."""
    if engine not in ENGINES:
        raise ValueError(f"engine {engine!r} not one of {ENGINES}")
    if engine == "pattern" and pattern_lexicon is None:
        raise ValueError("pattern engine needs a pattern lexicon")
    if engine == "swn" and sense_lexicon is None:
        raise ValueError("swn engine needs a sense lexicon")
    scores: list[SentimentScore] = []
    tweets_hit = tokens_hit = tokens = 0
    for tweet in tweets:
        if engine == "pattern":
            values = _pattern_matches(tweet.tokens, pattern_lexicon, negators)
        else:
            values = _swn_matches(tweet.tokens, sense_lexicon)
        scores.append(_mean_score(*values))
        hits = len(values[0])
        tweets_hit += hits > 0
        tokens_hit += hits
        tokens += len(tweet.tokens)
    return EngineScores(scores, tweets_hit, tokens_hit, tokens)


def polarity_class(score: float) -> str:
    """positive above zero, negative below, neutral at exactly zero."""
    if not -1.0 <= score <= 1.0:
        raise ValueError(f"polarity {score} outside [-1, 1]")
    if score > 0.0:
        return POSITIVE
    if score < 0.0:
        return NEGATIVE
    return NEUTRAL


def subjectivity_class(score: float, threshold: float = 0.5) -> str:
    """subjective strictly above the threshold, objective otherwise."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"subjectivity {score} outside [0, 1]")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    return SUBJECTIVE if score > threshold else OBJECTIVE


class NBCModel(NamedTuple):
    """Multinomial Naive Bayes with Laplace smoothing.

    likelihoods[label][word] = (count(word, label) + alpha) /
    (count(label) + alpha * |V|) for every vocabulary word, so each
    label's likelihoods sum to exactly 1.
    """

    class_priors: dict[str, float]
    word_likelihoods: dict[str, dict[str, float]]
    vocabulary: frozenset[str]
    alpha: float

    @property
    def labels(self) -> list[str]:
        return sorted(self.class_priors)


def nbc_train(docs: Sequence[tuple[Sequence[str], str]], alpha: float = 1.0) -> NBCModel:
    """Train from (tokens, label) pairs.

    Requires a positive smoothing constant and at least two distinct
    labels with at least one document each, and checks that the priors
    and each label's likelihoods sum to 1 within 1e-9.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
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
        denominator = label_total + alpha * vocab_size
        likelihoods[label] = {
            word: (word_counts[label][word] + alpha) / denominator
            for word in vocabulary
        }
    prior_sum = float_sum(priors.values())
    if abs(prior_sum - 1.0) > 1e-9:
        raise ValueError(f"priors sum to {prior_sum}, not 1")
    for label, table in likelihoods.items():
        total = float_sum(table.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"likelihoods for {label!r} sum to {total}, not 1")
    return NBCModel(priors, likelihoods, frozenset(vocabulary), alpha)


class PolarityDistribution(NamedTuple):
    """(positive, neutral, negative) counts with half-up 2-decimal percentages."""

    counts: tuple[int, int, int]
    percentages: tuple[float, float, float]


def distribution(labels: Iterable[str]) -> PolarityDistribution:
    """Tally polarity classes into counts and percentages."""
    counts = Counter(labels)
    unknown = set(counts) - {POSITIVE, NEUTRAL, NEGATIVE}
    if unknown:
        raise ValueError(f"unknown polarity classes: {sorted(unknown)}")
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
    if len({len(values) for values in scores.values()}) > 1:
        raise ConsistencyError("the engines scored tweet populations of different sizes")
    return {
        engine: distribution(polarity_class(score.polarity) for score in values)
        for engine, values in scores.items()
    }


def _clamp(value: float, low: float, high: float) -> float:
    return max(low, min(high, value))
