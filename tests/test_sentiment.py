"""Both scoring engines, the Naive Bayes classifier, and distributions."""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import defaultdict
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electionpulse._util import ConsistencyError, float_sum
from electionpulse.ingest import TweetRecord
from electionpulse.preprocess import ProcessedTweet
from electionpulse.sentiment import (
    ENGINES,
    NBCModel,
    PatternEntry,
    PolarityDistribution,
    SentimentScore,
    compare_classifiers,
    distribution,
    load_pattern_lexicon,
    load_sense_lexicon,
    nbc_train,
    pattern_score,
    polarity_class,
    score_all,
    subjectivity_class,
    swn_word_sentiment,
)

NEGATORS = frozenset({"not", "no", "never"})

PATTERN = {
    "great": PatternEntry(0.8, 0.75),
    "good": PatternEntry(0.7, 0.6),
    "bad": PatternEntry(-0.7, 0.6),
    "vote": PatternEntry(0.0, 0.1),
}


def kept_tweet(record_id: str, tokens) -> ProcessedTweet:
    """A kept tweet for the scorers, which read its tokens only."""
    record = TweetRecord(record_id, None, "", " ".join(tokens), False)
    return ProcessedTweet(record, tuple(tokens), frozenset())


def sense_line(pos_tag: str, synset: str, pos: float, neg: float, terms: str) -> str:
    return f"{pos_tag}\t{synset}\t{pos}\t{neg}\t{terms}\tgloss text"


# The swn scorer as it was before the lexicon folded each lemma's weighted
# pair at load time and one pass gave both scores: the rows read into
# per-lemma sense lists, the per-call weighting over the senses, then one
# pass per score. It shares no code with the loader; the real path must
# agree with it bit for bit. The means fold left to right themselves:
# ``sum()`` compensates float rounding from Python 3.12 on.
def oracle_senses(lines) -> dict[str, list[tuple[int, float, float]]]:
    """Each lowercased lemma's (rank, pos, neg) senses in file order, from
    the rows that keep every rule of the format."""
    senses = defaultdict(list)
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        if not line.strip() or line.lstrip().startswith("#") or len(fields) < 5:
            continue
        try:
            pos, neg = float(fields[2]), float(fields[3])
            terms = [term.rpartition("#") for term in fields[4].split()]
            ranks = [int(rank) for _, _, rank in terms]
        except ValueError:
            continue
        if (
            fields[0].strip() in ("n", "v", "a", "r")
            and all(0.0 <= score <= 1.0 for score in (pos, neg, 1.0 - pos - neg))
            and terms
            and min(ranks) >= 1
        ):
            for (lemma, _, _), rank in zip(terms, ranks):
                senses[lemma.lower()].append((rank, pos, neg))
    return senses


def oracle_word_sentiment(senses, lemma: str) -> tuple[float, float] | None:
    lemma_senses = senses.get(lemma.lower())
    if not lemma_senses:
        return None
    total_weight = 0.0
    pos = 0.0
    neg = 0.0
    for rank, pos_score, neg_score in lemma_senses:
        weight = 1.0 / rank
        total_weight += weight
        pos += pos_score * weight
        neg += neg_score * weight
    return pos / total_weight, neg / total_weight


def swn_polarity(tokens, senses) -> float:
    values = []
    for token in tokens:
        scores = oracle_word_sentiment(senses, token)
        if scores is not None:
            values.append(scores[0] - scores[1])
    if not values:
        return 0.0
    return max(-1.0, min(1.0, reduce(operator.add, values, 0.0) / len(values)))


def swn_subjectivity(tokens, senses) -> float:
    values = []
    for token in tokens:
        scores = oracle_word_sentiment(senses, token)
        if scores is not None:
            values.append(scores[0] + scores[1])
    if not values:
        return 0.0
    return max(0.0, min(1.0, reduce(operator.add, values, 0.0) / len(values)))


def swn_score(tokens, senses) -> SentimentScore:
    """The oracle's score: polarity and subjectivity, one pass each."""
    return SentimentScore(swn_polarity(tokens, senses), swn_subjectivity(tokens, senses))


RANGE_WORDS = ("fine", "awful", "mixed", "plain", "never")


class TestScoreTypes:
    def test_valid_score(self) -> None:
        score = SentimentScore(-1.0, 1.0)
        assert (score.polarity, score.subjectivity) == (-1.0, 1.0)

    # A score outside its range can only come from a lexicon value outside
    # it, and the pattern loader rejects those.
    @pytest.mark.parametrize("polarity,subjectivity", [(1.5, 0.5), (-1.01, 0.0), (0.0, -0.1), (0.0, 1.2)])
    def test_out_of_range_rejected(self, polarity: float, subjectivity: float) -> None:
        with pytest.raises(ValueError, match="outside"):
            load_pattern_lexicon([f"word,{polarity},{subjectivity}"])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(RANGE_WORDS), st.floats(-1, 1), st.floats(0, 1)),
            max_size=8,
        ),
        st.lists(
            st.tuples(
                st.sampled_from("navr"),
                st.one_of(st.floats(0, 1), st.floats()),
                st.one_of(st.floats(0, 1), st.floats()),
                st.lists(
                    st.tuples(st.sampled_from(RANGE_WORDS), st.integers(1, 5)),
                    min_size=1,
                    max_size=3,
                ),
            ),
            max_size=8,
        ),
        st.lists(st.lists(st.sampled_from(RANGE_WORDS + ("not", "zzz")), max_size=8), max_size=5),
    )
    def test_any_lexicon_scores_in_range(self, pattern_rows, sense_rows, token_lists) -> None:
        # Pattern rows may repeat a lemma (averaged); sense rows may carry NaN,
        # infinities or scores past 1, which the loader must reject.
        pattern = load_pattern_lexicon([f"{lemma},{p!r},{s!r}" for lemma, p, s in pattern_rows])
        senses = load_sense_lexicon(
            [
                sense_line(tag, f"{index:08d}", pos, neg, " ".join(f"{w}#{r}" for w, r in terms))
                for index, (tag, pos, neg, terms) in enumerate(sense_rows)
            ]
        )
        assert senses.rows_read == len(sense_rows)
        assert all(
            0.0 <= pos <= 1.0 and 0.0 <= neg <= 1.0 for pos, neg in senses.word_scores.values()
        )
        tweets = [kept_tweet(f"t{i}", tokens) for i, tokens in enumerate(token_lists)]
        for engine in ENGINES:
            scored = score_all(
                tweets,
                engine,
                pattern_lexicon=pattern,
                negators=NEGATORS,
                sense_lexicon=senses,
            )
            assert len(scored.scores) == len(tweets)
            assert all(
                -1.0 <= s.polarity <= 1.0 and 0.0 <= s.subjectivity <= 1.0 for s in scored.scores
            )

    # The sense-lexicon loader holds the row invariants and rejects, whole,
    # a row that breaks one: Pos 0.9 and Neg 0.3 leave Obj at -0.2.
    def test_sense_entry_sum_invariant(self) -> None:
        lexicon = load_sense_lexicon([sense_line("a", "00000001", 0.9, 0.3, "word#1")])
        assert (lexicon.rows_read, lexicon.rows_rejected) == (1, 1)
        assert lexicon.word_scores == {}

    def test_sense_entry_tag_and_rank(self) -> None:
        for line in (
            sense_line("x", "00000001", 0.5, 0.0, "word#1"),
            sense_line("a", "00000001", 0.5, 0.0, "word#0"),
            sense_line("a", "00000001", 0.5, 0.0, "word#1 other#0"),  # rejected whole
        ):
            lexicon = load_sense_lexicon([line])
            assert (lexicon.rows_read, lexicon.rows_rejected) == (1, 1)
            assert swn_word_sentiment(lexicon, "word") is None


class TestSenseLexicon:
    def test_fixture_loads_cleanly(self, sense_lexicon) -> None:
        assert sense_lexicon.rows_read == 50
        assert sense_lexicon.rows_rejected == 0
        assert len(sense_lexicon.word_scores) == 47  # 52 senses: multi-term rows fan out

    def test_estimable_rows_are_exact(self, sense_lexicon) -> None:
        # Rank 1 (0.75, 0.0) and rank 3 (0.0, 0.0), weights 1 and 1/3.
        assert swn_word_sentiment(sense_lexicon, "estimable") == (0.5625, 0.0)

    def test_bad_rows_are_counted_not_fatal(self) -> None:
        lines = [
            "# comment",
            sense_line("a", "00000001", 0.5, 0.25, "fine#1"),
            sense_line("a", "00000002", 0.9, 0.3, "broken#1"),  # sums past 1
            "a\t00000003\tnot_a_number\t0\tbad#1\tgloss",
            "too\tfew",
            sense_line("x", "00000005", 0.5, 0.0, "tagged#1"),  # no such pos tag
            sense_line("a", "00000006", 0.5, 0.0, "ranked#0"),  # rank below 1
            sense_line("v", "00000004", 0.0, 0.0, "plain#2"),
        ]
        lexicon = load_sense_lexicon(lines)
        assert lexicon.rows_read == 7
        assert lexicon.rows_rejected == 5
        for lemma in ("broken", "bad", "tagged", "ranked"):
            assert swn_word_sentiment(lexicon, lemma) is None
        assert lexicon.word_scores == {"fine": (0.5, 0.25), "plain": (0.0, 0.0)}

    def test_multi_term_row_fans_out(self) -> None:
        lexicon = load_sense_lexicon([
            sense_line("a", "00000001", 0.5, 0.0, "happy#1 glad#2"),
            sense_line("a", "00000002", 0.0, 0.5, "glad#1"),
        ])
        assert swn_word_sentiment(lexicon, "happy") == (0.5, 0.0)
        # glad#2 weighs 1/2 and glad#1 weighs 1.
        assert swn_word_sentiment(lexicon, "glad") == (0.25 / 1.5, 0.5 / 1.5)

    def test_lookup_is_case_insensitive(self) -> None:
        lexicon = load_sense_lexicon([sense_line("a", "00000001", 0.5, 0.0, "Happy#1")])
        assert lexicon.word_scores == {"happy": (0.5, 0.0)}
        assert swn_word_sentiment(lexicon, "HAPPY") == (0.5, 0.0)


SWN_LEMMAS = ("fine", "awful", "mixed", "good", "plain")


class TestSwnScoring:
    def test_single_sense_is_identity(self) -> None:
        lexicon = load_sense_lexicon([sense_line("a", "00000001", 0.75, 0.0, "fine#1")])
        assert swn_word_sentiment(lexicon, "fine") == (0.75, 0.0)

    def test_rank_weighted_average(self) -> None:
        lexicon = load_sense_lexicon([
            sense_line("a", "00000001", 0.5, 0.0, "mixed#1"),
            sense_line("a", "00000002", 0.0, 0.5, "mixed#2"),
        ])
        pos, neg = swn_word_sentiment(lexicon, "mixed")
        # weights 1 and 1/2: pos = 0.5/1.5, neg = 0.25/1.5
        assert pos == pytest.approx(1 / 3, abs=1e-12)
        assert neg == pytest.approx(1 / 6, abs=1e-12)

    def test_unknown_word_is_none(self, sense_lexicon) -> None:
        assert swn_word_sentiment(sense_lexicon, "zzqqx") is None

    def test_fixture_good_aggregate(self, sense_lexicon) -> None:
        pos, neg = swn_word_sentiment(sense_lexicon, "good")
        assert pos == pytest.approx(2 / 3, abs=1e-12)
        assert neg == pytest.approx(1 / 24, abs=1e-12)

    def test_polarity_means_over_matched_tokens(self) -> None:
        lexicon = load_sense_lexicon([
            sense_line("a", "00000001", 0.8, 0.0, "fine#1"),
            sense_line("a", "00000002", 0.0, 0.6, "awful#1"),
        ])
        token_lists = (["fine"], ["fine", "awful"], ["fine", "zzz"])
        tweets = [kept_tweet(f"t{i}", tokens) for i, tokens in enumerate(token_lists)]
        scored = score_all(tweets, "swn", sense_lexicon=lexicon)
        polarity = [score.polarity for score in scored.scores]
        assert polarity == pytest.approx([0.8, (0.8 - 0.6) / 2, 0.8])

    def test_no_match_scores_zero(self, sense_lexicon) -> None:
        scored = score_all([kept_tweet("a", ["zzqqx"])], "swn", sense_lexicon=sense_lexicon)
        assert scored.scores == [SentimentScore(0.0, 0.0)]

    def test_subjectivity_is_one_minus_mean_objectivity(self) -> None:
        lexicon = load_sense_lexicon([
            sense_line("a", "00000001", 0.6, 0.2, "loaded#1"),  # obj 0.2
            sense_line("a", "00000002", 0.0, 0.0, "plain#1"),   # obj 1.0
        ])
        scored = score_all(
            [kept_tweet("a", ["loaded"]), kept_tweet("b", ["loaded", "plain"])],
            "swn",
            sense_lexicon=lexicon,
        )
        assert [score.subjectivity for score in scored.scores] == pytest.approx([0.8, 0.4])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("navr"),
                st.integers(0, 1000),
                st.integers(0, 1000),
                st.lists(
                    st.tuples(st.sampled_from(SWN_LEMMAS), st.integers(0, 12)),
                    min_size=1,
                    max_size=3,
                ),
            ),
            max_size=12,
        ),
        st.lists(st.sampled_from(SWN_LEMMAS + ("zzz", "FINE")), max_size=10),
    )
    def test_one_pass_equals_the_two_pass_oracle(self, rows, tokens) -> None:
        lines = []
        for index, (tag, pos_milli, neg_milli, terms) in enumerate(rows):
            # Thousandths with pos + neg <= 1; a row that float rounding still
            # rejects, or with a rank-0 term, is absent from the real path and
            # the oracle alike.
            pos, neg = pos_milli / 1000, min(neg_milli, 1000 - pos_milli) / 1000
            joined = " ".join(f"{lemma}#{rank}" for lemma, rank in terms)
            lines.append(sense_line(tag, f"{index:08d}", pos, neg, joined))
        lexicon = load_sense_lexicon(lines)
        senses = oracle_senses(lines)
        for lemma in SWN_LEMMAS + ("zzz", "FINE"):
            assert swn_word_sentiment(lexicon, lemma) == oracle_word_sentiment(senses, lemma)
        assert lexicon.word_scores.keys() == senses.keys()
        tweet = kept_tweet("t1", tokens)
        scored = score_all([tweet], "swn", sense_lexicon=lexicon)
        assert scored.scores == [swn_score(tokens, senses)]

    def test_fixture_scores_equal_the_oracle(self, kept, sense_lexicon, fixtures_dir) -> None:
        with open(fixtures_dir / "sense_lexicon.tsv", encoding="utf-8") as handle:
            senses = oracle_senses(handle)
        assert sum(map(len, senses.values())) == 52
        assert sense_lexicon.word_scores == {
            lemma: oracle_word_sentiment(senses, lemma) for lemma in senses
        }
        scored = score_all(kept, "swn", sense_lexicon=sense_lexicon)
        assert [s.polarity for s in scored.scores] == [
            swn_polarity(t.tokens, senses) for t in kept
        ]
        assert [s.subjectivity for s in scored.scores] == [
            swn_subjectivity(t.tokens, senses) for t in kept
        ]


class TestPatternLexicon:
    def test_fixture_header_and_size(self, pattern_lexicon) -> None:
        assert len(pattern_lexicon) == 80
        assert "lemma" not in pattern_lexicon
        entry = pattern_lexicon["great"]
        assert entry.polarity > 0

    def test_duplicate_lemmas_average(self) -> None:
        lexicon = load_pattern_lexicon(io.StringIO("fine,0.4,0.6\nfine,0.8,0.2\n"))
        assert lexicon["fine"].polarity == pytest.approx(0.6)
        assert lexicon["fine"].subjectivity == pytest.approx(0.4)

    def test_out_of_range_row_raises(self) -> None:
        with pytest.raises(ValueError):
            load_pattern_lexicon(io.StringIO("fine,1.4,0.6\n"))

    def test_non_numeric_row_raises(self) -> None:
        with pytest.raises(ValueError):
            load_pattern_lexicon(io.StringIO("fine,huge,0.6\n"))


class TestPatternScoring:
    def test_single_match(self) -> None:
        score = pattern_score(["great"], PATTERN, NEGATORS)
        assert (score.polarity, score.subjectivity) == (0.8, 0.75)

    def test_mean_over_matches(self) -> None:
        score = pattern_score(["good", "bad"], PATTERN, NEGATORS)
        assert score.polarity == pytest.approx(0.0)
        assert score.subjectivity == pytest.approx(0.6)

    def test_no_match_is_zero_zero(self) -> None:
        score = pattern_score(["the", "crowd"], PATTERN, NEGATORS)
        assert (score.polarity, score.subjectivity) == (0.0, 0.0)

    def test_empty_tokens(self) -> None:
        assert pattern_score([], PATTERN, NEGATORS) == SentimentScore(0.0, 0.0)

    def test_negation_flips_and_halves(self) -> None:
        score = pattern_score(["not", "great"], PATTERN, NEGATORS)
        assert score.polarity == pytest.approx(-0.4)
        assert score.subjectivity == pytest.approx(0.75)

    def test_negation_window_is_two_tokens(self) -> None:
        near = pattern_score(["not", "so", "great"], PATTERN, NEGATORS)
        assert near.polarity == pytest.approx(-0.4)
        far = pattern_score(["not", "so", "very", "great"], PATTERN, NEGATORS)
        assert far.polarity == pytest.approx(0.8)

    def test_negation_never_touches_subjectivity(self, pattern_lexicon, negators) -> None:
        for lemma, entry in pattern_lexicon.items():
            negated = pattern_score(["not", lemma], pattern_lexicon, negators)
            assert negated.subjectivity == pytest.approx(entry.subjectivity)

    def test_negation_property_over_fixture_lexicon(self, pattern_lexicon, negators) -> None:
        for lemma, entry in pattern_lexicon.items():
            plain = pattern_score([lemma], pattern_lexicon, negators)
            negated = pattern_score(["no", lemma], pattern_lexicon, negators)
            assert plain.polarity == pytest.approx(entry.polarity)
            assert negated.polarity == pytest.approx(-entry.polarity / 2)

    def test_without_negators_order_never_matters(self) -> None:
        tokens = ["good", "bad", "vote", "crowd"]
        base = pattern_score(tokens, PATTERN)
        for permuted in permutations(tokens):
            score = pattern_score(list(permuted), PATTERN)
            # equal up to float summation order
            assert score.polarity == pytest.approx(base.polarity, abs=1e-12)
            assert score.subjectivity == pytest.approx(base.subjectivity, abs=1e-12)

    def test_negator_itself_can_be_scored(self) -> None:
        # A lexicon word that is also a negator still gets its own score.
        lexicon = dict(PATTERN)
        lexicon["never"] = PatternEntry(-0.2, 0.5)
        score = pattern_score(["never", "great"], lexicon, NEGATORS)
        assert score.polarity == pytest.approx((-0.2 + -0.4) / 2)

    @given(st.lists(st.sampled_from(["good", "bad", "vote", "great", "xx"]), max_size=8))
    def test_scores_stay_in_range(self, tokens: list[str]) -> None:
        score = pattern_score(tokens, PATTERN, NEGATORS)
        assert -1.0 <= score.polarity <= 1.0
        assert 0.0 <= score.subjectivity <= 1.0


class TestClasses:
    def test_polarity_classes(self) -> None:
        assert polarity_class(0.3) == "positive"
        assert polarity_class(0.0) == "neutral"
        assert polarity_class(-0.0001) == "negative"
        assert polarity_class(1e-9) == "positive"
        assert polarity_class(-1e-9) == "negative"

    def test_polarity_range_check(self) -> None:
        with pytest.raises(ValueError):
            polarity_class(1.2)

    def test_subjectivity_classes(self) -> None:
        assert subjectivity_class(0.9) == "subjective"
        assert subjectivity_class(0.5) == "objective"  # threshold not exceeded
        assert subjectivity_class(0.0) == "objective"
        assert subjectivity_class(0.5, threshold=0.4) == "subjective"

    def test_subjectivity_range_checks(self) -> None:
        with pytest.raises(ValueError):
            subjectivity_class(1.2)
        with pytest.raises(ValueError):
            subjectivity_class(0.5, threshold=-0.1)


class TestScoreAll:
    def test_alignment_and_ranges(self, kept, pattern_lexicon, negators, sense_lexicon) -> None:
        for engine in ("pattern", "swn"):
            scored = score_all(
                kept,
                engine,
                pattern_lexicon=pattern_lexicon,
                negators=negators,
                sense_lexicon=sense_lexicon,
            )
            polarity = [score.polarity for score in scored.scores]
            subjectivity = [score.subjectivity for score in scored.scores]
            assert len(polarity) == len(subjectivity) == len(kept)
            assert all(-1.0 <= value <= 1.0 for value in polarity)
            assert all(0.0 <= value <= 1.0 for value in subjectivity)

    def test_empty_population(self, pattern_lexicon) -> None:
        scored = score_all([], "pattern", pattern_lexicon=pattern_lexicon)
        assert scored.scores == []
        assert scored.coverage() == {"tweets_hit": 0, "token_hit_rate": 0.0}

    def test_coverage_counts_lexicon_hits(self) -> None:
        tweets = [
            kept_tweet("a", ("great", "crowd", "not", "bad")),
            kept_tweet("b", ("queue", "crowd")),
        ]
        scored = score_all(tweets, "pattern", pattern_lexicon=PATTERN, negators=NEGATORS)
        # Negators are not lexicon hits; "great" and "bad" are.
        assert (scored.tweets_hit, scored.tokens_hit, scored.tokens) == (1, 2, 6)
        assert scored.coverage() == {"tweets_hit": 1, "token_hit_rate": round(2 / 6, 6)}

    def test_unknown_engine(self, kept, pattern_lexicon) -> None:
        with pytest.raises(ValueError):
            score_all(kept, "vader", pattern_lexicon=pattern_lexicon)

    def test_missing_lexicon(self, kept) -> None:
        with pytest.raises(ValueError):
            score_all(kept, "pattern")
        with pytest.raises(ValueError):
            score_all(kept, "swn")


def load_micro(path) -> list[tuple[list[str], str]]:
    docs = []
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0] == "label":
                continue
            docs.append((row[1].split(), row[0]))
    return docs


def brute_force_classify(model: NBCModel, tokens: list[str]) -> tuple[str, float]:
    """Direct probability products, no logs; ties to the smallest label."""
    raw = {}
    for label in model.labels:
        probability = model.class_priors[label]
        for token in tokens:
            if token in model.vocabulary:
                probability *= model.word_likelihoods[label][token]
        raw[label] = probability
    total = sum(raw.values())
    best = max(model.labels, key=lambda label: (raw[label], ))
    # max() keeps the first (lexicographically smallest) label on ties
    return best, raw[best] / total


def nbc_classify(model: NBCModel, tokens: list[str]) -> tuple[str, float]:
    """Argmax label under log prior plus log likelihoods, with its
    normalized posterior: the classifier a trained model is for, checked
    against ``brute_force_classify``.

    Out-of-vocabulary tokens are skipped; an empty or fully unknown token
    list reduces to the prior. Exact score ties go to the
    lexicographically smallest label.
    """
    labels = model.labels
    log_scores = []
    for label in labels:
        score = math.log(model.class_priors[label])
        table = model.word_likelihoods[label]
        for token in tokens:
            if token in model.vocabulary:
                score += math.log(table[token])
        log_scores.append(score)
    peak = max(log_scores)
    weights = [math.exp(score - peak) for score in log_scores]
    total = sum(weights)
    best_index = log_scores.index(peak)
    return labels[best_index], weights[best_index] / total


class TestNaiveBayes:
    def test_two_doc_corpus_numbers(self, fixtures_dir) -> None:
        model = nbc_train(load_micro(fixtures_dir / "nbc_micro_1.csv"))
        assert model.class_priors == {"pos": 0.5, "neg": 0.5}
        # (1 + 1) / (2 + 1 * 4): one "good" in pos, two pos tokens, V = 4
        assert model.word_likelihoods["pos"]["good"] == pytest.approx(1 / 3, abs=1e-12)
        assert model.word_likelihoods["pos"]["bad"] == pytest.approx(1 / 6, abs=1e-12)

    def test_prior_from_doc_counts(self, fixtures_dir) -> None:
        model = nbc_train(load_micro(fixtures_dir / "nbc_micro_2.csv"))
        assert model.class_priors["pos"] == pytest.approx(0.75)

    def test_likelihoods_sum_to_one_per_label(self, fixtures_dir) -> None:
        for name in ("nbc_micro_1.csv", "nbc_micro_2.csv", "nbc_micro_3.csv"):
            model = nbc_train(load_micro(fixtures_dir / name))
            for label in model.labels:
                assert sum(model.word_likelihoods[label].values()) == pytest.approx(1.0, abs=1e-9)

    def test_training_validation(self) -> None:
        with pytest.raises(ValueError):
            nbc_train([])
        with pytest.raises(ValueError):
            nbc_train([(["a"], "pos"), (["b"], "pos")])
        with pytest.raises(ValueError):
            nbc_train([(["a"], "pos"), (["b"], "neg")], alpha=0.0)

    def test_classify_matches_brute_force(self, fixtures_dir) -> None:
        queries = [
            [],
            ["zzz"],
            ["good"],
            ["bad", "loss"],
            ["good", "win", "win"],
            ["good", "bad"],
            ["vote", "count"],
            ["great", "fail", "vote"],
        ]
        for name in ("nbc_micro_1.csv", "nbc_micro_2.csv", "nbc_micro_3.csv"):
            model = nbc_train(load_micro(fixtures_dir / name))
            for tokens in queries:
                label, posterior = nbc_classify(model, tokens)
                expect_label, expect_posterior = brute_force_classify(model, tokens)
                assert label == expect_label, (name, tokens)
                assert posterior == pytest.approx(expect_posterior, abs=1e-9)

    def test_empty_and_oov_reduce_to_prior(self, fixtures_dir) -> None:
        model = nbc_train(load_micro(fixtures_dir / "nbc_micro_2.csv"))
        assert nbc_classify(model, [])[0] == "pos"
        assert nbc_classify(model, [])[1] == pytest.approx(0.75)
        assert nbc_classify(model, ["zzz", "qqq"]) == nbc_classify(model, [])

    def test_exact_tie_goes_to_smallest_label(self) -> None:
        model = nbc_train([(["same"], "b_label"), (["same"], "a_label")])
        label, posterior = nbc_classify(model, ["same"])
        assert label == "a_label"
        assert posterior == pytest.approx(0.5)


class TestDistribution:
    def test_published_row_shape(self) -> None:
        labels = ["positive"] * 2447 + ["neutral"] * 3971 + ["negative"] * 1012
        dist = distribution(labels)
        assert dist.counts == (2447, 3971, 1012)
        assert dist.percentages == (32.93, 53.45, 13.62)
        assert sum(dist.counts) == 7430

    def test_second_row_shape(self) -> None:
        labels = ["positive"] * 2916 + ["neutral"] * 3085 + ["negative"] * 1429
        dist = distribution(labels)
        assert dist.percentages == (39.25, 41.52, 19.23)

    def test_half_up_rounding(self) -> None:
        # 1/8 = 12.5%, which must round up, not to even.
        dist = distribution(["positive"] + ["neutral"] * 7)
        assert dist.percentages[0] == 12.5
        dist = distribution(["positive"] * 5 + ["neutral"] * 3995)
        assert dist.percentages[0] == 0.13  # 0.125 rounds half-up

    def test_empty_is_all_zero(self) -> None:
        dist = distribution([])
        assert dist.counts == (0, 0, 0)
        assert dist.percentages == (0.0, 0.0, 0.0)

    def test_unknown_label_raises(self) -> None:
        with pytest.raises(ValueError):
            distribution(["positive", "meh"])

    @given(st.tuples(st.integers(0, 10000), st.integers(0, 10000), st.integers(0, 10000)))
    def test_percentages_sum_near_100(self, counts: tuple[int, int, int]) -> None:
        positive, neutral, negative = counts
        if positive + neutral + negative == 0:
            return
        labels = ["positive"] * positive + ["neutral"] * neutral + ["negative"] * negative
        dist = distribution(labels)
        assert sum(dist.percentages) == pytest.approx(100.0, abs=0.03)


def scores_of(kept, pattern_lexicon, negators, sense_lexicon) -> dict[str, list[SentimentScore]]:
    return {
        engine: score_all(
            kept,
            engine,
            pattern_lexicon=pattern_lexicon,
            negators=negators,
            sense_lexicon=sense_lexicon,
        ).scores
        for engine in ENGINES
    }


class TestCompare:
    def test_both_engines_cover_everyone(self, kept, pattern_lexicon, negators, sense_lexicon) -> None:
        table = compare_classifiers(scores_of(kept, pattern_lexicon, negators, sense_lexicon))
        assert set(table) == {"pattern", "swn"}
        assert sum(table["pattern"].counts) == len(kept)
        assert sum(table["swn"].counts) == len(kept)

    def test_fixture_pattern_distribution(self, kept, pattern_lexicon, negators, sense_lexicon) -> None:
        table = compare_classifiers(scores_of(kept, pattern_lexicon, negators, sense_lexicon))
        assert table["pattern"].counts == (26, 7, 10)

    def test_populations_must_match(self) -> None:
        with pytest.raises(ConsistencyError):
            compare_classifiers(
                {
                    "pattern": [SentimentScore(0.5, 0.0), SentimentScore(0.0, 0.0)],
                    "swn": [SentimentScore(0.5, 0.0)],
                }
            )


def test_float_sum_rounds_left_to_right_on_every_python() -> None:
    # A compensated sum (``sum()`` from Python 3.12 on) gives exactly 1.0.
    assert float_sum([0.1] * 10) == 0.9999999999999999
    assert float_sum([]) == 0.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
def test_float_sum_is_a_left_fold(values) -> None:
    assert float_sum(values) == reduce(operator.add, values, 0.0)
