"""Cleaning, tokenizing and the full preprocessing pipeline."""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electionpulse import preprocess as preprocess_module
from electionpulse.ingest import LOCAL_TZ, TweetRecord, preprocess_records
from electionpulse.sentiment import load_negators
from electionpulse.spelling import SpellingDictionary, correct_spelling
from electionpulse.preprocess import (
    MIN_CORRECTION_LENGTH,
    PipelineConfig,
    ProcessedTweet,
    clean,
    load_stopwords,
    preprocess_pipeline,
    stem,
    text_tokens,
    tokenize,
)


def make_record(text: str, *, retweet: bool = False, record_id: str = "t1") -> TweetRecord:
    return TweetRecord(
        id=record_id,
        created_at=datetime(2017, 11, 18, 12, 0, 0, tzinfo=LOCAL_TZ),
        text=text,
        is_retweet=retweet,
    )


class TestClean:
    def test_strips_urls_mentions_and_hash_marks(self) -> None:
        # Punctuation survives clean; tokenize trims it later.
        assert clean("Go vote! https://t.co/abc @inec #AnambraDecides") == (
            "go vote! anambradecides"
        )

    def test_retweet_prefix_text_survives_as_words(self) -> None:
        assert clean("@user RT hello") == "rt hello"

    def test_lowercases(self) -> None:
        assert clean("OBIANO Wins") == "obiano wins"

    def test_drops_symbols_without_splitting_tokens(self) -> None:
        # A dropped symbol must not turn one token into two.
        assert clean("a=b") == "ab"
        assert clean("vote✔now") == "votenow"  # checkmark dingbat

    def test_keeps_digits_and_punctuation(self) -> None:
        assert clean("50,000 votes... really?") == "50,000 votes... really?"

    def test_collapses_whitespace(self) -> None:
        assert clean("  spaced \t out \n text ") == "spaced out text"

    @given(st.text(max_size=120))
    def test_never_increases_token_count(self, text: str) -> None:
        assert len(clean(text).split()) <= len(text.split())


class TestTokenize:
    def test_splits_on_whitespace(self) -> None:
        assert tokenize("obiano wins again") == ["obiano", "wins", "again"]

    def test_keeps_interior_apostrophe(self) -> None:
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_trims_edge_punctuation(self) -> None:
        assert tokenize("...vote!! (now)") == ["vote", "now"]

    def test_drops_punctuation_only_tokens(self) -> None:
        assert tokenize("... -- !!") == []

    def test_empty_text(self) -> None:
        assert tokenize("") == []


# The per-character rules that ``clean`` and ``tokenize`` replaced with
# memos; the fast paths must give the same output on any text.
def _oracle_clean(text: str) -> str:
    text = preprocess_module._URL_RE.sub("", text)
    text = preprocess_module._MENTION_RE.sub("", text)
    text = text.replace("#", "")
    kept = [
        ch for ch in text
        if ch.isspace() or unicodedata.category(ch)[0] in "LMNP"
    ]
    return " ".join("".join(kept).lower().split())


def _oracle_strip_edge_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def _oracle_tokenize(text: str) -> list[str]:
    return [token for token in map(_oracle_strip_edge_punctuation, text.split()) if token]


@pytest.fixture()
def fresh_memos(monkeypatch):
    """Empty character memos for one test; the module's own come back after."""
    kept = preprocess_module._KeptCodePoints()
    punct = preprocess_module._Punctuation()
    monkeypatch.setattr(preprocess_module, "_KEPT", kept)
    monkeypatch.setattr(preprocess_module, "_PUNCT", punct)
    return kept, punct


class TestCharacterMemos:
    def test_every_code_point_matches_the_per_character_rule(self, fresh_memos) -> None:
        every = "".join(map(chr, range(0x110000)))
        assert clean(every) == _oracle_clean(every)
        # Spaced out, each character is its own token: none is hidden
        # inside a URL or @mention, and each meets the edge rule.
        spaced = " ".join(every)
        cleaned = clean(spaced)
        assert cleaned == _oracle_clean(spaced)
        assert tokenize(cleaned) == _oracle_tokenize(cleaned)

    def test_memos_fill_per_character_seen(self, fresh_memos) -> None:
        kept, punct = fresh_memos
        assert tokenize(clean("Vote, now✔")) == ["vote", "now"]
        assert set(kept) == {ord(ch) for ch in "Vote, now✔"}
        # Each token's edges, plus "e", where the strip stops inside "vote,".
        assert set(punct) == {"v", ",", "e", "n", "w"}

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_text_tokens_match_the_per_character_rule(self, text: str) -> None:
        assert text_tokens(text) == _oracle_tokenize(_oracle_clean(text))

    @given(st.lists(st.text(alphabet=st.characters(), min_size=1, max_size=6), max_size=8))
    def test_tokenize_matches_the_edge_rule(self, words) -> None:
        text = " ".join(words)
        assert tokenize(text) == _oracle_tokenize(text)


class TestStem:
    def test_alphanumeric_token_passes_through(self) -> None:
        assert stem("vote2017") == "vote2017"

    def test_alphabetic_token_is_stemmed(self) -> None:
        assert stem("voting") == "vote"

    def test_apostrophe_token_passes_through(self) -> None:
        assert stem("don't") == "don't"


def parse_one(parse_lines, text: str, **fields) -> TweetRecord:
    payload = {"id_str": "1", "created_at": "Sat Nov 18 09:31:00 +0000 2017", "text": text}
    payload.update(fields)
    records, _ = parse_lines([json.dumps(payload)])
    return records[0]


@pytest.mark.parametrize("loader", [load_stopwords, load_negators])
def test_word_list_loaders(loader, tmp_path) -> None:
    path = tmp_path / "words.txt"
    path.write_text("# a comment\n\n  The \nNOT\n\t# indented comment\nthe\n", encoding="utf-8")
    assert loader(str(path)) == frozenset({"the", "not"})


# A line holding whitespace could never match a token, which whitespace ends.
@pytest.mark.parametrize("loader", [load_stopwords, load_negators])
@pytest.mark.parametrize("line,word", [("Not Really", "not really"), ("no\tway", "no\tway")])
def test_word_list_loaders_reject_a_line_of_two_words(loader, line, word, tmp_path) -> None:
    path = tmp_path / "words.txt"
    path.write_text(f"# a comment\nnever\n  {line} \n", encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        loader(str(path))
    assert str(raised.value) == f"{path} line 3: {word!r} is not one word"


class TestIsRetweet:
    # The parser sets the flag once; preprocessing excludes on it alone.
    def test_flagged_record(self, pipeline: PipelineConfig, actor_set, parse_lines) -> None:
        record = parse_one(parse_lines, "anything", retweeted_status={"id_str": "x"})
        assert record.is_retweet
        assert preprocess_records([record], pipeline, actor_set).excluded["retweet"] == 1

    def test_rt_prefix(self, pipeline: PipelineConfig, actor_set, parse_lines) -> None:
        record = parse_one(parse_lines, "RT @someone: obiano wins")
        assert record.is_retweet
        assert preprocess_records([record], pipeline, actor_set).excluded["retweet"] == 1

    def test_plain_tweet(self, pipeline: PipelineConfig, actor_set, parse_lines) -> None:
        record = parse_one(parse_lines, "obiano wins")
        assert not record.is_retweet
        assert preprocess_records([record], pipeline, actor_set).excluded["retweet"] == 0

    def test_rt_mid_text_is_not_a_retweet(self, pipeline: PipelineConfig, actor_set, parse_lines) -> None:
        record = parse_one(parse_lines, "great RT @someone")
        assert not record.is_retweet
        assert preprocess_records([record], pipeline, actor_set).excluded["retweet"] == 0


# The token steps as three passes, as they ran before one pass did them:
# filter, then correct the whole list, then filter the whole list again,
# then stem through the memo. ``correct`` is the spelling corrector to call.
def three_pass_pipeline(tokens, config: PipelineConfig, correct) -> tuple[str, ...] | None:
    stopwords = config.stopwords
    tokens = [tok for tok in tokens if tok not in stopwords]
    dictionary = config.dictionary
    if dictionary:
        tokens = [
            correct(tok, dictionary)
            if len(tok) >= MIN_CORRECTION_LENGTH and tok not in dictionary
            else tok
            for tok in tokens
        ]
        tokens = [tok for tok in tokens if tok not in stopwords]
    stems = config.stems
    stemmed = []
    for tok in tokens:
        result = stems.get(tok)
        if result is None:
            result = stems[tok] = stem(tok)
        stemmed.append(result)
    return tuple(stemmed) or None


PIPELINE_STOPWORDS = frozenset({"the", "and", "with", "about", "there"})
# "about" and "there" are dictionary words and stopwords alike, so a typo
# of either corrects to a stopword.
PIPELINE_WORDS = {
    "election": 50, "voting": 30, "ballot": 20, "about": 100, "there": 90, "crowd": 10,
}
STOPWORD_TYPOS = ("abuot", "abot", "ther", "thre", "theree")
PIPELINE_TOKENS = (
    *PIPELINE_STOPWORDS,
    *PIPELINE_WORDS,
    *STOPWORD_TYPOS,
    "electon", "votng", "balot", "crwod", "zzqqxx",  # typos of other words, and no word
    "ab", "xyz", "abo",  # too short to correct
    "élection", "naïve", "投票", "2017", "don't",  # non-ASCII, digits, apostrophe
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(PIPELINE_TOKENS), max_size=10), max_size=4),
    st.booleans(),
)
def test_one_pass_equals_the_three_pass_oracle(token_lists, with_dictionary) -> None:
    # Each side gets its own dictionary and memos; both must give the same
    # tweets, ask the corrector the same tokens in the same order and fill
    # the stem memo in the same order.
    def pipeline() -> PipelineConfig:
        words = SpellingDictionary(PIPELINE_WORDS) if with_dictionary else None
        return PipelineConfig(stopwords=PIPELINE_STOPWORDS, dictionary=words)

    def recorder(calls):
        def correct(token, dictionary):
            calls.append(token)
            return correct_spelling(token, dictionary)
        return correct

    for typo in STOPWORD_TYPOS:  # the draws do reach the second filter
        assert correct_spelling(typo, SpellingDictionary(PIPELINE_WORDS)) in PIPELINE_STOPWORDS
    one_pass, three_pass = pipeline(), pipeline()
    one_calls: list[str] = []
    three_calls: list[str] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess_module, "correct_spelling", recorder(one_calls))
        got = [preprocess_pipeline(tokens, one_pass) for tokens in token_lists]
    want = [three_pass_pipeline(tokens, three_pass, recorder(three_calls)) for tokens in token_lists]
    assert got == want
    assert one_calls == three_calls
    assert list(one_pass.stems.items()) == list(three_pass.stems.items())
    assert one_pass.dictionary.activity() == three_pass.dictionary.activity()


class TestPipeline:
    def test_reference_sentence(self, pipeline: PipelineConfig, actor_set) -> None:
        record = make_record("INEC card readers failing in Awka #AnambraDecides")
        final = ("inec", "card", "reader", "fail", "awka", "anambradecid")
        assert preprocess_pipeline(text_tokens(record.text), pipeline) == final
        assert len(text_tokens(record.text)) == 7  # "in" is there before filtering
        # The kept tweet carries the record's id and time, never its text.
        assert preprocess_records([record], pipeline, actor_set).kept == [
            ProcessedTweet("t1", record.created_at, "12-14", final, frozenset())
        ]

    def test_rejects_retweets(self, pipeline: PipelineConfig, actor_set) -> None:
        records = [
            make_record("RT @x: obiano wins", retweet=True, record_id="t1"),
            make_record("obiano wins", retweet=True, record_id="t2"),
        ]
        done = preprocess_records(records, pipeline, actor_set)
        assert done.kept == []
        assert done.excluded == {"retweet": 2, "empty_after_filtering": 0}
        # Raw per-actor counts still include the retweets.
        assert done.raw_counts["willie_obiano"] == 2
        assert sum(done.raw_counts.values()) == 2

    def test_rejects_tweets_with_nothing_left(self, pipeline: PipelineConfig) -> None:
        for text in ("https://t.co/abc", "the of and"):
            assert preprocess_pipeline(text_tokens(text), pipeline) is None

    def test_spellcheck_needs_minimum_length(self, dictionary) -> None:
        config = PipelineConfig(stopwords=frozenset(), dictionary=dictionary)
        # "electin" (7 letters, out of dictionary) is corrected; a 3-letter
        # unknown token is left alone.
        tokens = preprocess_pipeline(text_tokens("electin xqz"), config)
        assert tokens[0] == "elect"  # corrected to "election", then stemmed
        assert tokens[1] == "xqz"

    def test_spellcheck_never_touches_dictionary_words(self, dictionary) -> None:
        config = PipelineConfig(stopwords=frozenset(), dictionary=dictionary)
        tokens = preprocess_pipeline(text_tokens("election voting"), config)
        # Both words are in the dictionary, so only the stemmer changes them.
        assert tokens == (stem("election"), stem("voting"))

    def test_empty_dictionary_disables_correction(self) -> None:
        config = PipelineConfig(stopwords=frozenset())  # no dictionary: an empty one
        tokens = preprocess_pipeline(text_tokens("electin ballott"), config)
        assert tokens == (stem("electin"), stem("ballott"))
        # Correction is skipped, not run against nothing.
        assert config.dictionary.activity() == {"lookups": 0, "distinct": 0, "corrected": 0}

    def test_stopwords_are_filtered_before_correction(self) -> None:
        # A stopword is never corrected, so a correction cannot carry it
        # past the filter; a correction that lands on a stopword is dropped.
        words = SpellingDictionary({"obianos": 3})
        config = PipelineConfig(stopwords=frozenset({"obiano"}), dictionary=words)
        assert preprocess_pipeline(["obiano", "wins"], config) == (stem("wins"),)
        assert config.dictionary.activity() == {"lookups": 1, "distinct": 1, "corrected": 0}
        words = SpellingDictionary({"obiano": 3})
        config = PipelineConfig(stopwords=frozenset({"obiano"}), dictionary=words)
        assert preprocess_pipeline(["obianoo", "wins"], config) == (stem("wins"),)
        assert config.dictionary.activity() == {"lookups": 2, "distinct": 2, "corrected": 1}

    def test_given_dictionary_serves_every_lookup(self) -> None:
        words = SpellingDictionary({"election": 10})
        config = PipelineConfig(dictionary=words)
        assert config.dictionary is words
        assert preprocess_pipeline(["electin"], config) == (stem("election"),)
        assert preprocess_pipeline(["electin"], config) == (stem("election"),)
        assert words.activity() == {"lookups": 2, "distinct": 1, "corrected": 2}

    def test_stem_memo_belongs_to_one_pipeline(self) -> None:
        first = PipelineConfig()
        second = PipelineConfig()
        assert preprocess_pipeline(["voting", "voting", "awka"], first) == ("vote", "vote", "awka")
        assert first.stems == {"voting": "vote", "awka": "awka"}
        assert second.stems == {}

    def test_raw_count_is_before_filtering(self, pipeline: PipelineConfig) -> None:
        record = make_record("the result is out in awka")
        out = preprocess_pipeline(text_tokens(record.text), pipeline)
        assert out is not None
        assert len(text_tokens(record.text)) == 6
        assert len(out) < 6

    def test_no_output_token_is_a_stopword(self, kept, pipeline: PipelineConfig) -> None:
        for tweet in kept:
            for token in tweet.tokens:
                assert token not in pipeline.stopwords

    def test_reprocessing_output_is_stable(self, kept, pipeline: PipelineConfig) -> None:
        # Feeding a kept tweet's tokens back through the pipeline must
        # reproduce the same token multiset.
        for tweet in kept:
            again = preprocess_pipeline(text_tokens(" ".join(tweet.tokens)), pipeline)
            assert Counter(again) == Counter(tweet.tokens), tweet.id

    def test_corpus_keeps_expected_population(self, records, kept) -> None:
        assert len(records) == 50
        assert len(kept) == 43
        kept_ids = {tweet.id for tweet in kept}
        assert len(kept_ids) == 43
