"""Spelling correction: dictionary parsing, candidate generation, selection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electionpulse.spelling import (
    SpellingDictionary,
    correct_spelling,
    edits1,
    load_dictionary,
)

# Letters a-z plus characters edits1 can never insert or substitute.
TOKEN_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789é'"


def edits2_correction(token: str, dictionary) -> str:
    """Reference: Norvig's edits1 and edits1-of-edits1 candidates, enumerated."""
    if not dictionary or token in dictionary:
        return token
    near = edits1(token)
    candidates = {word for word in near if word in dictionary}
    for variant in near:
        candidates.update(word for word in edits1(variant) if word in dictionary)
    if not candidates:
        return token
    return min(candidates, key=lambda word: (-dictionary[word], word))


@st.composite
def edited_words(draw, words: list[str]) -> str:
    """A word with one to three random edits over TOKEN_ALPHABET."""
    token = draw(st.sampled_from(words))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "swap", "replace", "insert"]))
        if kind == "insert" or not token:
            at = draw(st.integers(0, len(token)))
            token = token[:at] + draw(st.sampled_from(TOKEN_ALPHABET)) + token[at:]
        elif kind == "swap" and len(token) > 1:
            at = draw(st.integers(0, len(token) - 2))
            token = token[:at] + token[at + 1] + token[at] + token[at + 2:]
        else:
            at = draw(st.integers(0, len(token) - 1))
            middle = draw(st.sampled_from(TOKEN_ALPHABET)) if kind == "replace" else ""
            token = token[:at] + middle + token[at + 1:]
    return token


def test_load_dictionary_parses_counts_comments_and_case(tmp_path) -> None:
    path = tmp_path / "dict.txt"
    path.write_text(
        "# a comment line\n"
        "election\t500\n"
        "Voting\t20\n"
        "\n"
        "ballot\n",  # missing count defaults to 1
        encoding="utf-8",
    )
    table = load_dictionary(str(path))
    assert table == {"election": 500, "voting": 20, "ballot": 1}


@pytest.mark.parametrize(
    "line,problem",
    [
        ("election 500", "'election 500' is not one word before a tab"),  # SymSpell's format
        ("\t7", "'' is not one word before a tab"),
        ("vote\t-5", "count '-5' is not an integer >= 1"),
        ("vote\t0", "count '0' is not an integer >= 1"),
        ("vote\tx", "count 'x' is not an integer >= 1"),
        ("ballot\t9", "'ballot' is already listed on line 2"),
        ("Ballot\t9", "'ballot' is already listed on line 2"),
    ],
    ids=[
        "space_separated", "empty_word", "negative_count", "zero_count", "non_integer_count",
        "duplicate_word", "case_folded_duplicate",
    ],
)
def test_load_dictionary_rejects_a_line_that_cannot_rank(tmp_path, line, problem) -> None:
    path = tmp_path / "dict.txt"
    path.write_text(f"# word<TAB>count\nballot\t3\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        load_dictionary(str(path))
    assert str(raised.value) == f"{path} line 3: {problem}"


def test_edits1_contains_each_edit_kind() -> None:
    out = edits1("vote")
    assert "ote" in out  # delete
    assert "ovte" in out  # transpose
    assert "note" in out  # replace
    assert "votes" in out  # insert
    assert all(len(w) in (3, 4, 5) for w in out)


def test_edits1_of_empty_word_is_single_inserts() -> None:
    assert edits1("") == set("abcdefghijklmnopqrstuvwxyz")


def test_identity_when_in_dictionary() -> None:
    assert correct_spelling("vote", SpellingDictionary({"vote": 1})) == "vote"


def test_identity_when_dictionary_empty() -> None:
    assert correct_spelling("electin", SpellingDictionary()) == "electin"


def test_identity_when_nothing_within_distance_two() -> None:
    assert correct_spelling("zzqqx", SpellingDictionary({"election": 10, "vote": 5})) == "zzqqx"


def test_frequency_beats_edit_distance() -> None:
    # "hallo" is one edit from "hello", "help" is two; the more frequent
    # word wins because distance-1 candidates get no priority.
    dictionary = SpellingDictionary({"hallo": 3, "help": 100})
    assert correct_spelling("hello", dictionary) == "help"


def test_distance_one_wins_only_by_frequency() -> None:
    dictionary = SpellingDictionary({"hallo": 100, "help": 3})
    assert correct_spelling("hello", dictionary) == "hallo"


def test_tie_breaks_lexicographically() -> None:
    # Both candidates are one replacement away with equal counts.
    assert correct_spelling("aat", SpellingDictionary({"cat": 5, "bat": 5})) == "bat"


def test_corrects_fixture_typo(dictionary) -> None:
    assert correct_spelling("electin", dictionary) == "election"


@given(st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"), min_size=1, max_size=8))
def test_result_is_dictionary_word_or_identity(token: str) -> None:
    dictionary = SpellingDictionary({"vote": 5, "voter": 3, "count": 2})
    result = correct_spelling(token, dictionary)
    assert result == token or result in dictionary


@given(st.sampled_from(["vote", "voter", "count"]))
def test_dictionary_words_are_fixed_points(word: str) -> None:
    dictionary = SpellingDictionary({"vote": 5, "voter": 3, "count": 2})
    assert correct_spelling(word, dictionary) == word


def test_correction_is_deterministic(dictionary) -> None:
    results = {correct_spelling("electin", dictionary) for _ in range(5)}
    assert len(results) == 1


@pytest.mark.parametrize("word", ["ab", "abc", "abcd"])
def test_edits1_size_grows_with_length(word: str) -> None:
    # 26*(2n+1) inserts+replaces dominate; exact size varies with duplicates.
    assert len(edits1(word)) > 26 * len(word)


@pytest.fixture(scope="module")
def fixture_words(dictionary) -> list[str]:
    return sorted(dictionary)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=7))
def test_matches_edits2_on_arbitrary_tokens(dictionary, token: str) -> None:
    assert correct_spelling(token, dictionary) == edits2_correction(token, dictionary)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_edits2_near_fixture_words(dictionary, fixture_words, data) -> None:
    token = data.draw(edited_words(fixture_words))
    assert correct_spelling(token, dictionary) == edits2_correction(token, dictionary)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="abc1é'", max_size=5), st.integers(1, 4), min_size=1, max_size=8
    ),
    st.text(alphabet="abc1é'", max_size=4),
)
def test_matches_edits2_on_any_dictionary(words: dict[str, int], token: str) -> None:
    assert correct_spelling(token, SpellingDictionary(words)) == edits2_correction(token, words)


@pytest.mark.parametrize(
    ("token", "dictionary", "expected"),
    [
        # Swap then insert: two edits, though optimal string alignment needs three.
        ("ca", {"abc": 1}, "abc"),
        # A missing letter is inserted next to the digits...
        ("anambradecdes2017", {"anambradecides2017": 50}, "anambradecides2017"),
        # ...but a digit is never inserted, nor substituted for a letter.
        ("anambradecides201", {"anambradecides2017": 50}, "anambradecides201"),
        ("anambradecidesx017", {"anambradecides2017": 50}, "anambradecidesx017"),
        # Digits can be deleted and swapped like any character.
        ("anambradecides20177", {"anambradecides2017": 50}, "anambradecides2017"),
        ("anambradecides2107", {"anambradecides2017": 50}, "anambradecides2017"),
    ],
)
def test_explicit_cases_match_edits2(token: str, dictionary: dict, expected: str) -> None:
    assert edits2_correction(token, dictionary) == expected
    assert correct_spelling(token, SpellingDictionary(dictionary)) == expected


def test_fixture_digit_word_is_reached(dictionary) -> None:
    assert correct_spelling("anambradecdes2017", dictionary) == "anambradecides2017"


def test_repeat_lookup_is_memoised() -> None:
    words = SpellingDictionary({"election": 10, "vote": 5})
    assert correct_spelling("electin", words) == "election"
    assert correct_spelling("electin", words) == "election"
    assert correct_spelling("zzqqx", words) == "zzqqx"
    assert words.activity() == {"lookups": 3, "distinct": 2, "corrected": 2}


def test_in_dictionary_tokens_are_not_lookups() -> None:
    words = SpellingDictionary({"vote": 5})
    assert correct_spelling("vote", words) == "vote"
    assert words.activity() == {"lookups": 0, "distinct": 0, "corrected": 0}


def test_each_dictionary_uses_its_own_index() -> None:
    cat, cot = SpellingDictionary({"cat": 5}), SpellingDictionary({"cot": 9})
    assert correct_spelling("cxt", cat) == "cat"
    assert correct_spelling("cxt", cot) == "cot"
    assert correct_spelling("cxt", cat) == "cat"


def test_index_is_not_shared_with_the_source_mapping() -> None:
    source = {"cat": 5}
    words = SpellingDictionary(source)
    assert correct_spelling("cxt", words) == "cat"
    source["cut"] = 9  # a later change to the source does not reach the copy
    assert correct_spelling("cxd", words) == "cat"
    assert correct_spelling("cxd", SpellingDictionary(source)) == "cut"
