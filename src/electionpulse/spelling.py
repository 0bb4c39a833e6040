"""Spelling correction against a unigram frequency table.

The correction of a token is the dictionary word that minimises
``(-count, word)`` among the words reachable from the token in at most two
edits, where one edit is Norvig's: delete any character, swap two adjacent
characters, replace a position with a letter a-z, or insert a letter a-z
(https://norvig.com/spell-correct.html). A character outside a-z (a digit,
an accented letter, an apostrophe) can be deleted or moved but never
inserted or substituted. Distance-1 words get no priority over distance-2
words, so corrections are order-independent and reproducible. A token with
no such word, or already in the dictionary, is returned unchanged.

Two edits applied one after the other are not the same as optimal string
alignment: "ca" -> "abc" is two edits here (swap, then insert) but three
in OSA.

The search does not enumerate the ~100k strings two edits away. A
symmetric-delete index (https://github.com/wolfgarbe/SymSpell) maps every
string left by deleting at most two characters of a dictionary word to the
words that leave it. Any word within two edits of a token shares such a
string with the token, so the index yields a small candidate set, and each
candidate is then checked exactly, best-ranked first. The index is built
on the first out-of-dictionary lookup, and each token's result is
memoised, both in the run's ``SpellingDictionary``: ``load_dictionary``
makes it from a file, ``preprocess.PipelineConfig`` an empty one for none.
"""

from __future__ import annotations

import string
from collections.abc import Iterable, Iterator, Mapping

_LETTERS = string.ascii_lowercase


class SpellingDictionary(Mapping[str, int]):
    """Word counts, plus the delete index and memo of one run's corrections.

    The counts are copied, so the index and the memo always describe the
    words this object was made from. The counters describe the lookups
    made through ``correct``: out-of-dictionary tokens looked up, distinct
    tokens among them, and lookups that returned a different word.
    """

    def __init__(self, counts: Mapping[str, int] | None = None) -> None:
        self._counts = dict(counts or {})
        self._index: dict[str, str | tuple[str, ...]] | None = None
        self._memo: dict[str, str] = {}
        self.lookups = 0
        self.corrected = 0

    def __getitem__(self, word: str) -> int:
        return self._counts[word]

    def __contains__(self, word: object) -> bool:
        return word in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def correct(self, token: str) -> str:
        """The correction of an out-of-dictionary token, memoised."""
        self.lookups += 1
        result = self._memo.get(token)
        if result is None:
            result = self._memo[token] = self._search(token)
        self.corrected += result != token
        return result

    def activity(self) -> dict[str, int]:
        """The lookup counters, as the manifest's ``dataset.spelling``."""
        return {"lookups": self.lookups, "distinct": len(self._memo), "corrected": self.corrected}

    def _search(self, token: str) -> str:
        if self._index is None:
            self._index = _delete_index(self._counts)
        candidates: set[str] = set()
        for variant in _deletes(token):
            hit = self._index.get(variant)
            if hit is None:
                continue
            if isinstance(hit, str):
                candidates.add(hit)
            else:
                candidates.update(hit)
        if not candidates:
            return token
        near = edits1(token)
        alphabet = set(_LETTERS).union(token)
        for word in sorted(candidates, key=lambda word: (-self._counts[word], word)):
            if word in near or not near.isdisjoint(_one_edit_before(word, alphabet)):
                return word
        return token


def load_dictionary(path: str) -> SpellingDictionary:
    """Read a "word<TAB>count" table (a missing count is 1); blank lines and
    '#' comments allowed. A line that could never match a token, would
    invert the ranking or repeats a word (after lowercasing) raises
    ValueError naming the path and line, and for a repeat the first line."""
    table: dict[str, int] = {}
    lines: dict[str, int] = {}  # word -> the line that first listed it
    with open(path, encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, 1):
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            word, _, count = raw.partition("\t")
            word, count = word.strip().lower(), count.strip() or "1"
            if not word or any(ch.isspace() for ch in word):
                raise ValueError(f"{path} line {number}: {word!r} is not one word before a tab")
            if not (count.isdecimal() and int(count) >= 1):
                raise ValueError(f"{path} line {number}: count {count!r} is not an integer >= 1")
            first = lines.setdefault(word, number)
            if first != number:
                raise ValueError(f"{path} line {number}: {word!r} is already listed on line {first}")
            table[word] = int(count)
    return SpellingDictionary(table)


def edits1(word: str) -> set[str]:
    """Every string one Norvig edit away from ``word``."""
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = [left + right[1:] for left, right in splits if right]
    transposes = [left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1]
    replaces = [left + ch + right[1:] for left, right in splits if right for ch in _LETTERS]
    inserts = [left + ch + right for left, right in splits for ch in _LETTERS]
    return set(deletes + transposes + replaces + inserts)


def _one_edit_before(word: str, alphabet: set[str]) -> Iterator[str]:
    """Every string over ``alphabet`` that ``edits1`` takes to ``word``.

    A character ``edits1`` inserted or substituted is a letter a-z, so only
    those positions of ``word`` can be undone by a delete or a replace.
    """
    for i in range(len(word) + 1):
        left, right = word[:i], word[i:]
        for ch in alphabet:
            yield left + ch + right
        if right and right[0] in _LETTERS:
            yield left + right[1:]
            for ch in alphabet:
                yield left + ch + right[1:]
        if len(right) > 1:
            yield left + right[1] + right[0] + right[2:]


def _deletes(word: str) -> set[str]:
    """``word`` and every string left by deleting one or two of its characters."""
    ones = {word[:i] + word[i + 1:] for i in range(len(word))}
    twos = {left[:i] + left[i + 1:] for left in ones for i in range(len(left))}
    return {word} | ones | twos


def _delete_index(words: Iterable[str]) -> dict[str, str | tuple[str, ...]]:
    """Delete string -> the word, or tuple of words, that leave it.

    A lone word is stored as itself rather than in a tuple: most delete
    strings have one source word, and this keeps the index small.
    """
    index: dict[str, str | tuple[str, ...]] = {}
    for word in words:
        for variant in _deletes(word):
            held = index.get(variant)
            if held is None:
                index[variant] = word
            elif isinstance(held, str):
                index[variant] = (held, word)
            else:
                index[variant] = held + (word,)
    return index


def correct_spelling(token: str, dictionary: SpellingDictionary) -> str:
    """Best dictionary word within two edits of ``token``, or the token itself.

    Identity when the token is already in the dictionary or when nothing
    lies within two edits. The dictionary keeps its index and memo across
    calls.
    """
    if token in dictionary:
        return token
    return dictionary.correct(token)
