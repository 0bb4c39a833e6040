"""Tweet text preprocessing: clean, tokenize, filter, correct, filter, stem.

The pipeline runs the steps in that fixed order so that spelling
correction sees surface words (never stems and never stopwords, so no
correction can carry a stopword past the filter) and stemming sees only
dictionary-corrected, stopword-free tokens. Only a corrected token is
filtered again, since a correction can land on a stopword and no other
token can newly be one; with an empty dictionary both steps are skipped.
A run cleans and tokenizes each record once (``text_tokens``); actor
matching and, for records that are not retweets, the token steps
(``preprocess_pipeline``, one pass over the tokens) share those tokens.
A kept tweet carries its id, time and bucket, its final tokens and the
actors its text names, never its text. Stopwords are a plain frozenset:
``clean`` lowercases every token first.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from ._util import read_word_list
from .spelling import SpellingDictionary, correct_spelling
from .stemming import porter_stem

if TYPE_CHECKING:
    from datetime import datetime

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")

# Spell-correct only out-of-dictionary tokens at least this long; shorter
# ones are mostly acronyms and short names that a corrector would mangle.
MIN_CORRECTION_LENGTH = 4


class ProcessedTweet(NamedTuple):
    """One kept tweet: its record's id and local timestamp, the timestamp's
    ``analytics.bucket_label``, the final tokens and the ids of the actors
    its text names (``actors.match_actors``)."""

    id: str
    created_at: datetime
    bucket: str
    tokens: tuple[str, ...]
    actors: frozenset[str]


def load_stopwords(path: str) -> frozenset[str]:
    """One word per line, lowercased; blank lines and '#' comments allowed."""
    return read_word_list(path)


class _KeptCodePoints(dict):
    """Code point -> itself if ``clean`` keeps the character, else None,
    for ``str.translate``. Filled lazily, so each distinct character costs
    one ``unicodedata`` lookup per process."""

    def __missing__(self, code: int) -> int | None:
        ch = chr(code)
        kept = code if ch.isspace() or unicodedata.category(ch)[0] in "LMNP" else None
        self[code] = kept
        return kept


class _Punctuation(dict):
    """Character -> whether its Unicode category is punctuation, filled lazily."""

    def __missing__(self, ch: str) -> bool:
        punct = self[ch] = unicodedata.category(ch)[0] == "P"
        return punct


_KEPT = _KeptCodePoints()
_PUNCT = _Punctuation()


def clean(text: str) -> str:
    """Strip URLs, @mentions, '#' marks and non-text symbols; lowercase.

    Letters, digits, punctuation and whitespace survive; everything else
    (emoji, dingbats, control characters) is dropped outright. Removals
    never substitute a space, so no removal can split one token in two.
    Whitespace is collapsed to single spaces.
    """
    text = _URL_RE.sub("", text)
    text = _MENTION_RE.sub("", text)
    text = text.replace("#", "")
    return " ".join(text.translate(_KEPT).lower().split())


def _strip_edge_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _PUNCT[token[start]]:
        start += 1
    while end > start and _PUNCT[token[end - 1]]:
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Split cleaned text on whitespace and trim punctuation off token edges.

    Interior punctuation (the apostrophe in "don't") is kept; tokens that
    were punctuation-only disappear.
    """
    punct = _PUNCT
    tokens = []
    for token in text.split():
        if punct[token[0]] or punct[token[-1]]:
            token = _strip_edge_punctuation(token)
            if not token:
                continue
        tokens.append(token)
    return tokens


def stem(token: str) -> str:
    """Porter stem for plain ASCII-alphabetic tokens; anything else passes through."""
    if token.isascii() and token.isalpha():
        return porter_stem(token)
    return token


def text_tokens(text: str) -> list[str]:
    """Clean then tokenize: the surface tokens that matching and the
    token steps share."""
    return tokenize(clean(text))


class PipelineConfig:
    """Knobs the preprocessing pipeline needs from the run configuration,
    plus the run's stem memo (token -> stem), so each distinct token is
    stemmed once per run. No dictionary means an empty one, and an empty
    one turns spelling correction off; the one given keeps its delete index
    and correction memo for every lookup of the run."""

    def __init__(
        self,
        stopwords: frozenset[str] = frozenset(),
        dictionary: SpellingDictionary | None = None,
    ) -> None:
        self.stopwords = stopwords
        self.dictionary = SpellingDictionary() if dictionary is None else dictionary
        self.stems: dict[str, str] = {}


def preprocess_pipeline(
    tokens: Sequence[str], config: PipelineConfig
) -> tuple[str, ...] | None:
    """Filter -> correct -> filter -> stem clean surface tokens (``text_tokens``)
    in one pass. The second filter tests a corrected token only, since no
    other can newly be a stopword; an empty dictionary skips correct and it.
    Returns None (rejected) when no token is left after filtering.
    """
    stopwords = config.stopwords
    dictionary = config.dictionary
    correcting = bool(dictionary)
    stems = config.stems
    stemmed = []
    for tok in tokens:
        if tok in stopwords:
            continue
        if correcting and len(tok) >= MIN_CORRECTION_LENGTH and tok not in dictionary:
            tok = correct_spelling(tok, dictionary)
            if tok in stopwords:
                continue
        result = stems.get(tok)
        if result is None:
            result = stems[tok] = stem(tok)
        stemmed.append(result)
    return tuple(stemmed) or None
