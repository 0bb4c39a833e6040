"""Tweet stream ingestion and dataset statistics.

Reads: a JSON-lines file, one tweet object per line, UTF-8, in Twitter's
classic payload shape: ``id_str`` (else ``id``), ``created_at``,
``full_text`` (else ``text``) and ``retweeted_status``.

Preprocesses: one pass over the parsed records cleans and tokenizes each
record once, matches its actors on those tokens, tallies the raw
per-actor counts and, unless it is a retweet, runs the rest of the token
pipeline on them; each kept tweet carries its id, timestamp, bucket and
matched actor ids, not its text.
``dataset_stats`` returns the dict that ``counts.json`` holds.

Writes: a CSV export of preprocessed tweets with one boolean column per
configured actor, its bytes decided by ``_util.write_csv``.

Parsing is total: a malformed line never aborts the stream, it is
counted and skipped, and lines read always equals records plus skips.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from collections.abc import Iterable, Sequence
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

from ._util import parse_timestamp, pct, write_csv
from .actors import ActorSet, group_counts, match_actors
from .analytics import bucket_label
from .preprocess import PipelineConfig, ProcessedTweet, preprocess_pipeline, text_tokens

# 280 characters at up to 4 UTF-8 bytes each.
MAX_TEXT_BYTES = 1120

# The election's local time, West Africa Time (UTC+01:00, no daylight
# saving); every timestamp is read in it, so buckets are Anambra's hours.
LOCAL_TZ = timezone(timedelta(hours=1))


class TweetRecord(NamedTuple):
    """One raw tweet, timestamp already converted to ``LOCAL_TZ``."""

    id: str
    created_at: datetime
    text: str
    is_retweet: bool


# Why a line was skipped; each skipped line counts under exactly one cause.
SKIP_CAUSES = (
    "invalid_json",
    "missing_field",
    "duplicate_id",
    "empty_text",
    "oversized_text",
    "bad_timestamp",
)


class ParseReport(NamedTuple):
    lines_read: int
    skipped: dict[str, int]  # lines skipped per cause, every cause in SKIP_CAUSES
    sha256: str  # hex digest of the bytes parsed

    @property
    def lines_skipped(self) -> int:
        return sum(self.skipped.values())


class Preprocessed(NamedTuple):
    """The one pass's output: kept tweets in record order, tweets per actor
    over every record (retweets included), and rejections by reason."""

    kept: list[ProcessedTweet]
    raw_counts: dict[str, int]
    excluded: dict[str, int]


def _record_or_cause(raw_line: bytes, seen_ids: set[str]) -> TweetRecord | str:
    """The line's record, or the SKIP_CAUSES entry that rejects it.

    A key that is absent or JSON null falls through to its alternative
    (``id_str`` to ``id``, ``full_text`` to ``text``). The text and
    ``created_at`` must be JSON strings and the id a string or an integer,
    not a boolean; any other type is ``invalid_json``, and an empty id is
    ``missing_field``.
    """
    try:
        payload = json.loads(raw_line.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        return "invalid_json"
    if not isinstance(payload, dict):
        return "invalid_json"
    tweet_id = payload.get("id_str")
    if tweet_id is None:
        tweet_id = payload.get("id")
    text = payload.get("full_text")
    if text is None:
        text = payload.get("text")
    created_raw = payload.get("created_at")
    if tweet_id is None or created_raw is None or text is None:
        return "missing_field"
    if not isinstance(text, str) or not isinstance(created_raw, str):
        return "invalid_json"
    if type(tweet_id) not in (str, int):
        return "invalid_json"
    tweet_id = str(tweet_id)
    if not tweet_id:
        return "missing_field"
    if tweet_id in seen_ids:
        return "duplicate_id"
    text = unicodedata.normalize("NFC", text)
    if not text.strip():
        return "empty_text"
    try:
        text_bytes = len(text.encode("utf-8"))
        tweet_id.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate escape such as \ud800
        return "invalid_json"
    if text_bytes > MAX_TEXT_BYTES:
        return "oversized_text"
    try:
        created_at = parse_timestamp(created_raw).astimezone(LOCAL_TZ)
    except (ValueError, KeyError, OverflowError):  # another layout; an unknown month; before year 1
        return "bad_timestamp"
    retweeted = payload.get("retweeted_status") is not None
    return TweetRecord(
        id=tweet_id,
        created_at=created_at,
        text=text,
        is_retweet=retweeted or text.lstrip().startswith("RT @"),
    )


def parse_tweet_stream(path: str) -> tuple[list[TweetRecord], ParseReport]:
    """Parse a JSON-lines file into records plus a totality report.

    A line is skipped (never fatal) when it is not a valid JSON object
    (an id, text or ``created_at`` of the wrong JSON type counts as
    invalid, and so does one holding a lone surrogate escape, which is not
    valid Unicode and could not be written out), misses a required field (an empty id
    counts as missing), carries an id already seen, has no text left after
    unicode normalization, exceeds the text byte limit, or has an
    unparseable timestamp; the report counts each skip under its cause.
    The first line may open with a UTF-8 byte-order mark, which is
    skipped. An unreadable path still raises the underlying OSError. The
    report carries the sha256 of every byte read, the mark included.
    """
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    lines_read = 0
    skipped = dict.fromkeys(SKIP_CAUSES, 0)
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for raw_line in handle:
            lines_read += 1
            digest.update(raw_line)
            if lines_read == 1:  # the file may open with a UTF-8 byte-order mark
                raw_line = raw_line.removeprefix(b"\xef\xbb\xbf")
            record = _record_or_cause(raw_line, seen_ids)
            if isinstance(record, str):
                skipped[record] += 1
                continue
            seen_ids.add(record.id)
            records.append(record)
    return records, ParseReport(lines_read, skipped, digest.hexdigest())


def preprocess_records(
    records: Iterable[TweetRecord], pipeline: PipelineConfig, actors: ActorSet
) -> Preprocessed:
    """Clean and tokenize each record once; match and preprocess from those tokens.

    Every record's matched actors count towards ``raw_counts``. Retweets
    stop there. The rest go through ``preprocess_pipeline`` and are kept
    unless no token survives filtering; each kept tweet's bucket is worked
    out here, once. Equal matched sets share one interned frozenset, so
    ``ProcessedTweet.actors`` costs a pointer per tweet however many tweets
    name the same actors. ``excluded`` counts both rejections: ``retweet``
    and ``empty_after_filtering``.
    """
    interned: dict[frozenset[str], frozenset[str]] = {}
    raw_counts = {actor.id: 0 for actor in actors}
    kept: list[ProcessedTweet] = []
    excluded = {"retweet": 0, "empty_after_filtering": 0}
    for record in records:
        tokens = text_tokens(record.text)
        matched = frozenset(match_actors(tokens, actors))
        matched = interned.setdefault(matched, matched)
        for actor_id in matched:
            raw_counts[actor_id] += 1
        if record.is_retweet:
            excluded["retweet"] += 1
            continue
        final = preprocess_pipeline(tokens, pipeline)
        if final is None:
            excluded["empty_after_filtering"] += 1
        else:
            created_at = record.created_at
            kept.append(
                ProcessedTweet(record.id, created_at, bucket_label(created_at), final, matched)
            )
    return Preprocessed(kept, raw_counts, excluded)


def dataset_stats(
    total_raw: int,
    kept: Sequence[ProcessedTweet],
    raw_counts: dict[str, int],
    groups: ActorSet,
) -> dict:
    """``{"total_raw", "total_kept", "coverage_pct", "per_group": {actor id:
    {"raw", "kept"}}}``: per-actor mention counts plus kept-population coverage.

    ``total_raw`` is the number of parsed records and ``raw_counts`` the
    per-actor counts over them that ``preprocess_records`` tallied. Group
    rows overlap (a tweet can mention several actors), so the totals are
    population sizes, not column sums.
    """
    kept_counts = group_counts((tweet.actors for tweet in kept), groups)
    matched_kept = sum(1 for tweet in kept if tweet.actors)
    return {
        "total_raw": total_raw,
        "total_kept": len(kept),
        "coverage_pct": pct(matched_kept, len(kept)),
        "per_group": {
            actor.id: {"raw": raw_counts[actor.id], "kept": kept_counts[actor.id]}
            for actor in groups
        },
    }


def export_records(records: Sequence[ProcessedTweet], path: str, actors: ActorSet) -> None:
    """Write one CSV row per kept tweet: id, timestamp, bucket, tokens,
    then a true/false column per configured actor, read from ``tweet.actors``."""
    ids = [actor.id for actor in actors]
    rows = (
        [tweet.id, tweet.created_at.isoformat(), tweet.bucket, " ".join(tweet.tokens)]
        + ["true" if actor_id in tweet.actors else "false" for actor_id in ids]
        for tweet in records
    )
    write_csv(path, ["id", "created_at", "bucket", "tokens", *ids], rows)
