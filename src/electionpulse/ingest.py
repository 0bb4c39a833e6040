"""Tweet stream ingestion and dataset statistics.

Reads: JSON-lines files, one tweet object per line, UTF-8. Field
locations are configurable through a dot-path table with "|"-separated
alternatives (default fits Twitter's classic payload shape).

Preprocesses: one pass over the parsed records cleans and tokenizes each
record once, matches its actors on those tokens and, unless it is a
retweet, runs the rest of the token pipeline on them.

Writes: an RFC-4180 CSV export of preprocessed tweets with one boolean
column per configured actor.

Parsing is total: a malformed line never aborts the stream, it is
counted and skipped, and lines read always equals records plus skips.
"""

from __future__ import annotations

import csv
import hashlib
import json
import unicodedata
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone, tzinfo
from typing import IO, NamedTuple

from ._util import ConsistencyError, parse_timestamp, pct
from .actors import ActorSet, Mentions, group_counts, match_actors, mentions_of
from .analytics import bucket_label
from .preprocess import (
    PipelineConfig,
    ProcessedTweet,
    is_retweet,
    preprocess_pipeline,
    text_tokens,
)

# Dot paths into the line's JSON object; "|" separates alternatives tried
# in order. id, created_at and text are required for a line to count.
DEFAULT_FIELD_MAP: dict[str, str] = {
    "id": "id_str|id",
    "created_at": "created_at",
    "text": "full_text|text",
    "author": "user.screen_name",
    "retweeted": "retweeted_status",
}

# 280 characters at up to 4 UTF-8 bytes each.
MAX_TEXT_BYTES = 1120

DEFAULT_TIMEZONE = timezone(timedelta(hours=1))


@dataclass(frozen=True)
class TweetRecord:
    """One raw tweet, timestamp already normalized to the dataset timezone."""

    id: str
    created_at: datetime
    author: str
    text: str
    is_retweet: bool


@dataclass(frozen=True)
class ParseReport:
    lines_read: int
    records_produced: int
    lines_skipped: int
    sha256: str | None = None  # hex digest of the bytes parsed from a path source


class Preprocessed(NamedTuple):
    """The one pass's output: kept tweets in record order, the mention
    table of every record (retweets included), and rejections by reason."""

    kept: list[ProcessedTweet]
    mentions: dict[str, frozenset[str]]
    excluded: dict[str, int]


@dataclass(frozen=True)
class GroupCount:
    raw: int
    kept: int


@dataclass(frozen=True)
class DatasetStats:
    total_raw: int
    total_kept: int
    per_group: dict[str, GroupCount]
    coverage_pct: float


def _lookup(obj: dict, path: str):
    for alternative in path.split("|"):
        value = obj
        for key in alternative.split("."):
            if isinstance(value, dict) and key in value:
                value = value[key]
            else:
                value = None
                break
        if value is not None:
            return value
    return None


def _read_lines(path: str | bytes, digest) -> Iterable[bytes]:
    """The file's lines, fed to ``digest`` as they are read."""
    with open(path, "rb") as handle:
        for line in handle:
            digest.update(line)
            yield line


def parse_tweet_stream(
    source: str | IO[bytes] | IO[str] | Iterable[bytes | str],
    *,
    field_map: dict[str, str] | None = None,
    tz: tzinfo = DEFAULT_TIMEZONE,
) -> tuple[list[TweetRecord], ParseReport]:
    """Parse a JSON-lines stream into records plus a totality report.

    A line is skipped (never fatal) when it is not valid JSON, misses a
    required field, carries an id already seen, exceeds the text byte
    limit, or has no text left after unicode normalization. An unreadable
    source path still raises the underlying OSError. For a path source the
    report carries the sha256 of exactly the bytes that were parsed.
    """
    fields = dict(DEFAULT_FIELD_MAP)
    if field_map:
        fields.update(field_map)
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    lines_read = 0
    skipped = 0
    digest = None
    lines = source
    if isinstance(source, (str, bytes)):
        digest = hashlib.sha256()
        lines = _read_lines(source, digest)
    for raw_line in lines:
        lines_read += 1
        try:
            line = raw_line.decode("utf-8") if isinstance(raw_line, bytes) else raw_line
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("line is not a JSON object")
            tweet_id = _lookup(payload, fields["id"])
            created_raw = _lookup(payload, fields["created_at"])
            text = _lookup(payload, fields["text"])
            if tweet_id is None or created_raw is None or text is None:
                raise ValueError("missing required field")
            tweet_id = str(tweet_id)
            if not tweet_id or tweet_id in seen_ids:
                raise ValueError("empty or duplicate id")
            text = unicodedata.normalize("NFC", str(text))
            if not text.strip():
                raise ValueError("empty text")
            if len(text.encode("utf-8")) > MAX_TEXT_BYTES:
                raise ValueError("oversized text")
            created_at = parse_timestamp(str(created_raw)).astimezone(tz).replace(microsecond=0)
            author = _lookup(payload, fields["author"])
            retweeted = _lookup(payload, fields["retweeted"]) is not None
            record = TweetRecord(
                id=tweet_id,
                created_at=created_at,
                author=str(author) if author is not None else "",
                text=text,
                is_retweet=retweeted or text.lstrip().startswith("RT @"),
            )
        except (ValueError, UnicodeDecodeError, TypeError, KeyError):
            skipped += 1
            continue
        seen_ids.add(record.id)
        records.append(record)
    return records, ParseReport(
        lines_read, len(records), skipped, digest.hexdigest() if digest else None
    )


def preprocess_records(
    records: Iterable[TweetRecord], pipeline: PipelineConfig, actors: ActorSet
) -> Preprocessed:
    """Clean and tokenize each record once; match and preprocess from those tokens.

    Every record gets a mention-table entry; equal matched sets share one
    interned frozenset, so the table costs a pointer per record however
    many records name the same actors. Retweets stop there. The rest go
    through ``preprocess_pipeline`` and are kept unless no token survives
    filtering. ``excluded`` counts both rejections: ``retweet`` and
    ``empty_after_filtering``.
    """
    interned: dict[frozenset[str], frozenset[str]] = {}
    mentions: dict[str, frozenset[str]] = {}
    kept: list[ProcessedTweet] = []
    excluded = {"retweet": 0, "empty_after_filtering": 0}
    for record in records:
        tokens = text_tokens(record.text)
        matched = frozenset(match_actors(tokens, actors))
        mentions[record.id] = interned.setdefault(matched, matched)
        if is_retweet(record):
            excluded["retweet"] += 1
            continue
        tweet = preprocess_pipeline(record, tokens, pipeline)
        if tweet is None:
            excluded["empty_after_filtering"] += 1
        else:
            kept.append(tweet)
    return Preprocessed(kept, mentions, excluded)


def dataset_stats(
    records: Sequence[TweetRecord],
    kept: Sequence[ProcessedTweet],
    mentions: Mentions,
    groups: ActorSet,
) -> DatasetStats:
    """Per-actor raw/kept mention counts plus kept-population coverage.

    ``mentions`` is the mention table of exactly ``records``. Group rows
    overlap (a tweet can mention several actors), so the totals are
    population sizes, not column sums.
    """
    record_ids = {record.id for record in records}
    for tweet in kept:
        if tweet.record_id not in record_ids:
            raise ConsistencyError(f"kept tweet {tweet.record_id!r} has no raw record")
    if mentions.keys() != record_ids:
        raise ConsistencyError("the mention table does not cover exactly the raw records")
    kept_mentions = {tweet.record_id: mentions[tweet.record_id] for tweet in kept}
    raw_counts = group_counts(mentions, groups)
    kept_counts = group_counts(kept_mentions, groups)
    matched_kept = sum(1 for matched in kept_mentions.values() if matched)
    per_group = {
        actor.id: GroupCount(raw_counts[actor.id], kept_counts[actor.id])
        for actor in groups
    }
    return DatasetStats(
        total_raw=len(records),
        total_kept=len(kept),
        per_group=per_group,
        coverage_pct=pct(matched_kept, len(kept)),
    )


def export_records(
    records: Sequence[ProcessedTweet], path: str, mentions: Mentions, actors: ActorSet
) -> None:
    """Write one CSV row per kept tweet: id, timestamp, bucket, tokens,
    then a true/false column per configured actor, read from ``mentions``."""
    ids = [actor.id for actor in actors]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "created_at", "bucket", "tokens"] + ids)
        for tweet in records:
            if tweet.record is None:
                raise ValueError(f"tweet {tweet.record_id!r} lacks its source record")
            matched = mentions_of(mentions, tweet.record_id)
            writer.writerow(
                [
                    tweet.record_id,
                    tweet.record.created_at.isoformat(),
                    bucket_label(tweet.record.created_at),
                    " ".join(tweet.tokens),
                ]
                + ["true" if actor_id in matched else "false" for actor_id in ids]
            )
