"""Stream parsing totality, timestamp normalization, stats, CSV export."""

from __future__ import annotations

import csv
import hashlib
import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from electionpulse._util import parse_timestamp
from electionpulse.actors import match_actors
from electionpulse.analytics import bucket_label
from electionpulse.ingest import (
    LOCAL_TZ,
    MAX_TEXT_BYTES,
    SKIP_CAUSES,
    dataset_stats,
    export_records,
    parse_tweet_stream,
    preprocess_records,
)
from electionpulse.preprocess import PipelineConfig, text_tokens


def line(**fields) -> str:
    payload = {
        "id_str": "1",
        "created_at": "Sat Nov 18 09:31:00 +0000 2017",
        "text": "obiano wins",
        "user": {"screen_name": "reporter"},
    }
    payload.update(fields)
    return json.dumps(payload)


class TestParsing:
    def test_fixture_parses_completely(self, records) -> None:
        assert len(records) == 50
        assert len({record.id for record in records}) == 50

    def test_totality_on_mixed_garbage(self, parse_lines) -> None:
        lines = [
            line(),
            "not json at all {",
            json.dumps(["a", "list"]),
            line(id_str="2"),
            json.dumps({"id_str": "3", "text": "no timestamp"}),
            line(id_str="2", text="duplicate id"),
            line(id_str="4", text=""),
            line(id_str="5", text="x" * (MAX_TEXT_BYTES + 1)),
        ]
        records, report = parse_lines(lines)
        assert report.lines_read == len(lines)
        assert report.lines_read == len(records) + report.lines_skipped
        assert [record.id for record in records] == ["1", "2"]

    def test_each_skip_cause_counted_once(self, parse_lines) -> None:
        lines = [
            line(),
            "not json at all {",
            json.dumps({"id_str": "3", "text": "no timestamp"}),
            line(text="duplicate id"),
            line(id_str="4", text="   "),
            line(id_str="5", text="x" * (MAX_TEXT_BYTES + 1)),
            line(id_str="6", created_at="2017-11-18T09:31:00"),
        ]
        records, report = parse_lines(lines)
        assert len(records) == 1
        assert report.skipped == dict.fromkeys(SKIP_CAUSES, 1)
        assert report.lines_read == len(records) + sum(report.skipped.values())
        assert report.lines_skipped == len(SKIP_CAUSES)

    @pytest.mark.parametrize(
        "raw,cause",
        [
            (json.dumps(["a", "list"]), "invalid_json"),
            (b"\xff\xfe", "invalid_json"),
            (line(text="\ud800 hi"), "invalid_json"),
            (line(id_str="\ud800"), "invalid_json"),
            # A field of the wrong JSON type is not read as its repr.
            (line(text={"obiano": "wins"}), "invalid_json"),
            (line(text=12345), "invalid_json"),
            (line(id_str=None, id=True), "invalid_json"),
            (line(created_at=1510990000), "invalid_json"),
            (line(created_at=True), "invalid_json"),
            (line(created_at={"a": 1}), "invalid_json"),
            (line(id_str=""), "missing_field"),
            (line(created_at="Sat Foo 18 09:31:00 +0000 2017"), "bad_timestamp"),
            (line(created_at="Mon Jan 01 00:30:00 +0200 0001"), "bad_timestamp"),
            # Only Twitter's layout is read; ISO-8601 is another layout.
            (line(created_at="2017-11-18T09:31:00Z"), "bad_timestamp"),
            (line(created_at="2017-11-18T09:31:00+01:00"), "bad_timestamp"),
            (line(created_at="2017-11-18T09:31:00"), "bad_timestamp"),
        ],
        ids=[
            "not_an_object", "not_utf8",
            "surrogate_text", "surrogate_id",
            "object_text", "number_text", "boolean_id",
            "number_created_at", "boolean_created_at", "object_created_at",
            "empty_id", "unknown_month", "before_year_one",
            "iso_utc", "iso_offset", "naive",
        ],
    )
    def test_skip_cause_of_edge_lines(self, raw, cause, parse_lines) -> None:
        _, report = parse_lines([raw])
        assert report.skipped == {**dict.fromkeys(SKIP_CAUSES, 0), cause: 1}

    def test_timestamps_move_into_dataset_timezone(self, parse_lines) -> None:
        records, _ = parse_lines([line()])
        stamp = records[0].created_at
        assert (stamp.hour, stamp.minute) == (10, 31)
        assert stamp.utcoffset() == timedelta(hours=1)

    def test_numeric_id_is_accepted_as_string(self, parse_lines) -> None:
        records, _ = parse_lines([json.dumps(
            {"id": 12345, "created_at": "Sat Nov 18 09:31:00 +0000 2017", "text": "hi there"}
        )])
        assert records[0].id == "12345"

    def test_full_text_preferred_over_text(self, parse_lines) -> None:
        records, _ = parse_lines(
            [line(full_text="the full version", text="truncated...")]
        )
        assert records[0].text == "the full version"

    @pytest.mark.parametrize(
        "fields,expected",
        [
            ({"id_str": "7", "id": 8}, ("7", "obiano wins", False)),
            ({"id_str": None, "id": 8}, ("8", "obiano wins", False)),
            ({"id_str": "", "id": 8}, "missing_field"),
            ({"full_text": None, "text": "short"}, ("1", "short", False)),
            ({"full_text": "", "text": "short"}, "empty_text"),
            ({"created_at": None}, "missing_field"),
            ({"retweeted_status": None}, ("1", "obiano wins", False)),
            ({"retweeted_status": {}}, ("1", "obiano wins", True)),
        ],
        ids=[
            "id_str_over_id", "null_id_str_falls_through", "empty_id_str_is_missing",
            "null_full_text_falls_through", "empty_full_text_is_taken",
            "null_created_at_is_missing", "null_retweeted_status", "empty_retweeted_status",
        ],
    )
    def test_fixed_reads(self, fields, expected, parse_lines) -> None:
        # An absent key or a JSON null falls through to the alternative;
        # any other value, the empty string included, is taken.
        records, report = parse_lines([line(**fields)])
        if isinstance(expected, str):
            assert records == []
            assert report.skipped == {**dict.fromkeys(SKIP_CAUSES, 0), expected: 1}
        else:
            assert [(record.id, record.text, record.is_retweet) for record in records] == [expected]

    def test_surrogate_author_line_is_kept(self, parse_lines) -> None:
        # No field reads the author, so a lone surrogate there rejects nothing.
        records, report = parse_lines([line(user={"screen_name": "a\udc00"})])
        assert report.lines_skipped == 0
        assert [record.id for record in records] == ["1"]

    def test_retweet_detection_from_payload_and_prefix(self, parse_lines) -> None:
        records, _ = parse_lines(
            [
                line(id_str="a", text="anything", retweeted_status={"id_str": "x"}),
                line(id_str="b", text="RT @someone: obiano wins"),
                line(id_str="c"),
                line(id_str="d", text="great RT @someone"),
            ]
        )
        assert [record.is_retweet for record in records] == [True, True, False, False]

    def test_missing_file_raises(self, tmp_path) -> None:
        with pytest.raises(OSError):
            parse_tweet_stream(str(tmp_path / "absent.jsonl"))

    def test_path_source_reports_the_digest_of_its_bytes(self, fixtures_dir) -> None:
        path = fixtures_dir / "tweets_50.jsonl"
        _, report = parse_tweet_stream(str(path))
        assert report.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_digest_covers_a_leading_byte_order_mark(self, tmp_path) -> None:
        payload = b"\xef\xbb\xbf" + (line() + "\n").encode("utf-8")
        path = tmp_path / "marked.jsonl"
        path.write_bytes(payload)
        records, report = parse_tweet_stream(str(path))
        assert (len(records), report.lines_skipped) == (1, 0)
        assert report.sha256 == hashlib.sha256(payload).hexdigest()

    def test_digest_covers_a_last_line_without_newline(self, tmp_path) -> None:
        payload = (line() + "\n" + "not json").encode("utf-8")
        path = tmp_path / "tail.jsonl"
        path.write_bytes(payload)
        records, report = parse_tweet_stream(str(path))
        assert (len(records), report.lines_skipped) == (1, 1)
        assert report.sha256 == hashlib.sha256(payload).hexdigest()


def test_every_twitter_offset_parses_to_a_fresh_timezone_or_is_skipped(parse_lines) -> None:
    lines, expected = [], []
    for sign in "+-":
        for hours in range(100):
            for minutes in range(100):
                stamp = f"Sat Nov 18 09:31:00 {sign}{hours:02d}{minutes:02d} 2017"
                delta = timedelta(hours=hours, minutes=minutes)
                try:
                    tz = timezone(-delta if sign == "-" else delta)
                except ValueError:  # not strictly within a day
                    tz = None
                    with pytest.raises(ValueError):
                        parse_timestamp(stamp)
                else:
                    parsed = parse_timestamp(stamp)
                    assert parsed == datetime(2017, 11, 18, 9, 31, tzinfo=tz)
                    assert (parsed.tzinfo, parsed.tzname()) == (tz, tz.tzname(None))
                lines.append(line(id_str=stamp, created_at=stamp))
                expected.append((stamp, tz))
    # Through the parser, with every offset already seen once.
    records, report = parse_lines(lines)
    valid = [(stamp, tz) for stamp, tz in expected if tz is not None]
    assert report.skipped == {
        **dict.fromkeys(SKIP_CAUSES, 0), "bad_timestamp": len(expected) - len(valid)
    }
    assert [(record.id, record.created_at) for record in records] == [
        (stamp, datetime(2017, 11, 18, 9, 31, tzinfo=tz).astimezone(LOCAL_TZ))
        for stamp, tz in valid
    ]
    # Aware datetimes compare by instant, so the zone is pinned on its own.
    assert all(record.created_at.utcoffset() == timedelta(hours=1) for record in records)


class TestDatasetStats:
    def test_fixture_counts(self, records, kept, raw_counts, actor_set) -> None:
        stats = dataset_stats(len(records), kept, raw_counts, actor_set)
        assert stats["total_raw"] == 50
        assert stats["total_kept"] == 43
        group = stats["per_group"]
        assert group["willie_obiano"] == {"raw": 10, "kept": 9}
        assert group["apga"] == {"raw": 12, "kept": 12}
        assert group["willie_obiano_apga"] == {"raw": 9, "kept": 9}
        assert group["tony_nwoye"] == {"raw": 6, "kept": 6}
        assert group["oseloka_obaze"] == {"raw": 5, "kept": 5}
        # 27 of 43 kept tweets mention at least one actor.
        assert stats["coverage_pct"] == 62.79

    def test_order_invariance(self, records, kept, raw_counts, actor_set) -> None:
        shuffled_kept = list(kept)
        random.Random(8).shuffle(shuffled_kept)
        stats = dataset_stats(len(records), shuffled_kept, raw_counts, actor_set)
        assert stats == dataset_stats(len(records), kept, raw_counts, actor_set)

    def test_combined_never_exceeds_components(self, records, kept, raw_counts, actor_set) -> None:
        stats = dataset_stats(len(records), kept, raw_counts, actor_set)
        for actor in actor_set:
            if actor.components is None:
                continue
            candidate, party = actor.components
            group = stats["per_group"]
            for count in ("raw", "kept"):
                assert group[actor.id][count] <= min(
                    group[candidate][count], group[party][count]
                )

    def test_empty_population(self, actor_set) -> None:
        done = preprocess_records([], PipelineConfig(), actor_set)
        stats = dataset_stats(0, done.kept, done.raw_counts, actor_set)
        assert stats["total_raw"] == 0
        assert stats["coverage_pct"] == 0.0


class TestExport:
    def test_round_trip(self, kept, actor_set, tmp_path) -> None:
        path = tmp_path / "tweets.csv"
        export_records(kept, str(path), actor_set)
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        assert header[:4] == ["id", "created_at", "bucket", "tokens"]
        assert header[4:] == [actor.id for actor in actor_set]
        assert len(body) == len(kept)
        by_id = {row[0]: row for row in body}
        for tweet in kept:
            row = by_id[tweet.id]
            assert row[1:3] == [tweet.created_at.isoformat(), bucket_label(tweet.created_at)]
            assert row[3] == " ".join(tweet.tokens)
            flags = {
                actor_id: value == "true"
                for actor_id, value in zip(header[4:], row[4:])
            }
            assert set(flags.values()) <= {True, False}

    def test_uses_crlf_line_endings(self, kept, actor_set, tmp_path) -> None:
        path = tmp_path / "tweets.csv"
        export_records(kept, str(path), actor_set)
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == len(kept) + 1

    def test_flags_are_the_actors_named_in_the_text(
        self, kept, texts, actor_set, tmp_path
    ) -> None:
        path = tmp_path / "tweets.csv"
        export_records(kept, str(path), actor_set)
        with open(path, encoding="utf-8", newline="") as handle:
            header, *body = list(csv.reader(handle))
        for tweet, row in zip(kept, body):
            named = match_actors(text_tokens(texts[tweet.id]), actor_set)
            assert {a for a, flag in zip(header[4:], row[4:]) if flag == "true"} == named
