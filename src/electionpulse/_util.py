"""Shared helpers: percentage rounding, word lists, the one timestamp
layout a record may carry (Twitter's classic ``created_at``), and
``write_csv`` and ``write_json``, which decide every artifact's bytes."""

from __future__ import annotations

import csv
import json
import re
from collections.abc import Iterable, Sequence
from datetime import datetime, timedelta, timezone

# Twitter's classic created_at layout: "Sat Nov 18 09:31:00 +0000 2017".
# Parsed by hand so the result does not depend on the process locale.
_TWITTER_TS_RE = re.compile(
    r"^[A-Za-z]{3} (?P<mon>[A-Za-z]{3}) (?P<day>\d{1,2}) "
    r"(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2}) "
    r"(?P<sign>[+-])(?P<oh>\d{2})(?P<om>\d{2}) (?P<year>\d{4})$"
)
_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

# The timezone of each Twitter-format (sign, hh, mm) offset seen so far.
_OFFSETS: dict[tuple[str, str, str], timezone] = {}


def pct(count: int, total: int) -> float:
    """100*count/total rounded half-up to 2 decimals; 0.0 for an empty total.

    Exact in integers: hundredths = floor(10000 * count / total + 1/2), and
    the one division by 100 is correctly rounded, so the float is the one
    a decimal half-up quantize gives.
    """
    if total == 0:
        return 0.0
    hundredths = (count * 20000 + total) // (2 * total)
    return hundredths / 100


def float_sum(values: Iterable[float]) -> float:
    """Sum left to right, as ``sum()`` did before Python 3.12.

    From 3.12 on ``sum()`` compensates float rounding, which can move the
    last bit of a mean and so the bytes of an artifact.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def read_word_list(path: str) -> frozenset[str]:
    """One word per line, stripped and lowercased; skips blanks and '#' lines.
    A word holding whitespace raises ValueError naming the path and line."""
    words = set()
    with open(path, encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, 1):
            word = raw.strip().lower()
            if word and not word.startswith("#"):
                if any(ch.isspace() for ch in word):
                    raise ValueError(f"{path} line {number}: {word!r} is not one word")
                words.add(word)
    return frozenset(words)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``header``, then ``rows``: UTF-8, in the ``csv`` module's default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, payload) -> None:
    """``payload`` as JSON: sorted keys, a two-space indent, a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def parse_timestamp(value: str) -> datetime:
    """Parse Twitter's "Sat Nov 18 09:31:00 +0000 2017" layout into an aware datetime.

    Raises ValueError for anything else, ISO-8601 included, and KeyError
    for an unknown month.
    """
    m = _TWITTER_TS_RE.match(value.strip())
    if not m:
        raise ValueError(f"not a Twitter timestamp: {value!r}")
    mon, day, hour, minute, second, sign, oh, om, year = m.groups()
    tz = _OFFSETS.get((sign, oh, om))
    if tz is None:
        offset = timedelta(hours=int(oh), minutes=int(om))
        tz = _OFFSETS[sign, oh, om] = timezone(-offset if sign == "-" else offset)
    return datetime(
        int(year), _MONTHS[mon.title()], int(day),
        int(hour), int(minute), int(second), tzinfo=tz,
    )
