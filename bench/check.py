"""Output check for one ``electionpulse all`` run against the planted truth."""

from __future__ import annotations

import csv
import hashlib
import json
import os

ARTIFACTS = (
    "tweets.csv",
    "scores.csv",
    "compare.csv",
    "counts.json",
    "clouds.json",
    "timeseries.csv",
    "heatmap.json",
    "topics.json",
)
BUCKETS = 8


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def artifact_digests(out_dir: str) -> dict[str, str]:
    """sha256 of each data artifact that exists, plus ``all`` over the set."""
    digests = {}
    combined = hashlib.sha256()
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        combined.update(name.encode() + b"\0" + data)
    digests["all"] = combined.hexdigest()
    return digests


def check_run(out_dir: str, exit_code: int, truth: dict, scope: int, k: int) -> list[str]:
    """Every way the run's outputs disagree with the truth; empty when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    if manifest.get("status") != "ok":
        return [f"manifest status {manifest.get('status')!r}: {manifest.get('error')}"]
    missing = [name for name in ARTIFACTS if not os.path.isfile(os.path.join(out_dir, name))]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]

    problems = []
    with open(os.path.join(out_dir, "counts.json"), encoding="utf-8") as handle:
        counts = json.load(handle)
    raw = {actor: group["raw"] for actor, group in counts["per_group"].items()}
    planted = truth["raw_mentions"]
    wrong = sorted(a for a in set(raw) | set(planted) if raw.get(a) != planted.get(a))
    if wrong:
        problems.append(f"per_group raw differs from planted mentions for {wrong}")
    for key, got, want in (
        ("total_raw", counts["total_raw"], truth["records"]),
        ("total_kept", counts["total_kept"], truth["kept"]),
        ("parse.skipped", counts["parse"]["skipped"], truth["skipped"]),
    ):
        if got != want:
            problems.append(f"{key} = {got}, planted {want}")

    kept = counts["total_kept"]
    tweets = len(_csv_rows(os.path.join(out_dir, "tweets.csv")))
    scores = len(_csv_rows(os.path.join(out_dir, "scores.csv")))
    if not tweets == scores == kept:
        problems.append(f"rows: tweets.csv {tweets}, scores.csv {scores}, total_kept {kept}")
    for row in _csv_rows(os.path.join(out_dir, "compare.csv")):
        if sum(int(n) for n in row[1:4]) != kept:
            problems.append(f"compare.csv {row[0]} counts sum to {row[1:4]}, not {kept}")
    series = len(_csv_rows(os.path.join(out_dir, "timeseries.csv")))
    if series != scope * BUCKETS:
        problems.append(f"timeseries.csv has {series} rows, not {scope} x {BUCKETS}")
    with open(os.path.join(out_dir, "topics.json"), encoding="utf-8") as handle:
        topics = len(json.load(handle)["topics"])
    if topics != k:
        problems.append(f"topics.json has {topics} topics, not {k}")
    return problems
