"""Golden digests: the bytes of every data artifact on the bundled fixture.

The other CLI tests compare a run with a rerun, so a deterministic change
to the output would pass them. These digests pin the output itself; an
intended output change updates them and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from electionpulse.cli import main

GOLDEN = {
    "all": {
        "clouds.json": "1ee8490d3d437bc43631f2ac471721fced670cff20e0ad7a5771c4f075efb667",
        "compare.csv": "21695333f001546ece770da43f96c297ddf2227e63c74f929863c83e317ea9f3",
        "counts.json": "8625ce615035bb680f07370f28e98296be0d87f471d42009e4f0ded3fb5e0e98",
        "heatmap.json": "db5ee0e85efa4c4d9d50f0b1b7e92edaf333cbb1d73d819ea564738d02a45d78",
        "scores.csv": "9894a975272a764937dd53576fadc4acbde0fa157cf4eeb66d14f31a531a860d",
        "timeseries.csv": "a057ea6317ba83bb915d888c718b848fb4fce7c07c3fd37afd9236d1d9f64d0b",
        "topics.json": "3ee85a9cce81efdcc2c74773d06aa3718cac5cd025de34bd1b0279b9f6e935bc",
        "tweets.csv": "95033271afdf2f3af88ac7d9046a83b5de0b435b073c31509a88fb372623a575",
    },
    "train-nbc": {
        "nbc_model.json": "cf1dcbd0315534a745f7699beae2acc4a67709e8261dad3c4d9a299418587b96",
    },
}

# ``all --engine swn``: the artifacts that carry the chosen engine's scores
# differ from ``GOLDEN["all"]``; the other five are the same bytes.
SWN_ALL = {
    **GOLDEN["all"],
    "counts.json": "f943505bc92b3d48a5f843ad4d8a382729cd232c0e644e02538d6918e4313481",
    "scores.csv": "ac6ccaf6cbdc0213bdb0898d18bf37f8d1397c2ad70264afaf400a2e94148f2f",
    "timeseries.csv": "f9681ca3fa6b3961291f5cfb227f16760f48f278807ceb0114b9a5a5d347346e",
}


# Each single-artifact subcommand writes the same bytes as ``all`` does.
SINGLE = {
    "ingest": "tweets.csv",
    "sentiment": "scores.csv",
    "compare": "compare.csv",
    "counts": "counts.json",
    "cloud": "clouds.json",
    "timeseries": "timeseries.csv",
    "heatmap": "heatmap.json",
    "topics": "topics.json",
}


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out_dir.iterdir()
        if path.name != "manifest.json"
    }


@pytest.mark.parametrize("subcommand", sorted(GOLDEN))
def test_artifact_digests_match_golden(subcommand, config_factory, tmp_path) -> None:
    assert main([subcommand, "--config", config_factory()]) == 0
    assert _digests(tmp_path / "out") == GOLDEN[subcommand]


def test_swn_engine_digests_match_golden(config_factory, tmp_path) -> None:
    assert main(["all", "--config", config_factory(), "--engine", "swn"]) == 0
    assert _digests(tmp_path / "out") == SWN_ALL


@pytest.mark.parametrize("subcommand", sorted(SINGLE))
def test_single_artifact_matches_all(subcommand, config_factory, tmp_path) -> None:
    assert main([subcommand, "--config", config_factory()]) == 0
    artifact = SINGLE[subcommand]
    assert _digests(tmp_path / "out") == {artifact: GOLDEN["all"][artifact]}


def test_cloud_for_one_actor_is_its_entry_of_all(config_factory, tmp_path) -> None:
    config = config_factory()
    assert main(["all", "--config", config, "--output", str(tmp_path / "all")]) == 0
    clouds = json.loads((tmp_path / "all" / "clouds.json").read_text(encoding="utf-8"))
    assert main(["cloud", "--config", config, "--actor", "willie_obiano"]) == 0
    one = json.loads((tmp_path / "out" / "clouds.json").read_text(encoding="utf-8"))
    assert one == {"willie_obiano": clouds["willie_obiano"]}
