"""The electionpulse benchmark: ``electionpulse all`` on generated corpora.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed generates the workload's corpus
(see corpus.py); the program sees only that JSON-lines file and a config
that points at ``fixtures/``. For ``--seconds`` the benchmark runs
``electionpulse all`` in fresh processes, one after another, checks every
run's artifacts against the planted truth and against each other, and
times set-up (import, config validation, loaders) in fresh interpreters.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every other run is traced in-process
(see tracer.py) and the JSON object holds the per-layer metrics. Both modes
print every metric by name and unit, and each artifact's digest, above it.
Scratch files go to ``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from check import ARTIFACTS, artifact_digests, check_run
from corpus import CorpusSpec, generate
from layers import LAYERS, Trace, manifest_metrics, per_layer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORK = os.path.join(ROOT, ".bench_work")

RUN_TIMEOUT_S = 120
SETUP_PROBES_PER_RUN = 3
MIN_PLAIN_RUNS = 3

# Config keys holding paths, resolved against fixtures/ in generated configs.
PATH_KEYS = (
    ("actors", "path"),
    ("lexicons", "pattern"),
    ("lexicons", "senses"),
    ("lexicons", "negators"),
    ("lexicons", "nbc_corpus"),
    ("preprocess", "stopwords"),
    ("preprocess", "dictionary"),
)


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    config: dict[str, str] = field(default_factory=dict)  # "section.key" -> value


WORKLOADS = {
    # The fixture config unchanged (k=5, 500 sweeps, pattern engine,
    # spellcheck on): topics does most of the work. The alias first names
    # "willie", "godwin" and "osita" are out of the dictionary, so their
    # mentions cost a spelling correction each; that cost is real.
    "lda_default": Workload(CorpusSpec(tweets=300, mention_share=0.3)),
    # Misspellings from a Zipf pool (a few hot typos repeated, a tail of
    # singletons) with sweeps cut low: spelling does nearly all the work.
    "typo_zipf": Workload(
        CorpusSpec(tweets=150, mention_share=0.3, typo_occurrences=36, typo_distinct=14),
        {"topics.iterations": "20"},
    ),
    # Many mentions and multi-mentions, all hours, retweets and rejected
    # lines, swn engine, no spelling, few sweeps: actors, analytics,
    # sentiment, ingest and export dominate.
    "mentions_wide": Workload(
        CorpusSpec(
            tweets=3000,
            mention_share=0.9,
            multi_mention_share=0.4,
            retweet_share=0.15,
            reject_share=0.03,
            hour_span=(0, 24),
        ),
        {
            "sentiment.engine": "swn",
            "preprocess.spellcheck": "false",
            "topics.iterations": "5",
        },
    ),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "tweets_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    digests: dict[str, str]
    manifest: dict | None = None
    trace_path: str | None = None
    trace: Trace | None = None


def write_config(path: str, corpus: str, overrides: dict[str, str]) -> configparser.ConfigParser:
    config = configparser.ConfigParser(interpolation=None)
    config.read(os.path.join(FIXTURES, "config.ini"), encoding="utf-8")
    config["input"]["path"] = corpus
    for section, key in PATH_KEYS:
        config[section][key] = os.path.join(FIXTURES, config[section][key])
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        config[section][key] = value
    with open(path, "w", encoding="utf-8") as handle:
        config.write(handle)
    return config


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ELECTIONPULSE_SEED"}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], stderr_path: str) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, user+sys s, max RSS MB)."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def setup_probe(config_path: str) -> float:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "setup_probe.py"), config_path],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip())


def one_run(
    work: str, config_path: str, truth: dict, scope: int, k: int, traced: bool, index: int
) -> Run:
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    cli_args = ["all", "--config", config_path, "--output", out]
    trace_path = os.path.join(work, f"trace-{index}.json")
    if traced:
        argv = [sys.executable, os.path.join(BENCH, "tracer.py"), trace_path, "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "electionpulse.cli", *cli_args]
    code, wall, cpu, rss = spawn(argv, os.path.join(work, "stderr.txt"))
    try:
        problems = check_run(out, code, truth, scope, k)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    run = Run(traced, wall, cpu, rss, problems, artifact_digests(out))
    if traced:
        run.trace_path = os.path.relpath(trace_path, ROOT)
    if not problems:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
            run.manifest = json.load(handle)
        if traced:
            with open(trace_path, encoding="utf-8") as handle:
                run.trace = Trace(json.load(handle))
    return run


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return f"max {max(values):.4f} (no percentile has 10 samples beyond it)"


def medians(rows: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    return {
        name: (statistics.median(row[name][0] for row in rows), unit)
        for name, (_, unit) in rows[0].items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "electionpulse", "cli.py"), os.path.join(FIXTURES, "config.ini")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"error: not an electionpulse checkout, missing {missing}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corpus = os.path.join(work, "tweets.jsonl")
    truth = generate(workload.corpus, args.seed, FIXTURES, corpus)
    config_path = os.path.join(work, "config.ini")
    config = write_config(config_path, corpus, workload.config)
    scope = len([a for a in config["actors"]["scope"].split(",") if a.strip()])
    k = int(config["topics"]["k"])
    with open(os.path.join(work, "truth.json"), "w", encoding="utf-8") as handle:
        json.dump(truth, handle, indent=1, sort_keys=True)

    setup_probe(config_path)  # compiles bytecode; not timed
    runs: list[Run] = []
    setups: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(one_run(work, config_path, truth, scope, k, traced, len(runs)))
        if not traced:
            setups.extend(setup_probe(config_path) for _ in range(SETUP_PROBES_PER_RUN))
        plain = sum(not run.traced for run in runs)
        enough = plain >= MIN_PLAIN_RUNS and (not args.trace or plain < len(runs))
        if enough and time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    reference = next((run.digests for run in runs if not run.problems), None)
    for number, run in enumerate(runs, 1):
        if not run.problems and run.digests != reference:
            run.problems.append("artifact digests differ from the first correct run")
        for problem in run.problems:
            print(f"run {number} failed: {problem}")
    failed = sum(bool(run.problems) for run in runs)
    plain = [run for run in runs if not run.traced and not run.problems]
    traced = [run for run in runs if run.traced and not run.problems]

    print(
        f"workload {args.workload}, seed {args.seed}: {truth['lines']} input lines, "
        f"{truth['records']} tweets, {truth['retweets']} retweets, {truth['skipped']} rejected lines, "
        f"{truth['typo_occurrences']} planted typos ({truth['typo_distinct']} distinct)"
    )
    print(f"corpus settings: {json.dumps(workload.corpus.as_dict(), sort_keys=True)}")
    print(f"config overrides: {json.dumps(workload.config, sort_keys=True)}")
    print(f"failed_share {failed}/{len(runs)} runs")
    end_to_end: dict[str, tuple[float, str]] = {}
    if plain:
        walls = [run.wall_s for run in plain]
        samples = {
            "run_s": walls,
            "tweets_per_s": [truth["lines"] / wall for wall in walls],
            "cpu_s": [run.cpu_s for run in plain],
            "setup_s": setups,
            "peak_rss_mb": [run.rss_mb for run in plain],
        }
        for name, values in samples.items():
            value, unit = statistics.median(values), END_TO_END_UNITS[name]
            end_to_end[name] = (value, unit)
            print(f"{name:<14} {value:.4f} {unit:<4} median of n={len(values)}, {tail(values)}")
    if reference:
        for name in (*ARTIFACTS, "all"):
            print(f"digest {name:<15} sha256:{reference.get(name, 'missing')}")

    metrics = end_to_end
    if args.trace:
        metrics = {}
        if traced and plain:
            metrics = medians([per_layer(run.trace) for run in traced])
            metrics.update(medians([manifest_metrics(run.manifest) for run in plain]))
            overhead = statistics.median(r.wall_s for r in traced) - end_to_end["run_s"][0]
            metrics["trace.overhead_s"] = (overhead, "s")
            for name, (value, unit) in metrics.items():
                print(f"{name:<30} {value:.6g} {unit}")
            ranked = sorted(traced[-1].trace.self_by_layer().items(), key=lambda item: -item[1])
            print("self seconds by layer, last traced run: "
                  + ", ".join(f"{layer} {seconds:.3f}" for layer, seconds in ranked))
            for layer, moves in LAYERS.items():
                print(f"layer {layer:<10} should move {moves}")
            print(f"spans of the last traced run: {traced[-1].trace_path}")

    correct = failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
