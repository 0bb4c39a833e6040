"""Run configuration: one INI file drives every subcommand.

All paths in the file are resolved relative to the file's own directory,
so a config travels with its fixtures. Command-line flags arrive as
"section.key" overrides of the file's keys; the subcommand and its own
options (`--actor`, `--group`, `train-nbc --alpha`) are checked in the
same pass. Validation is exhaustive: every usage error, in the file, the
overrides or the options, is collected and reported together, not just
the first one. Actor ids are checked only when the roster itself loaded,
since a roster that failed is already reported. Precedence for the
random seed is CLI flag, then the ELECTIONPULSE_SEED environment
variable, then the config file.

Each key is read once, and the call that reads it also records its final
value in the manifest's ``config`` snapshot and in its RunConfig field, so
a key cannot be used without being recorded.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from datetime import tzinfo
from typing import Any

from ._util import parse_timezone
from .actors import ActorConfigError, ActorSet, load_actor_file
from .ingest import DEFAULT_FIELD_MAP
from .sentiment import ENGINES

ENV_SEED = "ELECTIONPULSE_SEED"


class ConfigError(Exception):
    """Invalid run configuration; carries every diagnostic found."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass
class RunConfig:
    input_path: str
    timezone_name: str
    tz: tzinfo
    field_map: dict[str, str]
    actor_set: ActorSet
    scope: list[str]
    pattern_lexicon_path: str
    sense_lexicon_path: str
    negators_path: str
    nbc_corpus_path: str | None
    stopwords_path: str
    dictionary_path: str | None
    spellcheck: bool
    stemming: bool
    extra_stopwords_from_actors: bool
    engine: str
    subjectivity_threshold: float
    polarity_scale: float
    lda_k: int
    lda_alpha: float
    lda_beta: float
    lda_iterations: int
    top_words: int
    min_doc_len: int
    topic_labels: dict[int, str]
    heatmap_top_n: int
    output_dir: str
    seed: int
    snapshot: dict[str, Any] = field(default_factory=dict)


def validate_config(
    path: str,
    overrides: dict[str, Any] | None = None,
    subcommand: str | None = None,
    options: dict[str, Any] | None = None,
) -> RunConfig:
    """Load and validate a config file, applying CLI overrides first.

    ``subcommand`` and its ``options`` (``actor``, ``group``, ``alpha``)
    are checked alongside the file. Raises ConfigError listing every
    violation; an unreadable file is a single-diagnostic ConfigError.
    """
    overrides = dict(overrides or {})
    options = options or {}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config file {path!r}: {exc}"]) from exc

    base_dir = os.path.dirname(os.path.abspath(path))
    diagnostics: list[str] = []
    fields: dict[str, Any] = {}
    snapshot: dict[str, dict[str, Any]] = {}

    def resolve(value: str) -> str:
        return value if os.path.isabs(value) else os.path.join(base_dir, value)

    def get(section: str, key: str, fallback: str | None = None) -> str | None:
        value = overrides.get(f"{section}.{key}")
        if value is not None:
            return str(value)
        raw = parser.get(section, key, fallback=fallback)
        return raw.strip() if isinstance(raw, str) else raw

    def keep(field: str | None, section: str, key: str, value):
        """Record a key's final value in the snapshot and, if named, its RunConfig field."""
        snapshot.setdefault(section, {})[key] = value
        if field is not None:
            fields[field] = value
        return value

    def get_number(
        field: str, section: str, key: str, fallback: str, cast, constraint, description: str
    ):
        raw = get(section, key, fallback)
        try:
            value = cast(raw)
        except (TypeError, ValueError):
            diagnostics.append(f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}")
            return keep(field, section, key, cast(fallback))
        if not constraint(value):
            diagnostics.append(f"[{section}] {key} = {value} {description}")
        return keep(field, section, key, value)

    def get_bool(field: str, section: str, key: str, fallback: bool) -> bool:
        raw = get(section, key, None)
        value = fallback
        if raw is not None:
            lowered = str(raw).strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                value = True
            elif lowered in ("0", "false", "no", "off"):
                value = False
            else:
                diagnostics.append(f"[{section}] {key} = {raw!r} is not a boolean")
        return keep(field, section, key, value)

    def positive_finite(value: float) -> bool:
        return 0 < value < math.inf

    def require_path(field: str | None, section: str, key: str, label: str | None) -> str | None:
        """The key's resolved file path; a None label makes the key optional."""
        value = get(section, key)
        resolved = resolve(value) if value else None
        if not value:
            if label is not None:
                diagnostics.append(f"[{section}] {key} is required ({label})")
        elif not os.path.isfile(resolved):
            diagnostics.append(f"[{section}] {key}: no such file: {resolved}")
        return keep(field, section, key, resolved)

    require_path("input_path", "input", "path", "JSON-lines tweet stream")
    timezone_name = keep("timezone_name", "input", "timezone", get("input", "timezone", "+01:00"))
    tz = None
    try:
        tz = parse_timezone(timezone_name)
    except Exception as exc:  # bad offset syntax or unknown zone name
        diagnostics.append(f"[input] timezone = {timezone_name!r} is not recognized: {exc}")

    field_map = dict(parser.items("fields")) if parser.has_section("fields") else {}
    for key, value in overrides.items():
        if key.startswith("fields."):
            field_map[key[len("fields."):]] = str(value).strip()
    for name, dotted in keep("field_map", "input", "field_map", field_map).items():
        if name not in DEFAULT_FIELD_MAP:
            diagnostics.append(
                f"[fields] {name!r} is not a field; fields are {', '.join(DEFAULT_FIELD_MAP)}"
            )
        elif not dotted:
            diagnostics.append(f"[fields] {name} has an empty path")

    actors_path = require_path(None, "actors", "path", "actor definitions")
    actor_set = None
    if actors_path and os.path.isfile(actors_path):
        try:
            actor_set = load_actor_file(actors_path)
        except ActorConfigError as exc:
            diagnostics.extend(f"[actors] {message}" for message in exc.diagnostics)
        except (OSError, configparser.Error, ValueError) as exc:
            diagnostics.append(f"[actors] cannot load {actors_path}: {exc}")

    scope = [item.strip() for item in (get("actors", "scope", "") or "").split(",") if item.strip()]
    for actor_id in sorted({actor_id for actor_id in scope if scope.count(actor_id) > 1}):
        diagnostics.append(f"[actors] scope id {actor_id!r} is repeated")
    named = [("[actors] scope id", actor_id) for actor_id in scope]
    named += [(f"--{name}", options[name]) for name in ("actor", "group") if name in options]
    if actor_set is not None:
        for label, actor_id in named:
            if actor_id not in actor_set:
                diagnostics.append(f"{label} {actor_id!r} is not a configured actor")
    if not scope and actor_set is not None:
        scope = [actor.id for actor in actor_set.combined()]
    keep("scope", "actors", "scope", scope)

    require_path("pattern_lexicon_path", "lexicons", "pattern", "pattern lexicon CSV")
    require_path("sense_lexicon_path", "lexicons", "senses", "sense lexicon TSV")
    require_path("negators_path", "lexicons", "negators", "negator word list")
    nbc_label = "labelled corpus for train-nbc" if subcommand == "train-nbc" else None
    require_path("nbc_corpus_path", "lexicons", "nbc_corpus", nbc_label)
    alpha = options.get("alpha")
    if alpha is not None and not positive_finite(alpha):
        diagnostics.append(f"--alpha must be positive and finite, got {alpha}")

    require_path("stopwords_path", "preprocess", "stopwords", "stopword list")
    spellcheck = get_bool("spellcheck", "preprocess", "spellcheck", True)
    get_bool("stemming", "preprocess", "stem", True)
    get_bool("extra_stopwords_from_actors", "preprocess", "extra_stopwords_from_actors", False)
    require_path(
        "dictionary_path", "preprocess", "dictionary",
        "when spellcheck is on" if spellcheck else None,
    )

    engine = (get("sentiment", "engine", "pattern") or "pattern").lower()
    keep("engine", "sentiment", "engine", engine)
    if engine not in ENGINES:
        diagnostics.append(f"[sentiment] engine = {engine!r} must be one of {', '.join(ENGINES)}")
    finite = (positive_finite, "must be positive and finite")
    at_least_one = (lambda v: v >= 1, "must be at least 1")
    get_number(
        "subjectivity_threshold", "sentiment", "subjectivity_threshold", "0.5", float,
        lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]",
    )
    get_number("polarity_scale", "sentiment", "polarity_scale", "100", float, *finite)

    lda_k = get_number("lda_k", "topics", "k", "5", int, *at_least_one)
    get_number("lda_alpha", "topics", "alpha", "0.1", float, *finite)
    get_number("lda_beta", "topics", "beta", "0.01", float, *finite)
    get_number("lda_iterations", "topics", "iterations", "500", int, *at_least_one)
    get_number("top_words", "topics", "top_words", "10", int, *at_least_one)
    get_number("min_doc_len", "topics", "min_doc_len", "1", int, *at_least_one)

    topic_labels: dict[int, str] = {}
    if parser.has_section("topic_labels"):
        for key, value in parser.items("topic_labels"):
            try:
                topic_id = int(key)
            except ValueError:
                diagnostics.append(f"[topic_labels] key {key!r} is not a topic id")
                continue
            if not 0 <= topic_id < lda_k:
                diagnostics.append(
                    f"[topic_labels] topic {topic_id} does not exist (k = {lda_k})"
                )
                continue
            topic_labels[topic_id] = value.strip()
    keep(None, "topics", "labels", {str(k): v for k, v in sorted(topic_labels.items())})

    get_number("heatmap_top_n", "analytics", "top_n", "10", int, *at_least_one)

    output_dir = keep("output_dir", "output", "dir", resolve(get("output", "dir", "out") or "out"))
    if os.path.exists(output_dir) and not os.path.isdir(output_dir):
        diagnostics.append(f"[output] dir: not a directory: {output_dir}")

    seed_raw = get("run", "seed", "0")
    if "run.seed" not in overrides and os.environ.get(ENV_SEED):
        seed_raw = os.environ[ENV_SEED]
    try:
        seed = int(seed_raw)
    except (TypeError, ValueError):
        diagnostics.append(f"seed {seed_raw!r} is not an integer")
        seed = 0
    keep("seed", "run", "seed", seed)

    if diagnostics:
        raise ConfigError(diagnostics)
    return RunConfig(
        **fields, tz=tz, actor_set=actor_set, topic_labels=topic_labels, snapshot=snapshot
    )
