"""Run configuration: one INI file drives every subcommand.

All paths in the file are resolved relative to the file's own directory,
so a config travels with its fixtures. Command-line flags arrive as
"section.key" overrides of the file's keys, and the subcommand is checked
in the same pass. Validation is exhaustive: every usage error, in the
file or the overrides, is collected and reported together, not just the
first one. Actor ids are checked only when the roster itself loaded,
since a roster that failed is already reported. The random seed comes
from the ``--seed`` flag, else from ``[run] seed``. Timestamps are
read in the election's local time, ``ingest.LOCAL_TZ``; no key sets it.

Each key is read once, and the call that reads it also records its final
value in the manifest's ``config`` snapshot and in its RunConfig field
(the dictionary's only with spelling on), so a key cannot be used without
being recorded. The keys read are the known keys: a file key never read is
a usage error. A value is stripped of edge whitespace whether it comes from
a flag or the file, paths included. A key's default stands in for an
absent key only, never for an empty value.
"""

from __future__ import annotations

import configparser
import os
from typing import Any, NamedTuple

from .actors import ActorConfigError, ActorSet, load_actor_file
from .sentiment import ENGINES


class ConfigError(Exception):
    """Invalid run configuration; carries every diagnostic found."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class RunConfig(NamedTuple):
    input_path: str
    actor_set: ActorSet
    scope: list[str]
    pattern_lexicon_path: str
    sense_lexicon_path: str
    negators_path: str
    nbc_corpus_path: str | None
    stopwords_path: str
    dictionary_path: str | None  # set exactly when spelling is on
    engine: str
    lda_k: int
    lda_iterations: int
    output_dir: str
    seed: int
    snapshot: dict[str, Any]


def validate_config(
    path: str,
    overrides: dict[str, Any] | None = None,
    subcommand: str | None = None,
) -> RunConfig:
    """Load and validate a config file, applying CLI overrides first.

    ``subcommand`` is checked alongside the file. Raises ConfigError
    listing every violation; an unreadable file is a single-diagnostic
    ConfigError.
    """
    overrides = dict(overrides or {})
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config file {path!r}: {exc}"]) from exc

    base_dir = os.path.dirname(os.path.abspath(path))
    defaults = parser.defaults()
    diagnostics: list[str] = []
    fields: dict[str, Any] = {}
    snapshot: dict[str, dict[str, Any]] = {}
    read: dict[str, set[str]] = {}

    def resolve(value: str) -> str:
        return value if os.path.isabs(value) else os.path.join(base_dir, value)

    def get(section: str, key: str, fallback: str | None = None) -> str | None:
        read.setdefault(section, set()).add(key)
        value = overrides.get(f"{section}.{key}")
        raw = parser.get(section, key, fallback=fallback) if value is None else str(value)
        return raw.strip() if isinstance(raw, str) else raw

    def keep(field: str | None, section: str, key: str, value):
        """Record a key's final value in the snapshot and, if named, its RunConfig field."""
        snapshot.setdefault(section, {})[key] = value
        if field is not None:
            fields[field] = value
        return value

    def get_count(field: str, section: str, key: str, fallback: int) -> int:
        """A key whose value is an int of at least 1."""
        raw = get(section, key, str(fallback))
        try:
            value = int(raw)
        except (TypeError, ValueError):
            diagnostics.append(f"[{section}] {key} = {raw!r} is not a valid int")
            return keep(field, section, key, fallback)
        if value < 1:
            diagnostics.append(f"[{section}] {key} = {value} must be at least 1")
        return keep(field, section, key, value)

    def get_bool(section: str, key: str, fallback: bool) -> bool:
        raw = get(section, key, None)
        value = fallback
        if raw is not None:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                value = True
            elif lowered in ("0", "false", "no", "off"):
                value = False
            else:
                diagnostics.append(f"[{section}] {key} = {raw!r} is not a boolean")
        return keep(None, section, key, value)

    def require_path(field: str | None, section: str, key: str, label: str | None) -> str | None:
        """The key's resolved file path. A None label marks a file the run
        does not read, so the key may be unset or name a missing file."""
        value = get(section, key)
        resolved = resolve(value) if value else None
        if label is not None:
            if not value:
                diagnostics.append(f"[{section}] {key} is required ({label})")
            elif not os.path.isfile(resolved):
                diagnostics.append(f"[{section}] {key}: no such file: {resolved}")
        return keep(field, section, key, resolved)

    require_path("input_path", "input", "path", "JSON-lines tweet stream")

    actors_path = require_path(None, "actors", "path", "actor definitions")
    actor_set = None
    if actors_path and os.path.isfile(actors_path):
        try:
            actor_set = load_actor_file(actors_path)
        except ActorConfigError as exc:
            diagnostics.extend(f"[actors] {message}" for message in exc.diagnostics)
        except (OSError, configparser.Error, ValueError) as exc:
            diagnostics.append(f"[actors] cannot load {actors_path}: {exc}")

    scope = [item.strip() for item in get("actors", "scope", "").split(",") if item.strip()]
    for actor_id in sorted({actor_id for actor_id in scope if scope.count(actor_id) > 1}):
        diagnostics.append(f"[actors] scope id {actor_id!r} is repeated")
    if actor_set is not None:
        for actor_id in scope:
            if actor_id not in actor_set:
                diagnostics.append(f"[actors] scope id {actor_id!r} is not a configured actor")
        scope = scope or [entry.id for entry in actor_set.combined()]
    keep("scope", "actors", "scope", scope)

    require_path("pattern_lexicon_path", "lexicons", "pattern", "pattern lexicon CSV")
    require_path("sense_lexicon_path", "lexicons", "senses", "sense lexicon TSV")
    require_path("negators_path", "lexicons", "negators", "negator word list")
    nbc_label = "labelled corpus for train-nbc" if subcommand == "train-nbc" else None
    require_path("nbc_corpus_path", "lexicons", "nbc_corpus", nbc_label)

    require_path("stopwords_path", "preprocess", "stopwords", "stopword list")
    spellcheck = get_bool("preprocess", "spellcheck", True)
    dictionary = require_path(
        None, "preprocess", "dictionary", "when spellcheck is on" if spellcheck else None
    )
    fields["dictionary_path"] = dictionary if spellcheck else None

    engine = get("sentiment", "engine", "pattern").lower()
    keep("engine", "sentiment", "engine", engine)
    if engine not in ENGINES:
        diagnostics.append(f"[sentiment] engine = {engine!r} must be one of {', '.join(ENGINES)}")

    get_count("lda_k", "topics", "k", 5)
    get_count("lda_iterations", "topics", "iterations", 500)

    output_raw = get("output", "dir", "out")
    if not output_raw:
        diagnostics.append("[output] dir is empty")
    output_dir = keep("output_dir", "output", "dir", resolve(output_raw))
    # The run creates the directory and its missing parents, so the nearest
    # path that exists must be a directory.
    existing = output_dir
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        diagnostics.append(f"[output] dir: not a directory: {existing}")

    seed_raw = get("run", "seed", "0")
    try:
        seed = int(seed_raw)
    except (TypeError, ValueError):
        diagnostics.append(f"seed {seed_raw!r} is not an integer")
        seed = 0
    keep("seed", "run", "seed", seed)

    # A file key that no read above asked for is a typo or a stray. [DEFAULT]
    # keys show up in every section, so each is reported once, under [DEFAULT].
    known_anywhere = set().union(*read.values())
    unknown = [f"[DEFAULT] {key}" for key in defaults if key not in known_anywhere]
    for section in parser.sections():
        known = read.get(section, set()) | defaults.keys()
        unknown += [f"[{section}] {key}" for key in parser[section] if key not in known]
    diagnostics.extend(f"{name} is not a configuration key" for name in unknown)

    if diagnostics:
        raise ConfigError(diagnostics)
    return RunConfig(**fields, actor_set=actor_set, snapshot=snapshot)
