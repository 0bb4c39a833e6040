"""Political-actor mention matching.

Actors come in three kinds: candidates, parties, and candidate+party
combinations. Candidates and parties match when one of their alias
phrases appears contiguously in the cleaned, unstemmed token stream of a
tweet (stems mangle proper names, so matching never runs on stems). A
combined actor matches exactly when both of its components match.

A run matches each raw record once, on the surface tokens it shares with
preprocessing (``ingest.preprocess_records``). Each kept tweet carries its
matched set as ``ProcessedTweet.actors``, which every kept count, export
column and analytics filter reads; the raw counts are tallied in the same
loop, retweets included.
"""

from __future__ import annotations

import configparser
from collections.abc import Iterable, Iterator, Sequence, Set as AbstractSet
from dataclasses import dataclass, field

from .preprocess import stem

KINDS = ("candidate", "party", "combined")


class ActorConfigError(ValueError):
    """Invalid actor configuration; carries every violation found."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Actor:
    id: str
    kind: str
    aliases: tuple[str, ...]
    components: tuple[str, str] | None = None


@dataclass
class ActorSet:
    """Ordered, validated collection of actors."""

    actors: list[Actor] = field(default_factory=list)

    def __post_init__(self) -> None:
        diagnostics = self.validate()
        if diagnostics:
            raise ActorConfigError(diagnostics)
        self._by_id = {actor.id: actor for actor in self.actors}
        # Alias phrases as token tuples, split once here rather than per match.
        self._phrases = tuple(
            (actor.id, tuple(tuple(alias.split()) for alias in actor.aliases))
            for actor in self.actors
            if actor.kind != "combined"
        )
        self._pairs = tuple(
            (actor.id, actor.components) for actor in self.actors if actor.kind == "combined"
        )
        self._exclusions: frozenset[str] | None = None

    def __iter__(self) -> Iterator[Actor]:
        return iter(self.actors)

    def __len__(self) -> int:
        return len(self.actors)

    def __getitem__(self, actor_id: str) -> Actor:
        return self._by_id[actor_id]

    def __contains__(self, actor_id: str) -> bool:
        return actor_id in self._by_id

    def combined(self) -> list[Actor]:
        return [actor for actor in self.actors if actor.kind == "combined"]

    def alias_words(self) -> set[str]:
        """Every word of every alias, for stopword/exclusion lists."""
        words: set[str] = set()
        for actor in self.actors:
            for alias in actor.aliases:
                words.update(alias.split())
        return words

    def exclusion_words(self) -> frozenset[str]:
        """Every alias word plus its stem, stemmed on the first call only.

        Frequency tables rank stemmed tokens, so excluding the surface
        alias alone would still let its stem through.
        """
        if self._exclusions is None:
            words = self.alias_words()
            self._exclusions = frozenset(words | {stem(word) for word in words})
        return self._exclusions

    def validate(self) -> list[str]:
        problems: list[str] = []
        ids = [actor.id for actor in self.actors]
        for actor_id in sorted({i for i in ids if ids.count(i) > 1}):
            problems.append(f"duplicate actor id {actor_id!r}")
        known = set(ids)
        seen_aliases: dict[tuple[str, str], str] = {}
        for actor in self.actors:
            if actor.kind not in KINDS:
                problems.append(f"actor {actor.id!r} has unknown kind {actor.kind!r}")
            if not actor.aliases:
                problems.append(f"actor {actor.id!r} has no aliases")
            for alias in actor.aliases:
                if alias != alias.lower():
                    problems.append(f"actor {actor.id!r} alias {alias!r} is not lowercase")
                owner = seen_aliases.get((actor.kind, alias))
                if owner is not None and owner != actor.id:
                    problems.append(
                        f"alias {alias!r} shared by {owner!r} and {actor.id!r} (both {actor.kind})"
                    )
                seen_aliases[(actor.kind, alias)] = actor.id
            if actor.kind == "combined":
                if not actor.components or len(actor.components) != 2:
                    problems.append(f"combined actor {actor.id!r} needs exactly two components")
                    continue
                candidate_id, party_id = actor.components
                for ref, want in ((candidate_id, "candidate"), (party_id, "party")):
                    if ref not in known:
                        problems.append(
                            f"combined actor {actor.id!r} references missing {want} {ref!r}"
                        )
                    else:
                        have = next(a.kind for a in self.actors if a.id == ref)
                        if have != want:
                            problems.append(
                                f"combined actor {actor.id!r} component {ref!r} is a {have}, expected {want}"
                            )
            elif actor.components:
                problems.append(f"actor {actor.id!r} of kind {actor.kind!r} cannot have components")
        return problems


def load_actor_file(path: str) -> ActorSet:
    """Read an INI actor file: one section per actor id, keys ``kind``,
    ``aliases`` (comma-separated) and, for combined actors, ``components``.

    A combined actor without an explicit alias list inherits the union of
    its components' aliases.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    raw: list[dict] = []
    for section in parser.sections():
        entry = {
            "id": section.strip(),
            "kind": parser.get(section, "kind", fallback="").strip(),
            "aliases": [
                alias.strip().lower()
                for alias in parser.get(section, "aliases", fallback="").split(",")
                if alias.strip()
            ],
            "components": [
                ref.strip()
                for ref in parser.get(section, "components", fallback="").split(",")
                if ref.strip()
            ],
        }
        raw.append(entry)
    by_id = {entry["id"]: entry for entry in raw}
    actors = []
    for entry in raw:
        aliases = list(entry["aliases"])
        components = None
        if entry["kind"] == "combined" and entry["components"]:
            components = tuple(entry["components"])
            if len(components) == 2 and not aliases:
                derived: list[str] = []
                for ref in components:
                    derived.extend(by_id.get(ref, {}).get("aliases", []))
                aliases = sorted(set(derived))
        actors.append(
            Actor(
                id=entry["id"],
                kind=entry["kind"],
                aliases=tuple(aliases),
                components=components,
            )
        )
    return ActorSet(actors)


def _contains_phrase(
    tokens: Sequence[str], present: AbstractSet[str], phrase: tuple[str, ...]
) -> bool:
    span = len(phrase)
    if span == 0 or not present.issuperset(phrase):
        return False
    if span == 1:
        return True
    first = phrase[0]
    for start in range(len(tokens) - span + 1):
        if tokens[start] == first and all(
            tokens[start + offset] == word for offset, word in enumerate(phrase)
        ):
            return True
    return False


def match_actors(tokens: Sequence[str], actors: ActorSet) -> set[str]:
    """Actor ids mentioned in a tweet, given its cleaned, unstemmed tokens
    (``preprocess.text_tokens`` of the raw text)."""
    present = set(tokens)
    matched: set[str] = set()
    for actor_id, phrases in actors._phrases:
        if any(_contains_phrase(tokens, present, phrase) for phrase in phrases):
            matched.add(actor_id)
    for actor_id, (candidate_id, party_id) in actors._pairs:
        if candidate_id in matched and party_id in matched:
            matched.add(actor_id)
    return matched


def sole_mention(
    matched: AbstractSet[str], actors: ActorSet, scope: Iterable[str]
) -> str | None:
    """The single scoped actor among a tweet's matched actor ids, or None.

    A matched combined actor in scope absorbs its own components: a tweet
    naming a candidate together with that candidate's party is a sole
    mention of the pair, not of either part. Any other combination of two
    or more scoped identities disqualifies the tweet.
    """
    scope_ids = list(scope)
    unknown = [actor_id for actor_id in scope_ids if actor_id not in actors]
    if unknown:
        raise ValueError(f"scope ids not configured: {unknown}")
    hits = set(scope_ids).intersection(matched)
    for actor_id in sorted(hits):
        actor = actors[actor_id]
        if actor.kind == "combined" and actor.components:
            hits -= set(actor.components)
    if len(hits) == 1:
        return next(iter(hits))
    return None


def group_counts(matched_sets: Iterable[AbstractSet[str]], actors: ActorSet) -> dict[str, int]:
    """Tweets mentioning each actor, given each tweet's matched actor ids;
    actors with no mentions count zero."""
    counts = {actor.id: 0 for actor in actors}
    for matched in matched_sets:
        for actor_id in matched:
            if actor_id in counts:
                counts[actor_id] += 1
    return counts
