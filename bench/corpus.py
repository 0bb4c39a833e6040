"""Seeded synthetic tweet corpora built from the fixture vocabulary.

The generator knows nothing of electionpulse's code: it reads the fixture
word lists and actor roster as plain files and records the truth it planted
(lines, rejected lines, retweets, raw mentions per actor) so the benchmark
can check the program's counts against an independent source.

Every tweet is unique. Filler words are dictionary words that are neither
stopwords nor alias words, so no filler word can create an actor mention
and every non-retweet keeps its content words after filtering.
"""

from __future__ import annotations

import configparser
import json
import random
import string
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone

LOCAL = timezone(timedelta(hours=1))
ELECTION_DAY = datetime(2017, 11, 18, tzinfo=LOCAL)
CONTENT_WORDS = (5, 9)  # per tweet; filtering removes none, so no kept tweet is empty


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs of one generated corpus; shares are fractions of the N tweets."""

    tweets: int
    mention_share: float = 0.5  # tweets naming at least one actor
    multi_mention_share: float = 0.2  # of those, tweets naming two or more
    retweet_share: float = 0.0
    reject_share: float = 0.0  # extra malformed or duplicate lines, per tweet
    hour_span: tuple[int, int] = (6, 24)  # local hours the timestamps cover
    typo_occurrences: int = 0  # out-of-dictionary tokens planted in all
    typo_distinct: int = 0  # distinct typos among them (the Zipf pool)

    def as_dict(self) -> dict:
        return {**asdict(self), "typo_repeat_share": self.typo_repeat_share}

    @property
    def typo_repeat_share(self) -> float:
        if not self.typo_occurrences:
            return 0.0
        return round(1 - self.typo_distinct / self.typo_occurrences, 4)


@dataclass(frozen=True)
class Vocabulary:
    dictionary: frozenset[str]
    content: tuple[str, ...]  # filler: in dictionary, not stopword, not alias word
    function: tuple[str, ...]  # stopwords that are in the dictionary
    alias_words: frozenset[str]
    base_actors: dict[str, tuple[str, ...]]  # candidate/party id -> aliases
    combined: dict[str, tuple[str, str]]  # combined id -> (candidate, party)


def _word_list(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [
            line.strip().lower()
            for line in handle
            if line.strip() and not line.startswith("#")
        ]


def load_vocabulary(fixtures: str) -> Vocabulary:
    dictionary = frozenset(
        line.partition("\t")[0] for line in _word_list(f"{fixtures}/dictionary.txt")
    )
    stopwords = set(_word_list(f"{fixtures}/stopwords.txt"))
    roster = configparser.ConfigParser(interpolation=None)
    roster.read(f"{fixtures}/actors.ini", encoding="utf-8")
    base_actors: dict[str, tuple[str, ...]] = {}
    combined: dict[str, tuple[str, str]] = {}
    for actor_id in roster.sections():
        kind = roster.get(actor_id, "kind").strip()
        if kind == "combined":
            parts = [p.strip() for p in roster.get(actor_id, "components").split(",")]
            combined[actor_id] = (parts[0], parts[1])
        else:
            aliases = roster.get(actor_id, "aliases").split(",")
            base_actors[actor_id] = tuple(a.strip().lower() for a in aliases if a.strip())
    alias_words = {w for aliases in base_actors.values() for a in aliases for w in a.split()}
    content = sorted(
        w for w in dictionary
        if w.isalpha() and w not in stopwords and w not in alias_words and len(w) >= 3
    )
    function = sorted(w for w in dictionary if w in stopwords and w != "rt")
    return Vocabulary(
        dictionary, tuple(content), tuple(function), frozenset(alias_words), base_actors, combined
    )


def _typo_pool(rng: random.Random, vocab: Vocabulary, distinct: int) -> list[str]:
    """Distinct out-of-dictionary tokens, one substitution from a content word.

    A substitution keeps the base word's length, and the length of the typo
    at each Zipf rank is fixed, so the correction cost a seed draws depends
    on which words it picks, not on how long they are.
    """
    lengths = (6, 7, 5, 8, 6, 7)
    by_length: dict[int, list[str]] = {}
    for word in vocab.content:
        by_length.setdefault(len(word), []).append(word)
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < distinct:
        base = rng.choice(by_length[lengths[len(pool) % len(lengths)]])
        at = rng.randrange(1, len(base))
        typo = base[:at] + rng.choice(string.ascii_lowercase) + base[at + 1:]
        if typo in vocab.dictionary or typo in vocab.alias_words or typo in seen:
            continue
        seen.add(typo)
        pool.append(typo)
    return pool


def _typo_counts(occurrences: int, distinct: int) -> list[int]:
    """Occurrences per pool rank: every typo once, the rest Zipf over the head."""
    counts = [1] * distinct
    head = max(1, distinct // 4)
    weights = [1 / rank for rank in range(1, head + 1)]
    extra = occurrences - distinct
    shares = [extra * w / sum(weights) for w in weights]
    for rank, share in enumerate(shares):
        counts[rank] += int(share)
    for rank in range(extra - sum(int(s) for s in shares)):
        counts[rank % head] += 1
    return counts


def _mention_plan(rng: random.Random, spec: CorpusSpec, actor_ids: list[str]) -> dict[int, list[str]]:
    """The actors each tweet names.

    How many tweets name actors, and how many name several, is fixed by the
    spec rather than drawn; actors are dealt from shuffled rounds, so every
    actor is named equally often (within one) whatever the seed.
    """
    mentioning = rng.sample(range(spec.tweets), round(spec.tweets * spec.mention_share))
    multi = round(len(mentioning) * spec.multi_mention_share)
    deck: list[str] = []
    plan = {}
    for n, index in enumerate(mentioning):
        size = 2 + n % 2 if n < multi else 1
        while len(set(deck)) < size:
            deck += rng.sample(actor_ids, len(actor_ids))
        group: list[str] = []
        for actor_id in deck:
            if actor_id not in group:
                group.append(actor_id)
                if len(group) == size:
                    break
        for actor_id in group:
            deck.remove(actor_id)
        plan[index] = group
    return plan


def _mention(rng: random.Random, alias: str) -> str:
    words = alias.split()
    style = rng.randrange(4)
    if style == 0 and len(words) == 1:
        return "#" + words[0].title()
    if style == 1:
        return alias.upper()
    if style == 2:
        return alias
    return " ".join(w.title() for w in words)


def generate(spec: CorpusSpec, seed: int, fixtures: str, path: str) -> dict:
    """Write the corpus to ``path`` as JSON lines; return the planted truth."""
    if spec.typo_occurrences < spec.typo_distinct:
        raise ValueError("typo_occurrences must be at least typo_distinct")
    rng = random.Random(seed)
    vocab = load_vocabulary(fixtures)
    actor_ids = sorted(vocab.base_actors)

    retweets = set(rng.sample(range(spec.tweets), round(spec.tweets * spec.retweet_share)))
    originals = [i for i in range(spec.tweets) if i not in retweets]
    typo_slots: dict[int, list[str]] = {}
    if spec.typo_occurrences:
        pool = _typo_pool(rng, vocab, spec.typo_distinct)
        counts = _typo_counts(spec.typo_occurrences, spec.typo_distinct)
        for typo, count in zip(pool, counts):
            for _ in range(count):
                typo_slots.setdefault(rng.choice(originals), []).append(typo)

    plan = _mention_plan(rng, spec, actor_ids)
    alias_turn = {actor_id: 0 for actor_id in actor_ids}
    raw_mentions = {actor_id: 0 for actor_id in [*actor_ids, *sorted(vocab.combined)]}
    texts: set[str] = set()
    lines: list[str] = []
    span_seconds = (spec.hour_span[1] - spec.hour_span[0]) * 3600
    for index in range(spec.tweets):
        named = plan.get(index, [])
        aliases = []
        for actor_id in named:
            choices = vocab.base_actors[actor_id]
            aliases.append(choices[alias_turn[actor_id] % len(choices)])
            alias_turn[actor_id] += 1
        while True:
            words = rng.sample(vocab.content, rng.randint(*CONTENT_WORDS))
            words += rng.sample(vocab.function, rng.randint(0, 3))
            words += typo_slots.get(index, [])
            rng.shuffle(words)
            for alias in aliases:
                words.insert(rng.randrange(len(words) + 1), _mention(rng, alias))
            if rng.random() < 0.3:
                words.append(f"https://t.co/{rng.getrandbits(32):08x}")
            if rng.random() < 0.2:
                words.insert(0, f"@user{rng.randrange(1000)}")
            text = " ".join(words)
            if index in retweets:
                text = f"RT @user{rng.randrange(1000)}: {text}"
            if text not in texts:
                break
        texts.add(text)
        for actor_id in named:
            raw_mentions[actor_id] += 1
        for combined_id, (candidate, party) in vocab.combined.items():
            if candidate in named and party in named:
                raw_mentions[combined_id] += 1
        local = ELECTION_DAY + timedelta(hours=spec.hour_span[0], seconds=rng.randrange(span_seconds))
        payload = {
            "created_at": local.astimezone(timezone.utc).strftime("%a %b %d %H:%M:%S +0000 %Y"),
            "id_str": str(931850000000000000 + index),
            "text": text,
            "user": {"id_str": str(10000 + index), "screen_name": f"user{index}"},
            "lang": "en",
        }
        lines.append(json.dumps(payload))

    rejected = round(spec.tweets * spec.reject_share)
    tweet_lines = list(lines)
    for n in range(rejected):
        kind = n % 5
        victim = json.loads(rng.choice(tweet_lines))
        if kind == 0:  # duplicate id
            bad = json.dumps(victim)
        elif kind == 1:  # truncated JSON
            bad = json.dumps(victim)[: rng.randrange(5, 40)]
        elif kind == 2:  # required field missing
            victim["id_str"] = f"9{n}"
            del victim["text"]
            bad = json.dumps(victim)
        elif kind == 3:  # unparseable timestamp
            victim["id_str"] = f"8{n}"
            victim["created_at"] = "yesterday"
            bad = json.dumps(victim)
        else:  # whitespace-only text
            victim["id_str"] = f"7{n}"
            victim["text"] = "   "
            bad = json.dumps(victim)
        lines.insert(rng.randrange(1, len(lines) + 1), bad)

    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return {
        "lines": len(lines),
        "records": spec.tweets,
        "skipped": rejected,
        "retweets": len(retweets),
        "kept": spec.tweets - len(retweets),
        "raw_mentions": raw_mentions,
        "typo_occurrences": spec.typo_occurrences,
        "typo_distinct": spec.typo_distinct,
    }
