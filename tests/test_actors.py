"""Actor configuration, phrase matching, and sole-mention attribution."""

from __future__ import annotations

from datetime import datetime, timezone
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electionpulse.actors import (
    Actor,
    ActorConfigError,
    ActorSet,
    group_counts,
    load_actor_file,
    match_actors,
    sole_mention,
)
from electionpulse.ingest import TweetRecord, preprocess_records
from electionpulse.preprocess import PipelineConfig, clean, text_tokens, tokenize


def small_set() -> ActorSet:
    return ActorSet(
        [
            Actor("willie_obiano", "candidate", ("obiano", "willie obiano")),
            Actor("tony_nwoye", "candidate", ("nwoye",)),
            Actor("apga", "party", ("apga",)),
            Actor("pdp", "party", ("pdp",)),
            Actor(
                "willie_obiano_apga",
                "combined",
                ("obiano", "willie obiano", "apga"),
                components=("willie_obiano", "apga"),
            ),
        ]
    )


class TestLoading:
    def test_fixture_file(self, actor_set) -> None:
        assert len(actor_set) == 15
        kinds = {actor.kind for actor in actor_set}
        assert kinds == {"candidate", "party", "combined"}
        assert len(actor_set.combined()) == 5

    def test_combined_inherits_component_aliases(self, actor_set) -> None:
        combined = actor_set["willie_obiano_apga"]
        candidate = set(actor_set["willie_obiano"].aliases)
        party = set(actor_set["apga"].aliases)
        assert set(combined.aliases) == candidate | party

    def test_alias_words_split_multiword_aliases(self, actor_set) -> None:
        words = actor_set.alias_words()
        assert "obiano" in words
        assert "willie" in words
        assert "willie obiano" not in words


class TestValidation:
    def test_duplicate_id(self) -> None:
        with pytest.raises(ActorConfigError) as err:
            ActorSet([
                Actor("x", "candidate", ("a",)),
                Actor("x", "candidate", ("b",)),
            ])
        assert any("duplicate" in d for d in err.value.diagnostics)

    def test_unknown_kind_and_empty_aliases_both_reported(self) -> None:
        with pytest.raises(ActorConfigError) as err:
            ActorSet([Actor("x", "senator", ())])
        text = err.value.diagnostics
        assert any("kind" in d for d in text)
        assert any("aliases" in d for d in text)
        assert len(text) == 2

    def test_uppercase_alias(self) -> None:
        with pytest.raises(ActorConfigError) as err:
            ActorSet([Actor("x", "candidate", ("Obiano",))])
        assert any("lowercase" in d for d in err.value.diagnostics)

    def test_alias_shared_within_kind(self) -> None:
        with pytest.raises(ActorConfigError) as err:
            ActorSet([
                Actor("x", "candidate", ("ngige",)),
                Actor("y", "candidate", ("ngige",)),
            ])
        assert any("shared" in d for d in err.value.diagnostics)

    def test_alias_shared_across_kinds_is_fine(self) -> None:
        ActorSet([
            Actor("x", "candidate", ("green",)),
            Actor("y", "party", ("green",)),
        ])

    def test_combined_missing_component_names_the_actor(self) -> None:
        with pytest.raises(ActorConfigError) as err:
            ActorSet([
                Actor("willie_obiano", "candidate", ("obiano",)),
                Actor(
                    "willie_obiano_apga",
                    "combined",
                    ("obiano",),
                    components=("willie_obiano", "apga"),
                ),
            ])
        assert any(
            "willie_obiano_apga" in d and "apga" in d for d in err.value.diagnostics
        )

    def test_combined_component_of_wrong_kind(self) -> None:
        with pytest.raises(ActorConfigError) as err:
            ActorSet([
                Actor("a", "candidate", ("a",)),
                Actor("b", "candidate", ("b",)),
                Actor("ab", "combined", ("a", "b"), components=("a", "b")),
            ])
        assert any("expected party" in d for d in err.value.diagnostics)

    def test_combined_needs_two_components(self) -> None:
        with pytest.raises(ActorConfigError):
            ActorSet([Actor("ab", "combined", ("a",), components=None)])

    def test_plain_actor_cannot_have_components(self) -> None:
        with pytest.raises(ActorConfigError):
            ActorSet([
                Actor("a", "candidate", ("a",)),
                Actor("b", "party", ("b",)),
                Actor("c", "candidate", ("c",), components=("a", "b")),
            ])

    def test_loader_reports_all_violations_at_once(self, tmp_path) -> None:
        # The loader lowercases aliases itself, so "Two" is not a third
        # violation; both remaining problems surface in one error.
        path = tmp_path / "actors.ini"
        path.write_text(
            "[one]\nkind = candidate\naliases =\n"
            "[two]\nkind = senator\naliases = Two\n",
            encoding="utf-8",
        )
        with pytest.raises(ActorConfigError) as err:
            load_actor_file(str(path))
        assert any("aliases" in d for d in err.value.diagnostics)
        assert any("kind" in d for d in err.value.diagnostics)
        assert len(err.value.diagnostics) == 2


class TestMatching:
    def test_single_alias(self) -> None:
        assert match_actors(text_tokens("obiano wins big"), small_set()) == {"willie_obiano"}

    def test_no_alias(self) -> None:
        assert match_actors(text_tokens("turnout is heavy in awka"), small_set()) == set()

    def test_combined_requires_both_components(self) -> None:
        actors = small_set()
        assert match_actors(text_tokens("obiano takes the lead"), actors) == {"willie_obiano"}
        assert match_actors(text_tokens("apga takes the lead"), actors) == {"apga"}
        assert match_actors(text_tokens("obiano and apga take the lead"), actors) == {
            "willie_obiano",
            "apga",
            "willie_obiano_apga",
        }

    def test_multiword_alias_must_be_contiguous(self) -> None:
        actors = ActorSet([Actor("x", "candidate", ("card reader",))])
        assert match_actors(text_tokens("the card reader failed"), actors) == {"x"}
        assert match_actors(text_tokens("the card slow reader failed"), actors) == set()
        assert match_actors(text_tokens("reader card failed"), actors) == set()

    def test_matching_is_case_insensitive_on_raw_text(self) -> None:
        assert "willie_obiano" in match_actors(text_tokens("OBIANO WINS"), small_set())

    def test_matching_ignores_stems(self) -> None:
        # "obianos" is not the alias "obiano"; whole-token match only.
        assert match_actors(text_tokens("obianos people cheer"), small_set()) == set()

    def test_matches_in_retweet_text(self) -> None:
        assert "willie_obiano" in match_actors(text_tokens("RT @x: obiano wins"), small_set())

    def test_fixture_group_counts(self, raw_counts) -> None:
        counts = raw_counts
        assert counts["willie_obiano"] == 10
        assert counts["apga"] == 12
        assert counts["willie_obiano_apga"] == 9
        assert counts["tony_nwoye"] == 6
        assert counts["apc"] == 6
        assert counts["oseloka_obaze"] == 5
        assert counts["pdp"] == 5
        assert counts["godwin_ezeemo"] == 2
        assert counts["ppa"] == 2
        assert counts["osita_chidoka"] == 2
        assert counts["upp"] == 3

    def test_adding_an_alias_never_shrinks_a_group(self, records) -> None:
        base = ActorSet([Actor("x", "candidate", ("obiano",))])
        wider = ActorSet([Actor("x", "candidate", ("obiano", "nwoye"))])
        count_base = preprocess_records(records, PipelineConfig(), base).raw_counts["x"]
        count_wider = preprocess_records(records, PipelineConfig(), wider).raw_counts["x"]
        assert count_wider >= count_base

    def test_combined_never_exceeds_either_component(self, raw_counts, actor_set) -> None:
        counts = raw_counts
        for actor in actor_set.combined():
            candidate, party = actor.components
            assert counts[actor.id] <= min(counts[candidate], counts[party])

    def test_fixture_table_is_interned(self, kept) -> None:
        # Kept tweets that name the same actors share one frozenset.
        by_value: dict[frozenset[str], frozenset[str]] = {}
        for tweet in kept:
            assert by_value.setdefault(tweet.actors, tweet.actors) is tweet.actors
        assert len(by_value) < len(kept)


class TestSoleMention:
    SCOPE = ["willie_obiano", "tony_nwoye", "apga", "pdp", "willie_obiano_apga"]

    def test_single_scoped_actor(self) -> None:
        actors = small_set()
        matched = match_actors(text_tokens("obiano holds a rally"), actors)
        assert sole_mention(matched, actors, ["willie_obiano"]) == "willie_obiano"

    def test_two_scoped_actors_disqualify(self) -> None:
        actors = small_set()
        matched = match_actors(text_tokens("obiano attacks pdp"), actors)
        assert sole_mention(matched, actors, self.SCOPE) is None

    def test_no_scoped_actor(self) -> None:
        actors = small_set()
        matched = match_actors(text_tokens("quiet day in awka"), actors)
        assert sole_mention(matched, actors, self.SCOPE) is None

    def test_candidate_with_own_party_is_sole_for_the_pair(self) -> None:
        # Both components plus the pair match; the pair absorbs its parts.
        actors = small_set()
        matched = match_actors(text_tokens("obiano thanks apga faithful"), actors)
        assert sole_mention(matched, actors, self.SCOPE) == "willie_obiano_apga"

    def test_pair_out_of_scope_leaves_two_actors(self) -> None:
        # Without the combined actor in scope there is nothing to absorb
        # the two component mentions, so the tweet is not sole.
        actors = small_set()
        scope = ["willie_obiano", "tony_nwoye", "apga", "pdp"]
        matched = match_actors(text_tokens("obiano thanks apga faithful"), actors)
        assert sole_mention(matched, actors, scope) is None

    def test_mention_outside_scope_is_invisible(self) -> None:
        actors = small_set()
        # nwoye is matched but not scoped, so obiano stays sole.
        scope = ["willie_obiano", "apga", "willie_obiano_apga"]
        matched = match_actors(text_tokens("obiano leads nwoye"), actors)
        assert sole_mention(matched, actors, scope) == "willie_obiano"

    def test_unknown_scope_id_raises(self) -> None:
        actors = small_set()
        with pytest.raises(ValueError):
            sole_mention(match_actors(text_tokens("obiano wins"), actors), actors, ["nobody_here"])

    def test_fixture_sole_counts(self, kept, actor_set, scope) -> None:
        counts = {actor_id: 0 for actor_id in scope}
        for tweet in kept:
            matched = match_actors(text_tokens(tweet.record.text), actor_set)
            owner = sole_mention(matched, actor_set, scope)
            if owner is not None:
                counts[owner] += 1
        assert counts == {
            "willie_obiano_apga": 9,
            "tony_nwoye_apc": 6,
            "oseloka_obaze_pdp": 5,
        }


# Reference matcher and sole_mention that work on the raw text of each
# tweet; the mention table and the set-based sole_mention must agree.
def _oracle_contains_phrase(tokens, phrase) -> bool:
    span = len(phrase)
    if span == 0 or span > len(tokens):
        return False
    first = phrase[0]
    for start in range(len(tokens) - span + 1):
        if tokens[start] == first and list(tokens[start : start + span]) == list(phrase):
            return True
    return False


def _oracle_match(text: str, actors: ActorSet) -> set[str]:
    tokens = tokenize(clean(text))
    matched: set[str] = set()
    for actor in actors:
        if actor.kind != "combined" and any(
            _oracle_contains_phrase(tokens, alias.split()) for alias in actor.aliases
        ):
            matched.add(actor.id)
    for actor in actors.combined():
        candidate_id, party_id = actor.components
        if candidate_id in matched and party_id in matched:
            matched.add(actor.id)
    return matched


def _oracle_sole_mention(text: str, actors: ActorSet, scope) -> str | None:
    scope_ids = list(scope)
    matched = _oracle_match(text, actors) & set(scope_ids)
    for actor_id in sorted(matched):
        actor = actors[actor_id]
        if actor.kind == "combined" and actor.components:
            matched -= set(actor.components)
    if len(matched) == 1:
        return next(iter(matched))
    return None


ALIAS_WORDS = ("ada", "obi", "ike", "apc", "pdp")
TWEET_WORDS = ALIAS_WORDS + ("vote", "awka", "queue", "#ada", "OBI", "@ike", "pdp,")


@st.composite
def rosters(draw) -> ActorSet:
    alias = st.lists(st.sampled_from(ALIAS_WORDS), min_size=1, max_size=2).map(" ".join)
    actors: list[Actor] = []
    ids = {}
    for kind in ("candidate", "party"):
        count = draw(st.integers(1, 2))
        aliases = draw(st.lists(alias, min_size=count, max_size=2 * count, unique=True))
        ids[kind] = [f"{kind}{i}" for i in range(count)]
        actors += [
            Actor(actor_id, kind, tuple(aliases[i::count]))
            for i, actor_id in enumerate(ids[kind])
        ]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids["candidate"]), st.sampled_from(ids["party"])),
            max_size=2,
            unique=True,
        )
    )
    actors += [
        Actor(f"pair{i}", "combined", (f"pair{i}",), components=pair)
        for i, pair in enumerate(pairs)
    ]
    return ActorSet(actors)


tweet_texts = st.lists(st.sampled_from(TWEET_WORDS), max_size=7).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(rosters(), st.lists(st.tuples(tweet_texts, st.booleans()), min_size=1, max_size=4))
def test_set_based_sole_mention_matches_the_text_oracle(actors, drawn) -> None:
    stamp = datetime(2017, 11, 18, 10, tzinfo=timezone.utc)
    records = [
        TweetRecord(f"t{i}", stamp, "someone", text, retweet)
        for i, (text, retweet) in enumerate(drawn)
    ]
    done = preprocess_records(records, PipelineConfig(), actors)
    # Raw counts cover every record, retweets included.
    oracle_sets = [_oracle_match(record.text, actors) for record in records]
    assert done.raw_counts == group_counts(oracle_sets, actors)
    # With no stopwords, exactly the non-retweets with a token are kept.
    assert [tweet.record for tweet in done.kept] == [
        record for record in records if not record.is_retweet and text_tokens(record.text)
    ]
    ids = [a.id for a in actors]
    scopes = [list(c) for size in range(len(ids) + 1) for c in combinations(ids, size)]
    for tweet in done.kept:
        text = tweet.record.text
        assert tweet.actors == match_actors(text_tokens(text), actors)
        assert tweet.actors == _oracle_match(text, actors)
        for scope in scopes:
            assert sole_mention(tweet.actors, actors, scope) == _oracle_sole_mention(
                text, actors, scope
            ), (text, scope)
