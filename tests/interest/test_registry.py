"""Unit and property tests for the subscription registry (PR 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoomError
from repro.interest import ALL, InterestRegistry

UNIVERSE = (
    "imaging0",
    "imaging0.item0",
    "imaging0.item1",
    "imaging0.item2",
    "labs",
    "labs.item0",
    "tuning.bandwidth",
)


@pytest.fixture
def registry():
    reg = InterestRegistry(UNIVERSE)
    reg.join("s-1")
    return reg


class TestMembership:
    def test_join_defaults_to_all(self, registry):
        assert registry.subscriptions("s-1") is None

    def test_forget_removes_entry(self, registry):
        registry.forget("s-1")
        assert "s-1" not in registry.session_ids
        with pytest.raises(RoomError, match="no interest entry"):
            registry.subscribe("s-1", ["labs"])

    def test_forget_is_idempotent(self, registry):
        registry.forget("s-1")
        registry.forget("s-1")  # no raise

    def test_seed_installs_defaults(self, registry):
        got = registry.seed("s-1", ["labs.item0", "imaging0.item1"])
        assert got == ("imaging0.item1", "labs.item0")
        assert registry.subscriptions("s-1") is not None


class TestSubscribe:
    def test_first_subscribe_narrows_from_all(self, registry):
        got = registry.subscribe("s-1", ["labs"])
        assert got == ("labs",)
        assert not registry.covers("s-1", "imaging0.item0")

    def test_subscribe_accumulates(self, registry):
        registry.subscribe("s-1", ["labs"])
        got = registry.subscribe("s-1", ["imaging0.item0"])
        assert got == ("imaging0.item0", "labs")

    def test_replace_substitutes(self, registry):
        registry.subscribe("s-1", ["labs"])
        got = registry.subscribe("s-1", ["imaging0.item0"], replace=True)
        assert got == ("imaging0.item0",)
        assert not registry.covers("s-1", "labs.item0")

    def test_duplicate_subscribe_is_idempotent(self, registry):
        once = registry.subscribe("s-1", ["labs"])
        twice = registry.subscribe("s-1", ["labs", "labs"])
        assert once == twice == ("labs",)


class TestUnsubscribe:
    def test_unsubscribe_all_empties(self, registry):
        registry.subscribe("s-1", ["labs", "imaging0"])
        assert registry.unsubscribe("s-1", all_components=True) == ()
        assert not registry.covers("s-1", "labs")

    def test_unsubscribe_from_all_materializes_universe(self, registry):
        got = registry.unsubscribe("s-1", ["imaging0"])
        # imaging0 and everything under it gone; the rest stays explicit.
        assert got == ("labs", "labs.item0", "tuning.bandwidth")

    def test_unsubscribe_drops_descendants(self, registry):
        registry.subscribe("s-1", ["imaging0.item0", "imaging0.item1", "labs"])
        got = registry.unsubscribe("s-1", ["imaging0"])
        assert got == ("labs",)

    def test_unsubscribe_unknown_path_is_noop(self, registry):
        registry.subscribe("s-1", ["labs"])
        assert registry.unsubscribe("s-1", ["imaging0.item2"]) == ("labs",)


class TestCoverage:
    def test_all_covers_everything(self, registry):
        for path in UNIVERSE:
            assert registry.covers("s-1", path)

    def test_child_subscription_covers_ancestors(self, registry):
        registry.subscribe("s-1", ["imaging0.item1"])
        assert registry.covers("s-1", "imaging0")  # section visibility
        assert not registry.covers("s-1", "imaging0.item2")  # sibling

    def test_section_subscription_covers_descendants(self, registry):
        registry.subscribe("s-1", ["imaging0"])
        assert registry.covers("s-1", "imaging0.item2")
        assert not registry.covers("s-1", "labs")

    def test_prefix_is_dotted_not_textual(self, registry):
        registry.subscribe("s-1", ["imaging0.item1"])
        assert not registry.covers("s-1", "imaging0.item10")

    def test_tuning_always_covered(self, registry):
        registry.unsubscribe("s-1", all_components=True)
        assert registry.covers("s-1", "tuning.bandwidth")

    def test_filter_delta_returns_same_dict_for_all(self, registry):
        delta = {"labs": "full"}
        assert registry.filter_delta("s-1", delta) is delta

    def test_filter_delta_narrows(self, registry):
        registry.subscribe("s-1", ["labs"])
        delta = {"labs.item0": "full", "imaging0.item0": "icon"}
        assert registry.filter_delta("s-1", delta) == {"labs.item0": "full"}

    def test_explicit_subscriptions_counts_only_explicit(self, registry):
        registry.join("s-2")  # ALL: contributes zero
        registry.subscribe("s-1", ["labs", "imaging0"])
        assert registry.explicit_subscriptions() == 2


paths = st.lists(
    st.sampled_from(UNIVERSE), min_size=0, max_size=len(UNIVERSE), unique=True
)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(subs=paths, dropped=paths)
    def test_unsubscribe_never_widens(self, subs, dropped):
        reg = InterestRegistry(UNIVERSE)
        reg.join("s")
        reg.subscribe("s", subs, replace=True)
        before = {p for p in UNIVERSE if reg.covers("s", p)}
        reg.unsubscribe("s", dropped)
        after = {p for p in UNIVERSE if reg.covers("s", p)}
        assert after <= before | {"tuning.bandwidth"}

    @settings(max_examples=100, deadline=None)
    @given(subs=paths)
    def test_subscribed_paths_are_covered(self, subs):
        reg = InterestRegistry(UNIVERSE)
        reg.join("s")
        got = reg.subscribe("s", subs, replace=True)
        assert got == tuple(sorted(set(subs)))
        for path in subs:
            assert reg.covers("s", path)

    @settings(max_examples=100, deadline=None)
    @given(subs=paths, delta_paths=paths)
    def test_filter_delta_matches_covers(self, subs, delta_paths):
        reg = InterestRegistry(UNIVERSE)
        reg.join("s")
        reg.subscribe("s", subs, replace=True)
        delta = {p: "v" for p in delta_paths}
        filtered = reg.filter_delta("s", delta)
        assert filtered == {p: "v" for p in delta_paths if reg.covers("s", p)}


def test_all_sentinel_is_none():
    # Documented contract: ALL is None so `subs is ALL` reads naturally.
    assert ALL is None


#: Dotted paths over a few segments, empty ones included ("a..b", ".a",
#: "a."): the prefix relation must hold on any string, not just tidy ones.
dotted = st.lists(
    st.sampled_from(("a", "b", "", "tuning", "ab")), min_size=1, max_size=4
).map(".".join)

registry_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("join", "seed", "subscribe", "replace", "unsubscribe", "unsubscribe_all",
             "forget")
        ),
        st.sampled_from(("s1", "s2")),
        st.lists(dotted, max_size=4),
    ),
    max_size=12,
)


def brute_covers(reg, session_id, path):
    """Coverage by the definition, scanning the explicit set."""
    subs = reg.subscriptions(session_id)
    if subs is None or path.startswith("tuning."):
        return True
    return any(
        path == sub or path.startswith(sub + ".") or sub.startswith(path + ".")
        for sub in subs
    )


class TestCoverageIndex:
    """The ancestor index answers exactly what the scan it replaced did."""

    @settings(max_examples=200, deadline=None)
    @given(universe=st.lists(dotted, max_size=6), ops=registry_ops,
           probes=st.lists(dotted, min_size=1, max_size=8))
    def test_index_agrees_with_the_prefix_relation(self, universe, ops, probes):
        reg = InterestRegistry(universe)
        joined = set()
        for op, session_id, components in ops:
            if op == "join" or (op != "forget" and session_id not in joined):
                reg.join(session_id)
                joined.add(session_id)
            elif op == "seed":
                reg.seed(session_id, components)
            elif op == "subscribe":
                reg.subscribe(session_id, components)
            elif op == "replace":
                reg.subscribe(session_id, components, replace=True)
            elif op == "unsubscribe":
                reg.unsubscribe(session_id, components)
            elif op == "unsubscribe_all":
                reg.unsubscribe(session_id, all_components=True)
            else:
                reg.forget(session_id)
                joined.discard(session_id)
            for sid in ("s1", "s2"):
                for path in [*probes, *universe, *components]:
                    assert reg.covers(sid, path) == brute_covers(reg, sid, path), (sid, path)
                delta = {path: "v" for path in probes}
                kept = {p: v for p, v in delta.items() if brute_covers(reg, sid, p)}
                filtered = reg.filter_delta(sid, delta)
                assert filtered == kept
                # Nothing withheld: the delta itself comes back, no copy.
                assert (filtered is delta) == (len(kept) == len(delta))
