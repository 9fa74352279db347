"""Property-based tests: room invariants under random action sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.document import build_sample_medical_record
from repro.errors import FrozenObjectError, RoomError
from repro.server import Room

VIEWERS = ["lee", "cho", "kim"]
COMPONENTS = ["imaging.ct_head", "imaging.xray_chest", "labs", "consult.voice_note"]

actions = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.sampled_from(VIEWERS), st.none()),
        st.tuples(st.just("leave"), st.sampled_from(VIEWERS), st.none()),
        st.tuples(
            st.just("choice"),
            st.sampled_from(VIEWERS),
            st.tuples(st.sampled_from(COMPONENTS), st.integers(0, 2)),
        ),
        st.tuples(st.just("freeze"), st.sampled_from(VIEWERS), st.sampled_from(COMPONENTS)),
        st.tuples(st.just("release"), st.sampled_from(VIEWERS), st.sampled_from(COMPONENTS)),
    ),
    max_size=40,
)


@given(actions)
@settings(max_examples=40, deadline=None)
def test_room_invariants_hold_under_any_action_sequence(sequence):
    room = Room("prop", build_sample_medical_record())
    members: dict[str, str] = {}  # viewer -> session id
    frozen: dict[str, str] = {}
    for action, viewer, extra in sequence:
        session = f"s-{viewer}"
        try:
            if action == "join":
                if viewer in members:
                    continue
                room.join(session, viewer)
                members[viewer] = session
            elif action == "leave":
                if viewer not in members:
                    continue
                room.leave(session)
                del members[viewer]
                frozen = {c: v for c, v in frozen.items() if v != viewer}
            elif action == "choice":
                if viewer not in members:
                    continue
                component, value_index = extra
                domain = room.document.component(component).domain
                value = domain[value_index % len(domain)]
                holder = frozen.get(component)
                try:
                    room.apply_choice(viewer, component, value)
                    assert holder is None or holder == viewer
                except FrozenObjectError:
                    assert holder is not None and holder != viewer
            elif action == "freeze":
                if viewer not in members:
                    continue
                try:
                    room.freeze(viewer, extra)
                    frozen[extra] = viewer
                except FrozenObjectError:
                    assert extra in frozen and frozen[extra] != viewer
            elif action == "release":
                if viewer not in members:
                    continue
                try:
                    room.release(viewer, extra)
                    del frozen[extra]
                except FrozenObjectError:
                    assert frozen.get(extra) != viewer
        except RoomError:
            raise AssertionError(f"unexpected RoomError on {action} by {viewer}")

        # --- invariants after every single action -----------------------
        assert set(room.viewer_ids) == set(members)
        assert set(room.engine.viewer_ids) == set(members)
        for member_viewer in members:
            spec = room.presentation_for(member_viewer)
            assert set(room.document.component_paths()) <= set(spec.outcome)
        for component, holder in frozen.items():
            assert room.frozen_by(component) == holder
