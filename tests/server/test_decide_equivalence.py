"""The server decides each distinct transition once, and decides it right.

``InteractionServer._decide`` keeps a member's known spec as a reference
to the (base completion, overlay) spec it was last told plus the entries
its interest filter withheld, and diffs every distinct pair of base
completions once per change. This oracle replays a seeded script on one
direct-mode server of eight members and checks, after every step, that
the server says exactly what the reference below says: per member, one
whole-outcome diff against a plain dict of what it was sent — each
outcome computed by definition, as one interpreted sweep over base and
extension variables with subtree hiding after it.

Checked after every step:

* ``_propagate``'s return, values and key order;
* the encoded bytes of every ``PRESENTATION_UPDATE`` the change decided;
* every member's materialized ``known_spec``;
* every SUBSCRIBE / resync catch-up, values and key order;
* that no spec, view, overlay or withheld map a member was ever told has
  changed since it was first told.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net.codec import encode_message
from repro.presentation.engine import PERSONAL, SHARED
from repro.presentation.spec import diff_presentations
from repro.server import InteractionServer, MessageKind

DOC = "record-17"
MEMBERS = 8
STEPS = 90


def by_definition(room, viewer_id):
    """Figure 4(b) spelled out: shared choices on a base or own extension
    variable, then personal ones; one interpreted sweep, then hiding."""
    engine = room.engine
    extension = engine.extension(viewer_id)
    evidence = {c: v for c, v in engine.shared_choices.items() if c in extension}
    evidence.update(engine.personal_choices(viewer_id))
    outcome = extension.interpreted_best_completion(evidence)
    return room.document._enforce_subtree_hiding(outcome)


def ordered(mapping):
    return json.dumps(list(mapping.items()))


class ReferenceServer(InteractionServer):
    """The server under test, shadowed step by step by the per-member
    ``_decide`` it replaced: a plain dict of what each member was sent,
    merged by hand, and a whole-outcome diff per member per change."""

    def __init__(self, store):
        super().__init__(store, interest_mode="cpnet")
        self.sent: dict[str, dict[str, str]] = {}  # session id -> known outcome
        self.frames: list[tuple[bytes, bytes]] = []  # (decided, reference)
        self.told: dict[int, tuple[tuple, str]] = {}  # id -> (told, content then)

    def join_room(self, session_id, doc_id):
        room, spec = super().join_room(session_id, doc_id)
        expected = by_definition(room, spec.viewer_id)
        assert ordered(spec.outcome) == ordered(expected)
        self.sent[session_id] = dict(expected)
        return room, spec

    def leave_room(self, session_id):
        super().leave_room(session_id)
        self.sent.pop(session_id, None)

    def forget_unseen(self, node_id, kind):
        super().forget_unseen(node_id, kind)
        if kind == MessageKind.PRESENTATION_UPDATE:
            for session_id in self.session_ids:
                if self.session(session_id).node_id == node_id:
                    self.sent.pop(session_id, None)

    def _catch_up(self, session, room, unseen_only):
        outcome = by_definition(room, session.viewer_id)
        known = self.sent.get(session.session_id) or {}
        expected = {
            path: value
            for path, value in outcome.items()
            if not (unseen_only and known.get(path) == value)
            and room.interest.covers(session.session_id, path)
        }
        if expected:
            self.sent[session.session_id] = {**known, **expected}
        catchup = super()._catch_up(session, room, unseen_only)
        assert ordered(catchup) == ordered(expected)
        return catchup

    def _decide(self, room, change):
        expected = []
        for member_id in room.member_sessions:
            viewer_id = self.session(member_id).viewer_id
            known = self.sent.get(member_id)
            delta = diff_presentations(known, by_definition(room, viewer_id))
            if not delta:
                continue
            if viewer_id == change.viewer_id:
                filtered = delta
            else:
                filtered = room.interest.filter_delta(member_id, delta)
            expected.append((member_id, delta, filtered))
            if filtered:
                merged = dict(known) if known else {}
                merged.update(filtered)
                self.sent[member_id] = merged
        decided = super()._decide(room, change)
        assert [
            (member.session_id, ordered(delta), ordered(filtered))
            for member, delta, filtered in decided
        ] == [(m, ordered(d), ordered(f)) for m, d, f in expected]
        for (_, _, filtered), (_, _, reference) in zip(decided, expected):
            if filtered:
                self.frames.append((self._frame(room, change, filtered),
                                    self._frame(room, change, reference)))
        return decided

    @staticmethod
    def _content(told):
        spec, withheld = told
        parts = (spec.view.outcome, spec.view.before_hiding, spec.overlay, withheld)
        return json.dumps([list(part.items()) for part in parts])

    @staticmethod
    def _frame(room, change, changes):
        body = {"doc_id": room.document.doc_id, "changes": changes, "seq": change.seq}
        return encode_message(MessageKind.PRESENTATION_UPDATE, body).data

    def check(self):
        """Known specs equal the reference; nothing told ever moved."""
        for session_id in self.session_ids:
            session = self.session(session_id)
            assert session.known_spec(DOC) == self.sent.get(session_id), session_id
            told = session.told.get(DOC)
            if told is not None:
                self.told.setdefault(id(told), (told, self._content(told)))
        for told, content in self.told.values():
            assert self._content(told) == content
        for decided, reference in self.frames:
            assert decided == reference
        self.frames.clear()


def pick(rng, room, viewer_id):
    """A random (variable, value) this viewer may choose: a base variable
    or one of their own extension variables."""
    extension = room.engine.extension(viewer_id)
    names = list(room.document.network.variable_names) + list(extension.extension_names)
    name = rng.choice(names)
    return name, rng.choice(extension.variable(name).domain)


def script(server, sessions, rng):
    """A fixed opening, then seeded random steps."""
    lee, cho, wu = sessions[:3]
    # A local operation on a component whose section a later choice
    # hides: the overlay must be swept over the value the component had
    # before hiding rewrote it.
    yield lambda: server.handle_choice(lee, "imaging.ct_head", "flat")
    yield lambda: server.handle_operation(cho, "imaging.ct_head", "zoom")
    yield lambda: server.handle_choice(wu, "imaging", "hidden")
    yield lambda: server.handle_subscribe(sessions[3], ["labs"], replace=True)
    yield lambda: server.handle_choice(lee, "imaging", "shown")
    yield lambda: server.handle_operation(wu, "labs.ecg", "measure", global_importance=True)
    # A global operation minting a base variable of an overlay variable's
    # name: the overlay's value shows in the base variable's place.
    yield lambda: server.handle_operation(lee, "imaging.ct_head", "zoom", global_importance=True)
    yield lambda: server.handle_choice(cho, "imaging.ct_head", "segmented")
    # A component removed from the open document (§4.2 update kind 2):
    # members still show what they were told of it.
    room = server.room(server.session(lee).room_id)
    yield lambda: (room.document.remove_component("demographics"), room.engine.invalidate())
    yield lambda: server.handle_choice(wu, "labs", "hidden")
    kinds = (
        ["shared"] * 6 + ["personal"] * 3 + ["local"] * 2 + ["global"]
        + ["subscribe", "unsubscribe", "forget", "rejoin", "annotate"]
    )
    for step in range(STEPS):
        session_id = rng.choice(sessions)
        session = server.session(session_id)
        room = server.room(session.room_id)
        kind = rng.choice(kinds)
        component = rng.choice(room.document.component_paths())
        if kind in ("shared", "personal"):
            name, value = pick(rng, room, session.viewer_id)
            scope = SHARED if kind == "shared" else PERSONAL
            yield lambda s=session_id, n=name, v=value, c=scope: server.handle_choice(s, n, v, c)
        elif kind in ("local", "global"):
            yield lambda s=session_id, c=component, g=kind == "global": (
                server.handle_operation(s, c, f"op{step}", global_importance=g)
            )
        elif kind == "subscribe":
            paths = rng.sample(room.document.component_paths(), 2)
            yield lambda s=session_id, p=paths: server.handle_subscribe(s, p, replace=True)
        elif kind == "unsubscribe":
            yield lambda s=session_id, c=component: server.handle_unsubscribe(s, [c])
        elif kind == "forget":
            yield lambda n=session.node_id: server.forget_unseen(
                n, MessageKind.PRESENTATION_UPDATE
            )
        elif kind == "rejoin":
            yield lambda s=session_id: (server.leave_room(s), server.join_room(s, DOC))
        else:
            yield lambda s=session_id, c=component: server.handle_annotation(s, c, {"t": 1})
        if step % 9 == 0:
            yield lambda s=session_id: server.resync_session(s)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_decide_equals_the_per_member_reference(tmp_path, seed):
    db = Database(str(tmp_path / "db"))
    try:
        store = MultimediaObjectStore(db)
        store.store_document(build_sample_medical_record())
        server = ReferenceServer(store)
        sessions = [
            server.connect_session(f"m{index}").session_id for index in range(MEMBERS)
        ]
        for session_id in sessions:
            server.join_room(session_id, DOC)
        server.check()
        for step in script(server, sessions, random.Random(seed)):
            step()
            server.check()
        assert server.sent and server.told
    finally:
        db.close()
