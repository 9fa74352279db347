"""Unit tests for the presentation engine."""

import gc
import weakref
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from repro.cpnet import compile_cpnet, compile_extension, completion_key
from repro.document import (
    Hidden,
    JPGImage,
    PrimitiveMultimediaComponent,
    build_sample_medical_record,
)
from repro.errors import DocumentError
from repro.obs import MetricsRegistry, use_registry
from repro.presentation import PresentationEngine, ViewerChoice
from repro.presentation import engine as engine_module
from repro.presentation import spec as spec_module
from repro.presentation.engine import PERSONAL, SHARED
from repro.presentation.spec import build_spec
from repro.server.protocol import encoded_size


@pytest.fixture
def engine():
    engine = PresentationEngine(build_sample_medical_record())
    engine.register_viewer("lee")
    engine.register_viewer("cho")
    return engine


def base_memo(engine):
    """The completions of the served document's current compilation."""
    return compile_cpnet(engine.document.network).completions


class TestViewers:
    def test_register_unregister(self, engine):
        assert set(engine.viewer_ids) == {"lee", "cho"}
        engine.unregister_viewer("cho")
        assert engine.viewer_ids == ("lee",)

    def test_register_idempotent(self, engine):
        ext = engine.extension("lee")
        engine.register_viewer("lee")
        assert engine.extension("lee") is ext

    def test_unknown_viewer_rejected(self, engine):
        with pytest.raises(DocumentError, match="not registered"):
            engine.presentation_for("ghost")
        with pytest.raises(DocumentError):
            engine.apply_choice(ViewerChoice("ghost", "labs", "hidden"))


class TestChoices:
    def test_default_presentations_equal(self, engine):
        lee = engine.presentation_for("lee")
        cho = engine.presentation_for("cho")
        assert lee.outcome == cho.outcome
        assert lee.viewer_id == "lee"

    def test_shared_choice_constrains_everyone(self, engine):
        engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "segmented"))
        assert engine.presentation_for("cho").value("imaging.ct_head") == "segmented"

    def test_personal_choice_constrains_only_owner(self, engine):
        engine.apply_choice(
            ViewerChoice("cho", "imaging.ct_head", "icon", scope=PERSONAL)
        )
        assert engine.presentation_for("cho").value("imaging.ct_head") == "icon"
        assert engine.presentation_for("lee").value("imaging.ct_head") == "flat"

    def test_shared_overrides_older_personal(self, engine):
        engine.apply_choice(ViewerChoice("cho", "imaging.ct_head", "icon", scope=PERSONAL))
        engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "segmented", scope=SHARED))
        assert engine.presentation_for("cho").value("imaging.ct_head") == "segmented"

    def test_personal_overrides_older_shared(self, engine):
        engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "segmented", scope=SHARED))
        engine.apply_choice(ViewerChoice("cho", "imaging.ct_head", "icon", scope=PERSONAL))
        assert engine.presentation_for("cho").value("imaging.ct_head") == "icon"
        assert engine.presentation_for("lee").value("imaging.ct_head") == "segmented"

    def test_clear_choice(self, engine):
        engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "icon"))
        engine.clear_choice("lee", "imaging.ct_head")
        assert engine.presentation_for("lee").value("imaging.ct_head") == "flat"

    def test_bad_value_rejected(self, engine):
        with pytest.raises(Exception):
            engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "sideways"))

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            ViewerChoice("lee", "x", "y", scope="broadcast")

    def test_choice_propagates_preferences(self, engine):
        # The author couples the voice note to a visible CT.
        engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "hidden"))
        assert engine.presentation_for("lee").value("consult.voice_note") == "transcript"


class TestOperations:
    def test_personal_operation_only_for_owner(self, engine):
        record = engine.apply_operation("lee", "imaging.ct_head", "zoom")
        assert record.active_value == "flat"
        assert "imaging.ct_head.zoom" in engine.presentation_for("lee").outcome
        assert "imaging.ct_head.zoom" not in engine.presentation_for("cho").outcome

    def test_global_operation_for_everyone(self, engine):
        engine.apply_operation("lee", "imaging.ct_head", "zoom", global_importance=True)
        assert "imaging.ct_head.zoom" in engine.presentation_for("cho").outcome

    def test_operation_active_value_follows_current_view(self, engine):
        engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "segmented"))
        record = engine.apply_operation("lee", "imaging.ct_head", "zoom")
        assert record.active_value == "segmented"

    def test_operation_on_unknown_component(self, engine):
        with pytest.raises(DocumentError):
            engine.apply_operation("lee", "no.such", "zoom")


class TestSharedEvidence:
    """The shared choices' evidence is assembled once for the room while
    every choice names a base variable; it must stay exactly what the
    per-viewer filter (base or *own* extension variable) would give."""

    ZOOM = "imaging.ct_head.zoom"

    def test_shared_choice_on_an_extension_variable_reaches_only_its_owner(self, engine):
        engine.apply_operation("lee", "imaging.ct_head", "zoom")
        engine.apply_choice(ViewerChoice("lee", self.ZOOM, "plain"))
        engine.apply_choice(ViewerChoice("cho", "imaging.ct_head", "segmented"))
        lee, cho = engine.presentation_for("lee"), engine.presentation_for("cho")
        assert lee.value(self.ZOOM) == "plain"
        assert self.ZOOM not in cho.outcome
        # The base choice beside it still reaches both.
        assert lee.value("imaging.ct_head") == cho.value("imaging.ct_head") == "segmented"
        # Cho performs the same operation herself: now it constrains her too.
        engine.apply_operation("cho", "imaging.ct_head", "zoom")
        assert engine.presentation_for("cho").value(self.ZOOM) == "plain"

    def test_clear_choice_retires_the_assembled_evidence(self, engine):
        default = engine.presentation_for("cho").outcome
        engine.apply_choice(ViewerChoice("lee", "imaging.ct_head", "segmented"))
        for viewer in ("lee", "cho"):
            assert engine.presentation_for(viewer).value("imaging.ct_head") == "segmented"
        engine.clear_choice("lee", "imaging.ct_head")
        for viewer in ("lee", "cho"):
            assert engine.presentation_for(viewer).outcome == default

    def test_base_variable_removed_under_a_recorded_choice(self, engine):
        engine.apply_operation("lee", "imaging.ct_head", "zoom", global_importance=True)
        engine.apply_choice(ViewerChoice("lee", self.ZOOM, "plain"))
        assert engine.presentation_for("cho").value(self.ZOOM) == "plain"
        engine.document.network.remove_variable(self.ZOOM)
        # A viewer whose own version moves recomputes at once — the
        # recorded choice names nothing she has, and must not raise.
        engine.apply_choice(ViewerChoice("cho", "labs", "hidden", scope=PERSONAL))
        assert self.ZOOM not in engine.presentation_for("cho").outcome
        engine.invalidate()
        assert self.ZOOM not in engine.presentation_for("lee").outcome

    def test_invalidate_after_the_base_gains_a_chosen_variable(self, engine):
        engine.apply_operation("lee", "labs.ecg", "zoom")
        engine.apply_choice(ViewerChoice("lee", "labs.ecg.zoom", "plain"))
        engine.apply_operation("cho", "imaging.ct_head", "zoom")  # cho: her own overlay
        assert "labs.ecg.zoom" not in engine.presentation_for("cho").outcome
        # Someone edits the shared network outside the engine, then says so.
        engine.extension("lee").promote_to_base()
        engine.invalidate()
        assert engine.presentation_for("cho").value("labs.ecg.zoom") == "plain"
        assert engine.presentation_for("lee").value("labs.ecg.zoom") == "plain"

    def test_compiled_matches_interpreted_across_an_eight_member_edit_script(self):
        import json

        from repro.cpnet import interpreted_mode

        members = [f"dr-{index}" for index in range(8)]
        script = [
            ("choice", "dr-0", "imaging.ct_head", "segmented", SHARED),
            ("choice", "dr-1", "labs.ecg", "icon", PERSONAL),
            ("operation", "dr-2", "imaging.ct_head", "zoom", False),
            ("choice", "dr-2", "imaging.ct_head.zoom", "plain", SHARED),
            ("operation", "dr-3", "labs.ecg", "measure", True),
            ("choice", "dr-4", "labs.ecg.measure", "plain", SHARED),
            ("operation", "dr-5", "imaging.ct_head", "zoom", False),
            ("choice", "dr-6", "imaging", "hidden", SHARED),
            ("clear", "dr-6", "imaging"),
            ("operation", "dr-2", "labs.ecg", "crop", False),
            ("choice", "dr-7", "labs", "hidden", PERSONAL),
            ("leave", "dr-2"),
            ("clear", "dr-0", "imaging.ct_head.zoom"),
            ("choice", "dr-5", "imaging.ct_head.zoom", "applied", SHARED),
            ("join", "dr-2"),
            ("operation", "dr-0", "consult.voice_note", "denoise", True),
            ("choice", "dr-1", "imaging.ct_head", "flat", SHARED),
        ]

        def by_definition(engine, viewer):
            """Figure 4(b), spelled out: shared choices on a base or own
            extension variable, then personal ones; one reference sweep."""
            extension = engine.extension(viewer)
            evidence = {
                c: v for c, v in engine.shared_choices.items() if c in extension
            }
            evidence.update(engine.personal_choices(viewer))
            return engine.document._enforce_subtree_hiding(
                extension.interpreted_best_completion(evidence)
            )

        def run():
            engine = PresentationEngine(build_sample_medical_record())
            for member in members:
                engine.register_viewer(member)
            frames = []
            for step in [("start",)] + script:
                kind, args = step[0], step[1:]
                if kind == "choice":
                    engine.apply_choice(ViewerChoice(*args))
                elif kind == "operation":
                    engine.apply_operation(*args[:3], global_importance=args[3])
                elif kind == "clear":
                    engine.clear_choice(*args)
                elif kind == "leave":
                    engine.unregister_viewer(*args)
                elif kind == "join":
                    engine.register_viewer(*args)
                shown = {v: engine.presentation_for(v).outcome for v in engine.viewer_ids}
                for viewer, outcome in shown.items():
                    assert outcome == by_definition(engine, viewer), (step, viewer)
                frames.append(json.dumps(shown))
            return frames

        with interpreted_mode():
            reference = run()
        assert run() == reference


class TestSharedCompletionCache:
    def test_rejoining_viewer_never_hits_discarded_extension_entries(self):
        """Regression: a viewer who leaves and rejoins gets a *fresh*
        ViewerExtension whose version counter restarts at 0. Applying a
        different operation after the rejoin reproduces the old version
        number (add_variable + 2 add_rules = 3 either way); her old
        completions must not be a lookup away — they belonged to the
        discarded extension's compilation and left with it."""
        engine = PresentationEngine(build_sample_medical_record())
        engine.register_viewer("lee")
        engine.apply_operation("lee", "imaging.ct_head", "segment")
        first = engine.presentation_for("lee").outcome
        assert "imaging.ct_head.segment" in first
        discarded = engine.extension("lee")
        version = discarded.extension_version

        engine.unregister_viewer("lee")
        engine.register_viewer("lee")
        engine.apply_operation("lee", "imaging.ct_head", "crop")
        assert engine.extension("lee") is not discarded
        assert engine.extension("lee").extension_version == version
        second = engine.presentation_for("lee").outcome
        assert "imaging.ct_head.crop" in second
        assert "imaging.ct_head.segment" not in second

    def test_a_departed_viewers_completions_leave_with_her(self, engine):
        engine.apply_operation("lee", "imaging.ct_head", "zoom")
        engine.apply_choice(ViewerChoice("lee", "labs", "hidden", scope=PERSONAL))
        engine.presentations()
        extension = engine.extension("lee")
        memo = compile_extension(extension).completions
        (entry,) = memo._entries.values()
        held = [weakref.ref(entry.view), weakref.ref(extension)]
        del extension, memo, entry
        engine.unregister_viewer("lee")
        gc.collect()
        # The record was the one owner: extension -> compilation -> memo
        # -> entry -> view all went with it.
        assert [ref() for ref in held] == [None, None]
        # cho, who never had an overlay, still reads the base net's memo.
        assert len(base_memo(engine)) == 1
        assert engine.presentation_for("cho").outcome

    def test_equal_constraints_on_empty_extensions_cost_one_sweep(self):
        with use_registry(MetricsRegistry()) as registry:
            engine = PresentationEngine(build_sample_medical_record())
            for viewer in ("lee", "cho", "wu"):
                engine.register_viewer(viewer)
            engine.apply_choice(ViewerChoice("lee", "imaging", "hidden"))
            specs = engine.presentations()
            assert registry.counter("cpnet.compiled.completions").value == 1
            assert registry.counter("cpnet.completion_cache.hits").value == 2
            assert specs["lee"].outcome == specs["cho"].outcome == specs["wu"].outcome
            # A viewer with an overlay of her own asks it, and only it.
            engine.apply_operation("wu", "labs.ecg", "zoom")
            engine.presentations()
            assert registry.counter("cpnet.compiled.completions").value == 2
            assert len(base_memo(engine)) == 1
            assert len(compile_extension(engine.extension("wu")).completions) == 1
            assert compile_extension(engine.extension("cho"))._completions is None


class TestSharedViews:
    """One derived view per distinct completion, inside its memo entry."""

    @pytest.fixture
    def shared(self):
        engine = PresentationEngine(build_sample_medical_record())
        for viewer in ("lee", "cho", "wu"):
            engine.register_viewer(viewer)
        return engine

    def test_one_derivation_serves_every_agreeing_viewer(self, shared, monkeypatch):
        engine, cache = shared, base_memo(shared)
        views, walks = [], []

        class CountingView(engine_module.PresentationView):
            def __init__(self, document, outcome):
                views.append(dict(outcome))
                super().__init__(document, outcome)

        def counting_walk(outcome):
            walks.append(dict(outcome))
            return real_walk(outcome)

        real_walk = engine.document.visible_components
        monkeypatch.setattr(engine_module, "PresentationView", CountingView)
        monkeypatch.setattr(engine.document, "visible_components", counting_walk)
        engine.apply_choice(ViewerChoice("lee", "imaging", "hidden"))
        specs = engine.presentations()
        assert len(views) == 1 and len(cache) == 1
        # Nothing is measured until someone reads a measure; then once,
        # for everybody who shares the completion.
        assert walks == []
        assert specs["lee"].visible is specs["cho"].visible is specs["wu"].visible
        assert len(walks) == 1
        # A personal choice is a second completion: one more view, for
        # its owner only.
        engine.apply_choice(ViewerChoice("cho", "labs.ecg", "icon", scope=PERSONAL))
        engine.presentations()
        assert len(views) == 2 and len(cache) == 2

    def test_spec_outcomes_are_private_copies(self, shared):
        engine = shared
        lee = engine.presentation_for("lee")
        cho = engine.presentation_for("cho")
        assert lee.outcome == cho.outcome and lee.outcome is not cho.outcome
        pristine = dict(cho.outcome)
        lee.outcome["imaging.ct_head"] = "scribbled"
        lee.outcome["not.a.component"] = "x"
        del lee.outcome["labs"]
        assert cho.outcome == pristine
        assert engine.presentation_for("wu").outcome == pristine  # from the shared view
        engine.unregister_viewer("cho")
        engine.register_viewer("cho")
        assert engine.presentation_for("cho").outcome == pristine

    def test_shared_view_measures_what_build_spec_measures(self, shared):
        engine = shared
        engine.apply_choice(ViewerChoice("lee", "consult", "hidden"))
        spec = engine.presentation_for("cho")
        rebuilt = build_spec(engine.document, "cho", spec.outcome)
        assert (spec.visible, spec.total_bytes, spec.wire_bytes) == (
            rebuilt.visible, rebuilt.total_bytes, rebuilt.wire_bytes
        )
        assert spec.wire_bytes == encoded_size(spec.outcome)
        assert spec.value("consult.voice_note") == "hidden"

    @pytest.mark.parametrize("document_first", [True, False])
    def test_document_queries_share_entries_either_way_round(
        self, shared, document_first
    ):
        # The document's §5.1 queries and the engine read the same entry;
        # the engine finishes subtree hiding in place on it, which the
        # document's own (idempotent) enforcement must not notice.
        engine, cache = shared, base_memo(shared)
        engine.apply_choice(ViewerChoice("lee", "imaging", "hidden"))
        expected = build_sample_medical_record().reconfig_presentation(
            {"imaging": "hidden"}
        )
        if document_first:
            assert engine.document.reconfig_presentation({"imaging": "hidden"}) == expected
        assert engine.presentation_for("lee").outcome == expected
        assert engine.document.reconfig_presentation({"imaging": "hidden"}) == expected
        assert len(cache) == 1

    def test_invalidation_reclaims_views_with_their_entries(self, shared):
        engine = shared
        engine.presentations()
        engine.apply_choice(ViewerChoice("lee", "labs", "hidden"))
        engine.presentations()
        replaced = compile_cpnet(engine.document.network)
        assert len(replaced.completions) == 2
        views = [
            weakref.ref(entry.view) for entry in replaced.completions._entries.values()
        ]
        engine.apply_operation("lee", "imaging.ct_head", "zoom", global_importance=True)
        assert "imaging.ct_head.zoom" in engine.presentation_for("cho").outcome
        # The edit replaced the compilation; the new one starts with
        # what was asked since, and the old one's entries are let go.
        current = engine.document.network._compiled
        assert current is not replaced and len(replaced.completions) == 0
        assert list(current.completions._entries) == [completion_key({"labs": "hidden"})]
        engine.presentations()  # a spec reads its view: refresh everyone's
        gc.collect()
        assert [view() for view in views] == [None, None]

    def test_view_follows_a_structural_update(self, shared):
        engine = shared
        before = engine.presentation_for("lee")
        engine.document.add_component(
            "imaging",
            PrimitiveMultimediaComponent(
                "mri", [JPGImage("flat", size_bytes=4096), Hidden()]
            ),
        )
        engine.invalidate()
        after = engine.presentation_for("lee")
        assert "imaging.mri" in after.visible and "imaging.mri" not in before.visible
        assert after.total_bytes == before.total_bytes + 4096
        assert after.wire_bytes > before.wire_bytes


MEASURES = ("visible", "total_bytes", "wire_bytes")
VIEWERS = ("lee", "cho", "wu")
CHOICES = [
    (path, value)
    for path in build_sample_medical_record().component_paths()
    for value in build_sample_medical_record().network.variable(path).domain
]


class TestLazyMeasures:
    """A view measures nothing until read, each measure once however many
    viewers and reads share it, and reads what an eager walk would."""

    @given(
        choices=st.lists(
            st.tuples(
                st.sampled_from(VIEWERS),
                st.sampled_from(CHOICES),
                st.sampled_from((SHARED, PERSONAL)),
            ),
            max_size=8,
        ),
        order=st.permutations(MEASURES),
    )
    def test_lazy_reads_equal_eager_walks_once_per_entry(self, choices, order):
        document = build_sample_medical_record()
        engine = PresentationEngine(document)
        cache = base_memo(engine)
        for viewer in VIEWERS:
            engine.register_viewer(viewer)
        for viewer, (component, value), scope in choices:
            engine.apply_choice(ViewerChoice(viewer, component, value, scope))
        calls = Counter()

        def counted(name, real):
            def measure(outcome):
                calls[name] += 1
                return real(outcome)
            return measure

        with (
            patch.object(
                document, "visible_components",
                counted("visible", document.visible_components),
            ),
            patch.object(
                document, "presentation_bytes",
                counted("total_bytes", document.presentation_bytes),
            ),
            patch.object(
                spec_module, "value_size", counted("wire_bytes", spec_module.value_size)
            ),
        ):
            specs = engine.presentations()
            assert not calls
            for _ in range(2):
                for spec in specs.values():
                    for name in order:
                        getattr(spec, name)
        assert calls == {name: len(cache) for name in MEASURES}
        for spec in specs.values():
            assert spec.visible == document.visible_components(spec.outcome)
            assert spec.total_bytes == document.presentation_bytes(spec.outcome)
            assert spec.wire_bytes == encoded_size(spec.outcome)


class TestSpecs:
    def test_spec_measures(self, engine):
        spec = engine.presentation_for("lee")
        assert spec.total_bytes > 0
        assert "imaging.ct_head" in spec.visible
        assert spec.is_visible("imaging.ct_head")
        assert len(spec) == 10

    def test_presentations_covers_all_viewers(self, engine):
        specs = engine.presentations()
        assert set(specs) == {"lee", "cho"}

    def test_hiding_composite_cascades_in_spec(self, engine):
        engine.apply_choice(ViewerChoice("lee", "imaging", "hidden"))
        spec = engine.presentation_for("lee")
        assert spec.value("imaging.ct_head") == "hidden"
        assert not spec.is_visible("imaging.ct_head")
