"""Every function in ``src/repro`` runs in a conference, or says why not.

The name and option audits ask whether code has a reader or a setter;
this one asks whether any run executes it. It installs ``sys.setprofile``
before the first ``import repro`` (so module-level calls count), then
runs, in one process:

- the four workloads of ``benchmarks/ledger/workloads.py`` (imported
  read-only, as ``rep.py`` runs them) at scale 1.0, seed 5;
- every ``examples/*.py``;
- ``repro.chaos.convergence --scenario all --quick``;
- every ``benchmarks/test_bench_*.py`` in quick mode.

It records the code object of every call and compares them with every
``def`` an AST walk of ``src/repro`` finds (dunder methods are left
out: the interpreter calls them). A function no run calls takes one of
three exits: it is deleted with the tests of its behaviour, a workload
step or example line reaches it (a paper feature, citing the §), or it
goes on :data:`ALLOWLIST` as an oracle, test seam or failure path,
naming the test or benchmark file that executes it. The allowlist only
shrinks: an allowlisted function that runs fails the census too, and
:data:`ALLOWLIST_SIZE` pins its length. The name audit
(``tests/test_every_name_has_a_caller.py``) reads the same dict, since
a name with no reader outside tests never runs. A source that fails is
reported, not fatal: what it did not run shows up as findings, and other
CI steps gate the sources themselves. No flags; run it under a fixed
hash seed::

    PYTHONHASHSEED=0 python3 benchmarks/function_census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path
from types import CodeType
from typing import Iterator, Mapping

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "repro"
SEED = 5

#: ``module.Qualname`` -> why no run calls it, naming what does.
ALLOWLIST: dict[str, str] = {
    # Paper features no conference turns on (the § they serve).
    "repro.cpnet.updates.ViewerExtension.promote_to_base": (
        "§4.2: a viewer's operation made important to all viewers: "
        "tests/cpnet/test_compiled.py, tests/cpnet/test_updates.py, "
        "tests/presentation/test_engine.py"
    ),
    "repro.db.orm.MultimediaObjectStore.delete": (
        "Fig. 7: typed object-table dispatch (store, delete): tests/db/test_orm.py"
    ),
    "repro.db.orm.MultimediaObjectStore.register_type": (
        "Fig. 7 (§5.2): addition of new data types: tests/db/test_orm.py"
    ),
    "repro.db.orm.MultimediaObjectStore.store": (
        "Fig. 7: typed object-table dispatch (store, delete): tests/db/test_orm.py"
    ),
    "repro.db.types.BytesType.decode": "Fig. 7: BLOB column type: tests/db/test_types_schema.py",
    "repro.db.types.BytesType.encode": "Fig. 7: BLOB column type: tests/db/test_types_schema.py",
    "repro.document.component.CompositeMultimediaComponent.remove": (
        "§4.2 / E8: the tree half of remove_component: tests/document/test_component.py, "
        "tests/document/test_document.py, tests/server/test_decide_equivalence.py, "
        "tests/server/test_outbox.py"
    ),
    "repro.document.document.MultimediaDocument.add_component": (
        "§4.2 / E8: an online edit adds a component: tests/document/test_document.py, "
        "tests/presentation/test_engine.py, tests/server/test_outbox.py"
    ),
    "repro.document.document.MultimediaDocument.remove_component": (
        "§4.2 / E8: an online edit removes a component: tests/document/test_document.py, "
        "tests/server/test_decide_equivalence.py, tests/server/test_outbox.py"
    ),
    "repro.media.audio.hmm.CDHMM.viterbi": (
        "§3: CD-HMM Viterbi decoding: tests/media/test_audio_models.py"
    ),
    "repro.media.audio.language.LanguageIdentifier.languages": (
        "§3: the languages a voice is told apart in: tests/media/test_language.py"
    ),
    "repro.media.audio.topics.subject_of": (
        "§3: 'What is the subject of the talk?': tests/media/test_topics.py"
    ),
    "repro.media.audio.wordspot.WordSpotter.spot_stream": (
        "§3: word spotting raises flags in continuous speech: "
        "tests/media/test_wordspot_stream.py"
    ),
    "repro.media.image.ops.AnnotatedImage.delete_element": (
        "§3: deleting of text elements and line elements: tests/media/test_image_core.py"
    ),
    "repro.media.image.ops.AnnotatedImage.render": (
        "§3: text and line annotation drawn on the image: "
        "tests/integration/test_media_pipeline.py, tests/media/test_image_core.py"
    ),
    "repro.media.image.ops._draw_line": (
        "§3: text and line annotation drawn on the image: "
        "tests/integration/test_media_pipeline.py, tests/media/test_image_core.py"
    ),
    "repro.media.image.ops._draw_text": (
        "§3: text and line annotation drawn on the image: "
        "tests/integration/test_media_pipeline.py, tests/media/test_image_core.py"
    ),
    "repro.media.image.segmentation.SegmentationGrid.cell_bounds": (
        "§3: segmentation grid region fill: tests/media/test_image_core.py"
    ),
    "repro.media.image.segmentation.fill_segment": (
        "§3: segmentation grid region fill: tests/media/test_image_core.py"
    ),
    "repro.retrieval.image_index.SimilarImageIndex.remove": (
        "§1: a case withdrawn from similar-case search: "
        "tests/retrieval/test_features_index.py"
    ),
    "repro.retrieval.text.ArticleSearchEngine._has_phrase": (
        "§1: phrase queries over the literature: tests/retrieval/test_text.py"
    ),
    "repro.server.permissions.PermissionPolicy.grant": (
        "§5.3: per-viewer permissions a deployment grants: tests/server/test_interaction.py"
    ),
    "repro.server.triggers.TriggerManager.remove": (
        "§5.3: an event trigger withdrawn: tests/server/test_triggers.py"
    ),
    # ROADMAP items that will give these a consumer.
    "repro.client.client.ClientModule._step_down_tuning": (
        "ROADMAP item 12: §4.4 self-degradation ladder: tests/client/test_degradation.py, "
        "tests/client/test_read_table.py, tests/prefetch/test_lossy.py"
    ),
    "repro.client.client.ClientModule.tuning_level": (
        "ROADMAP item 12: §4.4 self-degradation ladder: tests/client/test_degradation.py, "
        "tests/client/test_read_table.py"
    ),
    "repro.cluster.shard.ShardServer.replication_lag": (
        "ROADMAP item 6a: replication lag on the ledger: tests/cluster/test_failover.py"
    ),
    "repro.net.codec.StringInterner.lookup": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.codec._read_value": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.codec._read_varint": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.codec.decode_batch": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py"
    ),
    "repro.net.codec.decode_batch_traced": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.codec.decode_envelope": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py"
    ),
    "repro.net.codec.decode_envelope_traced": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.codec.decode_message": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.codec.decode_message_traced": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.codec.encode_envelope": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/cluster/test_wire.py, tests/net/test_codec.py, "
        "tests/net/test_codec_trace.py"
    ),
    "repro.net.codec.read_trace_trailers": (
        "ROADMAP item 15: the decoders a shadow receiver would run; the wire-format oracle "
        "today: tests/net/test_codec.py, tests/net/test_codec_trace.py"
    ),
    "repro.net.network.SimulatedNetwork.set_peer_link": (
        "ROADMAP item 15: a peer link installed mid-run carries the next send: "
        "tests/net/test_network.py, tests/net/test_reliable.py"
    ),
    # Oracles: an independent answer a test checks the program against.
    "repro.cpnet.compiled.CompiledCPNet.optimal_outcome": (
        "oracle, compiled tables checked against the interpreted CPTs: "
        "tests/cpnet/test_compiled.py"
    ),
    "repro.cpnet.compiled.CompiledCPNet.table": (
        "oracle, compiled tables checked against the interpreted CPTs: "
        "tests/cpnet/test_compiled.py"
    ),
    "repro.cpnet.compiled._order_for_key": (
        "oracle, compiled tables checked against the interpreted CPTs: "
        "tests/cpnet/test_compiled.py"
    ),
    "repro.cpnet.cpt.CPT.prefers": (
        "oracle, ceteris-paribus comparison a CPT encodes: tests/cpnet/test_cpt.py, "
        "tests/cpnet/test_network.py"
    ),
    "repro.cpnet.dominance.worsening_flips": (
        "oracle, dominance oracle, flipping semantics of Boutilier et al.: "
        "tests/cpnet/test_dominance.py"
    ),
    "repro.cpnet.network.CPNet.copy": (
        "oracle, a second net to compare against: tests/cpnet/test_compiled.py, "
        "tests/cpnet/test_network.py"
    ),
    "repro.cpnet.network.CPNet.edges": (
        "oracle, a second net to compare against: tests/cpnet/test_network.py, "
        "tests/cpnet/test_properties.py, tests/cpnet/test_serialize.py"
    ),
    "repro.cpnet.reasoning.is_optimal": (
        "oracle, brute-force optimality oracle: tests/cpnet/test_properties.py, "
        "tests/cpnet/test_reasoning.py"
    ),
    "repro.cpnet.reasoning.iter_outcomes": (
        "oracle, brute-force optimality oracle: tests/cpnet/test_dominance.py, "
        "tests/cpnet/test_reasoning.py"
    ),
    "repro.cpnet.reasoning.outcome_rank_vector": (
        "oracle, brute-force optimality oracle: tests/cpnet/test_properties.py, "
        "tests/cpnet/test_reasoning.py"
    ),
    "repro.cpnet.updates.ViewerExtension._interpreted_overlay": (
        "oracle, interpreted §4.2 overlay, the compiled sweep's oracle: "
        "tests/cpnet/test_compiled.py, tests/presentation/test_engine.py, "
        "tests/server/test_decide_equivalence.py"
    ),
    "repro.cpnet.updates.ViewerExtension.extension_names": (
        "oracle, interpreted §4.2 overlay, the compiled sweep's oracle: "
        "tests/cpnet/test_compiled.py, tests/server/test_decide_equivalence.py"
    ),
    "repro.cpnet.updates.ViewerExtension.interpreted_best_completion": (
        "oracle, interpreted §4.2 overlay, the compiled sweep's oracle: "
        "tests/cpnet/test_compiled.py, tests/presentation/test_engine.py, "
        "tests/server/test_decide_equivalence.py"
    ),
    "repro.media.audio.hmm.CDHMM.log_backward": (
        "oracle, forward-backward oracle: tests/media/test_audio_models.py"
    ),
    "repro.media.image.wavelet._haar_1d_inverse": (
        "oracle, codec reconstruction oracle: tests/media/test_image_codec.py, "
        "tests/media/test_media_properties.py"
    ),
    "repro.media.image.wavelet.haar_inverse": (
        "oracle, codec reconstruction oracle: tests/media/test_image_codec.py, "
        "tests/media/test_media_properties.py"
    ),
    "repro.presentation.engine.PresentationEngine.clear_choice": (
        "oracle, inverse of apply_choice in the by-definition replay: "
        "tests/presentation/test_engine.py, tests/presentation/test_spec_cache.py"
    ),
    "repro.presentation.engine._check": (
        "oracle, interpreted §4.2 overlay, the compiled sweep's oracle: "
        "tests/cpnet/test_compiled.py, tests/presentation/test_engine.py, "
        "tests/server/test_decide_equivalence.py"
    ),
    "repro.presentation.spec.build_spec": (
        "oracle, from-scratch spec oracle: tests/presentation/test_engine.py, "
        "tests/presentation/test_spec.py, tests/server/test_protocol.py"
    ),
    # Failure paths: a fault, refusal or rollback no seeded run provokes.
    "repro.client.client.ClientModule._rejoin": (
        "failure path, a JOIN bounced by admission, re-sent: tests/client/test_membership.py, "
        "tests/cluster/test_admission.py"
    ),
    "repro.client.monitor.TelemetryMonitor._on_error": (
        "failure path, an ERROR answering a monitor: tests/server/test_monitor.py"
    ),
    "repro.client.monitor.TelemetryMonitor.on_gateway_failover": (
        "failure path, a monitor's gateway dies: tests/cluster/test_gatewaytier.py"
    ),
    "repro.cluster.admission.AdmissionController.drop_parked": (
        "failure path, a parked record whose sender died: tests/cluster/test_admission.py"
    ),
    "repro.cluster.gateway.Gateway._send_error": (
        "failure path, a gateway refusing a client op: "
        "tests/cluster/test_gateway_robustness.py, tests/cluster/test_gateway_routing.py, "
        "tests/integration/test_fault_events.py, tests/integration/test_telemetry_channel.py, "
        "tests/integration/test_unknown_kind.py"
    ),
    "repro.cluster.shard.ShardServer._on_replay_gap": (
        "failure path, a standby's op log with a gap: tests/integration/test_fault_events.py"
    ),
    "repro.db.engine.Database._apply_undo": (
        "failure path, a transaction rolled back: tests/db/test_db_properties.py, "
        "tests/db/test_engine.py"
    ),
    "repro.db.engine.Database.rollback": (
        "failure path, a transaction rolled back: tests/db/test_db_properties.py, "
        "tests/db/test_engine.py"
    ),
    "repro.db.journal.Journal.rollback": (
        "failure path, a transaction rolled back: tests/db/test_db_properties.py, "
        "tests/db/test_engine.py, tests/db/test_journal.py"
    ),
    "repro.db.table.Table.drop_index": (
        "failure path, a transaction rolled back: tests/db/test_engine.py"
    ),
    "repro.server.interaction.InteractionServer._on_monitor": (
        "failure path, a MONITOR reaching a server with no telemetry channel: "
        "tests/server/test_monitor.py"
    ),
    "repro.server.interaction.InteractionServer.on_delivery_failed": (
        "failure path, the reliable layer gives up on a server frame: "
        "tests/integration/test_fault_events.py, tests/integration/test_skipped_update.py, "
        "tests/prefetch/test_lossy.py"
    ),
    "repro.util.failpoints.Failpoints.arm": (
        "failure path, DESIGN §8: crash injection at named failpoints: "
        "tests/chaos/test_failpoints.py, tests/cluster/test_chaos_crashpoints.py, "
        "tests/db/test_journal.py"
    ),
    "repro.util.failpoints.Failpoints.armed": (
        "failure path, DESIGN §8: crash injection at named failpoints: "
        "tests/chaos/test_failpoints.py"
    ),
    "repro.util.failpoints.Failpoints.clear": (
        "failure path, DESIGN §8: crash injection at named failpoints: "
        "tests/chaos/test_failpoints.py"
    ),
    "repro.util.failpoints._Arm.matches": (
        "failure path, DESIGN §8: crash injection at named failpoints: "
        "tests/chaos/test_failpoints.py, tests/cluster/test_chaos_crashpoints.py, "
        "tests/db/test_journal.py"
    ),
    "repro.util.failpoints.set_failpoints": (
        "failure path, DESIGN §8: crash injection at named failpoints: "
        "tests/chaos/test_failpoints.py, tests/cluster/test_chaos_crashpoints.py, "
        "tests/db/test_journal.py"
    ),
    "repro.util.failpoints.use_failpoints": (
        "failure path, DESIGN §8: crash injection at named failpoints: "
        "tests/chaos/test_failpoints.py, tests/cluster/test_chaos_crashpoints.py, "
        "tests/db/test_journal.py"
    ),
    # Database maintenance no conference performs.
    "repro.db.engine.Database.checkpoint": (
        "maintenance, checkpoint and index rebuild: tests/db/test_engine.py, "
        "tests/db/test_maintenance.py, tests/integration/test_end_to_end.py"
    ),
    "repro.db.engine.Database.delete": (
        "maintenance, row delete and table drop: tests/db/test_db_properties.py, "
        "tests/db/test_engine.py, tests/db/test_orm.py, "
        "tests/retrieval/test_features_index.py"
    ),
    "repro.db.engine.Database.drop_table": (
        "maintenance, row delete and table drop: tests/db/test_engine.py"
    ),
    "repro.db.index.HashIndex.delete": (
        "maintenance, row delete and table drop: tests/db/test_db_properties.py, "
        "tests/db/test_index_table.py, tests/retrieval/test_features_index.py"
    ),
    "repro.db.index.OrderedIndex.delete": (
        "maintenance, row delete and table drop: tests/db/test_db_properties.py, "
        "tests/db/test_index_table.py"
    ),
    "repro.db.journal.Journal.checkpoint": (
        "maintenance, checkpoint and index rebuild: tests/db/test_engine.py, "
        "tests/db/test_journal.py, tests/db/test_maintenance.py, "
        "tests/integration/test_end_to_end.py"
    ),
    "repro.db.journal.Journal.truncate": (
        "maintenance, checkpoint and index rebuild: tests/db/test_engine.py, "
        "tests/db/test_journal.py, tests/db/test_maintenance.py, "
        "tests/integration/test_end_to_end.py"
    ),
    "repro.db.table.Table.delete": (
        "maintenance, row delete and table drop: tests/db/test_db_properties.py, "
        "tests/db/test_engine.py, tests/db/test_index_table.py, tests/db/test_orm.py, "
        "tests/retrieval/test_features_index.py"
    ),
    "repro.db.table.Table.indexes": (
        "maintenance, checkpoint and index rebuild: tests/db/test_engine.py, "
        "tests/db/test_maintenance.py, tests/integration/test_end_to_end.py"
    ),
    "repro.db.table.Table.scan": (
        "maintenance, checkpoint and index rebuild: tests/db/test_engine.py, "
        "tests/db/test_maintenance.py, tests/integration/test_end_to_end.py"
    ),
    # Null objects: the disabled half of an interface.
    "repro.obs.dtrace.NullDeliveryTracer.finish_delivery": (
        "null object, a traced context reaching a process whose tracer is off: "
        "tests/obs/test_dtrace.py"
    ),
    "repro.obs.dtrace.NullDeliveryTracer.inbound": (
        "null object, a traced context reaching a process whose tracer is off: "
        "tests/obs/test_dtrace.py"
    ),
    "repro.obs.dtrace.NullDeliveryTracer.record_hop": (
        "null object, a traced context reaching a process whose tracer is off: "
        "tests/obs/test_dtrace.py"
    ),
    "repro.obs.dtrace.NullDeliveryTracer.start_trace": (
        "null object, a traced context reaching a process whose tracer is off: "
        "tests/obs/test_dtrace.py"
    ),
    "repro.obs.metrics._NullFamily.remove": (
        "null object, observability off: tests/obs/test_metric_families.py"
    ),
    "repro.obs.metrics._NullInstrument.summary": (
        "null object, observability off: tests/obs/test_metrics.py"
    ),
    # Test seams: state a test reads.
    "repro.client.buffer.ClientBuffer.clear": (
        "test seam, buffer reset: tests/client/test_buffer.py, "
        "tests/client/test_instrumentation.py"
    ),
    "repro.client.buffer.ClientBuffer.hit_rate": (
        "test seam, buffer hit rate: tests/client/test_buffer.py, "
        "tests/client/test_instrumentation.py"
    ),
    "repro.client.buffer.ClientBuffer.keys": (
        "test seam, buffered entries: tests/client/test_buffer.py, "
        "tests/client/test_display_pins.py"
    ),
    "repro.client.buffer.ClientBuffer.used_bytes": (
        "test seam, §4.4 bounded buffer occupancy: tests/client/test_buffer.py, "
        "tests/client/test_view_client.py"
    ),
    "repro.cluster.admission.AdmissionController.shed_floor": (
        "test seam, shed floor per session: tests/cluster/test_admission.py"
    ),
    "repro.cluster.admission.AdmissionController.stats": (
        "test seam, admission counters: tests/cluster/test_admission.py"
    ),
    "repro.cluster.gateway.Gateway.shard_of_session": (
        "test seam, session route: tests/cluster/test_failover.py, "
        "tests/cluster/test_gateway_robustness.py, tests/cluster/test_gateway_routing.py"
    ),
    "repro.cluster.gatewaytier.GatewayDirectory.shard_of_session": (
        "test seam, session route: tests/cluster/test_failover.py, "
        "tests/cluster/test_gateway_robustness.py, tests/cluster/test_gateway_routing.py"
    ),
    "repro.cluster.replication.ReplicaState.server": (
        "test seam, a standby's caught-up shadow: tests/cluster/test_adoption.py, "
        "tests/cluster/test_interest_replication.py, tests/cluster/test_replication.py, "
        "tests/cluster/test_standby_equivalence.py, tests/integration/test_zero_residue.py"
    ),
    "repro.cluster.ring.HashRing.assignment": (
        "test seam, ring placement: tests/cluster/test_ring.py"
    ),
    "repro.cluster.ring.HashRing.nodes": "test seam, ring membership: tests/cluster/test_ring.py",
    "repro.cluster.shard.ShardServer.standby_for": (
        "test seam, ROADMAP item 1(ii): a shard's standby of one primary: "
        "tests/cluster/test_adoption.py, tests/cluster/test_interest_replication.py, "
        "tests/cluster/test_replication.py, tests/cluster/test_standby_equivalence.py, "
        "tests/integration/test_zero_residue.py"
    ),
    "repro.cpnet.analysis.AuditReport.by_kind": (
        "test seam, authoring findings by kind: tests/cpnet/test_analysis.py"
    ),
    "repro.cpnet.analysis.AuditReport.ok": (
        "test seam, authoring audit verdict: tests/cpnet/test_analysis.py, "
        "tests/document/test_medical_record.py"
    ),
    "repro.document.component.MultimediaComponent.depth": (
        "test seam, tree depth: tests/document/test_component.py, "
        "tests/document/test_document.py"
    ),
    "repro.document.component.MultimediaComponent.is_root": (
        "test seam, tree root: tests/document/test_document.py, "
        "tests/presentation/test_explain.py"
    ),
    "repro.document.presentation.Hidden.is_hidden": (
        "test seam, hidden alternative: tests/document/test_presentation.py"
    ),
    "repro.interest.registry.InterestRegistry.session_ids": (
        "test seam, subscribed sessions: tests/interest/test_registry.py, "
        "tests/server/test_interest_propagation.py"
    ),
    "repro.media.audio.signal.AudioSignal.from_bytes": (
        "test seam, stored audio read back: tests/integration/test_media_pipeline.py, "
        "tests/media/test_audio_core.py"
    ),
    "repro.media.image.image.Image.copy": "test seam, image copy: tests/media/test_image_core.py",
    "repro.media.image.image.Image.zeros": (
        "test seam, blank image: tests/media/test_image_codec.py, "
        "tests/media/test_image_core.py, tests/media/test_jpeg_like.py"
    ),
    "repro.net.batch.Batcher.pending_count": (
        "test seam, frames awaiting flush: tests/net/test_batch.py"
    ),
    "repro.net.codec.StringInterner.id_of": (
        "test seam, interning lockstep: tests/net/test_codec.py"
    ),
    "repro.net.codec._subclass_writer": (
        "test seam, encoding a str or int subclass: tests/net/test_codec.py"
    ),
    "repro.net.codec._write_bytes": "test seam, encoding raw bytes: tests/net/test_codec.py",
    "repro.net.codec._write_none": (
        "test seam, encoding None: tests/cluster/test_gateway_routing.py, "
        "tests/net/test_codec.py, tests/net/test_network.py, tests/server/test_interaction.py"
    ),
    "repro.net.network.SimulatedNetwork.node": (
        "test seam, attached node lookup: tests/net/test_network.py"
    ),
    "repro.net.reliable.ReliableTransport.in_flight": (
        "test seam, unacked frames: tests/net/test_reliable.py"
    ),
    "repro.net.simclock.SimClock.pending": (
        "test seam, scheduled events: tests/cluster/test_service_queue.py, "
        "tests/net/test_simclock_link.py, tests/obs/test_registry_holds_no_owner.py"
    ),
    "repro.obs.events.Event.render": "test seam, one event as text: tests/obs/test_events.py",
    "repro.obs.events.EventLog.clear": (
        "test seam, flight recorder reset: tests/cluster/test_admission.py, "
        "tests/obs/test_events.py"
    ),
    "repro.obs.events.EventLog.filter": (
        "test seam, recorded events under one name prefix: "
        "tests/client/test_instrumentation.py, tests/cluster/test_admission.py, "
        "tests/cluster/test_failover.py, tests/cluster/test_gateway_robustness.py, "
        "tests/cluster/test_gatewaytier.py, tests/db/test_engine.py, "
        "tests/integration/test_fault_events.py, tests/integration/test_unknown_kind.py, "
        "tests/obs/test_events.py"
    ),
    "repro.obs.events.EventLog.tail": "test seam, the newest events: tests/obs/test_events.py",
    "repro.obs.metrics.MetricFamily.children": (
        "test seam, a family's labelled children: tests/obs/test_metric_families.py, "
        "tests/server/test_interaction.py"
    ),
    "repro.obs.metrics.MetricsRegistry.counters": (
        "test seam, registered counters: tests/obs/test_metric_families.py"
    ),
    "repro.obs.metrics.MetricsRegistry.families": (
        "test seam, ROADMAP item 1(iii): label residue: tests/obs/test_metric_families.py, "
        "tests/server/test_interaction.py"
    ),
    "repro.obs.metrics.MetricsRegistry.gauges": (
        "test seam, registered gauges: tests/cluster/test_interest_replication.py, "
        "tests/obs/test_metric_families.py"
    ),
    "repro.obs.metrics.MetricsRegistry.reset": (
        "test seam, registry reset: tests/obs/test_metric_families.py, "
        "tests/obs/test_metrics.py"
    ),
    "repro.prefetch.predictor.PrefetchCandidate.key": (
        "test seam, a candidate's buffer key: tests/prefetch/test_predictor.py"
    ),
    "repro.presentation.engine.PresentationEngine.extension": (
        "test seam, a viewer's §4.2 extension: tests/cpnet/test_compiled.py, "
        "tests/presentation/test_engine.py, tests/server/test_decide_equivalence.py, "
        "tests/server/test_interaction.py"
    ),
    "repro.presentation.engine.PresentationEngine.invalidate": (
        "test seam, spec cache invalidation: tests/cpnet/test_compiled.py, "
        "tests/presentation/test_engine.py, tests/presentation/test_spec_cache.py, "
        "tests/server/test_decide_equivalence.py"
    ),
    "repro.presentation.engine.PresentationEngine.presentations": (
        "test seam, every viewer's spec: tests/cluster/test_replication.py, "
        "tests/cluster/test_standby_equivalence.py, tests/presentation/test_engine.py"
    ),
    "repro.presentation.explain._hiding_ancestor": (
        "test seam, why a component is hidden: an ancestor hides it: "
        "tests/presentation/test_explain.py"
    ),
    "repro.presentation.spec.PresentationSpec.total_bytes": (
        "test seam, a spec's payload bytes: tests/presentation/test_engine.py, "
        "tests/presentation/test_spec.py, tests/presentation/test_tuning.py"
    ),
    "repro.presentation.spec.PresentationSpec.value": (
        "test seam, one component's value: tests/presentation/test_engine.py, "
        "tests/presentation/test_spec.py, tests/presentation/test_spec_cache.py, "
        "tests/server/test_interaction.py, tests/server/test_room.py"
    ),
    "repro.presentation.spec.PresentationSpec.visible": (
        "test seam, visible components: tests/presentation/test_engine.py, "
        "tests/presentation/test_spec.py"
    ),
    "repro.presentation.spec.PresentationView.total_bytes": (
        "test seam, a view's payload bytes: tests/presentation/test_engine.py, "
        "tests/presentation/test_spec.py, tests/presentation/test_tuning.py"
    ),
    "repro.presentation.spec.PresentationView.visible": (
        "test seam, visible components: tests/presentation/test_engine.py, "
        "tests/presentation/test_spec.py"
    ),
    "repro.server.room.Room.frozen_by": (
        "test seam, who froze a component: tests/cluster/test_gatewaytier.py, "
        "tests/server/test_interaction.py, tests/server/test_room.py, "
        "tests/server/test_room_properties.py"
    ),
    "repro.server.room.Room.presentations": (
        "test seam, every member's spec: tests/cluster/test_replication.py, "
        "tests/cluster/test_standby_equivalence.py"
    ),
    "repro.server.room.Room.viewer_ids": (
        "test seam, room members: tests/cluster/test_gatewaytier.py, "
        "tests/cluster/test_replication.py, tests/cluster/test_standby_equivalence.py, "
        "tests/integration/test_end_to_end.py, tests/server/test_interaction.py, "
        "tests/server/test_room_properties.py"
    ),
}

ALLOWLIST_SIZE = 142

#: ``(file, first line, name)`` -> ``module.Qualname`` of a ``def``.
Definitions = dict[tuple[str, int, str], str]


def definitions(package: Path) -> Definitions:
    """Every non-dunder ``def`` under *package*, keyed as its code object
    is: the file, the first line (a decorator's, if it has one), the name."""
    found: Definitions = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)

        def walk(node: ast.AST, inside: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    path_ = (*inside, child.name)
                    dunder = child.name.startswith("__") and child.name.endswith("__")
                    if not isinstance(child, ast.ClassDef) and not dunder:
                        first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                        found[(str(path), first, child.name)] = ".".join((module, *path_))
                    walk(child, path_)
                else:
                    walk(child, inside)

        walk(ast.parse(path.read_text()), ())
    return found


@contextlib.contextmanager
def recording() -> Iterator[dict[int, CodeType]]:
    """The code objects of every Python call made inside the block.

    Keyed by ``id``: hashing a code object hashes its constants."""
    seen: dict[int, CodeType] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


def unrun(defined: Definitions, seen: Mapping[int, CodeType]) -> set[str]:
    """The qualnames of *defined* that no code object in *seen* is."""
    ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in seen.values()}
    return {name for key, name in defined.items() if key not in ran}


def verdict(
    missing: set[str], allowlist: Mapping[str, str]
) -> tuple[list[str], list[str]]:
    """(findings, stale): functions that never ran and are not on
    *allowlist*, and allowlisted functions that ran."""
    return sorted(missing - set(allowlist)), sorted(set(allowlist) - missing)


@contextlib.contextmanager
def _restored(folder: Path) -> Iterator[None]:
    """Put *folder*'s files back as they were (benchmark modules rewrite
    their checked-in metrics snapshots)."""
    kept = {path: path.read_bytes() for path in folder.glob("*") if path.is_file()}
    try:
        yield
    finally:
        for path in folder.glob("*"):
            if path.is_file() and path not in kept:
                path.unlink()
        for path, data in kept.items():
            path.write_bytes(data)


def _run_workloads(root: str) -> str:
    sys.path.insert(0, str(HERE / "ledger"))
    import workloads

    from repro import obs

    failed = []
    for name, setup in workloads.WORKLOADS.items():
        with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
            world = setup(os.path.join(root, name), SEED, 1.0)
            try:
                world.run(world)
            finally:
                world.close()
        if world.outcome.failed:
            failed.append(name)
    return f"ledger workloads {len(workloads.WORKLOADS)}, failed {failed}"


def _run_examples() -> str:
    argv, failed = sys.argv, []
    paths = sorted((ROOT / "examples").glob("*.py"))
    for path in paths:
        sys.argv = [str(path)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exit_:
            if exit_.code not in (None, 0):
                failed.append(path.name)
        finally:
            sys.argv = argv
    return f"examples {len(paths)}, failed {failed}"


def _run_convergence(root: str) -> str:
    from repro.chaos import convergence

    with contextlib.redirect_stdout(io.StringIO()):
        status = convergence.main(["--scenario", "all", "--quick", "--root", root])
    return f"convergence --scenario all --quick exit {status}"


def _run_benchmarks() -> str:
    """Quick mode; pytest's last line is a report, not a gate: a
    wall-clock ratio (``test_bench_obs_overhead.py``) does not hold
    under a profiler, and other CI steps gate these modules."""
    import pytest

    os.environ["REPRO_BENCH_QUICK"] = "1"
    paths = [str(path) for path in sorted(HERE.glob("test_bench_*.py"))]
    out = io.StringIO()
    with _restored(HERE / "metrics"), contextlib.redirect_stdout(out):
        pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys", *paths])
    return f"benchmarks {len(paths)}: {out.getvalue().strip().splitlines()[-1]}"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    assert "repro" not in sys.modules, "the profiler must see repro's first import"
    with tempfile.TemporaryDirectory() as root, recording() as seen:
        sources = [
            _run_workloads(os.path.join(root, "ledger")),
            _run_examples(),
            _run_convergence(os.path.join(root, "convergence")),
            _run_benchmarks(),
        ]
    for line in sources:
        print(line)
    defined = definitions(SRC)
    missing = unrun(defined, seen)
    findings, stale = verdict(missing, ALLOWLIST)
    print(
        f"functions {len(defined)} ran {len(defined) - len(missing)} "
        f"allowlisted {len(ALLOWLIST)} findings {len(findings)} stale {len(stale)}"
    )
    for name in findings:
        print(f"never runs: {name}")
    for name in stale:
        print(f"allowlisted but runs: {name}")
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main())
