"""The sharded gateway tier: homing, route caches, gateway failover.

Steady state: clients spread across N gateways by consistent hash, JOINs
route by the room ring, and every post-join op rides the gateway's route
cache — zero directory hops on the data plane. Failure: a dead gateway's
clients re-home onto the ring's survivor and replay their parked ops
(exactly-once via the shard-side op_seq fence); a dead shard broadcasts
ROUTE_INVALIDATE so stale cache entries die with it.
"""

import pytest

from repro import obs
from repro.client import ClientModule
from repro.cluster import ClusterConfig, ClusterHarness
from repro.errors import ClusterError
from repro.db import Database, MultimediaObjectStore
from repro.net import SimulatedNetwork
from repro.server import InteractionServer
from repro.server.protocol import MessageKind
from repro.workloads import consultation_events, generate_record

DOCS = ("case-0", "case-1", "case-2")
EVENTS_PER_ROOM = 6
HORIZON = 30.0


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build_store(tmp_path, name):
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    records = {}
    for index, doc_id in enumerate(DOCS):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        records[doc_id] = record
        store.store_document(record)
    return store, records


def drive_tier(tmp_path, name, gateways=2, crash_gateway_of=None, monitor=False):
    """One 3-room conference through the tier; optionally kill a gateway.

    ``crash_gateway_of`` names a viewer whose *home gateway* fail-stops
    between the two halves of every room's choice stream — the worst
    case: parked ops, a warm route cache, live sessions.
    """
    store, records = build_store(tmp_path, name)
    config = ClusterConfig(shards=3, gateways=gateways, failure_timeout=1.5)
    harness = ClusterHarness(store, config)
    clients = {}
    for index, doc_id in enumerate(DOCS):
        pair = [harness.add_client(f"dr-{index}-{j}") for j in range(2)]
        for client in pair:
            client.join(doc_id)
        clients[doc_id] = pair
    mon = harness.add_monitor() if monitor else None
    harness.run()
    streams = {
        doc_id: consultation_events(
            records[doc_id], num_events=EVENTS_PER_ROOM, seed=21 + index
        )
        for index, doc_id in enumerate(DOCS)
    }
    for doc_id, events in streams.items():
        for path, value in events[: EVENTS_PER_ROOM // 2]:
            clients[doc_id][0].choose(path, value)
    harness.run()
    harness.start(until=HORIZON)
    victim = harness.home_of(crash_gateway_of) if crash_gateway_of else None
    if victim is not None:
        harness.run_until(3.0)
        harness.crash(victim)
        harness.run_until(10.0)
    harness.run()
    for doc_id, events in streams.items():
        for path, value in events[EVENTS_PER_ROOM // 2 :]:
            clients[doc_id][1].choose(path, value)
    harness.run()
    return {
        "harness": harness,
        "victim": victim,
        "monitor": mon,
        "clients": clients,
        "final": {
            client.viewer_id: client.displayed()
            for pair in clients.values()
            for client in pair
        },
        "errors": [
            {"viewer": client.viewer_id, **error}
            for pair in clients.values()
            for client in pair
            for error in client.errors
        ],
    }


class TestOpParking:
    """Op parking follows the topology: a client homed on a gateway
    stamps its mutating ops with an ``op_seq`` and logs them for replay;
    a single server's client is never homed and does neither."""

    @staticmethod
    def _uplink(network, client, record):
        """What *client* puts on the wire for a join and one choice."""
        sent = []
        real_send = network.send

        def recording_send(sender, recipient, kind, payload=None, **kwargs):
            if sender == client.node_id:
                sent.append((kind, dict(payload or {})))
            return real_send(sender, recipient, kind, payload=payload, **kwargs)

        network.send = recording_send
        client.join(DOCS[0])
        network.run()
        client.choose(*consultation_events(record, num_events=1, seed=21)[0])
        network.run()
        return sent

    def test_single_server_client_parks_nothing(self, fresh_obs, tmp_path):
        store, records = build_store(tmp_path, "single")
        network = SimulatedNetwork()
        InteractionServer(store, network=network)
        client = ClientModule("lee", network=network, auto_fetch=False)
        network.attach_client(client)
        sent = self._uplink(network, client, records[DOCS[0]])
        assert [kind for kind, _ in sent] == [MessageKind.JOIN, MessageKind.CHOICE]
        assert not any("op_seq" in payload for _, payload in sent)
        assert client._op_log == []

    def test_harness_client_stamps_and_logs_its_ops(self, fresh_obs, tmp_path):
        store, records = build_store(tmp_path, "tier")
        harness = ClusterHarness(store, ClusterConfig(shards=2))
        client = harness.add_client("lee", auto_fetch=False)
        sent = self._uplink(harness.network, client, records[DOCS[0]])
        assert [(kind, payload.get("op_seq")) for kind, payload in sent] == [
            (MessageKind.JOIN, None),
            (MessageKind.CHOICE, 1),
        ]
        assert [kind for kind, _ in client._op_log] == [MessageKind.CHOICE]


class TestTierRouting:
    def test_clients_spread_across_gateways(self, fresh_obs, tmp_path):
        result = drive_tier(tmp_path, "spread", gateways=2)
        harness = result["harness"]
        assert result["errors"] == []
        homes = {
            harness.home_of(client.viewer_id)
            for pair in result["clients"].values()
            for client in pair
        }
        # Six clients over two ring members: both gateways terminate links.
        assert homes == set(harness.gateways)

    def test_route_cache_serves_steady_state(self, fresh_obs, tmp_path):
        result = drive_tier(tmp_path, "steady", gateways=2)
        harness = result["harness"]
        cache = harness.route_cache_stats()
        # Every post-join op hits the cache the JOIN_ACK sniff filled:
        # the directory never fields a data-plane lookup.
        assert cache["hits"] > 0
        assert cache["misses"] == 0
        assert cache["hit_rate"] == 1.0
        assert harness.directory.stats()["sessions_known"] == len(DOCS) * 2

    def test_route_cache_metric_families(self, fresh_obs, tmp_path):
        registry, _ = fresh_obs
        drive_tier(tmp_path, "families", gateways=2)
        counters = registry.snapshot()["counters"]
        for gateway_id in ("gw-1", "gw-2"):
            for family in ("hits", "misses", "invalidations"):
                name = f'gateway.route_cache.{family}{{gateway="{gateway_id}"}}'
                assert name in counters, name
        total_hits = sum(
            value
            for name, value in counters.items()
            if name.startswith("gateway.route_cache.hits{")
        )
        assert total_hits > 0

    def test_route_cache_families_reach_the_dashboard(self, fresh_obs, tmp_path):
        registry, _ = fresh_obs
        drive_tier(tmp_path, "dash", gateways=2)
        panel = obs.render_dashboard(registry.snapshot())
        assert 'gateway.route_cache.hits{gateway="gw-1"}' in panel
        assert 'gateway.route_cache.misses{gateway="gw-2"}' in panel


class TestGatewayFailover:
    def test_crash_rehomes_and_converges(self, fresh_obs, tmp_path):
        control = drive_tier(tmp_path, "control", gateways=2)
        crashed = drive_tier(
            tmp_path, "crashed", gateways=2, crash_gateway_of="dr-0-0"
        )
        assert crashed["errors"] == []
        harness = crashed["harness"]
        victim = crashed["victim"]
        # The failover completed and moved every stranded client.
        assert len(harness.gateway_failovers) == 1
        record = harness.gateway_failovers[0]
        assert record["gateway"] == victim
        assert record["clients"] > 0
        # Everybody now terminates on the survivor.
        survivor = next(g for g in harness.gateways if g != victim)
        for pair in crashed["clients"].values():
            for client in pair:
                assert harness.home_of(client.viewer_id) == survivor
        # And the conference ends byte-identical to the unkilled run.
        assert crashed["final"] == control["final"]

    def test_replay_is_exactly_once(self, fresh_obs, tmp_path):
        registry, _ = fresh_obs
        crashed = drive_tier(
            tmp_path, "replayed", gateways=2, crash_gateway_of="dr-0-0"
        )
        moved = [
            client
            for pair in crashed["clients"].values()
            for client in pair
            if client.gateway_failovers
        ]
        assert moved, "the victim homed at least one client"
        # Writers replay their parked ops; a viewer that had not sent a
        # mutating op yet legitimately replays zero.
        assert any(entry["replayed"] > 0 for c in moved for entry in c.gateway_failovers)
        # The replay re-sent ops the shard had already applied; the
        # op_seq fence dropped them instead of double-applying.
        counters = registry.snapshot()["counters"]
        assert counters.get("cluster.shard.dup_ops_dropped", 0) > 0

    def test_monitor_rehomes_after_crash(self, fresh_obs, tmp_path):
        result = drive_tier(
            tmp_path, "monitored", gateways=2, crash_gateway_of="dr-0-0",
            monitor=True,
        )
        harness = result["harness"]
        mon = result["monitor"]
        # Wherever it started, the monitor ends on a live gateway with a
        # live telemetry session (re-connected by its failover hook if
        # its home was the victim).
        assert harness.network.home_of(mon.node_id) != result["victim"]
        assert mon.session_id is not None


class TestShardFailureInTier:
    def test_shard_crash_invalidates_route_caches(self, fresh_obs, tmp_path):
        store, records = build_store(tmp_path, "inval")
        config = ClusterConfig(shards=3, gateways=2, failure_timeout=1.5)
        harness = ClusterHarness(store, config)
        clients = {}
        for index, doc_id in enumerate(DOCS):
            pair = [harness.add_client(f"dr-{index}-{j}") for j in range(2)]
            for client in pair:
                client.join(doc_id)
            clients[doc_id] = pair
        harness.run()
        streams = {
            doc_id: consultation_events(
                records[doc_id], num_events=EVENTS_PER_ROOM, seed=21 + index
            )
            for index, doc_id in enumerate(DOCS)
        }
        for doc_id, events in streams.items():
            for path, value in events[: EVENTS_PER_ROOM // 2]:
                clients[doc_id][0].choose(path, value)
        harness.run()
        harness.start(until=HORIZON)
        victim = harness.owner_of(DOCS[0])
        harness.run_until(3.0)
        harness.crash(victim)
        harness.run_until(10.0)
        harness.run()
        # The directory broadcast ROUTE_INVALIDATE: entries pointing at
        # the dead shard were dropped from every gateway's cache...
        cache = harness.route_cache_stats()
        assert cache["invalidations"] > 0
        assert victim not in harness.directory.live_shards
        # ...and the next ops took the miss path to the promoted owner.
        for doc_id, events in streams.items():
            for path, value in events[EVENTS_PER_ROOM // 2 :]:
                clients[doc_id][1].choose(path, value)
        harness.run()
        assert len(harness.failovers) >= 1
        errors = [e for pair in clients.values() for c in pair for e in c.errors]
        assert errors == []


class TestSharedGauges:
    def test_late_gateway_does_not_reset_shards_live(self, fresh_obs, tmp_path):
        """Regression: the gauge is the directory's alone — a gateway
        added after the shards exist used to zero it from its ctor."""
        registry, _ = fresh_obs
        store, _ = build_store(tmp_path, "late-gw")
        harness = ClusterHarness(store, ClusterConfig(shards=3))
        assert registry.snapshot()["gauges"]["cluster.shards_live"] == 3
        harness.add_gateway("gw-late")
        gauges = registry.snapshot()["gauges"]
        assert gauges["cluster.shards_live"] == 3
        assert gauges["cluster.gateways_live"] == 2

    def test_sessions_routed_is_labelled_per_gateway(self, fresh_obs, tmp_path):
        """Regression: one unlabelled gauge reported the last writer."""
        registry, _ = fresh_obs
        result = drive_tier(tmp_path, "per-gw", gateways=3)
        harness = result["harness"]
        gauges = registry.snapshot()["gauges"]
        assert "gateway.sessions_routed" not in gauges
        routed = {
            gid: gauges[f'gateway.sessions_routed{{gateway="{gid}"}}']
            for gid in harness.gateways
        }
        assert routed == {
            gid: gateway.stats()["sessions_routed"]
            for gid, gateway in harness.gateways.items()
        }
        # Every session is routed by exactly one gateway: its client's home.
        assert sum(routed.values()) == 6
        assert gauges["directory.sessions_known"] == 6

    def test_server_stats_and_gauges_are_per_server(self, tmp_path):
        """Regression: ``InteractionServer.stats()`` read unlabelled gauges
        that every server in the process wrote — each shard primary and
        each standby's shadow — and that every new server zeroed, so all
        shards reported the last writer's counts (and 0 under
        ``NullRegistry``)."""
        for registry in (obs.MetricsRegistry(), obs.NullRegistry()):
            with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
                store, _ = build_store(tmp_path, type(registry).__name__)
                harness = ClusterHarness(store, ClusterConfig(shards=3))
                for index, doc_id in enumerate(DOCS):
                    for j in range(2**index):  # 1, 2 and 4 viewers
                        harness.add_client(f"dr-{index}-{j}").join(doc_id)
                harness.run()
                # A server built mid-run, as a standby's shadow is on its
                # first REPLICATE, leaves the live ones' numbers alone.
                InteractionServer(store, node_id="late")
                held = {
                    shard_id: (len(shard.server.session_ids), len(shard.server.room_ids))
                    for shard_id, shard in harness.shards.items()
                }
                assert sum(sessions for sessions, _ in held.values()) == 7
                assert len(set(held.values())) > 1  # the shards' loads differ
                gauges = registry.snapshot()["gauges"]
                for shard_id, shard in harness.shards.items():
                    stats = shard.server.stats()
                    assert (stats["sessions"], stats["rooms"]) == held[shard_id]
                    if registry.enabled:
                        node = f'{{node="{shard_id}"}}'
                        assert (
                            gauges["server.sessions_connected" + node],
                            gauges["server.rooms_open" + node],
                        ) == held[shard_id]


class TestZeroResidue:
    def test_everyone_leaving_empties_every_route_table(self, fresh_obs, tmp_path):
        registry, _ = fresh_obs
        result = drive_tier(tmp_path, "residue", gateways=2)
        harness = result["harness"]
        assert harness.directory.stats()["sessions_known"] == 6
        for pair in result["clients"].values():
            for client in pair:
                client.leave()
        harness.run()
        assert result["errors"] == []
        for gateway in harness.gateways.values():
            assert gateway._session_route == {}
            assert gateway._session_key == {}
            assert gateway._route_waiting == {}
        assert harness.directory._session_route == {}
        assert harness.directory._session_key == {}
        gauges = registry.snapshot()["gauges"]
        for gid in harness.gateways:
            assert gauges[f'gateway.sessions_routed{{gateway="{gid}"}}'] == 0
        assert gauges["directory.sessions_known"] == 0


class TestClusterConfig:
    def test_default_is_a_one_gateway_tier(self, fresh_obs, tmp_path):
        store, _ = build_store(tmp_path, "default")
        harness = ClusterHarness(store, ClusterConfig(shards=3))
        assert list(harness.gateways) == ["gw-1"]
        assert harness.directory.live_gateways == ("gw-1",)
        assert harness.directory.live_shards == ("shard-1", "shard-2", "shard-3")

    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterConfig(shards=0)
        for too_few in (0, -1):  # a cluster without a gateway has no way in
            with pytest.raises(ClusterError):
                ClusterConfig(gateways=too_few)
        with pytest.raises(ClusterError):
            ClusterConfig(route_rate=0.0)
