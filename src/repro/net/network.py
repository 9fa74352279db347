"""The simulated star network of Figure 1.

All traffic flows between the interaction server (the hub) and client
nodes, each over its own uplink/downlink pair — which is how the paper's
clients "reside anywhere on the network" with individually different
bandwidth. Node objects implement ``receive(message)``; delivery happens
through the shared :class:`~repro.net.simclock.SimClock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MethodType
from typing import Protocol

from repro.errors import DeliveryFailed, NetworkError
from repro.net.codec import BATCH, Frame, mark_reuse
from repro.net.link import Link
from repro.net.message import Message
from repro.net.reliable import NET_ACK, ReliableTransport
from repro.net.simclock import SimClock
from repro.obs import LATENCY_BUCKETS, get_event_log, get_registry
from repro.obs.dtrace import (
    HOP_DOWNLINK,
    HOP_GATEWAY_ROUTE,
    HOP_REPLICATE,
    HOP_UPLINK,
    get_dtrace,
)


#: Kinds carried on the links' priority lane (no FIFO queueing): tiny
#: liveness frames that must not wait behind multi-megabyte payloads,
#: or link congestion becomes indistinguishable from node death.
CONTROL_PLANE_KINDS = ("heartbeat",)


class Node(Protocol):
    """Anything attachable to the network."""

    node_id: str

    def receive(self, message: Message) -> None:
        """Handle a delivered message (called at its arrival time)."""


@dataclass
class NetworkStats:
    """Aggregate traffic accounting (the registry's ``net.messages``,
    ``net.bytes_total``, ``net.drops`` and ``net.batch_unpacked`` read it)."""

    messages: int = field(default=0, init=False)
    bytes_total: int = field(default=0, init=False)
    drops: int = field(default=0, init=False)
    batch_unpacked: int = field(default=0, init=False)


class SimulatedNetwork:
    """A hub-and-spoke network: one hub, many clients, per-client links.

    With ``reliability`` on, application traffic is carried by the ARQ
    layer in :mod:`repro.net.reliable`: sequenced, checksummed, acked,
    retransmitted with backoff, deduplicated and delivered in order per
    directed node pair. Without it the network keeps the original
    fire-and-forget semantics byte for byte.
    """

    def __init__(self, clock: SimClock | None = None, reliability: bool = False) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._nodes: dict[str, Node] = {}
        self._uplinks: dict[str, Link] = {}    # node -> its hub
        self._downlinks: dict[str, Link] = {}  # its hub -> node
        self._hub_id: str | None = None
        self._hubs: set[str] = set()           # nodes terminating client links
        self._home: dict[str, str] = {}        # client -> its serving hub
        self._backbone: set[str] = set()
        self._peer_links: dict[tuple[str, str], Link] = {}  # (from, to)
        # (sender, recipient) -> link, filled on first use. Every
        # topology mutator below clears it, so a route is resolved once
        # per node pair per topology, and a pair found here has both its
        # endpoints attached: send and _transmit check nothing else.
        self._routes: dict[tuple[str, str], Link] = {}
        stats = self.stats = NetworkStats()
        self._obs = get_registry()
        self._events = get_event_log()
        self._dtrace = get_dtrace()
        self._obs.counter("net.drops", read=lambda: stats.drops)
        self._obs.counter("net.batch_unpacked", read=lambda: stats.batch_unpacked)
        self._obs.counter("net.messages", read=lambda: stats.messages)
        self._obs.counter("net.bytes_total", read=lambda: stats.bytes_total)
        self._m_queue_delay = self._obs.histogram("net.queue_delay_s", LATENCY_BUCKETS)
        self.reliability: ReliableTransport | None = (
            ReliableTransport(self) if reliability else None
        )
        #: Typed DeliveryFailed errors surfaced by the reliable layer, in
        #: order (also delivered to senders via ``on_delivery_failed``).
        self.delivery_failures: list[DeliveryFailed] = []
        self._arrive = self._deliver  # bound once, not once per frame

    # ----- topology --------------------------------------------------------------

    def attach_hub(self, node: Node) -> None:
        """Register the hub (the interaction server). Exactly one."""
        if self._hub_id is not None:
            raise NetworkError(f"hub already attached: {self._hub_id!r}")
        self._hub_id = node.node_id
        self._hubs.add(node.node_id)
        self._nodes[node.node_id] = node
        self._routes.clear()

    def attach_gateway(self, node: Node) -> None:
        """Register a gateway-tier node: a backbone peer that also
        terminates client links for the clients homed on it.

        Unlike :meth:`attach_hub` there may be many; clients name their
        serving gateway through :meth:`assign_home`.
        """
        self.attach_backbone(node)
        self._hubs.add(node.node_id)
        self._routes.clear()

    def assign_home(self, node_id: str, hub_id: str) -> None:
        """Home *node_id*'s links on *hub_id* (also re-homes on failover)."""
        if hub_id not in self._hubs:
            raise NetworkError(f"{hub_id!r} is not a hub or gateway")
        self._home[node_id] = hub_id
        self._routes.clear()

    def home_of(self, node_id: str) -> str | None:
        """The hub explicitly assigned to *node_id* (None = the single hub)."""
        return self._home.get(node_id)

    def attach_client(
        self,
        node: Node,
        uplink: Link | None = None,
        downlink: Link | None = None,
    ) -> None:
        """Register a client with its own links to/from the hub."""
        if node.node_id in self._nodes:
            raise NetworkError(f"node {node.node_id!r} already attached")
        self._nodes[node.node_id] = node
        up = self._uplinks[node.node_id] = uplink if uplink is not None else Link()
        down = self._downlinks[node.node_id] = downlink if downlink is not None else Link()
        self._obs.counter(f"net.link.{node.node_id}.up.bytes", read=lambda: up.bytes_sent)
        self._obs.counter(f"net.link.{node.node_id}.down.bytes", read=lambda: down.bytes_sent)
        self._routes.clear()

    def attach_backbone(self, node: Node) -> None:
        """Register a backbone node (a shard, gateway or the directory).

        Backbone nodes exchange traffic with *each other* over dedicated
        peer links — the routing and replication paths of the cluster
        tier. They get no client links: a cluster has no single hub for
        one to reach. Ordinary clients still only ever talk to a hub.
        """
        if node.node_id in self._nodes:
            raise NetworkError(f"node {node.node_id!r} already attached")
        self._nodes[node.node_id] = node
        self._backbone.add(node.node_id)
        self._routes.clear()

    def detach_client(self, node_id: str) -> None:
        if node_id == self._hub_id:
            raise NetworkError("cannot detach the hub")
        self._nodes.pop(node_id, None)
        self._uplinks.pop(node_id, None)
        self._downlinks.pop(node_id, None)
        self._backbone.discard(node_id)
        self._hubs.discard(node_id)
        # Home assignments pointing AT a detached gateway are kept: the
        # directory rewrites them at failover, and until then sends to
        # the dead gateway must fail loudly, not fall back silently.
        self._home.pop(node_id, None)
        # Peer links registered for the node must go too — a stale
        # set_peer_link entry would otherwise survive detachment and be
        # silently reused if a node with the same id ever reattaches.
        self._peer_links = {
            pair: link for pair, link in self._peer_links.items() if node_id not in pair
        }
        self._routes.clear()

    @property
    def hub_id(self) -> str:
        if self._hub_id is None:
            raise NetworkError("no hub attached")
        return self._hub_id

    @property
    def client_ids(self) -> tuple[str, ...]:
        return tuple(
            n for n in self._nodes if n != self._hub_id and n not in self._backbone
        )

    def has_node(self, node_id: str) -> bool:
        """True while *node_id* is attached (backbone senders guard on this)."""
        return node_id in self._nodes

    def set_peer_link(self, sender: str, recipient: str, link: Link) -> None:
        """Install a custom directed backbone link (default: a fresh Link)."""
        if sender not in self._backbone or recipient not in self._backbone:
            raise NetworkError(
                f"peer links connect backbone nodes, got {sender!r}->{recipient!r}"
            )
        self._install_peer_link(sender, recipient, link)
        self._routes.clear()

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"no node {node_id!r} attached") from None

    def downlink(self, node_id: str) -> Link:
        try:
            return self._downlinks[node_id]
        except KeyError:
            raise NetworkError(f"no downlink for {node_id!r}") from None

    def uplink(self, node_id: str) -> Link:
        try:
            return self._uplinks[node_id]
        except KeyError:
            raise NetworkError(f"no uplink for {node_id!r}") from None

    # ----- transfer --------------------------------------------------------------------

    def _install_peer_link(self, sender: str, recipient: str, link: Link) -> Link:
        """Carry sender→recipient on *link*, read by ``net.peer.<sender>.
        <recipient>.bytes`` from now on: once per link, not per route."""
        self._peer_links[(sender, recipient)] = link
        self._obs.counter(f"net.peer.{sender}.{recipient}.bytes", read=lambda: link.bytes_sent)
        return link

    def _resolve_link(self, sender: str, recipient: str) -> Link:
        """The link carrying sender→recipient."""
        pair = (sender, recipient)
        link = self._routes.get(pair)
        if link is None:
            link = self._routes[pair] = self._derive_route(sender, recipient)
        return link

    def _derive_route(self, sender: str, recipient: str) -> Link:
        if (
            sender in self._hubs
            and recipient not in self._hubs
            and self._home.get(recipient, self._hub_id) == sender
        ):
            return self.downlink(recipient)
        if (
            recipient in self._hubs
            and sender not in self._hubs
            and self._home.get(sender, self._hub_id) == recipient
        ):
            return self.uplink(sender)
        if sender in self._backbone and recipient in self._backbone:
            link = self._peer_links.get((sender, recipient))
            return link if link is not None else self._install_peer_link(sender, recipient, Link())
        raise NetworkError(
            f"only hub<->client and backbone peer traffic is modelled, "
            f"got {sender!r}->{recipient!r}"
        )

    def send(self, sender: str, recipient: str, frame: Frame) -> Message:
        """Queue one transmission of *frame*; it is delivered via the
        clock at arrival time.

        Traffic is hub<->client: client-to-client messages are rejected
        (the paper's clients only ever talk to the interaction server,
        which relays room traffic). The message's kind, payload, wire
        size and checksum are the frame's; the reliable layer and every
        retransmission reuse its bytes.
        """
        link = self._routes.get((sender, recipient))
        if link is None:
            if sender not in self._nodes:
                raise NetworkError(f"unknown sender {sender!r}")
            if recipient not in self._nodes:
                raise NetworkError(f"unknown recipient {recipient!r}")
            link = self._resolve_link(sender, recipient)  # validate up front
        if self.reliability is None:
            message = tuple.__new__(Message, (  # Message(...), filled in place
                sender, recipient, frame.kind, frame.payload, frame.size_bytes,
                None, None, 0, frame,
            ))
        else:
            message = self.reliability.prepare(sender, recipient, frame, link)
        self._transmit(message)
        return message

    def _transmit(self, message: Message) -> None:
        """Put one frame on its wire (also the retransmission entry point).

        Every transmission — first send, duplicate, retry — charges the
        link and the network's stats: the wire accounting stays honest
        under retransmission. Chaos (see :class:`repro.chaos.ChaosNetwork`)
        overrides this hook, so injected faults apply to retries too.
        """
        link = self._routes.get((message.sender, message.recipient))
        if link is None:
            if message.sender not in self._nodes or message.recipient not in self._nodes:
                self._drop(message)  # an endpoint died while the frame waited
                return
            link = self._resolve_link(message.sender, message.recipient)
        frame, kind, size = message.frame, message.kind, message.size_bytes
        if frame is not None:
            # Every transmission past the first (fan-out, duplicate,
            # retransmission) ships cached bytes — an encode saved.
            if frame._uses:
                mark_reuse(frame)
            else:
                frame._uses = 1
        now = self.clock.now
        if kind in CONTROL_PLANE_KINDS:
            arrival = link.priority_transfer(now, size)
        else:
            wait, arrival = link.reserve(now, size)
            self._m_queue_delay.observe(wait)
        link.bytes_sent += size
        stats = self.stats
        stats.messages += 1
        stats.bytes_total += size
        # One object per frame in flight, calling _deliver(message) at now + (arrival - now).
        self.clock.schedule(arrival - now, MethodType(self._arrive, message))

    def _deliver(self, message: Message) -> None:
        # The node may have detached between send and arrival; drop the
        # message (the paper's server discards updates for departed
        # clients) but leave a WARN in the flight recorder — a silent
        # drop is exactly the kind of thing post-mortems need to see.
        target = self._nodes.get(message.recipient)
        if target is None:
            self._drop(message)
            return
        if self.reliability is not None:
            if message.kind == NET_ACK:
                self.reliability.on_ack(message)
                return
            if not self.reliability.verify(message):
                return  # corrupt frame quarantined; retransmission repairs
            if message.seq is not None:
                self.reliability.on_frame(message)
                return
        elif message.kind != BATCH and not (
            self._dtrace.enabled and message.frame is not None and message.frame.trace
        ):
            target.receive(message)  # nothing for _hand_off to unwrap or trace
            return
        self._hand_off(message)

    def _hop_name(self, sender: str, recipient: str) -> str:
        """Delivery-tracing name of the sender→recipient wire leg."""
        if recipient in self._hubs:
            return HOP_GATEWAY_ROUTE if sender in self._backbone else HOP_UPLINK
        if sender in self._hubs:
            return HOP_GATEWAY_ROUTE if recipient in self._backbone else HOP_DOWNLINK
        return HOP_REPLICATE

    def _hand_off(self, message: Message) -> None:
        """Final step: hand a (deduped, ordered) frame to its node.

        ``BATCH`` frames (see :mod:`repro.net.batch`) are unwrapped here:
        the node receives the coalesced messages individually, in order,
        and never sees the transport-level envelope.

        This is also where delivery tracing records wire-hop spans: a
        stamped frame's latest context carries its send time, so the hop
        latency is measured at the single deduped/ordered choke point,
        and the advanced context is scoped over ``receive`` so the node
        can continue the chain on its own outbound sends. Batch frames
        carry one context per coalesced member, in entry order.
        """
        target = self._nodes.get(message.recipient)
        if target is None:
            self._drop(message)
            return
        frame = message.frame
        contexts = frame.trace if frame is not None else ()
        dtrace = self._dtrace
        traced = dtrace.enabled and bool(contexts)
        if message.kind == BATCH:
            entries = message.payload or []
            self.stats.batch_unpacked += len(entries)
            hop = self._hop_name(message.sender, message.recipient) if traced else ""
            now = self.clock.now
            for index, entry in enumerate(entries):
                sub_message = Message(
                    message.sender, message.recipient,
                    entry["kind"], entry["payload"], entry.get("size", 0),
                )
                ctx = contexts[index] if traced and index < len(contexts) else None
                if ctx is not None and ctx.trace_id:
                    ctx = dtrace.record_hop(
                        ctx, hop, message.recipient, ctx.sent_at_s, now,
                        kind=entry["kind"],
                    )
                    with dtrace.inbound(ctx):
                        target.receive(sub_message)
                else:
                    target.receive(sub_message)
            return
        if traced:
            ctx = contexts[-1]
            if ctx.trace_id:
                ctx = dtrace.record_hop(
                    ctx,
                    self._hop_name(message.sender, message.recipient),
                    message.recipient,
                    ctx.sent_at_s,
                    self.clock.now,
                    kind=message.kind,
                )
                with dtrace.inbound(ctx):
                    target.receive(message)
                return
        target.receive(message)

    def _drop(self, message: Message) -> None:
        self.stats.drops += 1
        self._events.emit(
            "net.drop",
            severity="WARN",
            at=self.clock.now,
            node=message.recipient,
            kind=message.kind,
            size_bytes=message.size_bytes,
        )

    def run(self) -> int:
        """Drive the clock until the network is quiescent."""
        return self.clock.run()
