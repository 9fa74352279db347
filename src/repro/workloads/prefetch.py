"""E7's §4.4 pre-fetching study, run on the live stack.

One viewer replays a consultation through a stock
:class:`~repro.client.ClientModule` and its bounded buffer, joined to an
:class:`~repro.server.InteractionServer` over one uplink/downlink pair of
the given bandwidth. A choice's *wait* is the simulated time until the
client is fully rendered after the resulting update; the initial
display's wait counts from the join, and a choice of the value already
on screen, which gets no update, waits zero. After each settle the
viewer thinks, and at the start of the think time the policy spends up
to what the link carries in that time on ordinary payload fetches:

* ``none`` — demand caching only;
* ``random`` — a seeded shuffle of every payload not on screen;
* ``cpnet`` — :class:`~repro.prefetch.CPNetPredictor`'s ranking over the
  served room's live document.

Prefetches that overrun the think time queue ahead of the next demand on
the FIFO link. Loss comes from a seeded :class:`~repro.chaos.FaultPlan`
over the reliable transport, and the client's own §4.4 ladder reacts to
the fetches the transport gives up on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro import obs
from repro.chaos.network import ChaosNetwork
from repro.chaos.plan import FaultPlan
from repro.client.buffer import entry_key
from repro.client.client import ClientModule
from repro.db.orm import MultimediaObjectStore
from repro.document.component import PrimitiveMultimediaComponent
from repro.document.document import MultimediaDocument
from repro.errors import PrefetchError
from repro.net.link import Link
from repro.net.simclock import SimClock
from repro.prefetch.predictor import CPNetPredictor
from repro.presentation.tuning import TUNING_VARIABLE
from repro.server.interaction import InteractionServer

POLICY_NONE = "none"
POLICY_RANDOM = "random"
POLICY_CPNET = "cpnet"
POLICIES = (POLICY_NONE, POLICY_RANDOM, POLICY_CPNET)


@dataclass
class PrefetchReport:
    """Outcome of one replayed session."""

    policy: str
    events: int = field(default=0, init=False)
    #: the client buffer's own lookups of newly displayed payloads.
    demand_requests: int = field(default=0, init=False)
    demand_hits: int = field(default=0, init=False)
    prefetch_bytes: int = field(default=0, init=False)
    #: prefetched bytes never on screen after their fetch.
    wasted_prefetch_bytes: int = field(default=0, init=False)
    #: one per display: the initial one, then one per choice.
    waits: list[float] = field(default_factory=list, init=False)
    retries: int = field(default=0, init=False)
    #: the §4.4 tuning level on screen at the end (None: the document
    #: has no tuning variable).
    tuning_level: str | None = field(default=None, init=False)
    fully_rendered: bool = field(default=False, init=False)

    @property
    def total_wait_s(self) -> float:
        return sum(self.waits)

    @property
    def hit_rate(self) -> float:
        return self.demand_hits / self.demand_requests if self.demand_requests else 0.0

    @property
    def mean_wait_s(self) -> float:
        return self.total_wait_s / len(self.waits) if self.waits else 0.0

    @property
    def max_wait_s(self) -> float:
        return max(self.waits) if self.waits else 0.0


def run_prefetch_session(
    store: MultimediaObjectStore,
    document: MultimediaDocument,
    events: Iterable[tuple[str, str]],
    policy: str = POLICY_CPNET,
    buffer_bytes: int = 1_000_000,
    bandwidth_bps: float = 2_000_000,
    think_time_s: float = 3.0,
    seed: int = 0,
    plan: FaultPlan | None = None,
) -> PrefetchReport:
    """Store *document*, then replay *events* as one viewer's choices,
    in a metrics registry of the session's own."""
    if policy not in POLICIES:
        raise PrefetchError(f"unknown policy {policy!r}; know {POLICIES}")
    store.store_document(document)
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        network = ChaosNetwork(reliability=True, plan=plan)
        server = InteractionServer(store, network=network)
        client = ClientModule("viewer", network=network, buffer_bytes=buffer_bytes)
        network.attach_client(
            client,
            uplink=Link(bandwidth_bps=bandwidth_bps),
            downlink=Link(bandwidth_bps=bandwidth_bps),
        )
        clock = network.clock
        report = PrefetchReport(policy=policy)
        budget = int(bandwidth_bps * think_time_s / 8)
        rng = random.Random(seed)
        evidence: dict[str, str] = {}
        recent: list[str] = []
        unused: dict[str, int] = {}  # prefetched key -> size, not shown since
        start = clock.now
        client.join(document.doc_id)
        _settle(clock, client, answered=-1)
        report.waits.append(clock.now - start)
        live = server.room(client.room_id).document
        predictor = CPNetPredictor(live) if policy == POLICY_CPNET else None
        for component, value in events:
            shown = _mark_shown(client, unused)
            if predictor is not None:
                ranked = predictor.candidates(shown, evidence, recent_choices=recent)
                candidates = [(c.component, c.value, c.size_bytes) for c in ranked]
            else:
                candidates = _payloads_off_screen(live, shown) if policy == POLICY_RANDOM else []
                rng.shuffle(candidates)
            report.prefetch_bytes += _prefetch(client, candidates, budget, unused)
            clock.run_until(clock.now + think_time_s)
            report.events += 1
            evidence[component] = value
            recent.append(component)
            start, answered = clock.now, len(client.response_times)
            on_screen = client.displayed().get(component) == value
            client.choose(component, value)
            if not on_screen:
                _settle(clock, client, answered)
            report.waits.append(clock.now - start)
        _mark_shown(client, unused)
        network.run()
    report.demand_hits = client.buffer.hits
    report.demand_requests = client.buffer.hits + client.buffer.misses
    report.wasted_prefetch_bytes = sum(unused.values())
    report.retries = sum(network.reliability.retries.values())
    report.tuning_level = client.displayed().get(TUNING_VARIABLE)
    report.fully_rendered = client.fully_rendered()
    return report


def _settle(clock: SimClock, client: ClientModule, answered: int) -> None:
    """Run the clock until the client has more than *answered* responses
    to its actions and is fully rendered, or nothing is left to run."""
    while len(client.response_times) <= answered or not client.fully_rendered():
        if not clock.step():
            return


def _mark_shown(client: ClientModule, unused: dict[str, int]) -> dict[str, str]:
    """The client's display, after striking its payloads off *unused*."""
    shown = client.displayed()
    for path, value in shown.items():
        unused.pop(entry_key(path, value), None)
    return shown


def _payloads_off_screen(
    document: MultimediaDocument, shown: dict[str, str]
) -> list[tuple[str, str, int]]:
    """(component, value, size) of every payload-bearing form not on screen."""
    return [
        (path, value, node.presentation_size(value))
        for path, node in document.components().items()
        if isinstance(node, PrimitiveMultimediaComponent)
        for value in node.domain
        if node.presentation_size(value) > 0 and shown.get(path) != value
    ]


def _prefetch(
    client: ClientModule,
    candidates: list[tuple[str, str, int]],
    budget: int,
    unused: dict[str, int],
) -> int:
    """Fetch unbuffered candidates, best first, until *budget* bytes or
    the buffer's free space runs out; returns bytes."""
    buffer = client.buffer
    budget = min(budget, buffer.free_bytes)
    spent = 0
    for component, value, size in candidates:
        key = entry_key(component, value)
        if key in buffer or spent + size > budget:
            continue
        client.fetch_payload(component, value)
        unused[key] = size
        spent += size
    return spent
