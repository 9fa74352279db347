"""Session replay under a prefetch policy.

Models the §4.4 situation directly: a viewer interacts with a document
over a bandwidth-limited link, holding a bounded buffer. Each viewer
choice triggers a reconfiguration; payloads newly on screen but absent
from the buffer must be transferred *while the viewer waits* (that wait
is the response time the paper worries about). Between choices there is
think time, during which the policy may prefetch payloads into the
buffer for free — bounded by what the link can carry in that time.

Policies: ``none`` (pure demand caching), ``random`` (prefetch random
payloads) and ``cpnet`` (prefetch the predictor's top candidates).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import PrefetchError
from repro.obs import get_registry
from repro.client.buffer import ClientBuffer, entry_key
from repro.document.component import PrimitiveMultimediaComponent
from repro.document.document import MultimediaDocument
from repro.prefetch.predictor import CPNetPredictor
from repro.presentation.tuning import (
    BANDWIDTH_HIGH,
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
    TUNING_VARIABLE,
)

POLICY_NONE = "none"
POLICY_RANDOM = "random"
POLICY_CPNET = "cpnet"
POLICIES = (POLICY_NONE, POLICY_RANDOM, POLICY_CPNET)


@dataclass
class PrefetchReport:
    """Outcome of one replayed session."""

    policy: str
    events: int = 0
    demand_requests: int = 0
    demand_hits: int = 0
    demand_bytes: int = 0
    prefetch_bytes: int = 0
    wasted_prefetch_bytes: int = 0
    total_wait_s: float = 0.0
    waits: list[float] = field(default_factory=list)
    retries: int = 0
    #: (event index, level) each time the session stepped itself down.
    degradations: list[tuple[int, str]] = field(default_factory=list)
    tuning_level: str | None = None

    @property
    def hit_rate(self) -> float:
        return self.demand_hits / self.demand_requests if self.demand_requests else 0.0

    @property
    def mean_wait_s(self) -> float:
        return self.total_wait_s / len(self.waits) if self.waits else 0.0

    @property
    def max_wait_s(self) -> float:
        return max(self.waits) if self.waits else 0.0


class PrefetchSimulator:
    """Replay one viewer's choice sequence under a prefetch policy."""

    def __init__(
        self,
        document: MultimediaDocument,
        policy: str = POLICY_CPNET,
        buffer_bytes: int = 1_000_000,
        bandwidth_bps: float = 2_000_000,
        think_time_s: float = 3.0,
        latency_s: float = 0.02,
        seed: int = 0,
        loss_rate: float = 0.0,
        degrade_on_loss: bool = False,
        degrade_wait_s: float = 2.0,
    ) -> None:
        if policy not in POLICIES:
            raise PrefetchError(f"unknown policy {policy!r}; know {POLICIES}")
        if not 0.0 <= loss_rate < 1.0:
            raise PrefetchError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.document = document
        self.policy = policy
        self.buffer = ClientBuffer(buffer_bytes, owner=f"prefetch-{policy}")
        self.bandwidth_bps = bandwidth_bps
        self.think_time_s = think_time_s
        self.latency_s = latency_s
        self.loss_rate = loss_rate
        self.degrade_on_loss = degrade_on_loss
        self.degrade_wait_s = degrade_wait_s
        self._rng = random.Random(seed)
        self._predictor = CPNetPredictor(document)
        self._prefetched_unused: set[str] = set()
        self._displayed: dict[str, str] = {}
        self._retries = 0
        self._tuning_level: str | None = None

    # ----- mechanics ---------------------------------------------------------------

    def _transfer_time(self, size_bytes: int) -> float:
        base = self.latency_s + (size_bytes * 8) / self.bandwidth_bps
        if self.loss_rate <= 0.0:
            return base
        # Lossy link: each attempt independently fails with loss_rate and
        # is retransmitted whole (ARQ), inflating the viewer-visible wait.
        attempts = 1
        while attempts < 8 and self._rng.random() < self.loss_rate:
            attempts += 1
        self._retries += attempts - 1
        return base * attempts

    def _required_payloads(self, outcome: Mapping[str, str]) -> list[tuple[str, str, int]]:
        """(component, value, size) of every on-screen payload."""
        required = []
        for path, node in self.document.components().items():
            if not isinstance(node, PrimitiveMultimediaComponent):
                continue
            value = outcome.get(path)
            if value is None:
                continue
            size = node.presentation_size(value)
            if size > 0:
                required.append((path, value, size))
        return required

    def _serve(self, outcome: Mapping[str, str], report: PrefetchReport) -> float:
        """Demand-fetch newly needed on-screen payloads; returns the wait.

        A payload already rendered on screen (same component, same value
        as before) stays rendered — only *changed* components generate
        demand requests. The cache question is whether the new form is
        already in the buffer.
        """
        self.buffer.unpin_all()
        wait = 0.0
        for path, value, size in self._required_payloads(outcome):
            key = entry_key(path, value)
            if self._displayed.get(path) == value:
                self.buffer.pin(key)  # keep display-resident entries safe
                continue
            report.demand_requests += 1
            if self.buffer.lookup(key) is not None:
                report.demand_hits += 1
                self._prefetched_unused.discard(key)
            else:
                wait += self._transfer_time(size)
                report.demand_bytes += size
                self.buffer.admit(key, size, priority=1.0)
            self.buffer.pin(key)
        self._displayed = {
            path: value for path, value, _ in self._required_payloads(outcome)
        }
        return wait

    def _prefetch(
        self,
        outcome: Mapping[str, str],
        evidence: Mapping[str, str],
        recent_choices: list[str],
    ) -> int:
        """Fill idle think time with policy-chosen payloads; returns bytes."""
        budget = int(self.bandwidth_bps * self.think_time_s / 8)
        if self.policy == POLICY_NONE or budget <= 0:
            return 0
        if self.policy == POLICY_CPNET:
            candidates = self._predictor.candidates(
                outcome, evidence, recent_choices=recent_choices
            )
        else:  # random
            pool = [
                (path, value, node.presentation_size(value))
                for path, node in self.document.components().items()
                if isinstance(node, PrimitiveMultimediaComponent)
                for value in node.domain
                if node.presentation_size(value) > 0 and outcome.get(path) != value
            ]
            self._rng.shuffle(pool)
            candidates = [
                type("C", (), {"component": p, "value": v, "size_bytes": s, "score": 0.0})()
                for p, v, s in pool
            ]
        fetched = 0
        for candidate in candidates:
            key = entry_key(candidate.component, candidate.value)
            if key in self.buffer:
                continue
            if fetched + candidate.size_bytes > budget:
                continue
            # Prefetched entries rank strictly below demand-cached ones
            # (priority < 1.0): a speculative payload must never evict
            # something the viewer actually displayed.
            score = getattr(candidate, "score", 0.0)
            priority = 0.5 * score / (1.0 + score)
            if self.buffer.admit(
                key, candidate.size_bytes, priority=priority, evict_below=priority
            ):
                fetched += candidate.size_bytes
                self._prefetched_unused.add(key)
        return fetched

    # ----- replay -------------------------------------------------------------------------

    def run(self, events: Iterable[tuple[str, str]]) -> PrefetchReport:
        """Replay a session: initial display, then one reconfig per event."""
        report = PrefetchReport(policy=self.policy)
        evidence: dict[str, str] = {}
        recent: list[str] = []
        outcome = self.document.default_presentation()
        report.waits.append(self._serve(outcome, report))
        report.total_wait_s = sum(report.waits)
        report.prefetch_bytes += self._prefetch(outcome, evidence, recent)
        for component, value in events:
            report.events += 1
            evidence[component] = value
            recent.append(component)
            outcome = self.document.reconfig_presentation(evidence)
            wait = self._serve(outcome, report)
            report.waits.append(wait)
            report.total_wait_s += wait
            self._maybe_degrade(wait, evidence, report)
            report.prefetch_bytes += self._prefetch(outcome, evidence, recent)
        report.wasted_prefetch_bytes = sum(
            self.buffer.lookup(key).size
            for key in list(self._prefetched_unused)
            if key in self.buffer
        )
        # Undo the statistics distortion of the waste audit's lookups.
        report_hits = report.demand_hits
        self.buffer.hits = report_hits
        report.retries = self._retries
        report.tuning_level = self._tuning_level
        self._record_metrics(report)
        return report

    def _maybe_degrade(
        self, wait: float, evidence: dict[str, str], report: PrefetchReport
    ) -> None:
        """§4.4 graceful degradation: waits over budget step the tuning down.

        Only active when the document carries the ``tuning.bandwidth``
        variable (see :func:`repro.presentation.install_bandwidth_tuning`).
        The stepped-down evidence re-partitions every heavy component's
        preference order toward affordable presentations, so subsequent
        reconfigurations stop demanding payloads the link cannot carry.
        """
        if not self.degrade_on_loss or wait <= self.degrade_wait_s:
            return
        if TUNING_VARIABLE not in self.document.network:
            return
        current = self._tuning_level or BANDWIDTH_HIGH
        if current == BANDWIDTH_HIGH:
            next_level = BANDWIDTH_MEDIUM
        elif current == BANDWIDTH_MEDIUM:
            next_level = BANDWIDTH_LOW
        else:
            return  # already at the floor
        self._tuning_level = next_level
        evidence[TUNING_VARIABLE] = next_level
        report.degradations.append((report.events, next_level))

    def _record_metrics(self, report: PrefetchReport) -> None:
        """Publish one replayed session's totals to the registry."""
        obs = get_registry()
        obs.counter("prefetch.retries").inc(report.retries)
        obs.counter("prefetch.degradations").inc(len(report.degradations))
