"""Point-to-point links with bandwidth, latency and FIFO serialization.

The transfer time of a message is propagation latency plus transmission
time (``bytes * 8 / bandwidth``); concurrent transfers on the same link
queue behind each other, so a congested narrow link visibly delays large
image payloads — the effect the paper's §4.4 tuning variables react to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validation import check_positive

KBPS = 1_000
MBPS = 1_000_000


@dataclass
class Link:
    """One directed link.

    Parameters
    ----------
    bandwidth_bps:
        Transmission rate in bits/second.
    latency_s:
        One-way propagation delay in seconds.
    """

    bandwidth_bps: float = 10 * MBPS
    latency_s: float = 0.005
    _busy_until: float = field(default=0.0, init=False, repr=False)
    bytes_sent: int = field(default=0, init=False, repr=False)  # charged by the network

    def __post_init__(self) -> None:
        check_positive(self.bandwidth_bps, "bandwidth_bps")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")

    def transmission_time(self, size_bytes: int) -> float:
        """Seconds to clock *size_bytes* onto the wire (no latency/queueing)."""
        return (size_bytes * 8) / self.bandwidth_bps

    def reserve(self, now: float, size_bytes: int) -> tuple[float, float]:
        """Reserve the link for a message; returns ``(wait, arrival)``.

        It starts transmitting when the link frees up (FIFO), *wait* seconds
        from *now*, and arrives one propagation delay after it is sent.
        """
        start = self._busy_until
        if start < now:
            start = now
        done_sending = start + (size_bytes * 8) / self.bandwidth_bps
        self._busy_until = done_sending
        return start - now, done_sending + self.latency_s

    def priority_transfer(self, now: float, size_bytes: int) -> float:
        """Carry a control-plane frame without FIFO queueing.

        Liveness traffic (heartbeats) rides a priority lane — like
        QoS-marked control traffic in a real deployment — so a link
        congested with image payloads does not make a healthy node look
        dead. The network still charges its bytes to the link; the frame
        just never waits, and never delays data traffic either.
        """
        return now + (size_bytes * 8) / self.bandwidth_bps + self.latency_s

    def queueing_delay(self, now: float) -> float:
        """How long a message arriving now would wait before transmitting."""
        return max(0.0, self._busy_until - now)
