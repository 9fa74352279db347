"""Exception hierarchy for the ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError`, so
callers can catch the library root without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class CPNetError(ReproError):
    """Base class for CP-network errors."""


class CyclicNetworkError(CPNetError):
    """The CP-network dependency graph contains a cycle."""


class UnknownVariableError(CPNetError, KeyError):
    """A variable name does not exist in the network."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable.
        return Exception.__str__(self)


class UnknownValueError(CPNetError, ValueError):
    """A value is not in the domain of its variable."""


class IncompleteTableError(CPNetError):
    """A CPT does not cover every assignment to the parent variables."""


class DocumentError(ReproError):
    """Base class for multimedia document errors."""


class DatabaseError(ReproError):
    """Base class for database engine errors."""


class SchemaError(DatabaseError):
    """Table or column definition is invalid, or data violates it."""


class DuplicateKeyError(DatabaseError):
    """A primary-key or unique-index constraint was violated."""


class TransactionError(DatabaseError):
    """Illegal transaction state transition (e.g. commit with none open)."""


class BlobError(DatabaseError):
    """Blob store corruption or unknown blob reference."""


class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class DeliveryFailed(NetworkError):
    """A reliable send exhausted its retry budget (or lost its endpoint).

    Carries enough context for the sender to react: re-route, degrade,
    or surface the loss to the user instead of livelocking on retries.
    """

    def __init__(
        self,
        sender: str,
        recipient: str,
        kind: str,
        seq: int,
        attempts: int,
        reason: str = "retry_budget_exhausted",
        payload: object = None,
    ) -> None:
        super().__init__(
            f"delivery failed {sender!r}->{recipient!r} kind={kind!r} "
            f"seq={seq} after {attempts} attempt(s): {reason}"
        )
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.seq = seq
        self.attempts = attempts
        self.reason = reason
        self.payload = payload


class ChaosError(ReproError):
    """Base class for fault-injection (repro.chaos) errors."""


class CrashInjected(ChaosError):
    """A failpoint simulated a crash at this code point (fail-stop)."""


class ServerError(ReproError):
    """Base class for interaction-server errors."""


class ProtocolError(ServerError):
    """A client message is malformed (a required payload field is missing)."""


class PermissionError_(ServerError):
    """The session lacks the permission required for the operation."""


class RoomError(ServerError):
    """Room membership or room state violation."""


class FrozenObjectError(ServerError):
    """The multimedia object is frozen by another participant."""


class ClusterError(ReproError):
    """Base class for cluster-tier errors (ring, gateway, replication)."""


class ClientError(ReproError):
    """Base class for client-module errors."""


class BufferFullError(ClientError):
    """The client buffer cannot admit the component even after eviction."""


class MediaError(ReproError):
    """Base class for media-processing errors."""


class CodecError(MediaError):
    """Encoding or decoding failed (corrupt stream, bad parameters)."""


class AudioError(MediaError):
    """Audio-processing failure (bad signal, untrained model, ...)."""


class PrefetchError(ReproError):
    """Base class for prefetch-module errors."""
