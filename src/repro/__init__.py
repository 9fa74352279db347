"""repro — reproduction of *Remote Conferencing with Multimedia Objects*
(Gudes, Domshlak, Orlov; EDBT 2002 Workshops, LNCS 2490).

A cooperative multimedia conferencing stack: a CP-network preference
engine driving document presentation, a multimedia document model, an
embedded object-relational database, a simulated network, an interaction
server with shared rooms, client simulators, preference-based
pre-fetching, and image/voice processing modules.

Subpackages
-----------
``repro.cpnet``
    CP-network preference engine (the paper's core contribution).
``repro.document``
    Hierarchical multimedia documents and presentation alternatives.
``repro.db``
    Embedded object-relational database with BLOB storage (Fig. 7 schema).
``repro.net``
    Discrete-event simulated network (bandwidth / latency).
``repro.server``
    Interaction server: rooms, sessions, change propagation.
``repro.client``
    Headless client modules with bounded buffers.
``repro.presentation``
    The presentation module binding documents, CP-nets and viewer events.
``repro.prefetch``
    Preference-based component pre-fetching (paper §4.4).
``repro.media``
    Image processing + multi-layer codec; CD-HMM voice processing.
``repro.workloads``
    Synthetic medical-record corpora and scripted consultation sessions.
"""

__version__ = "1.0.0"

from repro.cpnet import CPNet, CPNetBuilder, best_completion, optimal_outcome
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import DocumentBuilder, MultimediaDocument, build_sample_medical_record
from repro.net import Link, SimulatedNetwork
from repro.presentation import PresentationEngine, install_bandwidth_tuning
from repro.server import InteractionServer

__all__ = [
    "CPNet",
    "CPNetBuilder",
    "ClientModule",
    "Database",
    "DocumentBuilder",
    "InteractionServer",
    "Link",
    "MultimediaDocument",
    "MultimediaObjectStore",
    "PresentationEngine",
    "SimulatedNetwork",
    "__version__",
    "best_completion",
    "build_sample_medical_record",
    "install_bandwidth_tuning",
    "optimal_outcome",
]
