"""Fixtures shared by the integration tests."""

import pytest

from repro import obs
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record


@pytest.fixture
def rig(tmp_path):
    """``(store, event log)``: the sample medical record in a fresh
    store, under a fresh metrics registry and flight recorder."""
    with obs.use_registry(obs.MetricsRegistry()):
        log = obs.EventLog()
        with obs.use_event_log(log):
            db = Database(str(tmp_path / "db"))
            store = MultimediaObjectStore(db)
            store.store_document(build_sample_medical_record())
            yield store, log
            db.close()
