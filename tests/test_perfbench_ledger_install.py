"""The benchmark's traced run can still wrap every layer it reports.

``perfbench/ledger.py`` wraps each function through its owner's own
``__dict__``, so a refactor that renames, moves, or inherits one of
those functions breaks ``perfbench/run.py --trace 1``.  Installing and
removing the wrappers here makes that a tier-1 failure instead.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _ledger():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        import ledger
    finally:
        sys.path.remove(str(_PERFBENCH))
    return ledger


def test_ledger_installs_and_unwraps():
    ledger = _ledger()
    fsync = os.fsync
    tracer = ledger.Tracer()
    try:
        ledger.install(tracer)
        assert os.fsync is not fsync
    finally:
        tracer.unwrap_all()
    assert os.fsync is fsync


def test_each_store_save_records_one_span(tmp_path):
    """``FileStore`` extends ``MemoryStore``; a save must still record
    exactly one ``store.save`` span and count its line once, so neither
    class's ``save`` may reach the other's wrapper."""
    ledger = _ledger()
    from repro.cluster import FileStore, MemoryStore

    tracer = ledger.Tracer()
    try:
        ledger.install(tracer)
        for store in (MemoryStore(), FileStore(tmp_path / "store")):
            store.initialize()
            store.register(0)
            line = f"checkpoint-of-{type(store).__name__}"
            tracer.reset()
            tracer.active = True
            try:
                store.save(0, line)
            finally:
                tracer.active = False
                store.close()
            assert [span[0] for span in tracer.spans] == ["store.save"]
            assert tracer.counts["store.bytes"] == len(line)
    finally:
        tracer.unwrap_all()
