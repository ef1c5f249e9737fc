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


def test_ledger_installs_and_unwraps():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        import ledger
    finally:
        sys.path.remove(str(_PERFBENCH))
    fsync = os.fsync
    tracer = ledger.Tracer()
    try:
        ledger.install(tracer)
        assert os.fsync is not fsync
    finally:
        tracer.unwrap_all()
    assert os.fsync is fsync
