"""``cluster serve up`` fails fast when a daemon dies before it is ready.

The readiness wait polls for the record-after-bind marker *and* the
child's exit status, so a worker that cannot even bind its socket
fails the launch at once — pointing at its log — instead of holding
the caller for the whole timeout, and leaves no fleet record behind.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import default_template
from repro.cluster.serve import fleet_paths, fleet_up
from repro.errors import StateError

#: ``sun_path`` holds 108 bytes on Linux (104 on the BSDs).
_AF_UNIX_LIMIT = 108


def test_dead_worker_fails_the_launch_at_once(tmp_path):
    root = tmp_path / ("r" * _AF_UNIX_LIMIT)
    socket_path = fleet_paths(root) / "node-0.sock"
    assert len(str(socket_path).encode()) > _AF_UNIX_LIMIT
    started = time.monotonic()
    with pytest.raises(StateError) as excinfo:
        fleet_up(
            root,
            n_nodes=1,
            template=default_template("exact"),
            timeout=20.0,
        )
    assert time.monotonic() - started < 5.0
    message = str(excinfo.value)
    assert str(fleet_paths(root) / "node-0.log") in message
    assert "exited" in message
    base = fleet_paths(root)
    assert not (base / "fleet.json").exists()
    assert not (base / "node-0.pid").exists()
    assert not socket_path.exists()
