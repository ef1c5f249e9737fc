"""Interleaving spreads every measurement over the whole run."""

import phases


def _task(name, steps, log, closed):
    try:
        for step in range(1, steps + 1):
            log.append(name)
            if step < steps:
                yield step / steps
    finally:
        closed.append(name)


def test_interleave_advances_the_least_advanced_task():
    log, closed = [], []
    phases.interleave([_task("a", 2, log, closed), _task("b", 4, log, closed)])
    assert log == ["a", "b", "b", "a", "b", "b"]
    assert sorted(closed) == ["a", "b"]


def test_interleave_closes_every_task_when_one_fails():
    closed = []

    def failing():
        yield 0.5
        raise RuntimeError("boom")

    try:
        phases.interleave([failing(), _task("b", 5, [], closed)])
    except RuntimeError:
        pass
    else:  # pragma: no cover - the failure must propagate
        raise AssertionError("interleave swallowed the failure")
    assert closed == ["b"]


def test_ingest_rate_is_total_events_over_total_run_time():
    runs = phases.RunTotals()
    runs.add(100, 1.0)
    runs.add(300, 1.0)
    assert (runs.calls, runs.events) == (2, 400)
    assert runs.events_per_s == 200.0
