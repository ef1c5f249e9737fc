"""The correctness gate every benchmark run passes through.

Each check counts as attempted operations; a failed check counts
against ``ok_ops_ratio`` and is printed.  The checks:

* truth: the final ``GlobalView.truth`` equals the generator's exact
  per-key totals (every event of a wrong or missing key counts as a
  failed operation);
* replies: an HTTP reply is 200, strict JSON, and equal to the
  in-process ``ClusterReader`` answer at the same consistency;
* recovery: the view recovered from disk has the fingerprint taken
  before close;
* determinism: every trial of a run ends in the same view;
* epsilon: at most ``EPS_MAX_FRACTION`` of the keys lie outside
  ``EPSILON`` relative error (the paper's guarantee on cluster output).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping

#: The ``nelson_yu`` preset's epsilon.
EPSILON = 0.1
#: Ten times that preset's delta (2**-10): the share of keys allowed
#: outside ``EPSILON`` before the run counts as wrong.
EPS_MAX_FRACTION = 0.01
#: Failures printed per run; the rest are only counted.
MAX_PRINTED = 20


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(body: bytes) -> Any:
    """Parse ``body`` as strict JSON (no NaN or Infinity)."""
    return json.loads(body.decode("utf-8"), parse_constant=_reject_constant)


class Gate:
    def __init__(self, out: Any = sys.stdout) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._out = out

    def record(self, ok: bool, message: str, weight: int = 1) -> None:
        """Count ``weight`` attempted operations, failed unless ``ok``."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.failures.append(message)
            if len(self.failures) <= MAX_PRINTED:
                print(f"gate: FAILED {message}", file=self._out)

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0

    def check_truth(
        self,
        truth: Mapping[str, int] | None,
        totals: Mapping[str, int],
        event_counts: Mapping[str, int],
        label: str,
    ) -> None:
        """One attempted operation per event; a key whose total is wrong
        fails all its events (a key the cluster invented fails one)."""
        truth = dict(truth or {})
        for key, expected in totals.items():
            got = truth.pop(key, 0)
            self.record(
                got == expected,
                f"{label}: truth[{key}] = {got}, expected {expected}",
                weight=event_counts[key],
            )
        for key, got in truth.items():
            self.record(False, f"{label}: unexpected key {key} with count {got}")

    def check_reply(
        self, status: int, body: bytes, expected: Mapping[str, Any], label: str
    ) -> None:
        try:
            payload = strict_json(body) if status == 200 else None
        except ValueError as exc:
            self.record(False, f"{label}: not strict JSON ({exc})")
            return
        # Round-trip the in-process answer through JSON so both sides
        # compare as the same plain types.
        want = json.loads(json.dumps(expected, sort_keys=True))
        self.record(
            status == 200 and payload == want,
            f"{label}: status {status}, reply {body[:200]!r} != {want}",
        )

    def check_equal(self, got: Any, want: Any, label: str) -> None:
        self.record(got == want, f"{label}: mismatch")

    def check_epsilon(
        self, estimates: Mapping[str, float], totals: Mapping[str, int], label: str
    ) -> float:
        """Record the epsilon check; returns the share of keys outside."""
        outside = sum(
            1 for key, truth in totals.items()
            if abs(estimates.get(key, 0.0) - truth) > EPSILON * truth
        )
        share = outside / len(totals)
        self.record(
            share <= EPS_MAX_FRACTION,
            f"{label}: {outside}/{len(totals)} keys outside epsilon={EPSILON}",
        )
        return share
