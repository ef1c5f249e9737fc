"""Abstract interface shared by every counter in the library.

An *approximate counter* supports three operations — ``increment()``,
``add(n)`` (distributionally identical to ``n`` increments, but allowed to
fast-forward), and ``estimate()`` — plus space introspection.

Design notes
------------
* **Ground truth bookkeeping.**  Counters track ``n_increments``, the true
  number of increments fed in.  That is *experiment* bookkeeping for
  computing errors; it is never part of the algorithm's state and is
  excluded from all space accounting.
* **Space accounting.**  ``state_bits(model)`` reports the bits of the
  current algorithm state under a :class:`~repro.memory.model.SpaceModel`;
  a :class:`~repro.memory.tracker.SpaceTracker` records the running
  maximum, since the paper treats space as a random variable and the
  operationally relevant quantity is its maximum over the stream.
* **Serialization.**  ``snapshot()`` / ``restore()`` round-trip the full
  state (used by :class:`~repro.analytics.counter_bank.CounterBank` and the
  lower-bound automaton wrappers, which need to enumerate and reset state).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import MergeError, ParameterError
from repro.memory.model import SpaceModel
from repro.memory.tracker import SpaceTracker
from repro.rng.bitstream import BitBudgetedRandom

__all__ = ["ApproximateCounter", "CounterSnapshot"]


@dataclass(frozen=True, slots=True)
class CounterSnapshot:
    """A serializable snapshot of a counter.

    Attributes
    ----------
    algorithm:
        The counter class's :attr:`~ApproximateCounter.algorithm_name`.
    params:
        Constructor parameters (immutable inputs like ε, a, s).
    state:
        The mutable algorithm state (the bits the paper counts).
    n_increments:
        Ground-truth increments fed so far (bookkeeping, not state).
    """

    algorithm: str
    params: Mapping[str, Any]
    state: Mapping[str, Any]
    n_increments: int


class ApproximateCounter(abc.ABC):
    """Base class for all counters.

    Parameters
    ----------
    rng:
        The random source; pass ``seed`` instead to create one.
    seed:
        Convenience: seed for a fresh :class:`BitBudgetedRandom`.
        Exactly one of ``rng``/``seed`` may be given; a deterministic
        default seed of 0 is used when neither is.
    """

    #: Stable identifier used by snapshots and the factory.
    algorithm_name: str = "abstract"

    def __init__(
        self,
        *,
        rng: BitBudgetedRandom | None = None,
        seed: int | None = None,
    ) -> None:
        if rng is not None and seed is not None:
            raise ParameterError("pass either rng or seed, not both")
        if rng is None:
            rng = BitBudgetedRandom(0 if seed is None else seed)
        self._rng = rng
        self._n_increments = 0
        self._tracker = SpaceTracker()

    # ------------------------------------------------------------------
    # counting interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def increment(self) -> None:
        """Process one increment."""

    def add(self, n: int) -> None:
        """Process ``n`` increments.

        The default implementation loops over :meth:`increment`; counters
        override it with a distribution-exact geometric fast-forward.
        """
        if n < 0:
            raise ParameterError(f"cannot add a negative count: {n}")
        for _ in range(n):
            self.increment()

    def add_per_unit(self, n: int) -> None:
        """Process ``n`` increments one at a time — never fast-forwarded.

        The per-unit reference arm: every unit pays its own coin flip(s),
        exactly as a naive stream simulation would.  The skip-ahead
        equivalence tests compare :meth:`add` against this; it is not a
        production ingest path.
        """
        if n < 0:
            raise ParameterError(f"cannot add a negative count: {n}")
        for _ in range(n):
            self.increment()

    @abc.abstractmethod
    def estimate(self) -> float:
        """Return the current estimate of the true count N."""

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_increments(self) -> int:
        """Ground-truth number of increments processed (bookkeeping only)."""
        return self._n_increments

    @property
    def rng(self) -> BitBudgetedRandom:
        """The counter's random source."""
        return self._rng

    @property
    def space_tracker(self) -> SpaceTracker:
        """Running space tracker (observes after every state change)."""
        return self._tracker

    @property
    def max_state_bits(self) -> int:
        """Maximum state size observed so far, in bits."""
        return self._tracker.max_bits

    @abc.abstractmethod
    def state_bits(self, model: SpaceModel = SpaceModel.AUTOMATON) -> int:
        """Bits of the current algorithm state under ``model``."""

    def relative_error(self) -> float:
        """``|estimate - N| / N`` against the ground-truth count.

        Defined as 0 when no increments have been processed and the
        estimate is also 0.
        """
        n = self._n_increments
        est = self.estimate()
        if n == 0:
            return 0.0 if est == 0 else float("inf")
        return abs(est - n) / n

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _state_dict(self) -> dict[str, Any]:
        """Return the mutable state fields."""

    @abc.abstractmethod
    def _params_dict(self) -> dict[str, Any]:
        """Return the constructor parameters."""

    @abc.abstractmethod
    def _restore_state(self, state: Mapping[str, Any]) -> None:
        """Install state fields previously produced by :meth:`_state_dict`."""

    def snapshot(self) -> CounterSnapshot:
        """Capture the counter's full state."""
        return CounterSnapshot(
            algorithm=self.algorithm_name,
            params=dict(self._params_dict()),
            state=dict(self._state_dict()),
            n_increments=self._n_increments,
        )

    def restore(self, snap: CounterSnapshot) -> None:
        """Restore state from a snapshot taken from a compatible counter."""
        if snap.algorithm != self.algorithm_name:
            raise ParameterError(
                f"snapshot is for {snap.algorithm!r}, "
                f"this counter is {self.algorithm_name!r}"
            )
        if dict(snap.params) != self._params_dict():
            raise ParameterError(
                "snapshot parameters do not match this counter's parameters"
            )
        self._restore_state(snap.state)
        self._n_increments = snap.n_increments
        self._observe_space()

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge_from(self, other: "ApproximateCounter") -> None:
        """Fold ``other``'s count into this counter (Remark 2.4).

        Subclasses that support merging override this; the default reports
        the capability gap explicitly.
        """
        raise MergeError(
            f"{type(self).__name__} does not support merging"
        )

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _observe_space(self) -> None:
        """Record the current state size with the space tracker."""
        self._tracker.observe(self.state_bits(SpaceModel.AUTOMATON))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(n={self._n_increments}, "
            f"estimate={self.estimate():.6g}, "
            f"bits={self.state_bits(SpaceModel.AUTOMATON)})"
        )
