"""Merge-tree aggregation: the cluster's read path.

Each ingest node holds a partial, per-key view of the traffic (a full view
for cold keys it homes, a slice for split hot keys).  The aggregator folds
the per-node counters for a key up a ``fanout``-ary merge tree — the shape
a distributed reduction would use, with ``ceil(log_fanout(n))`` rounds —
using :func:`~repro.core.merge.merge_all`, which Remark 2.4
guarantees is distribution-exact: the merged counter is statistically
identical to a single counter that ingested the global stream, so nothing
is lost in ε or δ by sharding.

Two query styles mirror :class:`~repro.analytics.sharding.ShardedCounter`:

* *scratch merges* (:meth:`global_estimate`, :meth:`global_view`) clone
  into counters no node bank aliases and leave the banks untouched — the
  periodic "what does the world look like" query.  A view re-merges only
  the keys whose counters changed since the previous fold
  (:class:`FoldMemo`);
* *end-of-window collapse* (:meth:`collapse_window`) produces the final
  :class:`GlobalView` for the window and resets every node to an empty
  bank on a fresh window-derived seed, so the next window starts clean.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analytics.report import BankErrorReport, KeyError_
from repro.cluster.node import IngestNode
from repro.core.base import ApproximateCounter
from repro.core.merge import merge_all
from repro.errors import MergeError, ParameterError
from repro.memory.model import SpaceModel

__all__ = [
    "FoldMemo",
    "GlobalView",
    "MergeTreeAggregator",
    "fold_banks",
    "merge_views",
    "tree_merge",
    "view_fingerprint",
]


def view_fingerprint(
    view: "GlobalView",
) -> tuple[dict[str, float], dict[str, int] | None]:
    """A comparable stamp of a view: per-key estimates plus truth.

    :class:`GlobalView` holds live counter objects (which compare by
    identity), so equality of *answers* — central vs gossiped, serial
    vs parallel, pre- vs post-recovery — is asserted on this
    fingerprint; it is the convention every bit-identity test in
    ``tests/cluster/`` uses.
    """
    return (
        {key: counter.estimate() for key, counter in view.counters.items()},
        dict(view.truth) if view.truth is not None else None,
    )


def tree_merge(
    counters: Sequence[ApproximateCounter], fanout: int
) -> tuple[ApproximateCounter, int]:
    """Fold counters up a ``fanout``-ary tree; returns ``(merged, rounds)``.

    Each group folds through :func:`~repro.core.merge.merge_all`, which
    clones before merging — so even single-counter input yields a fresh
    counter, never an alias of node state.  :func:`fold_banks` applies
    it per key for every read path.
    """
    if fanout < 2:
        raise ParameterError(f"fanout must be >= 2, got {fanout}")
    level = list(counters)
    if len(level) == 1:
        return merge_all(level), 0
    rounds = 0
    while len(level) > 1:
        level = [
            merge_all(level[i : i + fanout])
            for i in range(0, len(level), fanout)
        ]
        rounds += 1
    return level[0], rounds


class FoldMemo:
    """The merged counters of one owner's last fold, keyed by stamps.

    :func:`fold_banks` records, per key, the change stamps of the
    counters it merged (one per contributing part, in part order) next
    to the merged counter and the :func:`tree_merge` rounds it took.
    The next fold reuses the merged counter of every key whose stamps
    all match, so a fold costs clones and merges only for the keys that
    changed.  Reuse is bit-identical: a merge is a pure function of its
    inputs' states and seeds (a clone's stream splits off its source's
    *seed*, never its position), and equal stamps mean equal inputs.

    The memo holds one fold's keys at a time and shares that fold's
    merged counters with the view it returned.  Each fold builds the
    next state from scratch and swaps it in with a single assignment,
    so concurrent folds (HTTP handler threads) each see a consistent
    memo and never grow it.
    """

    __slots__ = ("_state",)

    def __init__(self) -> None:
        #: ``(fanout, key -> (stamps, merged counter, rounds))``.
        self._state: tuple[
            int,
            dict[str, tuple[tuple[int, ...], ApproximateCounter, int]],
        ] = (0, {})

    def __len__(self) -> int:
        return len(self._state[1])


def fold_banks(
    parts: Sequence[
        tuple[
            Mapping[str, ApproximateCounter],
            Mapping[str, int],
            Mapping[str, int] | None,
        ]
    ],
    fanout: int,
    epoch: int,
    memo: FoldMemo,
) -> "GlobalView":
    """Fold per-part counters into one :class:`GlobalView`.

    Each part is ``(counters, stamps, truth)``: the part's ``key ->
    counter`` mapping, the change stamp of each of those counters (same
    keys; :attr:`~repro.analytics.counter_bank.CounterBank.stamps`), and
    its exact counts per key (``None`` when the part does not track
    truth).  Counters are grouped by key in part order and folded with
    :func:`tree_merge`, except that a key whose stamps match ``memo``
    reuses the memoized merged counter (see :class:`FoldMemo`); the view
    reports truth only when every part has it.  This is the one fold
    every read path shares — the central aggregator over node banks, a
    gossip digest over its entries, a fleet reader over pulled worker
    banks — so all of them answer the same keys bit for bit.
    """
    per_key: dict[str, tuple[int, ...]] = {}
    totals: dict[str, int] | None = {}
    for _, stamps, part_truth in parts:
        for key, stamp in stamps.items():
            per_key[key] = per_key.get(key, ()) + (stamp,)
        if part_truth is None:
            totals = None
        elif totals is not None:
            for key, count in part_truth.items():
                totals[key] = totals.get(key, 0) + count
    memo_fanout, last = memo._state
    if memo_fanout != fanout:
        last = {}
    folded: dict[str, tuple[tuple[int, ...], ApproximateCounter, int]] = {}
    for key in sorted(per_key):
        stamps = per_key[key]
        entry = last.get(key)
        if entry is None or entry[0] != stamps:
            counters = [part[key] for part, owned, _ in parts if key in owned]
            try:
                counter, rounds = tree_merge(counters, fanout)
            except MergeError as exc:
                raise MergeError(
                    f"cannot aggregate key {key!r}: {exc}"
                ) from exc
            entry = (stamps, counter, rounds)
        folded[key] = entry
    memo._state = (fanout, folded)
    merged = {key: entry[1] for key, entry in folded.items()}
    return GlobalView(
        counters=merged,
        truth=(
            {key: totals.get(key, 0) for key in merged}
            if totals is not None
            else None
        ),
        merge_rounds=max((entry[2] for entry in folded.values()), default=0),
        epoch=epoch,
    )


@dataclass(frozen=True)
class GlobalView:
    """The aggregator's merged, cluster-wide answer at one instant.

    Attributes
    ----------
    counters:
        One merged counter per key.  These are shared, read-only
        snapshots: never aliases of live node state, but the fold that
        made them may hand the same object to later views of an
        unchanged key (see :class:`FoldMemo`), so callers must not
        mutate them — :func:`merge_views` and every other consumer
        clones before merging.
    truth:
        Exact global shadow counts, when every contributing bank tracked
        them (``None`` otherwise).
    merge_rounds:
        Depth of the merge tree that produced the widest key.
    epoch:
        Router topology epoch the view was captured under (0 for a
        never-rescaled cluster); lets consumers of archived window views
        tell which topology generation produced them.
    """

    counters: Mapping[str, ApproximateCounter]
    truth: Mapping[str, int] | None
    merge_rounds: int
    epoch: int = 0

    @property
    def n_keys(self) -> int:
        """Number of distinct keys in the view."""
        return len(self.counters)

    def estimate(self, key: str) -> float:
        """Merged estimate for ``key`` (0 for unseen keys)."""
        counter = self.counters.get(key)
        return counter.estimate() if counter is not None else 0.0

    def top_keys(self, k: int) -> list[tuple[str, float]]:
        """The ``k`` keys with the largest merged estimates, descending."""
        if k < 0:
            raise ParameterError(f"k must be non-negative, got {k}")
        return heapq.nsmallest(
            k,
            ((key, c.estimate()) for key, c in self.counters.items()),
            key=lambda pair: (-pair[1], pair[0]),
        )

    def total_state_bits(
        self, model: SpaceModel = SpaceModel.AUTOMATON
    ) -> int:
        """State of the merged view (one counter per key), in bits."""
        return sum(c.state_bits(model) for c in self.counters.values())

    def error_report(self) -> BankErrorReport:
        """Per-key error statistics against the global shadow counts."""
        if self.truth is None:
            raise ParameterError(
                "global view has no shadow counts (a bank had "
                "track_truth=False)"
            )
        entries = [
            KeyError_(
                key=key,
                truth=self.truth.get(key, 0),
                estimate=counter.estimate(),
            )
            for key, counter in self.counters.items()
        ]
        return BankErrorReport.from_entries(
            entries, total_state_bits=self.total_state_bits()
        )


class MergeTreeAggregator:
    """Folds per-node banks into global answers via a merge tree.

    Parameters
    ----------
    nodes:
        The ingest nodes to aggregate over.
    fanout:
        Merge-tree arity; 2 models pairwise reduction rounds, larger
        values model wider aggregator machines.
    """

    def __init__(
        self,
        nodes: Sequence[IngestNode],
        fanout: int = 2,
        epoch: int = 0,
    ) -> None:
        if not nodes:
            raise ParameterError("aggregator needs at least one node")
        if fanout < 2:
            raise ParameterError(f"fanout must be >= 2, got {fanout}")
        self._nodes = list(nodes)
        self._fanout = fanout
        self._epoch = epoch
        self._memo = FoldMemo()

    @property
    def nodes(self) -> list[IngestNode]:
        """The aggregated nodes (live references)."""
        return list(self._nodes)

    @property
    def epoch(self) -> int:
        """Topology epoch stamped into produced views."""
        return self._epoch

    def set_nodes(
        self, nodes: Sequence[IngestNode], epoch: int | None = None
    ) -> None:
        """Swap the aggregated membership (elastic scaling, recovery).

        The simulation calls this whenever a node is added, removed, or
        replaced after a crash, passing the router's new epoch so views
        produced from here on are stamped with the topology generation
        that made them.
        """
        if not nodes:
            raise ParameterError("aggregator needs at least one node")
        self._nodes = list(nodes)
        if epoch is not None:
            self._epoch = epoch

    # ------------------------------------------------------------------
    # scratch-merge queries
    # ------------------------------------------------------------------
    def global_estimate(self, key: str) -> float:
        """Cluster-wide estimate for one key (non-destructive)."""
        counters = [
            bank.counter(key)
            for bank in (node.bank for node in self._nodes)
        ]
        present = [c for c in counters if c is not None]
        if not present:
            return 0.0
        merged, _ = tree_merge(present, self._fanout)
        return merged.estimate()

    def global_view(self) -> GlobalView:
        """Merge every key across all nodes (non-destructive).

        Nodes are flushed first so the view reflects all accepted
        traffic.  This is the central fold (:meth:`_fold_view`) that a
        :class:`~repro.cluster.query.ClusterReader` consistent read
        pays for, so every caller of ``global_view()`` and every reader
        query answer from the same path, bit for bit.
        """
        return self._fold_view()

    def _fold_view(self) -> GlobalView:
        """The central fold itself: flush every node, merge every key
        that changed since the last fold (the rest come from the memo).

        :class:`~repro.cluster.query.ClusterReader` calls this on its
        consistent path; everything else should go through the reader
        (or the :meth:`global_view` shim).
        """
        for node in self._nodes:
            node.flush()
        return fold_banks(
            [
                (node.bank.counters, node.bank.stamps, node.bank.truths)
                for node in self._nodes
            ],
            self._fanout,
            self._epoch,
            self._memo,
        )

    # ------------------------------------------------------------------
    # end-of-window collapse
    # ------------------------------------------------------------------
    def collapse_window(self, window: int = 1) -> GlobalView:
        """Final view for the window, then reset every node to empty.

        Each node gets a fresh bank built from its template on a seed
        derived from the old bank's seed and ``window``, so successive
        windows are deterministic yet use unrelated random streams (the
        :meth:`~repro.analytics.sharding.ShardedCounter.reset` convention).
        """
        view = self.global_view()
        for node in self._nodes:
            node.reset(window)
        return view


def merge_views(views: Sequence[GlobalView]) -> GlobalView:
    """Merge several :class:`GlobalView`\\ s into one combined view.

    The retention layer uses this to assemble the cluster's *horizon*
    answer: archived window views plus the live view fold together
    per key via :func:`~repro.core.merge.merge_all`, which Remark 2.4
    guarantees is distribution-exact — so a windowed cluster's horizon
    estimate is distributed identically to one that never collapsed.

    Truth maps are summed when every input view carries one (``None``
    otherwise); ``merge_rounds`` reports the deepest input tree plus one
    extra cross-view round when views actually combined; ``epoch`` is
    the newest input epoch.

    Raises :class:`~repro.errors.ParameterError` on an empty sequence.
    """
    if not views:
        raise ParameterError("cannot merge an empty sequence of views")
    if len(views) == 1:
        return views[0]
    per_key: dict[str, list[ApproximateCounter]] = {}
    for view in views:
        for key, counter in view.counters.items():
            per_key.setdefault(key, []).append(counter)
    tracked = all(view.truth is not None for view in views)
    truth: dict[str, int] | None = {} if tracked else None
    merged: dict[str, ApproximateCounter] = {}
    combined = any(len(counters) > 1 for counters in per_key.values())
    for key in sorted(per_key):
        try:
            merged[key] = merge_all(per_key[key])
        except MergeError as exc:
            raise MergeError(
                f"cannot merge views at key {key!r}: {exc}"
            ) from exc
        if truth is not None:
            truth[key] = sum(
                view.truth.get(key, 0)
                for view in views
                if view.truth is not None
            )
    return GlobalView(
        counters=merged,
        truth=truth,
        merge_rounds=(
            max(view.merge_rounds for view in views) + (1 if combined else 0)
        ),
        epoch=max(view.epoch for view in views),
    )
