"""Packed-forest inference: every tree of a GBDT evaluated in one pass.

:class:`~repro.ml.tree.HistogramTree` stores each tree as flat
heap-indexed arrays, so a fitted forest is really a ragged pile of
identically-shaped vectors.  :class:`PackedForest` concatenates them
into ``(n_trees, n_nodes)`` matrices and routes **all samples through
all trees per depth level** with a handful of flat gathers, instead of
the per-tree Python loop legacy ``decision_function``/``predict`` used.

Layout tricks that keep the hot loop tight:

- Leaves are *self-looping*: the packed child table sends a sample that
  has reached a leaf back to the same node, so every level is the same
  three gathers — no "still routable" masking or early-exit bookkeeping.
  (A leaf's packed split feature is 0 and its cut is a sentinel above
  any bin code, so the dummy comparison is well-defined.)
- Left/right children are interleaved in one table indexed by
  ``2 * node + goes_left``, replacing two gathers plus a select with a
  single gather.
- All node tables are flattened to 1-D and indexed by
  ``tree_offset + heap_index`` (int32), so each gather reads a small,
  cache-resident table.

Routing is bit-identical to :meth:`HistogramTree.predict`: a
(sample, tree) pair descends while its node is an internal split and
reads the same ``value`` cell a per-tree walk would.  Samples are
processed in row chunks so the working set stays at
``O(chunk x n_trees)`` regardless of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tree import HistogramTree

__all__ = ["PackedForest"]

#: Rows routed per chunk, sized so the per-chunk leaf-value matrix stays
#: cache-resident for forests of a few hundred trees.
_DEFAULT_CHUNK = 8_192


@dataclass
class PackedForest:
    """A forest of heap-indexed trees packed into contiguous matrices.

    Attributes
    ----------
    feature, split_bin, value:
        ``(n_trees, n_nodes)`` per-node arrays (see
        :class:`HistogramTree` for their meaning); ``feature`` is ``-1``
        at leaves and unreached nodes.
    max_depth:
        Common depth bound of all packed trees.
    """

    feature: np.ndarray
    split_bin: np.ndarray
    value: np.ndarray
    max_depth: int
    # Flattened routing tables (derived in __post_init__).
    _feat0: np.ndarray = field(init=False, repr=False)
    _cut: np.ndarray = field(init=False, repr=False)
    _child2: np.ndarray = field(init=False, repr=False)
    _value_flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_trees, n_nodes = self.feature.shape
        if 2 * n_trees * n_nodes >= np.iinfo(np.int32).max:
            raise ValueError("packed forest too large for int32 node indexing")
        flat_feature = self.feature.ravel().astype(np.int32)
        internal = flat_feature >= 0
        # Dummy split (feature 0, cut above any uint8 bin code) at
        # leaves keeps the per-level comparison branch-free.
        self._feat0 = np.where(internal, flat_feature, 0).astype(np.int32)
        self._cut = np.where(
            internal, self.split_bin.ravel(), np.iinfo(np.int16).max
        ).astype(np.int16)
        idx = np.arange(n_trees * n_nodes, dtype=np.int32)
        local = idx % n_nodes
        base = idx - local
        # child2[2*i + goes_left]: interleaved children within the same
        # tree's flat block; leaves loop back to themselves so routing
        # is idempotent past each tree's actual depth.
        child2 = np.empty(2 * n_trees * n_nodes, dtype=np.int32)
        child2[0::2] = np.where(internal, base + 2 * local + 2, idx)
        child2[1::2] = np.where(internal, base + 2 * local + 1, idx)
        self._child2 = child2
        self._value_flat = np.ascontiguousarray(self.value.ravel(), dtype=float)
        #: per-tree root offsets into the flat node tables
        self._roots = np.arange(n_trees, dtype=np.int32) * np.int32(n_nodes)
        # Routing scratch, reused across chunks/calls (keyed by chunk
        # shape); the hot loop then runs entirely in preallocated
        # buffers via gather-with-out and in-place ufuncs.
        self._bufs: dict = {}

    def _chunk_bufs(self, m: int, p: int, xdtype) -> dict:
        """Preallocated routing buffers for an ``(m, p)`` chunk."""
        key = (m, p, np.dtype(xdtype).char)
        bufs = self._bufs.get(key)
        if bufs is None:
            n_trees = self.feature.shape[0]
            shape = (m, n_trees) if m else (self.n_trees,)
            if len(self._bufs) > 6:
                self._bufs.clear()
            bufs = self._bufs[key] = {
                "node": np.empty(shape, dtype=np.int32),
                "f": np.empty(shape, dtype=np.int32),
                "xb": np.empty(shape, dtype=xdtype),
                "cut": np.empty(shape, dtype=np.int16),
                "goes": np.empty(shape, dtype=bool),
                "leaf": np.empty(shape, dtype=float),
                "row_off": (np.arange(m, dtype=np.int32) * np.int32(p))[:, None]
                if m
                else None,
            }
        return bufs

    @classmethod
    def from_trees(cls, trees: Sequence[HistogramTree]) -> "PackedForest":
        """Pack fitted trees (all grown with the same ``max_depth``)."""
        if not trees:
            raise ValueError("cannot pack an empty forest")
        depths = {t.max_depth for t in trees}
        if len(depths) != 1:
            raise ValueError(f"trees have mixed max_depth values: {sorted(depths)}")
        return cls(
            feature=np.ascontiguousarray([t.feature for t in trees], dtype=np.int32),
            split_bin=np.ascontiguousarray([t.split_bin for t in trees], dtype=np.int32),
            value=np.ascontiguousarray([t.value for t in trees], dtype=float),
            max_depth=depths.pop(),
        )

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]

    def _route_chunk(self, Xc: np.ndarray) -> np.ndarray:
        """Leaf values for one row chunk, shape ``(len(Xc), n_trees)``.

        Runs in this forest's reusable scratch buffers: the returned
        array is overwritten by the next routing call, so callers must
        consume (or copy) it before routing again.
        """
        m, p = Xc.shape
        xflat = np.ascontiguousarray(Xc).reshape(-1)
        bufs = self._chunk_bufs(m, p, xflat.dtype)
        node, f, xb = bufs["node"], bufs["f"], bufs["xb"]
        cut, goes, row_off = bufs["cut"], bufs["goes"], bufs["row_off"]
        node[:] = self._roots
        for _ in range(self.max_depth):
            np.take(self._feat0, node, out=f)
            f += row_off
            np.take(xflat, f, out=xb)
            np.take(self._cut, node, out=cut)
            np.less_equal(xb, cut, out=goes)
            np.left_shift(node, 1, out=node)
            np.add(node, goes, out=node)
            np.take(self._child2, node, out=node)
        leaf = bufs["leaf"]
        np.take(self._value_flat, node, out=leaf)
        return leaf

    def predict(
        self, X_binned: np.ndarray, chunk_size: int = _DEFAULT_CHUNK
    ) -> np.ndarray:
        """Leaf values of every tree for every sample, shape ``(n, n_trees)``.

        Column ``j`` equals ``trees[j].predict(X_binned)`` exactly.
        """
        n = X_binned.shape[0]
        out = np.empty((n, self.n_trees), dtype=float)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            out[start:stop] = self._route_chunk(X_binned[start:stop])
        return out

    def decision_scores(
        self,
        X_binned: np.ndarray,
        base_score: np.ndarray | float,
        learning_rate: float,
        n_classes: int = 1,
        chunk_size: int = _DEFAULT_CHUNK,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boosted raw scores ``base + lr * sum_r leaf_r``, shape ``(n, k)``.

        Trees must be packed round-major (``round0 class0..k-1, round1
        class0..k-1, ...``, the fit order of the GBT estimators).  The
        per-round accumulation runs inside the routing chunk, in fit
        order, so results are bit-identical to the legacy sequential
        per-tree loop while the leaf matrix is still cache-hot.
        ``out`` optionally receives the scores (shape ``(n, k)``),
        letting a serving loop reuse one result buffer across calls.
        """
        n = X_binned.shape[0]
        n_trees = self.n_trees
        if n_classes < 1 or n_trees % n_classes:
            raise ValueError(
                f"n_trees={n_trees} is not a multiple of n_classes={n_classes}"
            )
        n_rounds = n_trees // n_classes
        base = np.broadcast_to(np.asarray(base_score, dtype=float), (n_classes,))
        if out is None:
            out = np.empty((n, n_classes), dtype=float)
        elif out.shape != (n, n_classes):
            raise ValueError(f"out has shape {out.shape}, expected {(n, n_classes)}")
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            leaf = self._route_chunk(X_binned[start:stop])
            raw = out[start:stop]
            raw[:] = base
            for r in range(n_rounds):
                raw += learning_rate * leaf[:, r * n_classes : (r + 1) * n_classes]
        return out

    def decision_scores_one(
        self,
        x_binned: np.ndarray,
        base_score: np.ndarray | float,
        learning_rate: float,
        n_classes: int = 1,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boosted raw scores for a single sample, shape ``(n_classes,)``.

        The request-at-a-time serving path: routes the sample through
        1-D scratch buffers (no per-call allocations beyond the result
        when ``out`` is omitted) while accumulating per round in fit
        order, so the scores are bit-identical to row ``i`` of
        :meth:`decision_scores` on a batch containing the sample.
        """
        n_trees = self.n_trees
        if n_classes < 1 or n_trees % n_classes:
            raise ValueError(
                f"n_trees={n_trees} is not a multiple of n_classes={n_classes}"
            )
        x = np.asarray(x_binned)
        if x.ndim != 1:
            raise ValueError("decision_scores_one routes exactly one sample")
        bufs = self._chunk_bufs(0, x.size, x.dtype)
        node, f, xb = bufs["node"], bufs["f"], bufs["xb"]
        cut, goes = bufs["cut"], bufs["goes"]
        feat0, cut_tab, child2 = self._feat0, self._cut, self._child2
        node[:] = self._roots
        for _ in range(self.max_depth):
            feat0.take(node, out=f)
            x.take(f, out=xb)
            cut_tab.take(node, out=cut)
            np.less_equal(xb, cut, out=goes)
            np.left_shift(node, 1, out=node)
            np.add(node, goes, out=node)
            child2.take(node, out=node)
        leaf = bufs["leaf"]
        self._value_flat.take(node, out=leaf)
        if out is None:
            out = np.empty(n_classes, dtype=float)
        # acc[0] = base, acc[r + 1] = lr * round r's leaves; a running
        # sum down axis 0 adds the rounds in fit order, the exact
        # addition sequence of decision_scores' per-round loop.
        n_rounds = n_trees // n_classes
        acc = bufs.get("acc")
        if acc is None or acc.shape != (n_rounds + 1, n_classes):
            acc = bufs["acc"] = np.empty((n_rounds + 1, n_classes))
        acc[0] = base_score
        np.multiply(
            leaf.reshape(n_rounds, n_classes), learning_rate, out=acc[1:]
        )
        np.add.accumulate(acc, axis=0, out=acc)
        out[:] = acc[-1]
        return out
