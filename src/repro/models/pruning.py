"""Attention-score-based temporal neighbor pruning (§III-B).

The simplified attention computes its logits from Δt *alone*, before any
hidden feature is fetched.  That ordering is what makes pruning profitable:
for a budget ``p`` we keep the ``p`` highest-logit valid neighbors, apply the
softmax only to them, and fetch/compute values only for them — a linear
reduction in both MACs and external-memory accesses.

On the FPGA this same decision drives prefetching (§IV-C): the EU resolves
the surviving neighbor indices from timestamps only, then prefetches their
memory while the MUU is still busy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["top_k_mask", "select_pruned"]


def top_k_mask(logits: np.ndarray, mask: np.ndarray, budget: int) -> np.ndarray:
    """Boolean mask keeping the ``budget`` highest-logit valid slots per row.

    Rows with fewer than ``budget`` valid slots keep all of them.  Ties are
    broken toward lower slot index (deterministic, matching a hardware
    comparator tree's fixed priority).
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError("logits and mask shapes must match")
    n, k = logits.shape
    if budget >= k:
        return mask.copy()
    if budget <= 0:
        raise ValueError("budget must be positive")
    # Key: valid logits as-is, invalid slots -inf; stable tie-break by index
    # via a tiny monotone penalty well below float64 resolution of logits.
    keyed = np.where(mask, logits, -np.inf)
    tie = np.arange(k, dtype=np.float64) * 1e-12
    keyed = keyed - tie
    # argpartition picks the top-`budget` per row in O(k).
    top_idx = np.argpartition(-keyed, budget - 1, axis=1)[:, :budget]
    out = np.zeros_like(mask)
    out[np.arange(n)[:, None], top_idx] = True
    return out & mask


def select_pruned(keep: np.ndarray, budget: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Compact a :func:`top_k_mask` selection for gather-then-compute.

    ``keep`` is ``top_k_mask(logits, mask, budget)``; the caller computes
    it once and also reports it as the full-width selection.  Returns
    ``(indices, sel_mask)`` where ``indices`` has shape ``(n, budget)``
    giving the chosen slot per row (padded with slot 0 where a row has
    fewer valid neighbors) and ``sel_mask`` flags real selections.  The
    fast inference path gathers neighbor data through ``indices`` so the
    value computation runs on ``budget`` columns instead of ``k``.
    """
    n, k = keep.shape
    budget = min(budget, k)
    # Order selected slots by ascending slot index to preserve the
    # timestamp-sorted neighbor order within the pruned list.
    order = np.argsort(~keep, axis=1, kind="stable")[:, :budget]
    rows = np.arange(n)[:, None]
    sel_mask = keep[rows, order]
    indices = np.where(sel_mask, order, 0)
    return indices, sel_mask
