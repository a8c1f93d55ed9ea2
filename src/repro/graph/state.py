"""Mutable per-vertex state: the Vertex Memory Table and Vertex Mailbox.

These are the two external-memory tables of the paper's Graph Storage
(Fig. 2).  Memory is the GRU hidden state ``s_v``; the mailbox caches the
most recent raw message per vertex ("Most-Recent" aggregator of TGN), which
the UPDT function consumes on the vertex's *next* appearance — the
information-leak fix described in Section II.

Layout is flat and contiguous: ``(num_nodes, d)`` float arrays updated in
place.  ``snapshot``/``restore`` give the training loop cheap epoch resets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VertexState"]


class VertexState:
    """Vertex memory + mailbox + bookkeeping timestamps.

    Parameters
    ----------
    num_nodes:
        Vertex count.
    memory_dim:
        Width of the memory vector ``s_v``.
    raw_message_dim:
        Width of a cached raw message ``s_src || s_dst || f_e`` (the time
        encoding is appended at update time from the stored timestamp, so it
        is *not* part of the cached payload).
    """

    # The per-vertex arrays, in snapshot order.
    ROWS = ("memory", "mailbox", "mail_time", "last_update")

    def __init__(self, num_nodes: int, memory_dim: int, raw_message_dim: int):
        self.num_nodes = int(num_nodes)
        self.memory_dim = int(memory_dim)
        self.raw_message_dim = int(raw_message_dim)
        self.memory = np.zeros((num_nodes, memory_dim), dtype=np.float64)
        self.mailbox = np.zeros((num_nodes, raw_message_dim), dtype=np.float64)
        # Timestamp of the cached message; -inf marks "no mail yet".
        self.mail_time = np.full(num_nodes, -np.inf, dtype=np.float64)
        # Timestamp at which `memory` was last written (for delta-t).
        self.last_update = np.zeros(num_nodes, dtype=np.float64)

    # ------------------------------------------------------------------ #
    def has_mail(self, vertices: np.ndarray) -> np.ndarray:
        return self.mail_time[np.asarray(vertices, dtype=np.int64)] > -np.inf

    def read(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gather ``(memory, mailbox, mail_time, last_update)`` rows."""
        v = np.asarray(vertices, dtype=np.int64)
        return (self.memory[v], self.mailbox[v],
                self.mail_time[v], self.last_update[v])

    def copy_rows(self, other: "VertexState", vertices) -> None:
        """Overwrite ``vertices``' rows with ``other``'s (a state handoff)."""
        for name in self.ROWS:
            getattr(self, name)[vertices] = getattr(other, name)[vertices]

    def write_memory(self, vertices: np.ndarray, values: np.ndarray,
                     t: np.ndarray, unique: bool = False) -> None:
        """Commit updated memory rows and their update timestamps.

        When a vertex appears multiple times in ``vertices`` the **last**
        write wins — the same semantics the hardware Updater enforces by
        invalidating stale cache lines (Section IV-B).  NumPy fancy
        assignment applies duplicates in order, so we deduplicate explicitly
        to keep the guarantee independent of NumPy internals.  A caller
        whose ``vertices`` hold no repeats passes ``unique=True`` to skip
        the deduplication.
        """
        _scatter_last(vertices, (self.memory, values),
                      (self.last_update, t), unique=unique)

    def write_mail(self, vertices: np.ndarray, messages: np.ndarray,
                   t: np.ndarray, unique: bool = False) -> None:
        """Cache raw messages (Most-Recent aggregator: last write wins).

        ``unique`` has the meaning it has in :meth:`write_memory`.
        """
        _scatter_last(vertices, (self.mailbox, messages),
                      (self.mail_time, t), unique=unique)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of all state (epoch boundaries, val/test forks)."""
        return {name: getattr(self, name).copy() for name in self.ROWS}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name in self.ROWS:
            getattr(self, name)[...] = snap[name]

    def reset(self) -> None:
        """Zero all state (start of an epoch over the stream)."""
        self.memory.fill(0.0)
        self.mailbox.fill(0.0)
        self.mail_time.fill(-np.inf)
        self.last_update.fill(0.0)

    def memory_words(self) -> int:
        """External-memory footprint in words (for the resource model)."""
        return self.num_nodes * (self.memory_dim + self.raw_message_dim + 2)


def _scatter_last(vertices, *pairs, unique: bool) -> None:
    """``table[v] = rows`` for each ``(table, rows)`` pair, last write wins."""
    v = np.asarray(vertices, dtype=np.int64)
    last = slice(None) if unique else _last_occurrence(v)
    v = v[last]
    for table, rows in pairs:
        table[v] = np.asarray(rows, dtype=np.float64)[last]


def _last_occurrence(v: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the last occurrence of each value in ``v``."""
    if len(v) == 0:
        return np.zeros(0, dtype=bool)
    last = np.ones(len(v), dtype=bool)
    # A position is NOT last if the same value appears later.  Stable sort
    # groups occurrences; within a group only the final index survives.
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    not_last_sorted = np.empty(len(v), dtype=bool)
    not_last_sorted[:-1] = sorted_v[:-1] == sorted_v[1:]
    not_last_sorted[-1] = False
    last[order] = ~not_last_sorted
    return last
