"""Message construction (Eqs. 4-5) and the Most-Recent aggregator contract.

A graph signal between ``i`` and ``j`` at time ``t_e`` generates two raw
messages ``m_i = s_i || s_j || f_e`` and ``m_j = s_j || s_i || f_e``.  The
time encoding ``Phi(dt)`` of Eq. (4) is appended later, *at consumption
time*, from the stored mail timestamp — storing raw payloads keeps the
mailbox row width independent of the encoder and lets the LUT encoder swap
in without touching external-memory layout.

The "Most-Recent" aggregator itself is the last-write-wins semantics of
:meth:`repro.graph.state.VertexState.write_mail`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_raw_messages", "interleaved_raw_messages"]


def build_raw_messages(mem_src: np.ndarray, mem_dst: np.ndarray,
                       edge_feat: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Build both directed raw messages for a batch of edges.

    Parameters
    ----------
    mem_src, mem_dst:
        ``(B, d_mem)`` *updated* memory of the endpoints (Algorithm 1 updates
        memory before caching the new messages).
    edge_feat:
        ``(B, d_ef)`` edge features; ``d_ef`` may be zero.

    Returns
    -------
    ``(msg_src, msg_dst)`` each of shape ``(B, 2*d_mem + d_ef)``.
    """
    if mem_src.shape != mem_dst.shape:
        raise ValueError("endpoint memory shapes must match")
    if len(edge_feat) != len(mem_src):
        raise ValueError("edge_feat batch size mismatch")
    msg_src = np.concatenate([mem_src, mem_dst, edge_feat], axis=1)
    msg_dst = np.concatenate([mem_dst, mem_src, edge_feat], axis=1)
    return np.ascontiguousarray(msg_src), np.ascontiguousarray(msg_dst)


def interleaved_raw_messages(endpoint_mem: np.ndarray,
                             edge_feat: np.ndarray) -> np.ndarray:
    """Both raw messages of every edge, assembled in place, endpoint order.

    ``endpoint_mem`` is ``(2B, d_mem)``: the updated memory of each
    endpoint in interleaved ``(src, dst)`` order.  Row ``2i`` of the
    ``(2B, 2*d_mem + d_ef)`` result is ``msg_src[i]`` and row ``2i + 1``
    is ``msg_dst[i]`` of :func:`build_raw_messages` — the layout the
    mailbox write takes — without the intermediate per-direction arrays.
    """
    n, d = endpoint_mem.shape
    if len(edge_feat) * 2 != n:
        raise ValueError("edge_feat batch size mismatch")
    out = np.empty((n, 2 * d + edge_feat.shape[1]))
    out[:, :d] = endpoint_mem
    out[0::2, d:2 * d] = endpoint_mem[1::2]
    out[1::2, d:2 * d] = endpoint_mem[0::2]
    out[0::2, 2 * d:] = edge_feat
    out[1::2, 2 * d:] = edge_feat
    return out
