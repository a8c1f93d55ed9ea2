"""Multi-layer temporal attention TGNN (the TGN framework's L-layer GNN).

The paper optimises the 1-layer TGN-attn variant ("highest accuracy to
complexity ratio"), but the framework it builds on supports L layers: the
layer-``l`` representation of vertex ``v`` at query time ``t`` aggregates
the layer-``l-1`` representations of its temporal neighbors, evaluated at
the same query time:

    h^0_v(t)  = s_v (+ W_s f_v)
    h^l_v(t)  = transform_l( attn_l({h^{l-1}_u(t), e_uv, Phi(t - t_uv)}),
                             h^{l-1}_v(t) )

Each layer owns its attention and transform parameters (as in TGN).  The
memory/mailbox machinery is shared with :class:`~repro.models.tgn.TGNN`;
only the GNN stage recurses.  Neighbor fan-out is ``k^L``, which is exactly
the exponential-cost argument the paper makes for staying at one layer —
this class exists to quantify that trade-off (see the layer-count ablation
test) and to extend the reproduction beyond the paper's operating point.

The hardware simulator intentionally rejects multi-layer models: the
published accelerator is single-layer.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad
from ..autograd.module import Linear, Module
from ..graph.temporal_graph import EdgeBatch, TemporalGraph
from .attention import (DT_SCALE, SimplifiedTemporalAttention,
                        VanillaTemporalAttention)
from .config import ModelConfig
from .memory_updater import GRUMemoryUpdater, RNNMemoryUpdater
from .message import interleaved_raw_messages
from .tgn import BatchResult, ModelRuntime, TGNN
from .time_encoding import CosineTimeEncoder, LUTTimeEncoder

__all__ = ["MultiLayerTGNN"]


class MultiLayerTGNN(Module):
    """L-layer memory-based TGNN sharing the single-layer substrates."""

    def __init__(self, cfg: ModelConfig, num_layers: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.cfg = cfg
        self.num_layers = num_layers
        if cfg.lut_time_encoder:
            self.time_encoder: Module = LUTTimeEncoder(cfg.time_dim,
                                                       cfg.lut_bins, rng=rng)
        else:
            self.time_encoder = CosineTimeEncoder(cfg.time_dim, rng=rng)
        updater_cls = RNNMemoryUpdater if cfg.memory_updater == "rnn" \
            else GRUMemoryUpdater
        self.memory_updater = updater_cls(cfg, self.time_encoder, rng=rng)
        self.node_proj = (Linear(cfg.node_dim, cfg.memory_dim, rng=rng)
                          if cfg.node_dim > 0 else None)
        # Per-layer attention + transform.  Layer inputs are memory_dim wide
        # for l=1 and embed_dim wide above, so we require the two dims equal
        # (TGN's default configuration) to keep kv widths uniform.
        if cfg.embed_dim != cfg.memory_dim:
            raise ValueError("multi-layer model requires "
                             "embed_dim == memory_dim")
        attn_cls = SimplifiedTemporalAttention if cfg.simplified_attention \
            else VanillaTemporalAttention
        self.layers = []
        for i in range(num_layers):
            attn = attn_cls(cfg, rng=rng)
            transform = Linear(cfg.embed_dim + cfg.memory_dim,
                               cfg.embed_dim, rng=rng)
            setattr(self, f"attn{i}", attn)
            setattr(self, f"transform{i}", transform)
            self.layers.append((attn, transform))

    # ------------------------------------------------------------------ #
    def new_runtime(self, graph: TemporalGraph) -> ModelRuntime:
        proto = TGNN.__new__(TGNN)          # reuse the runtime factory shape
        proto.cfg = self.cfg
        return TGNN.new_runtime(proto, graph)

    def calibrate(self, graph: TemporalGraph) -> None:
        if isinstance(self.time_encoder, LUTTimeEncoder):
            from ..datasets.stats import encoder_input_deltas
            deltas = encoder_input_deltas(graph)
            self.time_encoder.calibrate(deltas,
                                        reference=CosineTimeEncoder(
                                            self.cfg.time_dim))

    # ------------------------------------------------------------------ #
    def _base_features(self, nodes: np.ndarray, rt: ModelRuntime,
                       graph: TemporalGraph,
                       override: dict[int, Tensor] | None = None) -> Tensor:
        """Layer-0 features: memory (possibly batch-updated) + node proj."""
        base = Tensor(rt.state.memory[nodes])
        if override:
            rows = [override.get(int(v)) for v in nodes]
            if any(r is not None for r in rows):
                stacked = Tensor.stack(
                    [r if r is not None else base[i]
                     for i, r in enumerate(rows)], axis=0)
                base = stacked
        if self.node_proj is not None:
            base = base + self.node_proj(Tensor(graph.node_feat[nodes]))
        return base

    def _embed(self, layer: int, nodes: np.ndarray, t: np.ndarray,
               rt: ModelRuntime, graph: TemporalGraph,
               override: dict[int, Tensor] | None) -> Tensor:
        """Recursive layer-``layer`` embeddings for (node, time) queries."""
        if layer == 0:
            return self._base_features(nodes, rt, graph, override)
        cfg = self.cfg
        k = cfg.num_neighbors
        g = rt.sampler.gather(nodes, k)
        dt = np.maximum(t[:, None] - g.times, 0.0)
        dt = np.where(g.mask, dt, 0.0)
        # Recurse: neighbor representations at the SAME query times.
        flat_nbrs = g.nbrs.reshape(-1)
        flat_t = np.repeat(t, k)
        nbr_repr = self._embed(layer - 1, flat_nbrs, flat_t, rt, graph,
                               override)
        nbr_repr = nbr_repr.reshape(len(nodes), k, cfg.memory_dim)
        self_repr = self._embed(layer - 1, nodes, t, rt, graph, override)
        e_feat = np.where(g.mask[:, :, None], graph.edge_feat[g.eids], 0.0)
        time_enc = self.time_encoder(dt)
        time_zero = self.time_encoder(np.zeros(len(nodes)))
        attn, transform = self.layers[layer - 1]
        out = attn(query_feat=self_repr, nbr_feat=nbr_repr, edge_feat=e_feat,
                   time_enc=time_enc, time_enc_zero=time_zero, mask=g.mask,
                   dt_scaled=dt * DT_SCALE)
        return transform(Tensor.concat([out.hidden, self_repr],
                                       axis=-1)).relu()

    # ------------------------------------------------------------------ #
    def process_batch(self, batch: EdgeBatch, rt: ModelRuntime,
                      graph: TemporalGraph,
                      neg_dst: np.ndarray | None = None) -> BatchResult:
        """Algorithm 1 with an L-layer GNN stage."""
        nodes = batch.nodes
        t_nodes = np.repeat(batch.t, 2)
        uniq, inverse = np.unique(nodes, return_inverse=True)
        mem, mail, mail_t, last = rt.state.read(uniq)
        has_mail = mail_t > -np.inf
        dt_mail = np.where(has_mail, np.maximum(mail_t - last, 0.0), 0.0)
        raw = np.where(has_mail[:, None], mail, 0.0)
        gru_out = self.memory_updater(raw, dt_mail, mem)
        updated = Tensor.where(has_mail[:, None], gru_out, Tensor(mem))
        rt.state.write_memory(uniq, updated.data,
                              np.where(has_mail, mail_t, last))
        rt.state.write_mail(nodes, interleaved_raw_messages(
            updated.data[inverse], batch.edge_feat), t_nodes)

        # Gradient flows through the batch vertices' updated memory at
        # layer 0 via the override map (neighbors outside the batch read
        # stored state).
        override = {int(v): updated[i] for i, v in enumerate(uniq)}
        query_nodes, query_t = nodes, t_nodes
        if neg_dst is not None and len(neg_dst) > 0:
            neg = np.asarray(neg_dst, dtype=np.int64)
            query_nodes = np.concatenate([nodes, neg])
            query_t = np.concatenate([t_nodes, np.resize(batch.t, len(neg))])
        emb = self._embed(self.num_layers, query_nodes, query_t, rt, graph,
                          override)
        rt.sampler.insert_edges(batch.src, batch.dst, batch.eid, batch.t)
        return BatchResult(nodes=query_nodes, embeddings=emb,
                           attention=None, dt_scaled=None,
                           num_edges=len(batch))

    def infer_batch(self, batch: EdgeBatch, rt: ModelRuntime,
                    graph: TemporalGraph,
                    timings: dict | None = None) -> BatchResult:
        """Inference path (no-grad training path; no pruned-gather fast path
        is provided for L > 1 — the paper's deployment target is 1 layer)."""
        with no_grad():
            return self.process_batch(batch, rt, graph)

    def prepare_inference(self) -> None:
        """No premultiplied fast path for the multi-layer model (no-op)."""
