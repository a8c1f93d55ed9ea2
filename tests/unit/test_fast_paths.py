"""Exactness of the small-batch fast paths on the serving hot path.

Each fast path skips work its general path does (a sort, a dedup, a
gather, a recomputation) when the input allows it.  These tests pin that
the two paths agree bit for bit — ``np.array_equal`` / ``==``, never
approx — on seeded random inputs, so a later change cannot trade
exactness for speed unnoticed.
"""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.graph.neighbor_table import NeighborTable
from repro.graph.state import VertexState
from repro.graph.temporal_graph import EdgeBatch
from repro.hw import U200_DESIGN, ZCU104_DESIGN, FPGAAccelerator
from repro.models import (ModelConfig, TGNN, build_raw_messages,
                          select_pruned, top_k_mask)
from repro.models.message import interleaved_raw_messages
from repro.serving import (DEFAULT_REGISTRY, LoadAwareRebalance,
                           ReplicatedReadMostly, ServingEngine, ShardRouter,
                           StaticHashPlacement, VersionedMemoryCache,
                           VertexHeat)
from repro.serving.router import CrossShardMailbox

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


@pytest.fixture(scope="module")
def setup():
    g = wikipedia_like(num_edges=600, num_users=60, num_items=15)
    model = TGNN(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    model.prepare_inference()
    return g, model


# --------------------------------------------------------------------------- #
# neighbor table
def _tables(mr=3, n=12):
    return NeighborTable(n, mr), NeighborTable(n, mr)


def _assert_tables_equal(a, b):
    for name in ("_nbrs", "_eids", "_times", "_head", "_count"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_no_repeat_insert_matches_grouped_path_through_ring_wrap():
    rng = np.random.default_rng(1)
    fast, grouped = _tables(mr=3)
    t = 0.0
    # Ten rounds of distinct vertices wrap every touched ring several times.
    for _ in range(10):
        size = int(rng.integers(1, 8))
        v = rng.choice(12, size=size, replace=False)
        partners = rng.integers(0, 12, size)
        eids = rng.integers(0, 1000, size)
        times = t + np.sort(rng.random(size))
        t = float(times[-1])
        fast._insert(v, partners, eids, times)
        grouped._insert_grouped(v, partners, eids, times)
        _assert_tables_equal(fast, grouped)
    assert (fast._count == 3).any()      # some rings did wrap


def test_repeating_batches_still_take_the_grouped_path():
    fast, grouped = _tables(mr=2)
    v = np.array([4, 4, 4, 1, 4])
    args = (v, np.arange(5), np.arange(5) + 100, np.arange(5.0))
    fast._insert(*args)
    grouped._insert_grouped(*args)
    _assert_tables_equal(fast, grouped)
    assert fast._nbrs[4].tolist() == [2, 4]   # the last two of four


def _reference_gather(table, vertices, k):
    """Sort, truncate, flip and roll every array on its own."""
    nbrs, eids = table._nbrs[vertices], table._eids[vertices]
    times = table._times[vertices]
    valid = times > -np.inf
    desc = np.argsort(-times, axis=1, kind="stable")
    rows = np.arange(len(vertices))[:, None]
    out = [a[rows, desc][:, :k][:, ::-1] for a in (nbrs, eids, times, valid)]
    n_invalid = (~out[3]).sum(axis=1)
    cols = (np.arange(k)[None, :] + n_invalid[:, None]) % k
    return [a[rows, cols] for a in out]


def test_composed_gather_matches_the_per_array_reference():
    table = NeighborTable(6, 4)
    rng = np.random.default_rng(2)
    t = 0.0
    for _ in range(8):
        times = t + np.sort(rng.integers(0, 3, 3)).astype(float)  # ties
        t = float(times[-1])
        table.insert_edges(rng.integers(0, 6, 3), rng.integers(0, 6, 3),
                           rng.integers(0, 99, 3), times)
        for k in (1, 2, 4):
            vertices = rng.integers(0, 6, 5)
            g = table.gather(vertices, k)
            want = _reference_gather(table, vertices, k)
            for got, ref in zip((g.nbrs, g.eids, g.times, g.mask), want):
                assert np.array_equal(got, ref)
                assert got.flags.c_contiguous


# --------------------------------------------------------------------------- #
# vertex state
def test_unique_writes_match_the_dedup_path():
    rng = np.random.default_rng(3)
    fast, dedup = VertexState(20, 4, 6), VertexState(20, 4, 6)
    for _ in range(6):
        v = rng.choice(20, size=7, replace=False)
        mem, msgs = rng.random((7, 4)), rng.random((7, 6))
        t = rng.random(7)
        fast.write_memory(v, mem, t, unique=True)
        dedup.write_memory(v, mem, t)
        fast.write_mail(v, msgs, t, unique=True)
        dedup.write_mail(v, msgs, t)
    for a, b in zip(fast.snapshot().values(), dedup.snapshot().values()):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# memory update
def _reference_update(model, batch, rt):
    """The general memory stage: row gathers, dedup writes, paired mail."""
    nodes = batch.nodes
    t_nodes = np.repeat(batch.t, 2)
    uniq, inverse = np.unique(nodes, return_inverse=True)
    mem, mail, mail_t, last = rt.state.read(uniq)
    idx = np.nonzero(mail_t > -np.inf)[0]
    updated = mem.copy()
    if len(idx):
        dt = np.maximum(mail_t[idx] - last[idx], 0.0)
        updated[idx] = model._gru_np(mail[idx], dt, mem[idx])
        rt.state.write_memory(uniq[idx], updated[idx], mail_t[idx])
    msg_src, msg_dst = build_raw_messages(updated[inverse[0::2]],
                                          updated[inverse[1::2]],
                                          batch.edge_feat)
    msgs = np.empty((len(nodes), model.cfg.raw_message_dim))
    msgs[0::2], msgs[1::2] = msg_src, msg_dst
    rt.state.write_mail(nodes, msgs, t_nodes)
    return updated[inverse]


@pytest.mark.parametrize("lut", [True, False])
def test_all_mail_and_partial_mail_updates_match_the_general_path(setup,
                                                                  lut):
    g, model = setup
    if not lut:
        model = TGNN(replace(CFG, lut_time_encoder=False),
                     rng=np.random.default_rng(4))
        model.prepare_inference()
    rt, ref = model.new_runtime(g), model.new_runtime(g)
    all_mail = partial = 0
    for batch in iter_fixed_size(g, 3, end=450):
        has = rt.state.has_mail(np.unique(batch.nodes))
        all_mail += bool(has.all())
        partial += bool(has.any() and not has.all())
        _, _, own = model._update_memory_np(batch, rt)
        want = _reference_update(model, batch, ref)
        assert np.array_equal(own, want)
        for a, b in zip(rt.state.snapshot().values(),
                        ref.state.snapshot().values()):
            assert np.array_equal(a, b)
    assert all_mail and partial          # both branches were exercised


def test_in_place_messages_match_build_raw_messages():
    rng = np.random.default_rng(5)
    for b, d, ef in ((1, 4, 0), (3, 4, 5), (9, 2, 1)):
        own = rng.random((2 * b, d))
        feat = rng.random((b, ef))
        msg_src, msg_dst = build_raw_messages(own[0::2], own[1::2], feat)
        out = interleaved_raw_messages(own, feat)
        assert np.array_equal(out[0::2], msg_src)
        assert np.array_equal(out[1::2], msg_dst)
    with pytest.raises(ValueError):
        interleaved_raw_messages(np.zeros((4, 2)), np.zeros((3, 1)))


# --------------------------------------------------------------------------- #
# pruning
def test_select_pruned_matches_a_row_by_row_reference():
    rng = np.random.default_rng(6)
    for budget in (1, 2, 3, 6):
        logits = rng.standard_normal((40, 5))
        logits[::7, 1] = logits[::7, 2]          # ties
        mask = rng.random((40, 5)) < 0.7
        keep = top_k_mask(logits, mask, budget)
        idx, sel = select_pruned(keep, budget)
        width = min(budget, 5)
        assert idx.shape == sel.shape == (40, width)
        for row in range(40):
            slots = np.flatnonzero(keep[row])    # ascending slot order
            pad = width - len(slots)
            assert np.array_equal(idx[row], np.r_[slots, np.zeros(pad, int)])
            assert np.array_equal(sel[row], np.r_[np.ones(len(slots), bool),
                                                  np.zeros(pad, bool)])


# --------------------------------------------------------------------------- #
# accelerator pricing
@pytest.mark.parametrize("design", [ZCU104_DESIGN, U200_DESIGN],
                         ids=lambda d: d.platform.name)
def test_price_memo_equals_fresh_pricing_for_every_size(setup, design):
    _, model = setup
    acc = FPGAAccelerator(model, design)
    for _ in range(2):                       # cold, then memoized
        for n in range(1, design.nb + 1):
            mem, comp = acc._price(n)
            assert mem == acc._mem_times(n)
            assert comp == acc._compute_durations(n)
    assert sorted(acc._prices) == list(range(1, design.nb + 1))


def test_fpga_backend_honours_functional_false(setup, monkeypatch):
    g, model = setup
    full = DEFAULT_REGISTRY.create("zcu104", model, g)
    timing = DEFAULT_REGISTRY.create("zcu104", model, g, functional=False)
    assert timing.rt is None and full.rt is not None
    batches = list(iter_fixed_size(g, 7, end=420))
    want = [full.process_batch(b) for b in batches]

    def boom(*args, **kwargs):
        raise AssertionError("infer_batch ran with functional=False")

    monkeypatch.setattr(TGNN, "infer_batch", boom)
    assert [timing.process_batch(b) for b in batches] == want


# --------------------------------------------------------------------------- #
# shard split
def _reference_split(router, batch, mailbox, cache):
    """Per-shard gathers and a row-by-row sync protocol, as an oracle."""
    s_src = router.assignment[batch.src]
    out = []
    for shard in range(router.num_shards):
        local = s_src == shard
        held = router._member[shard, batch.src] \
            | router._member[shard, batch.dst]
        mail = held & ~local
        sel = local | mail
        if not sel.any():
            continue
        mail_from = s_src[mail]
        if len(mail_from):
            mailbox.record(mail_from, shard)
        out.append(dict(shard=shard, sel=sel, local_edges=int(local.sum()),
                        mail_edges=int(mail.sum()), mail_from=mail_from))
    reads = [_reference_reads(cache, sb["shard"],
                              batch.nodes[np.repeat(sb["sel"], 2)])
             for sb in out]
    pushes = _reference_writes(cache, batch.nodes,
                               [sb["shard"] for sb in out])
    for sb, (pulled, stale, lag) in zip(out, reads):
        sb.update(sync_pull=pulled,
                  sync_push=pushes.get(sb["shard"], np.empty(0, np.int64)),
                  stale_reads=stale, version_lag=lag)
    return out


def _reference_reads(cache, shard, vertices):
    """``note_reads``, one shard and one row at a time."""
    pulled, stale, lag = [], 0, 0
    for x in np.unique(vertices).tolist():
        behind = cache.version[x] - cache.mirror_version[shard, x]
        if cache._holder[shard, x] or behind <= 0:
            continue
        if cache.policy == "none":
            stale += 1
            lag = max(lag, int(behind))
            cache.stale_reads += 1
            cache.max_version_lag = max(cache.max_version_lag, int(behind))
        else:
            cache.mirror_version[shard, x] = cache.version[x]
            cache._mirror[shard, x] = True
            cache.pulled_rows += 1
            pulled.append(x)
    return np.asarray(pulled, dtype=np.int64), stale, lag


def _reference_writes(cache, vertices, present_shards):
    """``note_writes``, one row and one present shard at a time."""
    v = np.unique(vertices)
    cache.version[v] += 1
    pushes = {}
    for x in v.tolist():
        for shard in range(cache.num_shards):
            if cache._holder[shard, x]:
                cache.mirror_version[shard, x] = cache.version[x]
            elif (cache.policy == "push" and shard in present_shards
                  and cache._mirror[shard, x]
                  and cache.mirror_version[shard, x] < cache.version[x]):
                cache.mirror_version[shard, x] = cache.version[x]
                cache.pushed_rows += 1
                pushes.setdefault(shard, []).append(x)
    return {s: np.asarray(r, dtype=np.int64) for s, r in pushes.items()}


def _placement(name, g, shards):
    heat = VertexHeat.from_graph(g)
    policy = {"hash": StaticHashPlacement(),
              "rebalance": LoadAwareRebalance(),
              "replicate": ReplicatedReadMostly(top_k=6)}[name]
    return policy.place(heat, shards)


def _assert_split_matches(got, want, batch):
    assert [sb.shard for sb in got] == [w["shard"] for w in want]
    for sb, w in zip(got, want):
        sel = w["sel"]
        assert np.array_equal(sb.batch.src, batch.src[sel])
        assert np.array_equal(sb.batch.dst, batch.dst[sel])
        assert np.array_equal(sb.batch.t, batch.t[sel])
        assert np.array_equal(sb.batch.eid, batch.eid[sel])
        assert np.array_equal(sb.batch.edge_feat, batch.edge_feat[sel])
        for key in ("local_edges", "mail_edges", "stale_reads",
                    "version_lag"):
            assert getattr(sb, key) == w[key], key
        for key in ("mail_from", "sync_pull", "sync_push"):
            assert np.array_equal(getattr(sb, key), w[key]), key


def _assert_caches_equal(a, b):
    assert np.array_equal(a.version, b.version)
    assert np.array_equal(a.mirror_version, b.mirror_version)
    assert np.array_equal(a._mirror, b._mirror)
    assert (a.pulled_rows, a.pushed_rows, a.stale_reads,
            a.max_version_lag) == (b.pulled_rows, b.pushed_rows,
                                   b.stale_reads, b.max_version_lag)


@pytest.mark.parametrize("policy", ["none", "invalidate", "push"])
@pytest.mark.parametrize("placement", ["hash", "rebalance", "replicate"])
def test_one_pass_split_matches_the_per_shard_reference(setup, placement,
                                                        policy):
    g, _ = setup
    routers = [ShardRouter.from_placement(_placement(placement, g, 3))
               for _ in range(2)]
    caches = [VersionedMemoryCache(r.placement, policy=policy)
              for r in routers]
    mailboxes = [CrossShardMailbox(3) for _ in range(2)]
    rng = np.random.default_rng(7)
    for i, batch in enumerate(iter_fixed_size(g, 5, end=500)):
        if i == 40:
            # Mid-stream ownership change: the holder matrix moves too.
            moved = rng.choice(g.num_nodes, size=6, replace=False)
            for router, cache in zip(routers, caches):
                old = router.migrate(moved, 2)
                cache.transfer_ownership(np.unique(moved), old, 2)
        got = routers[0].split(batch, mailboxes[0], cache=caches[0])
        want = _reference_split(routers[1], batch, mailboxes[1], caches[1])
        _assert_split_matches(got, want, batch)
    assert np.array_equal(mailboxes[0].counts, mailboxes[1].counts)
    _assert_caches_equal(*caches)
    assert caches[0].sync_rows > 0 or policy == "none"


@pytest.fixture(scope="module")
def placements(setup):
    g, _ = setup
    return {(name, shards): _placement(name, g, shards)
            for name in ("hash", "rebalance", "replicate")
            for shards in (2, 3, 4)}


@st.composite
def _scenarios(draw):
    """A placement, a policy and a job stream over a few vertices (so
    repeats, self-loops and shared mirrors are common), with migrations
    and failovers interleaved between the jobs."""
    name = draw(st.sampled_from(["hash", "rebalance", "replicate"]))
    policy = draw(st.sampled_from(["none", "invalidate", "push"]))
    shards = draw(st.integers(2, 4))
    pool = draw(st.lists(st.integers(0, 74), min_size=1, max_size=8,
                         unique=True))
    vertex = st.sampled_from(pool)
    step = st.one_of(
        st.tuples(st.just("job"), st.lists(st.tuples(vertex, vertex),
                                           min_size=1, max_size=8)),
        st.tuples(st.just("migrate"), st.lists(vertex, min_size=1,
                                               max_size=3),
                  st.integers(0, shards - 1)),
        st.tuples(st.just("fail"), st.integers(0, shards - 1)))
    return name, policy, shards, draw(st.lists(step, min_size=1,
                                               max_size=12))


@settings(max_examples=60, deadline=None)
@given(scenario=_scenarios())
def test_one_pass_split_matches_the_reference_on_drawn_streams(
        setup, placements, scenario):
    g, _ = setup
    assert g.num_nodes == 75                # the strategy's vertex range
    name, policy, shards, steps = scenario
    sides = []
    for _ in range(2):
        router = ShardRouter.from_placement(
            copy.deepcopy(placements[name, shards]))
        sides.append((router,
                      VersionedMemoryCache(router.placement, policy=policy),
                      CrossShardMailbox(shards)))
    eid = 0
    dead: set[int] = set()
    for kind, *args in steps:
        if kind == "migrate":
            v, to = np.unique(args[0]), args[1]
            for router, cache, _ in sides:
                keep = [bool(router.placement.replicas.get(int(x)))
                        for x in v]
                old = router.migrate(v, to)
                cache.transfer_ownership(v, old, to, keep_holder=keep)
        elif kind == "fail":
            if args[0] in dead or len(dead) + 1 >= shards:
                continue
            dead.add(args[0])
            for router, cache, _ in sides:
                _, rebuilt = router.fail_over(args[0])
                cache.fail_over(args[0], rebuilt,
                                router.assignment[rebuilt])
        else:
            src, dst = np.array(args[0], dtype=np.int64).T
            n = len(src)
            batch = EdgeBatch(src=src, dst=dst,
                              t=np.arange(eid, eid + n, dtype=float),
                              eid=np.arange(eid, eid + n),
                              edge_feat=np.arange(2.0 * eid,
                                                  2.0 * (eid + n)
                                                  ).reshape(n, 2))
            eid += n
            (ra, ca, ma), (rb, cb, mb) = sides
            _assert_split_matches(ra.split(batch, ma, cache=ca),
                                  _reference_split(rb, batch, mb, cb),
                                  batch)
    assert np.array_equal(sides[0][2].counts, sides[1][2].counts)
    _assert_caches_equal(sides[0][1], sides[1][1])


def test_split_without_cache_leaves_sync_fields_empty(setup):
    g, _ = setup
    router = ShardRouter.from_placement(_placement("hash", g, 2))
    batch = EdgeBatch(src=g.src[:9], dst=g.dst[:9], t=g.t[:9],
                      eid=np.arange(9), edge_feat=g.edge_feat[:9])
    subs = router.split(batch)
    assert subs and all(len(sb.sync_pull) == len(sb.sync_push) == 0
                        and sb.stale_reads == sb.version_lag == 0
                        for sb in subs)
    assert sum(sb.local_edges for sb in subs) == 9


# --------------------------------------------------------------------------- #
# report projection
def test_structure_json_nulls_queue_depth_but_keeps_the_key(setup):
    g, model = setup
    engine = ServingEngine.from_registry(
        "cpu-32t", model, g, num_shards=2, registry=DEFAULT_REGISTRY,
        backend_kwargs={"functional": False})
    report = engine.run(g, window_s=3600.0, speedup=1e9, end=400)
    deeper = replace(report, shard_stats=tuple(
        replace(s, max_queue_depth=s.max_queue_depth + 3)
        for s in report.shard_stats))
    assert report.to_json() != deeper.to_json()
    assert report.to_structure_json() == deeper.to_structure_json()
    for s in json.loads(report.to_structure_json())["shard_stats"]:
        assert "max_queue_depth" in s and s["max_queue_depth"] is None
        assert isinstance(s["jobs"], int)
