"""Acceptance suite: one test and one printed pass/fail line per shipped
guarantee. The heavyweight training runs are shared session fixtures."""

import itertools

import numpy as np
import pytest
from scipy import stats

from conftest import edge_ids, min_carry, record_criterion
from gnnpipe import wire
from gnnpipe.cache import build_steady
from gnnpipe.graph import from_edge_list, synth_powerlaw
from gnnpipe.model import init_params, loss_and_grad
from gnnpipe.partition import halo_expand, partition_edgecut
from gnnpipe.plan import FrequencyTable, generate_plan, top_hot
from gnnpipe.prefetch import CarryStore, PulledRows, assemble_bundle
from gnnpipe.rng import mix64_array
from gnnpipe.sampler import SeedSchedule, epoch_batches, sample_block
from gnnpipe.store import (InprocTransport, StoreClient, StoreShard,
                           TcpShardServer, TcpTransport, TransferAccount,
                           bytes_for)
from gnnpipe.train import (RunConfig, read_metrics, run, worker_metrics_path,
                           write_metrics)

# the pinned replay configuration shared by criteria 2-5
REPLAY = dict(
    gen_nodes=20_000, gen_edges_per_node=5, feat_dim=32, num_classes=8,
    partitions=2, epochs=5, batch_size=512, fanouts=[10, 25], s0=7,
)


def replay_cfg(**over):
    kw = dict(REPLAY)
    kw.update(over)
    return RunConfig(**kw)


def run_with_csv(cfg, tmp_path_factory, tag):
    out = tmp_path_factory.mktemp(tag) / "metrics.csv"
    cfg.metrics_out = str(out)
    results = run(cfg)
    csvs = [worker_metrics_path(str(out), p) for p in range(cfg.partitions)]
    return results, csvs


@pytest.fixture(scope="session")
def rapid_a(tmp_path_factory):
    return run_with_csv(replay_cfg(mode="rapid"), tmp_path_factory, "rapid_a")


@pytest.fixture(scope="session")
def rapid_b(tmp_path_factory):
    return run_with_csv(replay_cfg(mode="rapid"), tmp_path_factory, "rapid_b")


@pytest.fixture(scope="session")
def baseline(tmp_path_factory):
    return run_with_csv(replay_cfg(mode="baseline"), tmp_path_factory, "base")


# hot-set sizes of the sweep, as RunConfig.n_hot / n_hot_pct take them
HOT_SIZES = {"0": dict(n_hot=0), "1%": dict(n_hot_pct=1.0),
             "5%": dict(n_hot_pct=5.0), "15%": dict(n_hot_pct=15.0)}


@pytest.fixture(scope="session")
def hot_sweep(rapid_a):
    """Rapid-mode results for every hot-set size in HOT_SIZES."""
    out = {label: run(replay_cfg(mode="rapid", **over))
           for label, over in HOT_SIZES.items() if label != "15%"}
    out["15%"] = rapid_a[0]  # default hot-set size is 15 percent
    return out


class PlanOracle:
    """Exact traffic counts of the replay plan, counted straight from the
    plan's input sets without collect_access, top_hot or resolve_n_hot.

    R_b is the set of remote input rows of batch b, and H_e the epoch's
    n_hot remote nodes with the most batch appearances, ties to the lower
    id. Rapid gathers the cache misses of w consecutive batches at once,
    never across an epoch boundary: window j misses U_j, the union of
    its R_b minus H_e. Its requests after H_0 form one string: each
    later H_e, then the epoch's U_j. A carry store of B rows, B the
    largest |U_j|, serves them by Belady's MIN (`min_carry`): a request
    pulls only what the store, and at a fill H_{e-1}, does not hold.
    Baseline (w = 1, no cache, no carry) pulls every row of every R_b.
    Without the carry a window pulls all of U_j; at w = 1 a per-epoch
    cache of n_hot rows then saves at most the n_hot largest per-node
    batch-appearance counts of the epoch, a sum that does not depend on
    how ties are broken.
    """

    def __init__(self, cfg: RunConfig):
        g = synth_powerlaw(cfg.gen_nodes, cfg.gen_edges_per_node, cfg.feat_dim,
                           cfg.num_classes, cfg.s0)
        owner = partition_edgecut(g, cfg.partitions).owner
        plan = generate_plan(g, np.flatnonzero(g.train_mask), cfg.fanouts,
                             cfg.batch_size, cfg.epochs, cfg.s0)
        self.digest = plan.digest_hex()
        self.batches = [plan.num_batches(e) for e in range(plan.epochs)]
        self._remote = []  # [part][epoch][batch] -> R_b
        self.remote_rows = []  # [part][epoch] -> sum over b of |R_b|
        self.num_remote = []  # [part] -> size of the whole-plan remote set
        self._freq = []  # [part][epoch] -> (ids, batch-appearance counts)
        self._min = {}  # (part, label, w) -> (window rows per epoch, fill rows)
        self._carried = {}  # (part, label, w) -> rows pulled per epoch
        for p in range(cfg.partitions):
            sets = [[ids[owner[ids] != p] for ids in plan.input_sets[e]]
                    for e in range(plan.epochs)]
            rows = [np.concatenate(r) for r in sets]
            self._remote.append(sets)
            self.remote_rows.append([len(r) for r in rows])
            self.num_remote.append(len(np.unique(np.concatenate(rows))))
            self._freq.append([np.unique(r, return_counts=True) for r in rows])

    def n_hot(self, part: int, label: str) -> int:
        over = HOT_SIZES[label]
        if "n_hot" in over:
            return over["n_hot"]
        return int(self.num_remote[part] * over["n_hot_pct"]) // 100

    def _top(self, part: int, epoch: int, label: str):
        """H_e's ids and counts: most appearances first, ties to the lower id."""
        ids, counts = self._freq[part][epoch]
        order = np.lexsort((ids, -counts))[:self.n_hot(part, label)]
        return ids[order], counts[order]

    def max_saving(self, part: int, epoch: int, label: str) -> int:
        return int(self._top(part, epoch, label)[1].sum())

    def _misses(self, part: int, epoch: int, label: str, w: int):
        """U_j of each window of w batches of the epoch, sorted."""
        hot = self._top(part, epoch, label)[0]
        sets = self._remote[part][epoch]
        return [np.setdiff1d(np.concatenate(sets[i:i + w]), hot)
                for i in range(0, len(sets), w)]

    def windowed(self, part: int, epoch: int, label: str, w: int) -> int:
        """Rows pulled in windows of w batches past H_e, carrying nothing."""
        return sum(len(u) for u in self._misses(part, epoch, label, w))

    def _string(self, part: int, label: str, w: int):
        """The requests after H_0, whether each is a fill, the epoch of
        each, and H_0."""
        hot = [self._top(part, e, label)[0] for e in range(len(self.batches))]
        requests, fills, epochs = [], [], []
        for e in range(len(self.batches)):
            if e and self.n_hot(part, label):
                requests.append(hot[e])
                fills.append(True)
                epochs.append(e)
            for u in self._misses(part, e, label, w):
                requests.append(u)
                fills.append(False)
                epochs.append(e)
        return requests, fills, epochs, hot[0]

    def _carry(self, part: int, label: str, w: int):
        """Rows the MIN carry store pulls in windows of w batches, per
        epoch, and in the cache fills, H_0's included."""
        key = (part, label, w)
        if key not in self._min:
            requests, fills, epochs, hot0 = self._string(part, label, w)
            capacity = max(len(r) for r, fill in zip(requests, fills) if not fill)
            pulled, _ = min_carry(requests, fills, hot0, capacity)
            windows = [0] * len(self.batches)
            for e, fill, ids in zip(epochs, fills, pulled):
                windows[e] += 0 if fill else len(ids)
            fill_rows = len(hot0) + sum(len(ids) for fill, ids in
                                          zip(fills, pulled) if fill)
            self._min[key] = (windows, fill_rows)
        return self._min[key]

    def pulled(self, part: int, epoch: int, label: str, w: int) -> int:
        """Rows the MIN carry store pulls in the epoch's windows of w
        batches past H_e."""
        return self._carry(part, label, w)[0][epoch]

    def fill_rows(self, part: int, label: str, w: int) -> int:
        """Rows the cache fills pull over the run, with MIN carry."""
        return self._carry(part, label, w)[1]

    def carry_over(self, part: int, epoch: int, label: str, w: int) -> int:
        """For comparison only: rows pulled in windows of w batches past
        H_e when each window copies only what the previous window and
        its hot set hold."""
        key = (part, label, w)
        if key not in self._carried:
            counts, held = [], np.empty(0, dtype=np.int64)
            for e in range(len(self.batches)):
                hot = self._top(part, e, label)[0]
                n = 0
                for u in self._misses(part, e, label, w):
                    n += len(np.setdiff1d(u, held))
                    held = np.union1d(u, hot)
                counts.append(n)
            self._carried[key] = counts
        return self._carried[key][epoch]

    def floor(self, part: int, label: str, w: int) -> int:
        """Distinct remote ids that H_0 does not hold and that a window
        asks for before any fill does: no hot set or earlier request
        brought them, so any policy pulls each in a window at least once."""
        requests, fills, _, hot0 = self._string(part, label, w)
        seen, n = set(hot0.tolist()), 0
        for r, fill in zip(requests, fills):
            new = set(r.tolist()) - seen
            n += 0 if fill else len(new)
            seen |= new
        return n

    def cap(self, part: int, epoch: int, label: str) -> float:
        """n_hot*B / sum |R_b|: the reuse no n_hot cache can exceed."""
        return (self.n_hot(part, label) * self.batches[epoch]
                / self.remote_rows[part][epoch])

    def cells(self):
        return [(p, e) for p in range(len(self.remote_rows))
                for e in range(len(self.batches))]


@pytest.fixture(scope="session")
def oracle(rapid_a):
    plan_oracle = PlanOracle(replay_cfg())
    assert all(r.plan_digest == plan_oracle.digest for r in rapid_a[0])
    return plan_oracle


def csv_without_walltime(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    drop = header.index("t_e_ms")
    return [",".join(c for i, c in enumerate(l.split(",")) if i != drop)
            for l in lines]


def params_equal(a, b):
    return all(
        np.array_equal(pa.w_self, pb.w_self)
        and np.array_equal(pa.w_neigh, pb.w_neigh)
        and np.array_equal(pa.bias, pb.bias)
        for pa, pb in zip(a, b)
    )


def test_criterion_01_byte_accounting():
    schedule = SeedSchedule(s0=1, epochs=1, batches_per_epoch=154)
    batches = epoch_batches(np.arange(153_431), 1000, schedule, 0)
    ok = (
        bytes_for(15_000, 602) == 36_120_000
        and len(batches) == 154
        and bytes_for(232_965, 602) == 560_979_720
    )
    assert record_criterion(1, "byte accounting and batch counts", ok)


def test_criterion_02_determinism_replay(rapid_a, rapid_b):
    results_a, csvs_a = rapid_a
    results_b, csvs_b = rapid_b
    digests_ok = all(a.plan_digest == b.plan_digest
                     for a, b in zip(results_a, results_b))
    csv_ok = all(csv_without_walltime(pa) == csv_without_walltime(pb)
                 for pa, pb in zip(csvs_a, csvs_b))
    ok = digests_ok and csv_ok
    assert record_criterion(
        2, "determinism replay: digests and CSV columns identical", ok)


def test_criterion_03_mode_equivalence(rapid_a, baseline):
    results_r, _ = rapid_a
    results_b, _ = baseline
    ok = True
    for a, b in zip(results_r, results_b):
        ok = ok and params_equal(a.params, b.params)
        for ra, rb in zip(a.records, b.records):
            ok = ok and ra.loss == rb.loss and ra.train_acc == rb.train_acc
    assert record_criterion(
        3, "mode equivalence: identical loss, accuracy, final parameters", ok)


def digests_match(oracle, *runs):
    return all(r.plan_digest == oracle.digest for res in runs for r in res)


def test_criterion_04_traffic_reduction(oracle, rapid_a, baseline, hot_sweep):
    rapid, base = rapid_a[0], baseline[0]
    depth = replay_cfg().prefetch_depth  # rapid pulls in windows of Q batches
    ok = digests_match(oracle, base, *hot_sweep.values())
    # one batch per window, no carry: the cache saves exactly the epoch's
    # top counts
    ok = ok and all(oracle.windowed(p, e, k, 1) == oracle.remote_rows[p][e]
                    - oracle.max_saving(p, e, k)
                    for p, e in oracle.cells() for k in HOT_SIZES)
    lines = []
    for p, e in oracle.cells():
        want_base = oracle.remote_rows[p][e]
        want_rapid = oracle.pulled(p, e, "15%", depth)
        got_rapid = rapid[p].records[e].nodes_pulled
        got_base = base[p].records[e].nodes_pulled
        ok = ok and got_base == want_base and got_rapid == want_rapid
        ok = ok and got_rapid < got_base
        lines.append(
            f"w{p} e{e}: rapid {got_rapid} (MIN carry count {want_rapid} in "
            f"windows of {depth}; carry-over from the previous window "
            f"{oracle.carry_over(p, e, '15%', depth)}; "
            f"{oracle.windowed(p, e, '15%', depth)} carrying nothing), "
            f"baseline {got_base} (sum |R_b| {want_base}), rapid/baseline "
            f"{got_rapid / max(got_base, 1):.3f}, reuse cap n_hot*B/sum|R_b| "
            f"{oracle.cap(p, e, '15%'):.4f}")
    for p in range(len(rapid)):
        got = sum(rec.nodes_pulled for rec in rapid[p].records)
        floor = oracle.floor(p, "15%", depth)
        fills = rapid[p].cache_fill.nodes_pulled
        want_fills = oracle.fill_rows(p, "15%", depth)
        ok = ok and got >= floor and fills == want_fills
        ok = ok and base[p].cache_fill.nodes_pulled == 0
        lines.append(f"w{p}: rapid {got} over the run, compulsory floor "
                     f"{floor} (ids a window asks for first); cache fills "
                     f"{fills} (MIN carry count {want_fills})")
    totals = {k: sum(rec.nodes_pulled for r in res for rec in r.records)
              for k, res in hot_sweep.items()}
    want = {k: sum(oracle.pulled(p, e, k, depth) for p, e in oracle.cells())
            for k in HOT_SIZES}
    fill_totals = {k: sum(r.cache_fill.nodes_pulled for r in res)
                   for k, res in hot_sweep.items()}
    want_fills = {k: sum(oracle.fill_rows(p, k, depth)
                         for p in range(len(rapid))) for k in HOT_SIZES}
    carried = {k: sum(oracle.carry_over(p, e, k, depth) for p, e in oracle.cells())
               for k in HOT_SIZES}
    ok = ok and totals == want and fill_totals == want_fills
    sizes = list(HOT_SIZES)
    ok = ok and all(totals[a] >= totals[b] for a, b in zip(sizes, sizes[1:]))
    assert record_criterion(
        4, "traffic: baseline pulls every remote row, rapid pulls exactly "
        "the MIN carry count for its windows and fills, below baseline and "
        "above the compulsory floor, hot-set sweep monotone", ok), "\n".join(
            lines + [f"sweep window totals {totals}, MIN carry counts {want}, "
                     f"carry-over counts {carried}; fill totals "
                     f"{fill_totals}, MIN carry counts {want_fills}"])


def test_criterion_05_reuse_ratio(oracle, hot_sweep):
    ok = digests_match(oracle, *hot_sweep.values())
    lines = []
    for p, e in oracle.cells():
        reuse = []
        for label, res in hot_sweep.items():
            rec = res[p].records[e]
            want_hits = oracle.max_saving(p, e, label)
            want_misses = oracle.remote_rows[p][e] - want_hits
            ok = ok and (rec.cache_hits, rec.cache_misses) == (want_hits,
                                                               want_misses)
            reuse.append(rec.reuse_ratio)
            lines.append(
                f"w{p} e{e} n_hot {label} ({oracle.n_hot(p, label)}): hits "
                f"{rec.cache_hits} (optimum {want_hits}), misses "
                f"{rec.cache_misses} (optimum {want_misses}), reuse "
                f"{rec.reuse_ratio}, cap n_hot*B/sum|R_b| "
                f"{oracle.cap(p, e, label):.4f}")
        ok = ok and None not in reuse
        ok = ok and all(a < b for a, b in zip(reuse, reuse[1:]))
    assert record_criterion(
        5, "reuse: cache hits and misses equal the plan optimum at n_hot "
        "0, 1%, 5%, 15%, reuse strictly rising", ok), "\n".join(lines)


def mid_epoch_mean(results):
    epochs = len(results[0].records)
    mids = range(1, epochs - 1)
    return float(np.mean([[r.records[e].t_e_ms for r in results]
                          for e in mids]))


def test_criterion_06_latency_hiding():
    kw = dict(gen_nodes=3000, gen_edges_per_node=3, feat_dim=16,
              num_classes=4, partitions=2, epochs=5, batch_size=32,
              fanouts=[5, 10], latency_ms=5.0, prefetch_depth=3,
              hidden_dim=16, s0=7, n_hot_pct=100.0)
    base = run(RunConfig(mode="baseline", **kw))
    rapid = run(RunConfig(mode="rapid", **kw))
    t_base = mid_epoch_mean(base)
    t_rapid = mid_epoch_mean(rapid)
    ok = t_rapid <= 0.67 * t_base
    assert record_criterion(
        6, "latency hiding: rapid epochs >= 1.5x faster at 5 ms per pull",
        ok), f"baseline {t_base:.1f} ms vs rapid {t_rapid:.1f} ms"


def random_instance(rng):
    n = int(rng.integers(10, 51))
    m = int(rng.integers(n, 3 * n))
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
    edges = [(a, b) for a, b in edges if a != b]
    feats = rng.normal(size=(n, 6)).astype(np.float32)
    labels = rng.integers(0, 3, size=n)
    g = from_edge_list(n, edges, feat_dim=6, num_classes=3,
                       features=feats, labels=labels)
    seeds = rng.choice(n, size=min(8, n), replace=False)
    block = sample_block(g, np.sort(seeds), [3, 4], int(rng.integers(1 << 30)))
    return g, block


def flatten(params):
    return np.concatenate([np.concatenate([p.w_self.ravel(),
                                           p.w_neigh.ravel(),
                                           p.bias.ravel()]) for p in params])


def unflatten(vec, like):
    out, i = [], 0
    from gnnpipe.model import LayerParams
    for p in like:
        pieces = []
        for a in (p.w_self, p.w_neigh, p.bias):
            pieces.append(vec[i:i + a.size].reshape(a.shape))
            i += a.size
        out.append(LayerParams(*pieces))
    return out


def max_fd_error(g, block, params):
    """Max relative error of the analytic gradient against central finite
    differences, evaluated in f64."""
    params64 = [p.astype(np.float64) for p in params]
    rows = g.features[block.input_nodes].astype(np.float64)
    _, grads = loss_and_grad(block, rows, g.labels, params64)
    theta = flatten(params64)
    analytic = flatten(grads)
    rng = np.random.default_rng(1)
    idx = rng.choice(len(theta), size=min(40, len(theta)), replace=False)
    eps = 1e-6
    worst = 0.0
    for j in idx:
        tp, tm = theta.copy(), theta.copy()
        tp[j] += eps
        tm[j] -= eps
        lp, _ = loss_and_grad(block, rows, g.labels, unflatten(tp, params64))
        lm, _ = loss_and_grad(block, rows, g.labels, unflatten(tm, params64))
        numeric = (lp - lm) / (2 * eps)
        worst = max(worst, abs(analytic[j] - numeric) / max(abs(numeric), 1e-3))
    return worst


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(2024)
    ok = True
    for k in range(5):
        g, block = random_instance(rng)
        p32 = init_params(6, 10, 3, 2, seed=k)
        p64 = init_params(6, 10, 3, 2, seed=k, dtype=np.float64)
        ok = ok and max_fd_error(g, block, p32) <= 1e-4
        ok = ok and max_fd_error(g, block, p64) <= 1e-6
    assert record_criterion(
        7, "gradients match finite differences at 1e-4 (f32), 1e-6 (f64)", ok)


def test_criterion_08_sampling_and_estimator():
    # (a) uniform marginal selection on a degree-20 star at fanout 5
    star = from_edge_list(21, [(0, i) for i in range(1, 21)])
    counts = np.zeros(20, dtype=np.int64)
    for s in range(10_000):
        block = sample_block(star, np.array([0]), [5], s)
        counts[edge_ids(block, 0)[0] - 1] += 1
    _, p_value = stats.chisquare(counts)
    uniform_ok = p_value > 0.01

    # (b) zero collisions over 10^5 (epoch, batch) seed pairs
    e, i = np.meshgrid(np.arange(100, dtype=np.uint64),
                       np.arange(1000, dtype=np.uint64), indexing="ij")
    seeds = mix64_array((e << np.uint64(32)) | i)
    injective_ok = len(np.unique(seeds)) == 100_000

    # (c) exhaustive fanouts make the epoch-averaged gradient exact
    g = synth_powerlaw(120, 3, 8, 3, seed=5)
    train = np.flatnonzero(g.train_mask)
    params = init_params(8, 12, 3, 2, seed=4, dtype=np.float64)
    max_deg = int(g.degrees().max())
    full_block = sample_block(g, train, [max_deg, max_deg], 0)
    rows = g.features[full_block.input_nodes].astype(np.float64)
    _, full_grads = loss_and_grad(full_block, rows, g.labels, params)
    full_vec = flatten(full_grads)

    schedule = SeedSchedule(s0=3, epochs=1, batches_per_epoch=6)
    avg = np.zeros_like(full_vec)
    for batch in epoch_batches(train, 16, schedule, 0):
        block = sample_block(g, batch, [max_deg, max_deg], 1)
        brows = g.features[block.input_nodes].astype(np.float64)
        _, grads = loss_and_grad(block, brows, g.labels, params)
        avg += flatten(grads) * (len(batch) / len(train))
    exact_ok = (np.linalg.norm(avg - full_vec)
                <= 1e-5 * np.linalg.norm(full_vec))

    sampled = []
    for s in range(6):
        block = sample_block(g, train[:16], [2, 3], s)
        brows = g.features[block.input_nodes].astype(np.float64)
        _, grads = loss_and_grad(block, brows, g.labels, params)
        sampled.append(flatten(grads))
    variance_ok = float(np.var(np.stack(sampled), axis=0).sum()) > 0

    ok = uniform_ok and injective_ok and exact_ok and variance_ok
    assert record_criterion(
        8, "sampler statistics: uniformity, seed injectivity, unbiasedness",
        ok)


def make_two_shard_store(n=200, d=5, seed=11):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d)).astype(np.float32)
    owner = (np.arange(n) % 2).astype(np.uint32)
    shards = [
        StoreShard(p, np.flatnonzero(owner == p).astype(np.int64),
                   feats[owner == p])
        for p in range(2)
    ]
    client = StoreClient(owner, [InprocTransport(s) for s in shards], d)
    return feats, owner, shards, client


def test_criterion_09_transparency():
    feats, owner, shards, client = make_two_shard_store()
    rng = np.random.default_rng(7)
    cache = build_steady(np.sort(rng.choice(200, size=40, replace=False)),
                         client)
    ok = True
    for _ in range(100):
        ids = rng.integers(0, 200, size=int(rng.integers(1, 50)))
        hit, rows = cache.lookup(ids)
        got = np.empty((len(ids), 5), dtype=np.float32)
        got[hit] = rows
        got[~hit] = client.sync_pull(ids[~hit])
        ok = ok and np.array_equal(got, client.sync_pull(ids))

    g = synth_powerlaw(400, 3, 8, 4, seed=9)
    book = halo_expand(g, partition_edgecut(g, 2))
    gshards = [
        StoreShard(p, np.flatnonzero(book.owner == p).astype(np.int64),
                   g.features[book.owner == p])
        for p in range(2)
    ]
    gclient = StoreClient(book.owner,
                          [InprocTransport(s) for s in gshards], g.feat_dim)
    for s in range(10):
        block = sample_block(g, np.sort(rng.choice(400, 20, replace=False)),
                             [3, 5], s)
        empty = build_steady(np.empty(0, np.int64), gclient)
        acct = TransferAccount()
        ids = np.unique(block.input_nodes)
        miss = ids[book.owner[ids] != 0]
        store = CarryStore([(miss, False)], g.num_nodes,
                           PulledRows(empty.hot_ids, empty.rows), carry=False)
        pulled = store.serve(gclient.sync_pull, acct)
        bundle = assemble_bundle(block, book.owner, 0, gshards[0], empty,
                                 pulled)
        ok = ok and np.array_equal(bundle.rows, g.features[block.input_nodes])
        ok = ok and acct.nodes_pulled == bundle.n_fallback

    # hot-set selection equals the brute-force optimum with least-id ties
    for t in range(30):
        size = int(rng.integers(1, 13))
        ids = np.sort(rng.choice(100, size=size, replace=False)).astype(np.int64)
        counts = rng.integers(1, 6, size=size).astype(np.int64)
        freq = FrequencyTable(ids=ids, counts=counts)
        lookup = freq.as_dict()
        for n_hot in range(size + 1):
            chosen = tuple(top_hot(freq, n_hot).tolist())
            best = max(sum(lookup[i] for i in c)
                       for c in itertools.combinations(ids.tolist(), n_hot))
            optimal = [c for c in itertools.combinations(ids.tolist(), n_hot)
                       if sum(lookup[i] for i in c) == best]
            ok = ok and chosen in optimal and chosen == min(optimal)

    assert record_criterion(
        9, "cache, bundle, and hot-set selection are pull-transparent", ok)


GOLDEN_SYNC_REQ = bytes.fromhex(
    "01" "02000000" "0300000000000000" "0a00000000000000")
GOLDEN_VEC_REQ = bytes.fromhex("02" "01000000" "2a00000000000000")
GOLDEN_OK_RESP = bytes.fromhex(
    "00" "01000000" "02000000" "0000803f" "00000040")
GOLDEN_NOT_OWNED_RESP = bytes.fromhex("01" "00000000" "02000000")


def test_criterion_10_wire_conformance():
    ok = wire.encode_request(wire.MSG_SYNC_PULL,
                             np.array([3, 10])) == GOLDEN_SYNC_REQ
    ok = ok and wire.encode_request(wire.MSG_VECTOR_PULL,
                                    np.array([42])) == GOLDEN_VEC_REQ
    rows = np.array([[1.0, 2.0]], dtype=np.float32)
    ok = ok and wire.encode_response(wire.STATUS_OK, rows, 2) == GOLDEN_OK_RESP
    ok = ok and wire.encode_response(wire.STATUS_NOT_OWNED, None,
                                     2) == GOLDEN_NOT_OWNED_RESP
    ok = ok and wire.decode_request(GOLDEN_SYNC_REQ)[1].tolist() == [3, 10]
    ok = ok and wire.decode_response(GOLDEN_OK_RESP)[0] == wire.STATUS_OK

    feats, owner, shards, inproc_client = make_two_shard_store(seed=13)
    servers = [TcpShardServer(s) for s in shards]
    try:
        tcp_client = StoreClient(
            owner, [TcpTransport(*srv.address) for srv in servers], 5)
        rng = np.random.default_rng(3)
        acct_in, acct_tcp = TransferAccount(), TransferAccount()
        for _ in range(20):
            ids = rng.integers(0, 200, size=int(rng.integers(1, 30)))
            a = inproc_client.sync_pull(ids, acct_in)
            b = tcp_client.sync_pull(ids, acct_tcp)
            ok = ok and np.array_equal(a, b)
        ok = ok and acct_in.snapshot() == acct_tcp.snapshot()
        tcp_client.close()
    finally:
        for srv in servers:
            srv.close()

    assert record_criterion(
        10, "wire protocol: golden bytes, transports agree with accounting",
        ok)
