"""Command-line harness: generate graphs, partition, print plan digests,
run training, sweep cache sizes."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .graph import load_graph, save_graph, synth_powerlaw
from .partition import (edge_cut, halo_expand, partition_edgecut,
                        partition_random, save_partition)
from .plan import generate_plan
from .train import RunConfig, _load_or_generate, labeled_path, run


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="RGF1 graph file (omit to generate)")
    p.add_argument("--nodes", type=int, help="generated graph size")
    p.add_argument("--edges-per-node", type=int, dest="edges_per_node")
    p.add_argument("--feat-dim", type=int, dest="feat_dim")
    p.add_argument("--classes", type=int, dest="classes")
    p.add_argument("--partitions", type=int)
    p.add_argument("--partitioner", choices=["random", "edgecut"])
    p.add_argument("--partition-file", dest="partition_file")
    p.add_argument("--seed", type=int, help="base seed s0")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--fanout", help="comma-separated per-layer fanouts, e.g. 10,25")
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument("--lr", type=float)
    p.add_argument("--mode", choices=["baseline", "rapid"])
    p.add_argument("--n-hot", dest="n_hot",
                   help="hot-set size: absolute count or percent like 15%%")
    p.add_argument("--prefetch-depth", type=int, dest="prefetch_depth")
    p.add_argument("--latency-ms", type=float, dest="latency_ms")
    p.add_argument("--transport", choices=["inproc", "tcp"])
    p.add_argument("--metrics-out", dest="metrics_out")
    p.add_argument("--dump-cache-keys", action="store_true", dest="dump_cache_keys")
    p.add_argument("--config", help="key=value config file (CLI flags win)")


def _fanouts(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",") if x]


# flag dest, which is also the --config key -> (RunConfig field, converter)
_CONFIG_KEYS = {
    "graph": ("graph_path", str),
    "nodes": ("gen_nodes", int),
    "edges_per_node": ("gen_edges_per_node", int),
    "feat_dim": ("feat_dim", int),
    "classes": ("num_classes", int),
    "partitions": ("partitions", int),
    "partitioner": ("partitioner", str),
    "partition_file": ("partition_path", str),
    "seed": ("s0", int),
    "epochs": ("epochs", int),
    "batch_size": ("batch_size", int),
    "fanout": ("fanouts", _fanouts),
    "hidden_dim": ("hidden_dim", int),
    "lr": ("lr", float),
    "mode": ("mode", str),
    "prefetch_depth": ("prefetch_depth", int),
    "latency_ms": ("latency_ms", float),
    "transport": ("transport", str),
    "metrics_out": ("metrics_out", str),
}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS and key != "n_hot":
                raise ValueError(f"unknown config key {key!r} in {path}")
            values[key] = val.strip()
    return values


def _set_hot_size(cfg: RunConfig, size: str) -> None:
    """Apply a hot-set size given as a count "N" or a percent "P%"."""
    if size.endswith("%"):
        cfg.n_hot = None
        cfg.n_hot_pct = float(size[:-1])
    else:
        cfg.n_hot = int(size)


def _build_run_config(args: argparse.Namespace,
                      file_vals: dict[str, str]) -> RunConfig:
    """The run config from the flags over the config file's values;
    ValueError names the key of a value that does not convert."""
    cfg = RunConfig()

    def pick(key: str):
        v = getattr(args, key)
        return file_vals.get(key) if v is None else v

    try:
        for key, (attr, conv) in _CONFIG_KEYS.items():
            value = pick(key)
            if value is not None:
                setattr(cfg, attr, conv(value))
        key = "n_hot"
        n_hot = pick(key)
        if n_hot is not None:
            _set_hot_size(cfg, str(n_hot))
    except ValueError:
        raise ValueError(f"bad value for {key}: {pick(key)!r}") from None
    return cfg


def _checked_run_config(args: argparse.Namespace) -> RunConfig | None:
    """The run config from the flags, or None after printing why it is
    invalid."""
    try:
        file_vals = _read_config_file(args.config) if args.config else {}
        cfg = _build_run_config(args, file_vals)
        cfg.validate()
    except (OSError, ValueError) as exc:  # OSError: an unreadable --config
        print(f"error: {exc}", file=sys.stderr)
        return None
    return cfg


def _cmd_gen(args: argparse.Namespace) -> int:
    g = synth_powerlaw(args.nodes, args.edges_per_node, args.feat_dim,
                       args.classes, args.seed)
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.num_nodes} nodes, {g.num_edges} edge entries")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    if args.partitioner == "random":
        book = partition_random(g, args.partitions, args.seed)
    else:
        book = partition_edgecut(g, args.partitions)
    save_partition(book, args.out)
    print(f"wrote {args.out}: k={book.k}, edge cut={edge_cut(g, book.owner)}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    cfg = _checked_run_config(args)
    if cfg is None:
        return 2
    g = _load_or_generate(cfg)
    plan = generate_plan(g, np.flatnonzero(g.train_mask), cfg.fanouts,
                         cfg.batch_size, cfg.epochs, cfg.s0)
    print(plan.digest_hex())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _checked_run_config(args)
    if cfg is None:
        return 2
    results = run(cfg)
    for r in results:
        print(f"worker {r.part}: plan digest {r.plan_digest}")
        if args.dump_cache_keys and r.cache_keys is not None:
            print(f"worker {r.part}: cache keys {r.cache_keys.tolist()}")
        for rec in r.records:
            print(f"worker {r.part} epoch {rec.epoch}: loss={rec.loss:.4f} "
                  f"acc={rec.train_acc:.4f} nodes_pulled={rec.nodes_pulled} "
                  f"t_e={rec.t_e_ms:.1f}ms")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _checked_run_config(args)
    if cfg is None:
        return 2
    sweep = []
    for size in args.n_hot_list.split(";"):
        size = size.strip()
        swept = RunConfig(**vars(cfg))
        try:
            _set_hot_size(swept, size)
            swept.validate()
        except ValueError:
            print(f"error: bad value for n_hot: {size!r}", file=sys.stderr)
            return 2
        if cfg.metrics_out:
            swept.metrics_out = labeled_path(cfg.metrics_out,
                                             f"nhot{size.rstrip('%')}")
            if any(s.metrics_out == swept.metrics_out for _, s in sweep):
                print(f"error: n_hot {size!r} would overwrite the metrics of "
                      f"an earlier size", file=sys.stderr)
                return 2
        sweep.append((size, swept))
    for size, swept in sweep:
        results = run(swept)
        pulled = sum(rec.nodes_pulled for r in results for rec in r.records)
        print(f"n_hot={size}: total fallback nodes_pulled={pulled}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gnnpipe")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic power-law graph")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--edges-per-node", type=int, default=5, dest="edges_per_node")
    p_gen.add_argument("--feat-dim", type=int, default=32, dest="feat_dim")
    p_gen.add_argument("--classes", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_part = sub.add_parser("partition", help="partition a graph to an RPB1 file")
    p_part.add_argument("--graph", required=True)
    p_part.add_argument("--partitions", type=int, required=True)
    p_part.add_argument("--partitioner", choices=["random", "edgecut"],
                        default="edgecut")
    p_part.add_argument("--seed", type=int, default=7)
    p_part.add_argument("--out", required=True)
    p_part.set_defaults(func=_cmd_partition)

    p_plan = sub.add_parser("plan", help="print the 16-hex-digit plan digest")
    _add_common_train_flags(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_train = sub.add_parser("train", help="run one training configuration")
    _add_common_train_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_sweep = sub.add_parser("sweep", help="sweep hot-set sizes")
    _add_common_train_flags(p_sweep)
    p_sweep.add_argument("--n-hot-list", required=True, dest="n_hot_list",
                         help="semicolon-separated sizes, e.g. '0;1%%;5%%;15%%'")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
