"""Command-line harness: generate graphs, partition, print plan digests,
run training, sweep cache sizes."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .graph import save_graph, synth_powerlaw
from .partition import edge_cut, save_partition
from .plan import generate_plan
from .train import (RunConfig, _load_or_generate, _partition, labeled_path,
                    run)


def _fanouts(text: str) -> list[int]:
    """Comma-separated fanouts; an empty entry, as in "3,,4", is an error."""
    return [int(x) for x in str(text).split(",")]


def _set_hot_size(cfg: RunConfig, size: str) -> None:
    """Apply a hot-set size given as a count "N" or a percent "P%"."""
    if size.endswith("%"):
        cfg.n_hot = None
        cfg.n_hot_pct = float(size[:-1])
    else:
        cfg.n_hot = int(size)


def _field(attr: str, conv=str):
    def setter(cfg: RunConfig, text: str) -> None:
        setattr(cfg, attr, conv(text))
    return setter


# every setting of every command: flag -> (RunConfig setter taking the
# flag's text, help). The flag's dest is also its --config key, and
# RunConfig holds every default.
_FLAGS = {
    "--graph": (_field("graph_path"), "RGF1 graph file (omit to generate)"),
    "--nodes": (_field("gen_nodes", int), "generated graph size"),
    "--edges-per-node": (_field("gen_edges_per_node", int),
                         "edges each generated node attaches"),
    "--feat-dim": (_field("feat_dim", int), "generated feature width"),
    "--classes": (_field("num_classes", int), "generated label classes"),
    "--partitions": (_field("partitions", int), "number of partitions k"),
    "--partitioner": (_field("partitioner"), "random or edgecut"),
    "--partition-file": (_field("partition_path"), "RPB1 partition file"),
    "--seed": (_field("s0", int), "base seed s0"),
    "--epochs": (_field("epochs", int), "training epochs"),
    "--batch-size": (_field("batch_size", int), "seeds per batch"),
    "--fanout": (_field("fanouts", _fanouts),
                 "comma-separated per-layer fanouts, e.g. 10,25"),
    "--hidden-dim": (_field("hidden_dim", int), "hidden layer width"),
    "--lr": (_field("lr", float), "SGD learning rate"),
    "--mode": (_field("mode"), "baseline or rapid"),
    "--n-hot": (_set_hot_size,
                "hot-set size: absolute count or percent like 15%%"),
    "--prefetch-depth": (_field("prefetch_depth", int), "prefetch depth Q"),
    "--latency-ms": (_field("latency_ms", float),
                     "injected latency per shard request"),
    "--transport": (_field("transport"), "inproc or tcp"),
    "--metrics-out": (_field("metrics_out"), "per-worker metrics CSV path"),
}
_KEYS = {flag[2:].replace("-", "_"): setter
         for flag, (setter, _) in _FLAGS.items()}


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
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r} in {path}")
            values[key] = val.strip()
    return values


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The validated run config from the flags over the config file's
    values; ValueError names the key of a value that does not convert."""
    file_vals = _read_config_file(args.config) if args.config else {}
    cfg = RunConfig()
    for key, setter in _KEYS.items():
        value = getattr(args, key)
        if value is None:
            value = file_vals.get(key)
        if value is not None:
            try:
                setter(cfg, value)
            except ValueError:
                raise ValueError(f"bad value for {key}: {value!r}") from None
    if args.command == "gen":
        cfg.graph_path = None  # gen always generates: check its generator
    cfg.validate()
    return cfg


def _cmd_gen(args: argparse.Namespace, cfg: RunConfig) -> int:
    g = synth_powerlaw(cfg.gen_nodes, cfg.gen_edges_per_node, cfg.feat_dim,
                       cfg.num_classes, cfg.s0)
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.num_nodes} nodes, {g.num_edges} edge entries")
    return 0


def _cmd_partition(args: argparse.Namespace, cfg: RunConfig) -> int:
    g = _load_or_generate(cfg)
    book = _partition(g, cfg)
    save_partition(book, args.out)
    print(f"wrote {args.out}: k={book.k}, edge cut={edge_cut(g, book.owner)}")
    return 0


def _cmd_plan(args: argparse.Namespace, cfg: RunConfig) -> int:
    g = _load_or_generate(cfg)
    plan = generate_plan(g, np.flatnonzero(g.train_mask), cfg.fanouts,
                         cfg.batch_size, cfg.epochs, cfg.s0)
    print(plan.digest_hex())
    return 0


def _cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
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


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
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
    commands = {
        "gen": (_cmd_gen, "generate a synthetic power-law graph"),
        "partition": (_cmd_partition, "partition a graph to an RPB1 file"),
        "plan": (_cmd_plan, "print the 16-hex-digit plan digest"),
        "train": (_cmd_train, "run one training configuration"),
        "sweep": (_cmd_sweep, "sweep hot-set sizes"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag, (_, flag_help) in _FLAGS.items():
            p.add_argument(flag, help=flag_help)
        p.add_argument("--config", help="key=value config file (CLI flags win)")
        p.set_defaults(func=func)
        if name in ("gen", "partition"):
            p.add_argument("--out", required=True, help="file to write")
        elif name == "train":
            p.add_argument("--dump-cache-keys", action="store_true",
                           help="print each rapid worker's final hot set")
        elif name == "sweep":
            p.add_argument("--n-hot-list", required=True,
                           help="semicolon-separated sizes, e.g. '0;1%%;5%%;15%%'")

    args = parser.parse_args(argv)
    try:  # OSError: an unreadable file or a failed TCP transport
        return args.func(args, _run_config(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
