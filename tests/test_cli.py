import numpy as np
import pytest

from gnnpipe import cli
from gnnpipe.cli import main
from gnnpipe.graph import load_graph, save_graph, synth_powerlaw
from gnnpipe.partition import (load_partition, partition_edgecut,
                               partition_random, save_partition)
from gnnpipe.store import TransportError
from gnnpipe.train import read_metrics

GEN = ["gen", "--nodes", "400", "--edges-per-node", "3", "--feat-dim", "8",
       "--classes", "4", "--seed", "7"]
TRAIN_SMALL = ["--nodes", "400", "--edges-per-node", "3", "--feat-dim", "8",
               "--classes", "4", "--seed", "7", "--epochs", "2",
               "--batch-size", "32", "--fanout", "3,5"]


def test_gen_writes_loadable_graph(tmp_path, capsys):
    out = tmp_path / "g.rgf"
    assert main(GEN + ["--out", str(out)]) == 0
    g = load_graph(out)
    assert g.num_nodes == 400 and g.feat_dim == 8
    assert str(out) in capsys.readouterr().out


def test_partition_command(tmp_path, capsys):
    gpath = tmp_path / "g.rgf"
    main(GEN + ["--out", str(gpath)])
    out = tmp_path / "p.rpb"
    assert main(["partition", "--graph", str(gpath), "--partitions", "3",
                 "--out", str(out)]) == 0
    book = load_partition(out)
    assert book.k == 3
    assert "edge cut=" in capsys.readouterr().out


def test_plan_digest_printed_and_stable(capsys):
    args = ["plan"] + TRAIN_SMALL
    assert main(args) == 0
    first = capsys.readouterr().out.strip()
    assert len(first) == 16
    int(first, 16)
    main(args)
    assert capsys.readouterr().out.strip() == first


def test_plan_digest_changes_with_seed(capsys):
    main(["plan"] + TRAIN_SMALL)
    a = capsys.readouterr().out.strip()
    reseeded = list(TRAIN_SMALL)
    reseeded[reseeded.index("--seed") + 1] = "8"
    main(["plan"] + reseeded)
    b = capsys.readouterr().out.strip()
    assert a != b


def test_plan_rejects_bad_flag_values(capsys):
    args = ["plan"] + TRAIN_SMALL
    args[args.index("--batch-size") + 1] = "0"
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "error: batch size must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "plan", "sweep"])
@pytest.mark.parametrize("flag, value, message", [
    ("--fanout", "3,x", "bad value for fanout: '3,x'"),
    ("--fanout", "3,,4", "bad value for fanout: '3,,4'"),
    ("--fanout", "10,25,", "bad value for fanout: '10,25,'"),
    ("--n-hot", "many", "bad value for n_hot: 'many'"),
    ("--fanout", "3,-1", "fanouts must be >= 1"),
    ("--fanout", "0", "fanouts must be >= 1"),
])
def test_bad_flag_value_is_an_error(capsys, command, flag, value, message):
    args = [command] + TRAIN_SMALL + [flag, value]
    if command == "sweep":
        args += ["--n-hot-list", "0"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "plan", "sweep"])
def test_bad_config_file_value_is_an_error(tmp_path, capsys, command):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nodes = 400\nepochs = two\n")
    args = [command, "--config", str(cfgfile)]
    if command == "sweep":
        args += ["--n-hot-list", "0"]
    assert main(args) == 2
    assert "error: bad value for epochs: 'two'" in capsys.readouterr().err


def test_train_writes_metrics(tmp_path, capsys):
    out = tmp_path / "m.csv"
    rc = main(["train"] + TRAIN_SMALL + ["--mode", "rapid",
               "--metrics-out", str(out)])
    assert rc == 0
    for p in range(2):
        recs = read_metrics(tmp_path / f"m.w{p}.csv")
        assert [r.epoch for r in recs] == [0, 1]
        assert all(r.mode == "rapid" for r in recs)
    assert "plan digest" in capsys.readouterr().out


def test_train_from_file_graph(tmp_path, capsys):
    gpath = tmp_path / "g.rgf"
    main(GEN + ["--out", str(gpath)])
    rc = main(["train", "--graph", str(gpath), "--epochs", "1",
               "--batch-size", "32", "--fanout", "3,5", "--mode", "baseline"])
    assert rc == 0


def test_train_rejects_bad_flag_values(capsys):
    rc = main(["train"] + TRAIN_SMALL + ["--prefetch-depth", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_partition_rejects_more_partitions_than_nodes(tmp_path, capsys):
    gpath, out = tmp_path / "g.rgf", tmp_path / "p.rpb"
    save_graph(synth_powerlaw(6, 2, 4, 2, 7), gpath)
    assert main(["partition", "--graph", str(gpath), "--partitions", "7",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: 7 partitions for a graph of 6 nodes" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("case, message", [
    ("uncovered", "partition file covers 200 nodes, graph has 400"),
    ("untrainable", "empty train set"),
    ("missing", "No such file or directory"),
])
def test_errors_after_validation_exit_2(tmp_path, capsys, case, message):
    g = synth_powerlaw(400, 3, 8, 4, 7)
    gpath = tmp_path / "g.rgf"
    settings = ["--graph", str(gpath)]
    if case == "uncovered":
        ppath = tmp_path / "p.rpb"
        save_partition(partition_edgecut(synth_powerlaw(200, 3, 8, 4, 7), 2),
                       ppath)
        settings += ["--partition-file", str(ppath)]
    elif case == "untrainable":
        g.train_mask[:] = False
    if case != "missing":
        save_graph(g, gpath)
    args = ["train"] + settings + ["--epochs", "1", "--batch-size", "32",
                                   "--fanout", "3,5"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_metrics_out_in_missing_directory_exits_2(tmp_path, capsys, command):
    args = [command] + TRAIN_SMALL + ["--metrics-out",
                                      str(tmp_path / "missing" / "run.csv")]
    if command == "sweep":
        args += ["--n-hot-list", "0;5%"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no such directory" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_transport_error_is_an_error(monkeypatch, capsys):
    def refused(cfg):
        raise TransportError("connect to 127.0.0.1:9 failed")

    monkeypatch.setattr(cli, "run", refused)
    assert main(["train"] + TRAIN_SMALL) == 2
    assert "error: connect to 127.0.0.1:9 failed" in capsys.readouterr().err


def test_n_hot_percent_and_absolute(capsys):
    rc = main(["train"] + TRAIN_SMALL + ["--n-hot", "5%", "--mode", "rapid"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["train"] + TRAIN_SMALL + ["--n-hot", "10", "--mode", "rapid",
               "--dump-cache-keys"])
    assert rc == 0
    assert "cache keys" in capsys.readouterr().out


def test_config_file_with_cli_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# small run\n"
        "nodes = 400\n"
        "edges_per_node = 3\n"
        "feat_dim = 8\n"
        "classes = 4\n"
        "epochs = 2\n"
        "batch_size = 32\n"
        "fanout = 3,5\n"
        "mode = baseline\n"
    )
    out = tmp_path / "m.csv"
    # CLI --mode beats the file value
    rc = main(["train", "--config", str(cfgfile), "--mode", "rapid",
               "--metrics-out", str(out)])
    assert rc == 0
    recs = read_metrics(tmp_path / "m.w0.csv")
    assert recs[0].mode == "rapid" and len(recs) == 2


def test_bad_config_line(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epochs 2\n")
    assert main(["train", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert "error: bad config line: 'epochs 2'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line", ["epoch = 2", "layers = 2", "hot_scope = global",
                                  "precision = f64"])
def test_unknown_config_key(tmp_path, capsys, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"epochs = 1\n{line}\n")
    assert main(["train", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert "error: unknown config key" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "plan", "sweep"])
@pytest.mark.parametrize("text, message", [
    (None, "[Errno 2] No such file or directory"),
    ("epochs 2\n", "bad config line: 'epochs 2'"),
    ("epochs = 1\nlayers = 2\n", "unknown config key 'layers'"),
])
def test_config_file_errors_in_every_command(tmp_path, capsys, command, text,
                                             message):
    cfgfile = tmp_path / "run.cfg"
    if text is not None:
        cfgfile.write_text(text)
    args = [command, "--config", str(cfgfile)]
    if command == "sweep":
        args += ["--n-hot-list", "0"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_sweep(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep"] + TRAIN_SMALL + ["--mode", "rapid",
               "--n-hot-list", "0;15%", "--metrics-out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "n_hot=0:" in text and "n_hot=15%:" in text
    recs0 = read_metrics(tmp_path / "s.nhot0.w0.csv")
    recs15 = read_metrics(tmp_path / "s.nhot15.w0.csv")
    pulled0 = sum(r.nodes_pulled for r in recs0)
    pulled15 = sum(r.nodes_pulled for r in recs15)
    assert pulled15 <= pulled0


def test_sweep_writes_one_set_per_size_whatever_the_extension(tmp_path, capsys):
    out = tmp_path / "run.out"
    rc = main(["sweep"] + TRAIN_SMALL + ["--epochs", "1", "--mode", "rapid",
               "--n-hot-list", "0;15%", "--metrics-out", str(out)])
    assert rc == 0
    for label in ("nhot0", "nhot15"):
        for p in range(2):
            assert len(read_metrics(tmp_path / f"run.{label}.w{p}.out")) == 1
    assert not (tmp_path / "run.w0.out").exists()


@pytest.fixture()
def no_runs(monkeypatch):
    """Fail the test if the command starts a training run."""
    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", no_run)


@pytest.mark.parametrize("sizes, bad", [("0;lots", "lots"), ("250%", "250%"),
                                        ("5;-1", "-1"), ("0;", "")])
def test_sweep_checks_every_size_before_the_first_run(no_runs, capsys, sizes, bad):
    assert main(["sweep"] + TRAIN_SMALL + ["--n-hot-list", sizes]) == 2
    captured = capsys.readouterr()
    assert f"error: bad value for n_hot: {bad!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sizes", ["15;15%", "5%;5"])
def test_sweep_rejects_sizes_that_share_metrics_files(tmp_path, no_runs, capsys,
                                                       sizes):
    out = tmp_path / "run.csv"
    assert main(["sweep"] + TRAIN_SMALL + ["--n-hot-list", sizes,
                 "--metrics-out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "would overwrite the metrics of an earlier size" in captured.err
    assert captured.out == ""


COMMANDS = ["gen", "partition", "plan", "train", "sweep"]


def command_args(command, tmp_path) -> list[str]:
    """The arguments `command` needs besides its settings."""
    if command in ("gen", "partition"):
        return ["--out", str(tmp_path / f"{command}.out")]
    if command == "sweep":
        return ["--n-hot-list", "0"]
    return []


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key, value, message", [
    ("epochs", "x", "bad value for epochs: 'x'"),
    ("lr", "fast", "bad value for lr: 'fast'"),
    ("mode", "turbo", "unknown mode 'turbo'"),
    ("partitioner", "metis", "unknown partitioner 'metis'"),
    ("transport", "udp", "unknown transport 'udp'"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_every_command_rejects_bad_settings_alike(tmp_path, no_runs, capsys,
                                                   command, key, value,
                                                   message, source):
    if source == "flag":
        settings = ["--" + key.replace("_", "-"), value]
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        settings = ["--config", str(cfgfile)]
    assert main([command] + settings + command_args(command, tmp_path)) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / f"{command}.out").exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flags, message", [
    (["--partitions", "0"], "partitions must be >= 1"),
    (["--classes", "0"], "classes must be >= 1"),
    (["--feat-dim", "0"], "feat dim must be >= 1"),
    (["--nodes", "3", "--edges-per-node", "5"],
     "a generated graph needs nodes > edges per node >= 1"),
    (["--lr", "inf"], "lr must be finite and > 0"),
    (["--latency-ms", "nan"], "latency must be finite"),
    (["--seed", "-1"], "seed must be >= 0"),
])
def test_every_command_rejects_values_that_fail_later(tmp_path, no_runs, capsys,
                                                      command, flags, message):
    assert main([command] + flags + command_args(command, tmp_path)) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / f"{command}.out").exists()


GEN_SETTINGS = {"nodes": "400", "edges_per_node": "3", "feat_dim": "8",
                "classes": "4", "seed": "11"}


def settings_from(source, settings, tmp_path) -> list[str]:
    """`settings` as flags or as a --config file."""
    if source == "flag":
        return [arg for key, value in settings.items()
                for arg in ("--" + key.replace("_", "-"), value)]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return ["--config", str(cfgfile)]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_gen_writes_what_the_generator_makes(tmp_path, capsys, source):
    want, got = tmp_path / "want.rgf", tmp_path / "got.rgf"
    save_graph(synth_powerlaw(400, 3, 8, 4, 11), want)
    args = settings_from(source, GEN_SETTINGS, tmp_path)
    assert main(["gen"] + args + ["--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("partitioner", ["edgecut", "random"])
@pytest.mark.parametrize("from_file", [True, False])
def test_partition_writes_what_the_partitioner_makes(tmp_path, capsys, source,
                                                      partitioner, from_file):
    g = synth_powerlaw(400, 3, 8, 4, 11)
    if partitioner == "random":
        book = partition_random(g, 3, 11)
    else:
        book = partition_edgecut(g, 3)
    want, got = tmp_path / "want.rpb", tmp_path / "got.rpb"
    save_partition(book, want)
    settings = {"partitions": "3", "partitioner": partitioner, "seed": "11"}
    if from_file:  # other generator values: the graph file is what counts
        gpath = tmp_path / "g.rgf"
        save_graph(g, gpath)
        settings.update(graph=str(gpath), nodes="50", classes="2")
    else:
        settings.update(GEN_SETTINGS)
    args = settings_from(source, settings, tmp_path)
    assert main(["partition"] + args + ["--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()
