"""`run()` pins numpy's OpenBLAS to one thread before any worker starts,
so the parameters do not depend on `OPENBLAS_NUM_THREADS`."""

import ctypes.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gnnpipe import model, train
from gnnpipe.train import RunConfig

SRC = str(Path(__file__).resolve().parents[1] / "src")

DIGEST = """
import hashlib
from gnnpipe.train import RunConfig, run
h = hashlib.blake2b(digest_size=8)
for p in run(RunConfig(gen_nodes=4000, epochs=2, batch_size=256))[0].params:
    for a in (p.w_self, p.w_neigh, p.bias):
        h.update(a.tobytes())
print(h.hexdigest())
"""


def params_digest(threads: str | None) -> str:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", DIGEST], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_params_do_not_depend_on_openblas_num_threads():
    digests = {t: params_digest(t) for t in (None, "1", "2")}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.skipif(train._openblas_threads() is None,
                    reason="numpy does not use OpenBLAS")
def test_every_training_step_sees_one_blas_thread(monkeypatch):
    set_threads, get_threads = train._openblas_threads()
    before = get_threads()
    seen: list[tuple[int, int]] = []  # (thread id, BLAS threads) per step
    loss_and_grad = model.loss_and_grad

    def probe(*args, **kwargs):
        seen.append((threading.get_ident(), get_threads()))
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(model, "loss_and_grad", probe)
    set_threads(2)  # an earlier run() in this process has pinned it already
    try:
        train.run(RunConfig(gen_nodes=600, gen_edges_per_node=3, feat_dim=8,
                            num_classes=4, partitions=2, epochs=1,
                            batch_size=64, fanouts=[3, 3]))
    finally:
        set_threads(before)
    assert len({tid for tid, _ in seen}) == 2
    assert {n for _, n in seen} == {1}


def test_no_openblas_found_is_not_an_error(monkeypatch):
    libc = ctypes.util.find_library("c")
    if libc is None:
        pytest.skip("no C library to load")
    assert train._openblas_threads(libc) is None
    found = train._openblas_threads
    monkeypatch.setattr(train, "_openblas_threads", lambda: found(libc))
    train.run(RunConfig(gen_nodes=300, gen_edges_per_node=3, feat_dim=4,
                        num_classes=2, partitions=1, epochs=1,
                        batch_size=64, fanouts=[2]))
