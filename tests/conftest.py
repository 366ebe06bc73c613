import numpy as np
import pytest

from gnnpipe.graph import Graph, from_edge_list, synth_powerlaw

_criterion_lines: list[str] = []


def record_criterion(number: int, description: str, passed: bool) -> bool:
    """Collect one pass/fail line per acceptance criterion for the
    end-of-run summary; returns `passed` so callers can assert on it."""
    verdict = "PASS" if passed else "FAIL"
    _criterion_lines.append(f"criterion {number:2d}: {verdict}  {description}")
    return passed


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(_criterion_lines):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_graph():
    """1000-node power-law graph shared by read-only tests."""
    return synth_powerlaw(1000, 5, 8, 4, seed=7)


@pytest.fixture
def path_graph():
    # 0 - 1 - 2
    return from_edge_list(3, [(0, 1), (1, 2)])


@pytest.fixture
def star_graph():
    """Center node 0 with 20 leaves."""
    return from_edge_list(21, [(0, i) for i in range(1, 21)])


@pytest.fixture
def multigraph():
    """Node 0 lists node 3 three times and node 1 twice among its six
    entries (a hub at any fanout below 6), node 1 lists node 0 twice,
    nodes 2 and 5 have no neighbors; random float32 features of width 3."""
    lists = [[3, 1, 3, 4, 1, 3], [0, 0], [], [0, 4, 0], [3, 1], [], [0, 2]]
    indptr = np.cumsum([0] + [len(x) for x in lists]).astype(np.int64)
    n = len(lists)
    g = Graph(
        num_nodes=n, num_edges=int(indptr[-1]), indptr=indptr,
        indices=np.array([v for x in lists for v in x], dtype=np.int64),
        features=np.random.default_rng(0).standard_normal((n, 3)).astype(np.float32),
        labels=np.arange(n, dtype=np.int64) % 2, feat_dim=3, num_classes=2,
        train_mask=np.ones(n, dtype=bool), val_mask=np.zeros(n, dtype=bool),
        test_mask=np.zeros(n, dtype=bool))
    g.validate()
    return g


def edge_ids(block, d: int):
    """(src, dst) node ids of the block's step-d edges, in CSR order."""
    src_pos, indptr, _ = block.hops[d]
    return (block.frontiers[d + 1][src_pos],
            np.repeat(block.frontiers[d], np.diff(indptr)))


def two_cliques(size: int = 6):
    """Two disconnected cliques of `size` nodes each."""
    edges = []
    for a in range(size):
        for b in range(a + 1, size):
            edges.append((a, b))
            edges.append((size + a, size + b))
    return from_edge_list(2 * size, edges)

