import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnnpipe.graph import (_HEADER, GraphFormatError, GraphValidationError,
                           from_edge_list, load_graph, save_graph,
                           sorted_unique, synth_powerlaw)


def test_synth_deterministic():
    a = synth_powerlaw(1000, 5, 32, 8, 7)
    b = synth_powerlaw(1000, 5, 32, 8, 7)
    assert a.equals(b)


def test_synth_seed_changes_graph():
    a = synth_powerlaw(500, 3, 8, 4, 1)
    b = synth_powerlaw(500, 3, 8, 4, 2)
    assert not a.equals(b)


def test_synth_edge_count():
    # preferential attachment adds m undirected edges per non-seed node
    for n, m in [(100, 2), (500, 5), (1000, 3)]:
        g = synth_powerlaw(n, m, 4, 2, 7)
        assert g.num_edges == 2 * m * (n - m)


def test_synth_heavy_tail():
    g = synth_powerlaw(10000, 5, 4, 2, 7)
    deg = g.degrees()
    assert deg.max() >= 5 * np.median(deg)


def test_synth_bad_args():
    with pytest.raises(ValueError):
        synth_powerlaw(5, 5, 4, 2, 7)
    with pytest.raises(ValueError):
        synth_powerlaw(10, 0, 4, 2, 7)


def test_synth_masks(small_graph):
    g = small_graph
    assert not (g.train_mask & g.val_mask).any()
    assert not (g.train_mask & g.test_mask).any()
    assert not (g.val_mask & g.test_mask).any()
    assert g.train_mask.sum() == 700
    assert g.val_mask.sum() == 150
    assert (g.train_mask | g.val_mask | g.test_mask).all()


def test_synth_symmetric(small_graph):
    g = small_graph
    src = np.repeat(np.arange(g.num_nodes), g.degrees())
    fwd = set(zip(src.tolist(), g.indices.tolist()))
    assert all((b, a) in fwd for a, b in fwd)


def test_roundtrip(tmp_path, small_graph):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    assert load_graph(p).equals(small_graph)


def test_save_deterministic(tmp_path, small_graph):
    p1, p2 = tmp_path / "a.rgf", tmp_path / "b.rgf"
    save_graph(small_graph, p1)
    save_graph(small_graph, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path, small_graph):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    data = bytearray(p.read_bytes())
    data[:4] = b"XXXX"
    p.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError):
        load_graph(p)


def test_bad_version(tmp_path, small_graph):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    data = bytearray(p.read_bytes())
    data[4] = 99
    p.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError):
        load_graph(p)


def test_truncated(tmp_path, small_graph):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    p.write_bytes(p.read_bytes()[:-100])
    with pytest.raises(OSError):
        load_graph(p)


def test_trailing_bytes_rejected(tmp_path, small_graph):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    p.write_bytes(p.read_bytes() + b"garbage!")
    with pytest.raises(GraphFormatError, match="8 bytes after the RGF1 payload"):
        load_graph(p)


def test_mask_byte_other_than_0_or_1_rejected(tmp_path, small_graph):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    data = bytearray(p.read_bytes())
    # the three u8 masks end the file; flip a set train-mask byte to 7
    off = len(data) - 3 * small_graph.num_nodes
    data[off + int(np.argmax(small_graph.train_mask))] = 7
    p.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError, match="mask byte 7 is not 0 or 1"):
        load_graph(p)


def test_out_of_range_index(tmp_path):
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p = tmp_path / "g.rgf"
    save_graph(g, p)
    data = bytearray(p.read_bytes())
    # first indices entry sits right after the header and indptr
    off = _HEADER.size + 8 * (g.num_nodes + 1)
    data[off : off + 8] = (1000).to_bytes(8, "little")
    p.write_bytes(bytes(data))
    with pytest.raises(GraphValidationError, match="neighbor id out of range"):
        load_graph(p)


def test_out_of_range_label(tmp_path):
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)], num_classes=4)
    p = tmp_path / "g.rgf"
    save_graph(g, p)
    data = bytearray(p.read_bytes())
    # u32 labels come right before the three u8 masks at the end
    off = len(data) - 7 * g.num_nodes
    data[off : off + 4] = (9).to_bytes(4, "little")
    p.write_bytes(bytes(data))
    with pytest.raises(GraphValidationError, match="label out of range"):
        load_graph(p)


def test_non_finite_features_rejected(tmp_path, small_graph):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    data = bytearray(p.read_bytes())
    _, _, n, m, dim, _ = _HEADER.unpack_from(data)
    off = _HEADER.size + 8 * (n + 1) + 8 * m  # the f32 feature block
    feats = np.frombuffer(data, dtype="<f4", count=n * dim, offset=off).copy()
    feats[[5, 3 * dim + 1]] = [np.nan, np.inf]
    data[off : off + 4 * n * dim] = feats.tobytes()
    p.write_bytes(bytes(data))
    with pytest.raises(GraphValidationError, match="features must be finite"):
        load_graph(p)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_roundtrip_property(tmp_path_factory, n, m, seed):
    if n <= m:
        return
    g = synth_powerlaw(n, m, 3, 2, seed)
    p = tmp_path_factory.mktemp("rt") / "g.rgf"
    save_graph(g, p)
    assert load_graph(p).equals(g)



@pytest.mark.parametrize("field, message", [("dim", "feat dim must be >= 1"),
                                            ("classes", "classes must be >= 1")])
def test_no_features_or_no_classes_rejected(tmp_path, small_graph, field, message):
    p = tmp_path / "g.rgf"
    save_graph(small_graph, p)
    data = bytearray(p.read_bytes())
    magic, version, n, m, dim, classes = _HEADER.unpack_from(data)
    if field == "dim":  # the feature block goes with its columns
        off = _HEADER.size + 8 * (n + 1) + 8 * m
        del data[off : off + 4 * n * dim]
        dim = 0
    else:
        classes = 0
    _HEADER.pack_into(data, 0, magic, version, n, m, dim, classes)
    p.write_bytes(bytes(data))
    with pytest.raises(GraphValidationError, match=message):
        load_graph(p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1)))
@example([])
@example([5])
@example([-3, -3, -3, -3])
@example([0, 2**63 - 1, -2**63, 0, 2**63 - 1])
def test_sorted_unique_equals_np_unique(values):
    ids = np.array(values, dtype=np.int64)
    got, want = sorted_unique(ids), np.unique(ids)
    assert got.dtype == want.dtype and np.array_equal(got, want)
