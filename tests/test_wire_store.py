import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnnpipe import wire
from gnnpipe.store import (InprocTransport, LookupError_, StoreClient,
                           StoreShard, TcpShardServer, TcpTransport,
                           TransferAccount, TransportError, bytes_for, find)

# request: u8 type, u32 count, u64 ids; all little-endian
GOLDEN_REQUEST = bytes.fromhex(
    "01" "03000000"
    "0500000000000000" "0700000000000000" "ffff000000000000"
)
# response: u8 status, u32 rows, u32 dim, f32 payload (1.0, -2.0, 0.5, 3.0)
GOLDEN_RESPONSE = bytes.fromhex(
    "00" "02000000" "02000000"
    "0000803f" "000000c0" "0000003f" "00004040"
)


class TestWireGolden:
    def test_request_bytes(self):
        payload = wire.encode_request(
            wire.MSG_SYNC_PULL, np.array([5, 7, 0xFFFF], dtype=np.int64)
        )
        assert payload == GOLDEN_REQUEST

    def test_request_decode(self):
        msg_type, ids = wire.decode_request(GOLDEN_REQUEST)
        assert msg_type == wire.MSG_SYNC_PULL
        assert ids.tolist() == [5, 7, 0xFFFF]

    def test_response_bytes(self):
        rows = np.array([[1.0, -2.0], [0.5, 3.0]], dtype=np.float32)
        assert wire.encode_response(wire.STATUS_OK, rows, 2) == GOLDEN_RESPONSE

    def test_response_decode(self):
        status, rows, dim = wire.decode_response(GOLDEN_RESPONSE)
        assert status == wire.STATUS_OK
        assert dim == 2
        assert rows.tolist() == [[1.0, -2.0], [0.5, 3.0]]

    def test_frame_bytes(self):
        assert wire.frame(b"abc") == b"\x03\x00\x00\x00abc"


class TestWireErrors:
    def test_short_request(self):
        with pytest.raises(wire.WireError):
            wire.decode_request(b"\x01\x00")

    def test_bad_msg_type(self):
        with pytest.raises(wire.WireError):
            wire.decode_request(b"\x09" + b"\x00" * 4)

    def test_length_mismatch(self):
        with pytest.raises(wire.WireError):
            wire.decode_request(b"\x01" + (2).to_bytes(4, "little") + b"\x00" * 8)

    def test_short_response(self):
        with pytest.raises(wire.WireError):
            wire.decode_response(b"\x00")

    def test_response_length_mismatch(self):
        with pytest.raises(wire.WireError):
            wire.decode_response(GOLDEN_RESPONSE[:-4])


class TestFailure:
    def test_roundtrip(self):
        payload = wire.encode_failure("RuntimeError: shard died")
        assert payload[0] == wire.STATUS_FAILED
        assert wire.failure_message(payload) == "RuntimeError: shard died"

    def test_long_message_cut_to_size(self):
        payload = wire.encode_failure("x" * 1000)
        assert len(payload) == wire.FAILURE_SIZE
        assert wire.failure_message(payload) == "x" * (wire.FAILURE_SIZE - 1)

    def test_other_payloads_are_not_failures(self):
        assert wire.failure_message(GOLDEN_RESPONSE) is None
        not_owned = wire.encode_response(wire.STATUS_NOT_OWNED, None, 3)
        assert wire.failure_message(not_owned) is None


class TestFrameCap:
    def test_oversized_header_rejected_at_once(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(struct.pack("<I", 0xFFFFFFF0))
            t0 = time.monotonic()
            with pytest.raises(wire.WireError):
                wire.read_frame(b, 1 << 20)
            assert time.monotonic() - t0 < 1

    def test_frame_at_the_cap_is_read(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(wire.frame(b"x" * 16))
            assert wire.read_frame(b, 16) == b"x" * 16

    def test_server_hangs_up_on_oversized_request(self):
        _, _, shards, _ = make_store()
        srv = TcpShardServer(shards[0])
        try:
            with socket.create_connection(srv.address, timeout=2) as s:
                s.sendall(struct.pack("<I", 0xFFFFFFF0))
                assert s.recv(1) == b""  # closed, not waiting for 4 GiB
        finally:
            srv.close()

    def test_client_rejects_oversized_response(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def reply_oversized():
            conn, _ = listener.accept()
            with conn:
                wire.read_frame(conn, 1 << 20)
                conn.sendall(struct.pack("<I", 0xFFFFFFF0))
                conn.recv(1)  # until the client hangs up

        t = threading.Thread(target=reply_oversized)
        t.start()
        transport = TcpTransport(*listener.getsockname())
        try:
            with pytest.raises(wire.WireError):
                transport.request(
                    wire.encode_request(wire.MSG_SYNC_PULL, np.array([1])),
                    wire.response_size(1, 3))
        finally:
            transport.close()
            t.join(5)
            listener.close()
        assert not t.is_alive()


@settings(max_examples=50)
@given(
    msg_type=st.sampled_from([wire.MSG_SYNC_PULL, wire.MSG_VECTOR_PULL]),
    ids=st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=64),
)
def test_request_roundtrip(msg_type, ids):
    payload = wire.encode_request(msg_type, np.array(ids, dtype=np.int64))
    got_type, got_ids = wire.decode_request(payload)
    assert got_type == msg_type
    assert got_ids.tolist() == ids


@settings(max_examples=50)
@given(
    status=st.sampled_from([0, 1, 2]),
    rows=st.integers(min_value=0, max_value=8),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_response_roundtrip(status, rows, dim, seed):
    body = np.random.default_rng(seed).normal(size=(rows, dim)).astype(np.float32)
    payload = wire.encode_response(status, body, dim)
    got_status, got_rows, got_dim = wire.decode_response(payload)
    assert got_status == status and got_dim == dim
    assert np.array_equal(got_rows, body)


def test_bytes_for_values():
    assert bytes_for(15_000, 602) == 36_120_000
    assert bytes_for(232_965, 602) == 560_979_720
    assert bytes_for(0, 10) == 0


@settings(max_examples=100)
@given(
    table=st.sets(st.integers(min_value=-5, max_value=40), max_size=20),
    ids=st.lists(st.integers(min_value=-10, max_value=50), max_size=30),
)
@example(table=set(), ids=[3, 3])  # empty table
@example(table={1, 4}, ids=[])  # empty request
@example(table={2, 4, 6}, ids=[-1, 7, 4, 4, 2])  # below, above, repeated
def test_find_matches_a_set(table, ids):
    sorted_ids = np.array(sorted(table), dtype=np.int64)
    pos, held = find(sorted_ids, np.array(ids, dtype=np.int64))
    assert held.tolist() == [i in table for i in ids]
    assert sorted_ids[pos[held]].tolist() == [i for i in ids if i in table]


def make_store(two_shards=True):
    """Two shards: even ids on shard 0, odd ids on shard 1, 10 nodes, d=3."""
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(10, 3)).astype(np.float32)
    owner = (np.arange(10) % 2).astype(np.uint32)
    shards = []
    for p in range(2):
        owned = np.flatnonzero(owner == p).astype(np.int64)
        shards.append(StoreShard(p, owned, feats[owned]))
    client = StoreClient(owner, [InprocTransport(s) for s in shards], 3)
    return feats, owner, shards, client


class TestShardAndClient:
    def test_rows_round_trip(self):
        feats, _, _, client = make_store()
        ids = np.array([3, 0, 7, 2])
        got = client.sync_pull(ids)
        assert np.array_equal(got, feats[ids])

    def test_accounting_one_rpc_per_shard(self):
        _, _, _, client = make_store()
        acct = TransferAccount()
        client.vector_pull(np.array([0, 2, 4, 1]), acct)  # two shards touched
        assert acct.snapshot() == (2, 4, 4 * 3 * 4)
        client.sync_pull(np.array([6]), acct)  # one shard
        assert acct.snapshot() == (3, 5, 5 * 3 * 4)

    def test_empty_pull_free(self):
        _, _, _, client = make_store()
        acct = TransferAccount()
        got = client.sync_pull(np.empty(0, dtype=np.int64), acct)
        assert got.shape == (0, 3)
        assert acct.snapshot() == (0, 0, 0)

    def test_not_owned_rejected(self):
        feats, _, shards, _ = make_store()
        # force a request for an odd id at the even shard
        payload = wire.encode_request(wire.MSG_SYNC_PULL, np.array([1]))
        status, _, _ = wire.decode_response(shards[0].handle(payload))
        assert status == wire.STATUS_NOT_OWNED

    def test_shard_with_no_rows_answers_an_empty_request(self):
        shard = StoreShard(0, np.empty(0, dtype=np.int64),
                           np.empty((0, 3), dtype=np.float32))
        empty = wire.encode_request(wire.MSG_SYNC_PULL,
                                    np.empty(0, dtype=np.int64))
        status, rows, dim = wire.decode_response(shard.handle(empty))
        assert (status, rows.shape, dim) == (wire.STATUS_OK, (0, 3), 3)
        one = wire.encode_request(wire.MSG_SYNC_PULL, np.array([1]))
        status, _, _ = wire.decode_response(shard.handle(one))
        assert status == wire.STATUS_NOT_OWNED

    def test_not_owned_raises_at_client(self):
        feats, owner, shards, _ = make_store()
        bad_owner = np.zeros_like(owner)  # claims shard 0 owns everything
        client = StoreClient(bad_owner, [InprocTransport(s) for s in shards], 3)
        with pytest.raises(LookupError_):
            client.sync_pull(np.array([1]))

    def test_malformed_payload(self):
        _, _, shards, _ = make_store()
        status, _, _ = wire.decode_response(shards[0].handle(b"\xff"))
        assert status == wire.STATUS_MALFORMED

    @pytest.mark.parametrize("rows", [1, 2])
    def test_response_with_too_few_rows_rejected(self, rows):
        # a response carries one row per id sent; one row for three ids
        # would otherwise be broadcast into all three
        feats, owner, shards, _ = make_store()

        class Short:
            def request(self, payload, max_len):
                _, ids = wire.decode_request(payload)
                return wire.encode_response(wire.STATUS_OK, feats[ids[:rows]], 3)

        client = StoreClient(owner, [InprocTransport(shards[0]), Short()], 3)
        with pytest.raises(wire.WireError,
                           match=f"shard 1 returned {rows} rows for 3 ids"):
            client.sync_pull(np.array([1, 2, 3, 5]))

    def test_server_side_counters(self):
        _, _, shards, client = make_store()
        client.sync_pull(np.array([0, 2, 1]))
        assert shards[0].rpc_calls == 1 and shards[0].nodes_served == 2
        assert shards[1].rpc_calls == 1 and shards[1].nodes_served == 1
        assert shards[0].payload_bytes == bytes_for(2, 3)

    def test_local_read_bypasses_counters(self):
        feats, _, shards, _ = make_store()
        got = shards[0].rows_for_local(np.array([4, 0]))
        assert np.array_equal(got, feats[[4, 0]])
        assert shards[0].rpc_calls == 0

    def test_local_read_serves_owned_ids_only(self):
        """Rows come in request order. An id between owned ids or past the
        last one is named, not answered with a neighbour's row."""
        rows = np.eye(3, dtype=np.float32)
        shard = StoreShard(0, np.array([0, 2, 4]), rows)
        assert np.array_equal(shard.rows_for_local(np.array([4, 0])), rows[[2, 0]])
        for missing in (1, 5):
            with pytest.raises(LookupError_, match=f"does not own node {missing}"):
                shard.rows_for_local(np.array([0, missing, 4]))

    def test_duplicate_ids_served(self):
        feats, _, shards, client = make_store()
        ids = np.array([2, 2, 4])
        acct = TransferAccount()
        assert np.array_equal(client.sync_pull(ids, acct), feats[ids])
        # each distinct id is sent and charged once
        assert acct.snapshot() == (1, 2, bytes_for(2, 3))
        assert shards[0].nodes_served == 2


class TestTcpTransport:
    def test_shard_failure_reaches_the_client(self):
        feats, owner, shards, _ = make_store()

        def broken(payload):
            raise RuntimeError("disk on fire")

        shards[1].handle = broken
        servers = [TcpShardServer(s) for s in shards]
        try:
            client = StoreClient(owner, [TcpTransport(*srv.address)
                                         for srv in servers], 3)
            with pytest.raises(TransportError, match="shard 1 failed: "
                               "RuntimeError: disk on fire"):
                client.sync_pull(np.array([0, 1]))
            # the connection stays up: the healthy shard still answers
            assert np.array_equal(client.sync_pull(np.array([2])), feats[[2]])
            client.close()
        finally:
            for srv in servers:
                srv.close()

    def test_pull_over_tcp(self):
        feats, owner, shards, _ = make_store()
        servers = [TcpShardServer(s) for s in shards]
        try:
            transports = [TcpTransport(*srv.address) for srv in servers]
            client = StoreClient(owner, transports, 3)
            acct = TransferAccount()
            ids = np.array([9, 0, 3, 8])
            got = client.vector_pull(ids, acct)
            assert np.array_equal(got, feats[ids])
            assert acct.rpc_calls == 2
            client.close()
        finally:
            for srv in servers:
                srv.close()

    def test_repeated_ids_pull_alike_over_both_transports(self):
        # six copies of one id, against a shard that owns five ids: the
        # server caps a request at the ids it owns
        feats, owner, shards, inproc = make_store()
        ids = np.concatenate([np.repeat(1, 6), [4, 1, 0]])
        servers = [TcpShardServer(s) for s in shards]
        try:
            tcp = StoreClient(owner, [TcpTransport(*srv.address)
                                      for srv in servers], 3)
            got = []
            for client in (inproc, tcp):
                acct = TransferAccount()
                got.append((client.sync_pull(ids, acct), acct.snapshot()))
            tcp.close()
        finally:
            for srv in servers:
                srv.close()
        (a, acct_a), (b, acct_b) = got
        assert np.array_equal(a, feats[ids]) and np.array_equal(b, feats[ids])
        assert acct_a == acct_b == (2, 3, bytes_for(3, 3))
        assert [s.nodes_served for s in shards] == [4, 2]

    def test_concurrent_clients(self):
        import threading

        feats, owner, shards, _ = make_store()
        servers = [TcpShardServer(s) for s in shards]
        errors = []

        def worker():
            try:
                transports = [TcpTransport(*srv.address) for srv in servers]
                client = StoreClient(owner, transports, 3)
                for _ in range(20):
                    ids = np.array([1, 2, 5, 8])
                    assert np.array_equal(client.sync_pull(ids), feats[ids])
                client.close()
            except Exception as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for srv in servers:
            srv.close()
        assert not errors
