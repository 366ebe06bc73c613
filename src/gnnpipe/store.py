"""Sharded feature store: servers, transports, client pulls, accounting."""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import wire


class LookupError_(KeyError):
    """Pull or local read for a node id the shard does not own."""


class TransportError(ConnectionError):
    """Transport-level failure: the connection failed or closed, or the
    shard failed while handling the request."""


def find(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(pos, held)`: whether each of `ids` is in `sorted_ids`, ascending
    and unique, and where it is, its position there. The positions of
    ids not held are meaningless and may be out of range."""
    pos = np.searchsorted(sorted_ids, ids)
    held = pos < len(sorted_ids)
    held[held] = sorted_ids[pos[held]] == ids[held]
    return pos, held


def bytes_for(n: int, d: int) -> int:
    """Network bytes for n feature rows of dimension d (float32)."""
    return n * d * 4


@dataclass
class TransferAccount:
    """Client-side traffic counters for one category of pulls."""

    rpc_calls: int = 0
    nodes_pulled: int = 0
    bytes_pulled: int = 0

    def charge(self, rpcs: int, nodes: int, feat_dim: int) -> None:
        self.rpc_calls += rpcs
        self.nodes_pulled += nodes
        self.bytes_pulled += bytes_for(nodes, feat_dim)

    def add(self, other: "TransferAccount") -> None:
        self.rpc_calls += other.rpc_calls
        self.nodes_pulled += other.nodes_pulled
        self.bytes_pulled += other.bytes_pulled

    def snapshot(self) -> tuple[int, int, int]:
        return (self.rpc_calls, self.nodes_pulled, self.bytes_pulled)


class StoreShard:
    """Serves feature rows for the nodes one partition owns.

    Requests for non-owned ids are answered NOT_OWNED, never silently
    misanswered. latency_ms, when set, is slept per handled request to
    make latency hiding measurable on one machine.
    """

    def __init__(self, part: int, owned_ids: np.ndarray, rows: np.ndarray,
                 latency_ms: float = 0.0):
        self.part = part
        self.owned_ids = np.asarray(owned_ids, dtype=np.int64)  # sorted
        self.rows = np.ascontiguousarray(rows, dtype=np.float32)
        self.feat_dim = self.rows.shape[1]
        self.latency_ms = latency_ms
        self._lock = threading.Lock()
        self.rpc_calls = 0
        self.nodes_served = 0
        self.payload_bytes = 0

    def rows_for_local(self, ids: np.ndarray) -> np.ndarray:
        """Direct memory read for the owning worker; no RPC, no counters.
        The rows come in request order; an id not owned raises."""
        pos, held = find(self.owned_ids, ids)
        if not held.all():
            raise LookupError_(f"shard {self.part} does not own node "
                               f"{int(ids[np.argmin(held)])}")
        return self.rows[pos]

    def handle(self, payload: bytes) -> bytes:
        """Decode one request payload and produce the response payload."""
        if self.latency_ms > 0:
            time.sleep(self.latency_ms / 1000.0)
        try:
            _msg_type, ids = wire.decode_request(payload)
        except wire.WireError:
            return wire.encode_response(wire.STATUS_MALFORMED, None, self.feat_dim)
        pos, held = find(self.owned_ids, ids)
        if not held.all():
            return wire.encode_response(wire.STATUS_NOT_OWNED, None, self.feat_dim)
        rows = self.rows[pos]
        with self._lock:
            self.rpc_calls += 1
            self.nodes_served += len(ids)
            self.payload_bytes += bytes_for(len(ids), self.feat_dim)
        return wire.encode_response(wire.STATUS_OK, rows, self.feat_dim)


class InprocTransport:
    """Calls the shard handler directly, still through the byte codec."""

    def __init__(self, shard: StoreShard):
        self._shard = shard

    def request(self, payload: bytes, max_len: int) -> bytes:
        """`max_len` caps framed responses; an in-process call has none."""
        return self._shard.handle(payload)

    def close(self) -> None:
        pass


class TcpTransport:
    """One persistent connection to a shard server; framed payloads."""

    def __init__(self, host: str, port: int):
        try:
            self._sock = socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed") from exc
        self._lock = threading.Lock()

    def request(self, payload: bytes, max_len: int) -> bytes:
        """Send one request; a response frame over `max_len` bytes raises
        WireError."""
        with self._lock:
            try:
                self._sock.sendall(wire.frame(payload))
                resp = wire.read_frame(self._sock, max_len)
            except OSError as exc:
                raise TransportError("request failed") from exc
        if not resp:
            raise TransportError("server closed connection")
        return resp

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class _ShardRequestHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        shard: StoreShard = self.server.shard  # type: ignore[attr-defined]
        # the largest request names each owned id once
        max_len = wire.request_size(len(shard.owned_ids))
        while True:
            try:
                payload = wire.read_frame(self.request, max_len)
            except wire.WireError:
                return  # the frame cannot be skipped unread: hang up
            if not payload:
                return
            try:
                resp = shard.handle(payload)
            except Exception as exc:  # the client raises it as TransportError
                resp = wire.encode_failure(f"{type(exc).__name__}: {exc}")
            self.request.sendall(wire.frame(resp))


class TcpShardServer:
    """Background TCP server exposing one shard."""

    def __init__(self, shard: StoreShard, host: str = "127.0.0.1", port: int = 0):
        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _ShardRequestHandler)
        self._server.shard = shard  # type: ignore[attr-defined]
        self.address = self._server.server_address
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


class StoreClient:
    """Groups pull requests by owning shard and reassembles the rows.

    One request message to one shard counts as one RPC call; a pull that
    spans k shards is charged k calls regardless of id count. A pull
    sends each distinct id once and is charged the rows sent, so client
    and shard counters agree; rows come back for every id asked.
    """

    def __init__(self, owner: np.ndarray, transports: list, feat_dim: int):
        self.owner = owner
        self.transports = transports
        self.feat_dim = feat_dim

    def _pull(self, msg_type: int, node_ids: np.ndarray,
              account: TransferAccount | None) -> np.ndarray:
        # each distinct id goes once, so a request never names more ids
        # than its shard owns
        ids, back = np.unique(np.asarray(node_ids, dtype=np.int64),
                              return_inverse=True)
        out = np.empty((len(ids), self.feat_dim), dtype=np.float32)
        owners = self.owner[ids]
        rpcs = 0
        for p in np.flatnonzero(np.bincount(owners, minlength=len(self.transports))):
            sel = np.flatnonzero(owners == p)
            payload = wire.encode_request(msg_type, ids[sel])
            resp = self.transports[p].request(
                payload, max(wire.response_size(len(sel), self.feat_dim),
                             wire.FAILURE_SIZE))
            failure = wire.failure_message(resp)
            if failure is not None:
                raise TransportError(f"shard {p} failed: {failure}")
            status, rows, dim = wire.decode_response(resp)
            if status == wire.STATUS_NOT_OWNED:
                raise LookupError_(f"shard {p} does not own requested ids")
            if status != wire.STATUS_OK:
                raise wire.WireError(f"shard {p} rejected request (status {status})")
            if dim != self.feat_dim:
                raise wire.WireError(f"shard {p} returned dim {dim}, expected {self.feat_dim}")
            if len(rows) != len(sel):
                raise wire.WireError(f"shard {p} returned {len(rows)} rows "
                                     f"for {len(sel)} ids")
            out[sel] = rows
            rpcs += 1
        if account is not None:
            account.charge(rpcs, len(ids), self.feat_dim)
        return out[back]

    def sync_pull(self, node_ids: np.ndarray,
                  account: TransferAccount | None = None) -> np.ndarray:
        """On-demand pull; rows come back in request order."""
        return self._pull(wire.MSG_SYNC_PULL, node_ids, account)

    def vector_pull(self, node_ids: np.ndarray,
                    account: TransferAccount | None = None) -> np.ndarray:
        """Bulk pull for cache fills; same accounting rule, one request
        per owning shard no matter how many ids."""
        return self._pull(wire.MSG_VECTOR_PULL, node_ids, account)

    def close(self) -> None:
        for t in self.transports:
            t.close()
