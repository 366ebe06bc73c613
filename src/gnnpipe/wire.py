"""Length-prefixed binary protocol for feature pulls (little-endian).

request  = u8 msg_type (1=SYNC_PULL, 2=VECTOR_PULL) . u32 id_count . u64*id_count
response = u8 status (0=OK, 1=NOT_OWNED, 2=MALFORMED) . u32 row_count
           . u32 feat_dim . f32*(row_count*feat_dim), rows in request order
failure  = u8 status (3=FAILED) . utf-8 message, at most FAILURE_SIZE bytes
           in all; a shard server sends it when handling a request raised
Each payload travels framed by a u32 byte count. A reader caps that count
at the largest payload it can expect, so a bad header is rejected before
any payload is buffered.
"""

from __future__ import annotations

import struct

import numpy as np

MSG_SYNC_PULL = 1
MSG_VECTOR_PULL = 2

STATUS_OK = 0
STATUS_NOT_OWNED = 1
STATUS_MALFORMED = 2
STATUS_FAILED = 3

FAILURE_SIZE = 256

_REQ_HEAD = struct.Struct("<BI")
_RESP_HEAD = struct.Struct("<BII")
_FRAME = struct.Struct("<I")


class WireError(ValueError):
    """Payload that does not parse under the protocol."""


def request_size(count: int) -> int:
    """Payload bytes of a request for `count` ids."""
    return _REQ_HEAD.size + 8 * count


def response_size(row_count: int, feat_dim: int) -> int:
    """Payload bytes of a response carrying `row_count` rows."""
    return _RESP_HEAD.size + 4 * row_count * feat_dim


def encode_request(msg_type: int, node_ids: np.ndarray) -> bytes:
    ids = np.asarray(node_ids, dtype="<u8")
    return _REQ_HEAD.pack(msg_type, len(ids)) + ids.tobytes()


def decode_request(payload: bytes) -> tuple[int, np.ndarray]:
    if len(payload) < _REQ_HEAD.size:
        raise WireError("request shorter than header")
    msg_type, count = _REQ_HEAD.unpack_from(payload)
    if msg_type not in (MSG_SYNC_PULL, MSG_VECTOR_PULL):
        raise WireError(f"unknown msg_type {msg_type}")
    need = request_size(count)
    if len(payload) != need:
        raise WireError(f"request length {len(payload)} != expected {need}")
    ids = np.frombuffer(payload, dtype="<u8", count=count, offset=_REQ_HEAD.size)
    return msg_type, ids.astype(np.int64)


def encode_response(status: int, rows: np.ndarray | None, feat_dim: int) -> bytes:
    if rows is None:
        rows = np.empty((0, feat_dim), dtype="<f4")
    body = np.ascontiguousarray(rows, dtype="<f4")
    return _RESP_HEAD.pack(status, body.shape[0], feat_dim) + body.tobytes()


def decode_response(payload: bytes) -> tuple[int, np.ndarray, int]:
    if len(payload) < _RESP_HEAD.size:
        raise WireError("response shorter than header")
    status, row_count, feat_dim = _RESP_HEAD.unpack_from(payload)
    need = response_size(row_count, feat_dim)
    if len(payload) != need:
        raise WireError(f"response length {len(payload)} != expected {need}")
    rows = np.frombuffer(payload, dtype="<f4", count=row_count * feat_dim,
                         offset=_RESP_HEAD.size)
    return status, rows.reshape(row_count, feat_dim).copy(), feat_dim


def encode_failure(message: str) -> bytes:
    """A failure payload; the message is cut to fit FAILURE_SIZE bytes."""
    return bytes([STATUS_FAILED]) + message.encode("utf-8")[:FAILURE_SIZE - 1]


def failure_message(payload: bytes) -> str | None:
    """The message of a failure payload; None for any other payload."""
    if payload[:1] != bytes([STATUS_FAILED]):
        return None
    return payload[1:].decode("utf-8", errors="replace")


def frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload)) + payload


def read_frame(sock, max_len: int) -> bytes:
    """Read one framed payload of at most `max_len` bytes from a socket;
    b'' on clean EOF. A longer length header raises WireError before any
    of the payload is read."""
    head = _recv_exact(sock, _FRAME.size)
    if not head:
        return b""
    if len(head) != _FRAME.size:
        raise ConnectionError("peer closed mid-frame")
    (length,) = _FRAME.unpack(head)
    if length > max_len:
        raise WireError(f"frame of {length} bytes exceeds the {max_len}-byte limit")
    payload = _recv_exact(sock, length)
    if len(payload) != length:
        raise ConnectionError("peer closed mid-frame")
    return payload


def _recv_exact(sock, length: int) -> bytes:
    parts = []
    got = 0
    while got < length:
        chunk = sock.recv(length - got)
        if not chunk:
            break
        parts.append(chunk)
        got += len(chunk)
    return b"".join(parts)
