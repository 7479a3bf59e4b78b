"""Framed TCP transport for the session engine, plus a man-in-the-middle.

Frames are a 4-byte big-endian length followed by one tag byte and the
payload; one frame carries one wire message.  The quantum signals travel
as one burst, chunked into QBURST frames of at most BURST_CHUNK states,
each headed by its first signal index and the burst length.  A party pumps
its state machine against a single connection and does nothing else: the
receiving session itself realizes the configured channel on the whole
burst, exactly as it does in process.  The proxy sits between the two
sockets, forwarding frames verbatim except for the signal burst, which it
can transform with any channel model.

The proxy holds the chunks of the burst until the last one arrives and
transforms all of it in one batch, so its random stream is consumed
exactly like the receiver's in-process; with the same master seed, a
proxied run and an in-process run produce identical transcripts.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gf2 import BitVec
from .protocol import (
    ABORT_TRANSPORT,
    BURST_HEAD,
    STATE_BYTES,
    TAG_QBURST,
    AliceSession,
    BobSession,
    ChannelModel,
    DepolarizingChannel,
    InterceptResendChannel,
    ProtocolError,
    RunStats,
    SessionConfig,
    Transcript,
    WireMessage,
    states_from_bytes,
    states_to_bytes,
    stream_seed,
)

MAX_FRAME = 1 << 24
CONNECT_RETRY_DELAY = 0.05


def send_frames(sock: socket.socket, messages: Sequence[WireMessage]) -> None:
    parts = []
    for msg in messages:
        body = bytes([msg.tag]) + msg.payload
        if len(body) > MAX_FRAME:
            raise ProtocolError("frame too large")
        parts.append(len(body).to_bytes(4, "big") + body)
    if parts:
        sock.sendall(b"".join(parts))


def _read_exact(rfile, count: int) -> bytes | None:
    data = rfile.read(count)
    if data is None or len(data) == 0:
        return None
    if len(data) < count:
        return None
    return data


def recv_frame(rfile) -> WireMessage | None:
    """Next frame from a buffered reader, or None on a clean close."""
    head = _read_exact(rfile, 4)
    if head is None:
        return None
    length = int.from_bytes(head, "big")
    if not 1 <= length <= MAX_FRAME:
        raise ProtocolError(f"bad frame length {length}")
    body = _read_exact(rfile, length)
    if body is None:
        return None
    return WireMessage(body[0], body[1:])


def connect_with_retry(host: str, port: int, timeout: float) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(CONNECT_RETRY_DELAY)


def open_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(1)
    return sock


@dataclass
class PartyOutcome:
    role: str
    final_key: BitVec | None
    stats: RunStats
    transcript: Transcript
    abort_reason: str | None
    session: object


def serve_party(
    cfg: SessionConfig,
    role: str,
    *,
    connect: tuple[str, int] | None = None,
    listener: socket.socket | None = None,
    timeout: float = 30.0,
) -> PartyOutcome:
    """Run one side of the protocol over a socket.

    The receiver side accepts one connection on `listener`, which stays
    open and belongs to the caller; the sender side dials `connect`,
    retrying until the peer is up.  A dropped connection surfaces as a
    transport abort on the surviving side.

    Frames go to the session as they arrive, the signal burst as its
    QBURST chunks.  The receiving session realizes the config's channel
    model on the whole burst, over the same named random stream as in
    process, so a socket run and an in-process run of the same config
    produce identical transcripts whatever the channel.
    """
    if role == "alice":
        session: AliceSession | BobSession = AliceSession(cfg)
        if connect is None:
            raise ValueError("sender side needs a connect address")
        sock = connect_with_retry(connect[0], connect[1], timeout)
    elif role == "bob":
        session = BobSession(cfg)
        if listener is None:
            raise ValueError("receiver side needs a listener")
        listener.settimeout(timeout)
        sock, _ = listener.accept()
    else:
        raise ValueError(f"unknown role {role!r}")

    sock.settimeout(timeout)
    rfile = sock.makefile("rb")
    try:
        send_frames(sock, session.start())
        while not session.terminal:
            try:
                frame = recv_frame(rfile)
            except (OSError, ProtocolError):
                frame = None
            if frame is None:
                session._fail(ABORT_TRANSPORT, announce=False)
                break
            try:
                send_frames(sock, session.on_message(frame))
            except OSError:
                if not session.terminal:
                    session._fail(ABORT_TRANSPORT, announce=False)
                break
    finally:
        rfile.close()
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()

    return PartyOutcome(
        role=role,
        final_key=session.final_key,
        stats=session.stats,
        transcript=session.transcript,
        abort_reason=session.abort_reason,
        session=session,
    )


# ---------------------------------------------------------------------------
# the wire adversary


def _proxy_channel(mode: str, p: float) -> ChannelModel | None:
    if mode == "passive":
        return None
    if mode == "intercept_resend":
        return InterceptResendChannel()
    if mode == "depolarize":
        return DepolarizingChannel(p)
    raise ValueError(f"unknown proxy mode {mode!r}")


def _transform_burst(
    chunks: list[WireMessage], channel: ChannelModel, rng: np.random.Generator
) -> list[WireMessage]:
    """The chunks of one signal burst with `channel` applied to all their
    states in one batch; heads and chunk sizes stay as sent.  Chunks that
    do not hold whole states go on unchanged, for the receiver to reject."""
    bodies = [c.payload[BURST_HEAD.size :] for c in chunks]
    if any(len(body) % STATE_BYTES for body in bodies):
        return chunks
    out = states_to_bytes(channel.apply_batch(states_from_bytes(b"".join(bodies)), rng))
    transformed, at = [], 0
    for chunk, body in zip(chunks, bodies):
        head = chunk.payload[: BURST_HEAD.size]
        transformed.append(WireMessage(TAG_QBURST, head + out[at : at + len(body)]))
        at += len(body)
    return transformed


def eve_proxy(
    *,
    listener: socket.socket,
    forward: tuple[str, int],
    mode: str = "passive",
    p: float = 0.1,
    seed: int = 0,
    timeout: float = 30.0,
    capture: list | None = None,
) -> None:
    """Sit between sender and receiver, transforming the signal burst.

    It accepts one connection on the caller's `listener` and dials `forward`.
    `mode` is passive, intercept_resend, or depolarize (weight `p`).  The
    random stream is derived exactly as the in-process run derives its
    channel stream, so equal master seeds give equal outcomes.  `capture`,
    if given, collects (direction, tag, payload) for every forwarded frame
    as the downstream side sees it.
    """
    channel = _proxy_channel(mode, p)
    rng = np.random.default_rng(stream_seed(seed, "eve|channel"))
    listener.settimeout(timeout)
    upstream, _ = listener.accept()
    upstream.settimeout(timeout)
    downstream = connect_with_retry(forward[0], forward[1], timeout)
    downstream.settimeout(timeout)

    def record(direction: str, frames: list[WireMessage]) -> None:
        if capture is not None:
            for f in frames:
                capture.append((direction, f.tag, f.payload))

    def a_to_b() -> None:
        rfile = upstream.makefile("rb")
        burst: list[WireMessage] = []  # chunks of the burst in flight
        held = 0  # states in those chunks
        try:
            while True:
                try:
                    frame = recv_frame(rfile)
                except (OSError, ProtocolError):
                    frame = None
                if frame is None:
                    break
                if (
                    channel is not None
                    and frame.tag == TAG_QBURST
                    and len(frame.payload) >= BURST_HEAD.size
                ):
                    burst.append(frame)
                    held += (len(frame.payload) - BURST_HEAD.size) // STATE_BYTES
                    _, total = BURST_HEAD.unpack_from(frame.payload)
                    if held < total:
                        continue
                    out = _transform_burst(burst, channel, rng)
                    burst, held = [], 0
                else:
                    # a burst cut short goes on as it came, for the receiver
                    # to reject
                    out = burst + [frame]
                    burst, held = [], 0
                record(">", out)
                send_frames(downstream, out)
        except OSError:
            pass
        finally:
            rfile.close()
            try:
                downstream.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def b_to_a() -> None:
        rfile = downstream.makefile("rb")
        try:
            while True:
                try:
                    frame = recv_frame(rfile)
                except (OSError, ProtocolError):
                    frame = None
                if frame is None:
                    break
                record("<", [frame])
                send_frames(upstream, [frame])
        except OSError:
            pass
        finally:
            rfile.close()
            try:
                upstream.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    forward_thread = threading.Thread(target=b_to_a, daemon=True)
    forward_thread.start()
    a_to_b()
    forward_thread.join(timeout)
    upstream.close()
    downstream.close()
