"""Framed TCP transport for the session engine, plus a man-in-the-middle.

Frames are a 4-byte big-endian length followed by one tag byte and the
payload; one frame carries one wire message.  The quantum signals travel
as one QBURST frame: a palette of at most 256 states and one index byte
per signal, about 1 MiB at the 2^20-signal burst cap.  A party pumps
its state machine against a single connection and does nothing else: the
receiving session itself realizes the configured channel on the whole
burst, exactly as it does in process, and `serve_party` returns that
session once it is terminal.  The proxy sits between the two sockets,
forwarding frames verbatim except for the signal burst, which it can
transform with any channel model; the CLI turns a bad proxy mode or weight
into a configuration error before it binds.  The party and both proxy
directions read through one frame loop, which ends at a clean close, a
broken link or a malformed frame.

The proxy transforms the whole burst in one batch, so its random stream is
consumed exactly like the receiver's in-process; with the same master
seed, a proxied run and an in-process run produce identical transcripts.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading
import time
from collections.abc import Iterator, Sequence

import numpy as np

from .protocol import (
    TAG_QBURST,
    AliceSession,
    BobSession,
    ChannelModel,
    ProtocolError,
    SessionConfig,
    WireMessage,
    channel_rng,
    decode_qburst,
    encode_qburst,
)

MAX_FRAME = 1 << 24
FRAME_HEAD = struct.Struct(">IB")  # frame length (tag plus payload), tag
CONNECT_RETRY_DELAY = 0.05


def send_frames(sock: socket.socket, messages: Sequence[WireMessage]) -> None:
    parts = []
    for msg in messages:
        length = 1 + len(msg.payload)
        if length > MAX_FRAME:
            raise ProtocolError("frame too large")
        parts += (FRAME_HEAD.pack(length, msg.tag), msg.payload)
    if parts:
        sock.sendall(b"".join(parts))


def _read_exact(rfile, count: int) -> bytes | None:
    data = rfile.read(count)
    return data if len(data) == count else None


def recv_frame(rfile) -> WireMessage | None:
    """Next frame from a buffered reader, or None on a clean close."""
    head = _read_exact(rfile, 4)
    if head is None:
        return None
    length = int.from_bytes(head, "big")
    if not 1 <= length <= MAX_FRAME:
        raise ProtocolError(f"bad frame length {length}")
    tag = _read_exact(rfile, 1)
    payload = _read_exact(rfile, length - 1)
    if tag is None or payload is None:
        return None
    return WireMessage(tag[0], payload)


def _frames(sock: socket.socket) -> Iterator[WireMessage]:
    """The frames arriving on `sock` until the peer closes it, the link
    fails or a frame is malformed."""
    with sock.makefile("rb") as rfile, contextlib.suppress(OSError, ProtocolError):
        while (frame := recv_frame(rfile)) is not None:
            yield frame


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


def serve_party(
    cfg: SessionConfig,
    role: str,
    *,
    connect: tuple[str, int] | None = None,
    listener: socket.socket | None = None,
    timeout: float = 30.0,
) -> AliceSession | BobSession:
    """Run one side of the protocol over a socket and return its session,
    terminal; the outcome is in its `final_key`, `abort_reason`, `stats`
    and `transcript`.

    The receiver side accepts one connection on `listener`, which stays
    open and belongs to the caller; the sender side dials `connect`,
    retrying until the peer is up.  A peer that never connects or never
    accepts within `timeout`, and a connection that closes or fails before
    the session is over, its opening send included, end the session in a
    transport abort.

    Frames go to the session as they arrive.  The receiving session realizes the config's channel
    model on the whole burst, over the same named random stream as in
    process, so a socket run and an in-process run of the same config
    produce identical transcripts whatever the channel.
    """
    if role == "alice":
        session: AliceSession | BobSession = AliceSession(cfg)
        if connect is None:
            raise ValueError("sender side needs a connect address")
    elif role == "bob":
        session = BobSession(cfg)
        if listener is None:
            raise ValueError("receiver side needs a listener")
        listener.settimeout(timeout)
    else:
        raise ValueError(f"unknown role {role!r}")

    try:
        if role == "alice":
            sock = connect_with_retry(connect[0], connect[1], timeout)
        else:
            sock, _ = listener.accept()
        with sock, contextlib.closing(_frames(sock)) as frames:
            sock.settimeout(timeout)
            try:
                send_frames(sock, session.start())
                # a session over at start() reads nothing: the peer may never close
                while not session.terminal and (frame := next(frames, None)) is not None:
                    send_frames(sock, session.on_message(frame))
            finally:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the session ends as a transport failure below
    session.hang_up()
    return session


# ---------------------------------------------------------------------------
# the wire adversary


def _transform_burst(
    burst: WireMessage, channel: ChannelModel, rng: np.random.Generator
) -> WireMessage:
    """The signal burst with `channel` applied to all its signals in one
    batch.  A burst that does not decode goes on unchanged, for the receiver
    to reject."""
    try:
        palette, index = decode_qburst(burst.payload)
    except ProtocolError:
        return burst
    return encode_qburst(*channel.apply_batch(palette, index, rng))


def eve_proxy(
    *,
    listener: socket.socket,
    forward: tuple[str, int],
    channel: ChannelModel | None = None,
    seed: int = 0,
    timeout: float = 30.0,
    capture: list | None = None,
) -> None:
    """Sit between sender and receiver, passing the signal burst through
    `channel`.

    It accepts one connection on the caller's `listener` and dials `forward`;
    when no sender connects or the receiver cannot be reached within
    `timeout`, it raises `OSError`, with the accepted connection closed.
    Without a `channel` the proxy is passive and forwards every frame as it
    comes.  The random stream is `channel_rng(seed)`, the one the in-process
    run draws from, so equal master seeds give equal outcomes.
    `capture`, if given, collects (direction, tag, payload) for every
    forwarded frame as the downstream side sees it.
    """
    rng = channel_rng(seed)

    def relay(
        src: socket.socket,
        dst: socket.socket,
        direction: str,
        channel: ChannelModel | None,
    ) -> None:
        """Forward the frames from `src` to `dst` until `src` ends, then
        half-close `dst`; with a `channel`, the signal burst goes on
        transformed."""
        try:
            for frame in _frames(src):
                if channel is not None and frame.tag == TAG_QBURST:
                    frame = _transform_burst(frame, channel, rng)
                if capture is not None:
                    capture.append((direction, frame.tag, frame.payload))
                send_frames(dst, [frame])
        except OSError:
            pass
        finally:
            with contextlib.suppress(OSError):
                dst.shutdown(socket.SHUT_WR)

    listener.settimeout(timeout)
    upstream, _ = listener.accept()
    with upstream, connect_with_retry(forward[0], forward[1], timeout) as downstream:
        upstream.settimeout(timeout)
        downstream.settimeout(timeout)
        backward = threading.Thread(
            target=relay, args=(downstream, upstream, "<", None), daemon=True
        )
        backward.start()
        relay(upstream, downstream, ">", channel)
        backward.join(timeout)
