"""Framed TCP transport for the session engine, plus a man-in-the-middle.

Frames are a 4-byte big-endian length followed by one tag byte and the
payload.  A party pumps its state machine against a single connection; the
proxy sits between the two sockets, forwarding frames verbatim except for
quantum signals, which it can transform with any channel model.

The proxy buffers the full signal burst and transforms it in one batch so
its random stream is consumed exactly like the in-process pump's; with the
same master seed, a proxied run and an in-process run produce identical
transcripts.
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
    ROLE_ALICE,
    SIGNAL_HEAD,
    STATE_BYTES,
    TAG_QSIGNAL,
    AliceSession,
    BobSession,
    ChannelModel,
    DepolarizingChannel,
    IdentityChannel,
    InterceptResendChannel,
    ProtocolError,
    RunStats,
    SessionConfig,
    Transcript,
    WireMessage,
    decode_hello,
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
    listen: tuple[str, int] | None = None,
    timeout: float = 30.0,
) -> PartyOutcome:
    """Run one side of the protocol over a socket.

    The receiver side listens (pass an already-bound `listener`, or a
    `listen` address to bind here); the sender side dials `connect`,
    retrying until the peer is up.  A dropped connection surfaces as a
    transport abort on the surviving side.

    The receiver realizes the config's channel model on the incoming
    signal burst, in one batch over the same named random stream the
    in-process pump uses, so a socket run and an in-process run of the
    same config produce identical transcripts whatever the channel.
    """
    if role == "alice":
        session: AliceSession | BobSession = AliceSession(cfg)
        if connect is None:
            raise ValueError("sender side needs a connect address")
        sock = connect_with_retry(connect[0], connect[1], timeout)
        own_listener = None
    elif role == "bob":
        session = BobSession(cfg)
        own_listener = None
        if listener is None:
            if listen is None:
                raise ValueError("receiver side needs a listener or a listen address")
            listener = own_listener = open_listener(*listen)
        listener.settimeout(timeout)
        sock, _ = listener.accept()
    else:
        raise ValueError(f"unknown role {role!r}")

    expect = 0
    if role == "bob" and not isinstance(cfg.channel, IdentityChannel):
        channel_rng = np.random.default_rng(stream_seed(cfg.seed, "eve|channel"))
        expect = cfg.omega_size
    pending: list[WireMessage] = []

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
            if expect and frame.tag == TAG_QSIGNAL:
                pending.append(frame)
                if len(pending) < expect:
                    continue
                frames = _transform_signals(pending, cfg.channel, channel_rng)
                pending, expect = [], 0
            else:
                frames = [frame]
            try:
                for msg in frames:
                    send_frames(sock, session.on_message(msg))
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
        if own_listener is not None:
            own_listener.close()

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


def _transform_signals(
    frames: list[WireMessage], channel: ChannelModel, rng: np.random.Generator
) -> list[WireMessage]:
    heads = [f.payload[: SIGNAL_HEAD.size] for f in frames]
    states = states_from_bytes(b"".join(f.payload[SIGNAL_HEAD.size :] for f in frames))
    out = states_to_bytes(channel.apply_batch(states, rng))
    return [
        WireMessage(TAG_QSIGNAL, heads[i] + out[STATE_BYTES * i : STATE_BYTES * (i + 1)])
        for i in range(len(frames))
    ]


def eve_proxy(
    *,
    listener: socket.socket | None = None,
    listen: tuple[str, int] | None = None,
    forward: tuple[str, int],
    mode: str = "passive",
    p: float = 0.1,
    seed: int = 0,
    timeout: float = 30.0,
    capture: list | None = None,
) -> None:
    """Sit between sender and receiver, transforming the signal burst.

    `mode` is passive, intercept_resend, or depolarize (weight `p`).  The
    random stream is derived exactly as the in-process run derives its
    channel stream, so equal master seeds give equal outcomes.  `capture`,
    if given, collects (direction, tag, payload) for every forwarded frame
    as the downstream side sees it.
    """
    channel = _proxy_channel(mode, p)
    rng = np.random.default_rng(stream_seed(seed, "eve|channel"))

    own_listener = None
    if listener is None:
        if listen is None:
            raise ValueError("proxy needs a listener or a listen address")
        listener = own_listener = open_listener(*listen)
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
        expected_signals = None
        pending: list[WireMessage] = []
        try:
            while True:
                try:
                    frame = recv_frame(rfile)
                except (OSError, ProtocolError):
                    frame = None
                if frame is None:
                    break
                if frame.tag == TAG_QSIGNAL and channel is not None:
                    pending.append(frame)
                    if expected_signals is not None and len(pending) == expected_signals:
                        out = _transform_signals(pending, channel, rng)
                        record(">", out)
                        send_frames(downstream, out)
                        pending = []
                    continue
                if pending:
                    # burst ended early; transform what arrived
                    out = _transform_signals(pending, channel, rng)
                    record(">", out)
                    send_frames(downstream, out)
                    pending = []
                if frame.tag == 0x01 and expected_signals is None:
                    try:
                        expected_signals = decode_hello(frame.payload)["omega"]
                    except Exception:
                        expected_signals = None
                record(">", [frame])
                send_frames(downstream, [frame])
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
    if own_listener is not None:
        own_listener.close()
