"""Socket transport tests: framing, loopback parity, proxy attacks.

Every loopback run is compared against the in-process pump with the same
master seed; transcripts must agree byte for byte, which pins down frame
ordering, batching, and random stream consumption all at once.
"""

from __future__ import annotations

import contextlib
import socket
import subprocess
import sys
import threading

import pytest

from qkdlab.codes import code_from_descriptor
from qkdlab.netchan import (
    eve_proxy,
    open_listener,
    recv_frame,
    send_frames,
    serve_party,
)
from qkdlab.protocol import (
    ABORT_DELTA,
    ABORT_PHASE,
    ABORT_TRANSPORT,
    ABORT_VERSION,
    BURST_CHUNK,
    ROLE_ALICE,
    TAG_ABORT,
    TAG_HELLO,
    TAG_QBURST,
    DepolarizingChannel,
    DetectorModel,
    InterceptResendChannel,
    ProtocolError,
    SecretPool,
    SessionConfig,
    WireMessage,
    encode_hello,
    run_protocol,
    stream_seed,
)


def test_frame_roundtrip_and_eof():
    left, right = socket.socketpair()
    msgs = [WireMessage(0x03, b"hello"), WireMessage(0x0D, b"")]
    send_frames(left, msgs)
    left.close()
    rfile = right.makefile("rb")
    assert recv_frame(rfile) == msgs[0]
    assert recv_frame(rfile) == msgs[1]
    assert recv_frame(rfile) is None
    rfile.close()
    right.close()


def test_frame_length_validation():
    left, right = socket.socketpair()
    left.sendall(b"\x00\x00\x00\x00")
    left.close()
    rfile = right.makefile("rb")
    with pytest.raises(ProtocolError):
        recv_frame(rfile)
    rfile.close()
    right.close()


def _loopback(cfg_alice, cfg_bob=None, proxy=None, timeout=15.0):
    """Run both parties over 127.0.0.1, optionally through the proxy.

    proxy is a dict of eve_proxy keyword arguments (minus sockets).
    """
    cfg_bob = cfg_bob or cfg_alice
    with contextlib.ExitStack() as listeners:
        bob_listener = listeners.enter_context(open_listener())
        bob_port = bob_listener.getsockname()[1]
        outcomes = {}
        threads = []

        def run_bob():
            outcomes["bob"] = serve_party(cfg_bob, "bob", listener=bob_listener, timeout=timeout)

        threads.append(threading.Thread(target=run_bob, daemon=True))

        alice_target = bob_port
        if proxy is not None:
            eve_listener = listeners.enter_context(open_listener())
            alice_target = eve_listener.getsockname()[1]

            def run_eve():
                eve_proxy(
                    listener=eve_listener,
                    forward=("127.0.0.1", bob_port),
                    timeout=timeout,
                    **proxy,
                )

            threads.append(threading.Thread(target=run_eve, daemon=True))

        for t in threads:
            t.start()
        outcomes["alice"] = serve_party(
            cfg_alice, "alice", connect=("127.0.0.1", alice_target), timeout=timeout
        )
        for t in threads:
            t.join(timeout)
    assert "bob" in outcomes, "receiver thread did not finish"
    return outcomes


def test_loopback_matches_in_process():
    cfg = SessionConfig(n=32, epsilon=0.35, seed=9)
    out = _loopback(cfg)
    ref = run_protocol(cfg)
    assert out["alice"].abort_reason is None
    assert out["alice"].final_key == out["bob"].final_key == ref.bob_key
    assert out["alice"].transcript == ref.transcript
    assert out["bob"].transcript == ref.transcript
    assert out["bob"].stats.delta == ref.stats.delta


def test_loopback_realizes_configured_channel():
    """A noisy channel in the config acts on the wire exactly as it does
    in process: same deltas, same transcript, whoever carries the link."""
    cfg = SessionConfig(n=128, epsilon=0.35, seed=6, channel=DepolarizingChannel(0.1))
    out = _loopback(cfg)
    ref = run_protocol(cfg)
    assert ref.stats.delta > 0.0
    assert out["bob"].stats.delta == ref.stats.delta
    assert out["alice"].final_key == out["bob"].final_key == ref.bob_key
    assert out["bob"].transcript == ref.transcript


def test_loopback_version_mismatch():
    out = _loopback(
        SessionConfig(n=16, epsilon=0.35, seed=0),
        SessionConfig(n=32, epsilon=0.35, seed=0),
    )
    assert out["alice"].abort_reason == ABORT_VERSION
    assert out["bob"].abort_reason == ABORT_VERSION


def test_passive_proxy_keeps_run_intact_and_pool_bits_off_the_wire():
    cfg = SessionConfig(n=64, epsilon=0.35, seed=5)
    capture = []
    out = _loopback(cfg, proxy=dict(mode="passive", capture=capture))
    ref = run_protocol(cfg)
    assert out["alice"].final_key == out["bob"].final_key == ref.bob_key
    assert out["bob"].transcript == ref.transcript

    wire = b"".join(payload for _, _, payload in capture)
    stats = out["bob"].stats
    rec = code_from_descriptor(stats.rec_descriptor)
    kappa = out["bob"].session.kappa
    raw_syndrome = rec.syndrome(kappa)
    pool = SecretPool(stream_seed(cfg.seed, "pool"), cfg.pool_capacity)
    otp = pool.take(stats.tau)
    # the encrypted syndrome crossed the wire; neither the raw syndrome nor
    # the pad itself ever did
    assert (raw_syndrome + otp).to_bytes() in wire
    assert raw_syndrome.to_bytes() not in wire
    assert otp.to_bytes() not in wire


def test_intercept_proxy_reproduces_in_process_attack_exactly():
    cfg = SessionConfig(
        n=512, epsilon=0.35, seed=1, channel=InterceptResendChannel(), delta_max=0.15
    )
    clean = SessionConfig(n=512, epsilon=0.35, seed=1, delta_max=0.15)
    out = _loopback(clean, proxy=dict(mode="intercept_resend", seed=1))
    ref = run_protocol(cfg)
    assert ref.stats.abort_reason == ABORT_DELTA
    assert out["alice"].abort_reason == ABORT_DELTA
    assert out["bob"].abort_reason == ABORT_DELTA
    assert out["bob"].stats.delta == ref.stats.delta
    assert out["bob"].transcript == ref.transcript
    assert out["alice"].transcript == ref.transcript


def test_depolarize_proxy_reproduces_in_process_noise_exactly():
    cfg = SessionConfig(n=128, epsilon=0.35, seed=4, channel=DepolarizingChannel(0.1))
    clean = SessionConfig(n=128, epsilon=0.35, seed=4)
    out = _loopback(clean, proxy=dict(mode="depolarize", p=0.1, seed=4))
    ref = run_protocol(cfg)
    assert out["alice"].final_key == out["bob"].final_key == ref.bob_key
    assert out["bob"].transcript == ref.transcript


@pytest.mark.parametrize(
    "channel, proxy",
    [(InterceptResendChannel(), None), (DepolarizingChannel(0.1), dict(mode="depolarize", p=0.1))],
    ids=["intercept_resend", "depolarizing"],
)
def test_two_chunk_burst_same_in_process_over_sockets_and_through_proxy(channel, proxy):
    detector = DetectorModel(0.3)
    cfg = SessionConfig(n=2048, epsilon=0.35, seed=2, detector=detector, channel=channel)
    assert BURST_CHUNK < cfg.omega_size <= 2 * BURST_CHUNK
    ref = run_protocol(cfg)
    runs = [_loopback(cfg)]
    if proxy is not None:
        clean = SessionConfig(n=2048, epsilon=0.35, seed=2, detector=detector)
        runs.append(_loopback(clean, proxy=dict(proxy, seed=2)))
    for out in runs:
        assert out["alice"].transcript == out["bob"].transcript == ref.transcript
        assert out["bob"].final_key == ref.bob_key
        assert out["bob"].abort_reason == ref.stats.abort_reason


@pytest.mark.parametrize("payload", [b"\x00" * 5, b"\x00" * 8 + b"\x01" * 63])
def test_proxy_forwards_a_malformed_burst_for_the_receiver_to_reject(payload):
    cfg = SessionConfig(n=16, epsilon=0.35, seed=0)
    with open_listener() as bob_listener, open_listener() as eve_listener:
        outcome = {}
        bob = threading.Thread(
            target=lambda: outcome.setdefault(
                "bob", serve_party(cfg, "bob", listener=bob_listener, timeout=10.0)
            ),
            daemon=True,
        )
        eve = threading.Thread(
            target=eve_proxy,
            kwargs=dict(
                listener=eve_listener,
                forward=("127.0.0.1", bob_listener.getsockname()[1]),
                mode="depolarize",
                timeout=10.0,
            ),
            daemon=True,
        )
        bob.start()
        eve.start()
        with socket.create_connection(eve_listener.getsockname(), timeout=10.0) as sock:
            hello = WireMessage(TAG_HELLO, encode_hello(cfg, ROLE_ALICE))
            send_frames(sock, [hello, WireMessage(TAG_QBURST, payload)])
            rfile = sock.makefile("rb")
            assert recv_frame(rfile).tag == TAG_HELLO
            assert recv_frame(rfile) == WireMessage(TAG_ABORT, ABORT_PHASE.encode())
            rfile.close()
        bob.join(10.0)
        eve.join(10.0)
        assert not bob.is_alive() and not eve.is_alive()
    assert outcome["bob"].abort_reason == ABORT_PHASE


_DYING_PEER = r"""
import os
from qkdlab.netchan import open_listener, recv_frame, send_frames
from qkdlab.protocol import ROLE_BOB, SessionConfig, WireMessage, encode_hello

listener = open_listener()
print(listener.getsockname()[1], flush=True)
sock, _ = listener.accept()
rfile = sock.makefile("rb")
recv_frame(rfile)  # the opening announcement
cfg = SessionConfig(n=64, epsilon=0.35, seed=2)
send_frames(sock, [WireMessage(0x01, encode_hello(cfg, ROLE_BOB))])
recv_frame(rfile)  # the signal burst, one QBURST frame
os._exit(1)
"""


def test_peer_death_surfaces_as_transport_failure():
    proc = subprocess.Popen(
        [sys.executable, "-c", _DYING_PEER], stdout=subprocess.PIPE, text=True
    )
    try:
        port = int(proc.stdout.readline())
        cfg = SessionConfig(n=64, epsilon=0.35, seed=2)
        out = serve_party(cfg, "alice", connect=("127.0.0.1", port), timeout=10.0)
        assert out.abort_reason == ABORT_TRANSPORT
        assert out.final_key is None
    finally:
        proc.stdout.close()
        proc.wait(timeout=10)
