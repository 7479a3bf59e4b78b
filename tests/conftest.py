"""Fixtures shared by the transport and command line tests."""

from __future__ import annotations

import socket

import pytest


@pytest.fixture
def refused_port():
    """A loopback port that is bound but not listening, so a dial is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]
