"""Command line behavior: configs, exit codes, file outputs, determinism."""

from __future__ import annotations

import contextlib
import csv
import json
import socket
import subprocess
import sys
import threading
import tracemalloc

import pytest

from qkdlab.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, load_config, main
from qkdlab.netchan import open_listener, recv_frame, send_frames
from qkdlab.protocol import TAG_ABORT, Transcript, WireMessage, replay_protocol, run_protocol


# the identity, which reads as a unitary when true is taken for 1
_IDENTITY_WITH_A_TRUE = [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def write_config(tmp_path, name="cfg.json", **overrides):
    raw = {"n": 48, "epsilon": 0.35, "delta_max": 0.109, "seed": 0}
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "n": 48,\n  oops\n}\n')
    code = main(["simulate", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert f"{path}:3:3" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [33, 987, 5000])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_config_nested_too_deep_is_a_config_error(tmp_path, capsys, command, depth):
    # json.load gives up near 990 levels before Python 3.13 and parses 5000
    # on 3.13, where the boolean walk and sweep's copy of the config would
    # end in a RecursionError (exit 4) instead
    path = tmp_path / "deep.json"
    unitary = "[" * depth + "]" * depth
    path.write_text(f'{{"n": 16, "channel": {{"kind": "custom", "unitary": {unitary}}}}}')
    args = [command, "--config", str(path)]
    if command == "sweep":
        args += ["--values", "0", "--out", str(tmp_path / "sweep.csv")]
    assert main(args) == EXIT_CONFIG
    assert "deep" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, block_size=7)
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "block_size" in capsys.readouterr().err


def test_unknown_source_kind_rejected(tmp_path):
    cfg = write_config(tmp_path, source={"kind": "telepathy"})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "policy",
    [
        "hamming",
        "fountain",
        "zero",
        "repetition_blocks",
        "random:k=30,seed=1",
        # a policy that names its own length repeats the session's n
        "repetition:n=4",
        "identity:n=4",
        "repetition_blocks:inner=3,n=5",
        "random:k=3,seed=1,n=5",
        # a parameter the family does not take
        "hamming_blocks:x=1",
        "repetition_blocks:inner=3,depth=2",
    ],
)
def test_unbuildable_code_policy_rejected(tmp_path, policy):
    cfg = write_config(tmp_path, n=256, code_policy=policy)
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides",
    [
        {"n": 16, "epsilon": float("nan")},
        {"n": 16, "epsilon": float("inf")},
        {"n": 16, "epsilon": 1e308},  # 2 n (1 + epsilon) overflows to infinity
        {"n": 65535, "epsilon": 40000},  # |Omega| beyond HELLO's 32-bit field
        {"n": 16, "pool_bits": -1},
        {"n": 16, "pool_bits": 1.5},
        {"n": 16, "detector": {"efficiency": 1e-170}},  # 1/efficiency^2 overflows
        {"n": 65535, "detector": {"efficiency": 0.01}},  # a 164 GiB burst
        {"n": 4096, "detector": {"efficiency": 0.01}},  # a 10 GiB burst
        {"n": 16, "source": 5},
        {"n": 16, "channel": [1]},
        {"n": 16, "rec_target_fail": "a"},
        {"n": 16, "rec_target_fail": None},
        # a JSON true is a Python int, but no size or seed
        {"n": True},
        {"n": 16, "pool_bits": True},
        {"n": 16, "seed": True},
        # a NaN state passes every `distance > tolerance` test
        {"n": 16, "source": {"kind": "entangled", "phi": float("nan")}},
        {"n": 16, "source": {"kind": "rotated_z", "theta": float("nan")}},
        {"n": 16, "source": {"kind": "rotated_z", "theta": float("inf")}},
        {"n": 16, "channel": {"kind": "custom", "unitary": [[float("nan")] * 4] * 4}},
        # a model's config keys are its constructor's parameters
        {"n": 16, "source": {"kind": "perfect", "bais": 0.7}},
        {"n": 16, "channel": {"kind": "identity", "p": 0.1}},
        {"n": 16, "channel": {"kind": "depolarizing"}},
        # JSON booleans anywhere in a config, nested models included
        {"n": 16, "epsilon": True},
        {"n": 16, "detector": {"efficiency": True}},
        {"n": 16, "rec_target_fail": True},
        {"n": 16, "channel": {"kind": "depolarizing", "p": True}},
        {"n": 16, "source": {"kind": "rotated_z", "theta": True}},
        {"n": 16, "channel": {"kind": "custom", "unitary": _IDENTITY_WITH_A_TRUE}},
        {"n": 16, "pool_bits": False},
        # a reconciliation failure target is a probability strictly inside (0, 1)
        {"n": 16, "rec_target_fail": -1},
        {"n": 16, "rec_target_fail": float("nan")},
        {"n": 16, "rec_target_fail": 0},
        {"n": 16, "rec_target_fail": 1},
    ],
    ids=[
        "nan_epsilon",
        "inf_epsilon",
        "huge_epsilon",
        "omega_beyond_wire",
        "negative_pool",
        "fractional_pool",
        "vanishing_efficiency",
        "burst_at_wire_cap",
        "burst_at_n_4096",
        "source_not_an_object",
        "channel_not_an_object",
        "text_target_fail",
        "null_target_fail",
        "boolean_n",
        "boolean_pool",
        "boolean_seed",
        "nan_phi",
        "nan_theta",
        "inf_theta",
        "nan_unitary",
        "misspelt_source_key",
        "key_on_identity_channel",
        "missing_depolarizing_weight",
        "boolean_epsilon",
        "boolean_efficiency",
        "boolean_target_fail",
        "boolean_depolarizing_weight",
        "boolean_theta",
        "boolean_unitary_entry",
        "false_pool",
        "negative_target_fail",
        "nan_target_fail",
        "zero_target_fail",
        "unit_target_fail",
    ],
)
def test_out_of_domain_config_is_a_config_error(tmp_path, overrides):
    cfg = write_config(tmp_path, **overrides)
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # rejected before anything is built


def test_seed_resolution_order(tmp_path, monkeypatch):
    monkeypatch.setenv("QKDLAB_SEED", "7")
    with_seed = load_config(write_config(tmp_path, "a.json", seed=5))
    assert with_seed.seed == 5
    no_seed = json.loads((tmp_path / "a.json").read_text())
    del no_seed["seed"]
    (tmp_path / "b.json").write_text(json.dumps(no_seed))
    assert load_config(str(tmp_path / "b.json")).seed == 7
    assert load_config(str(tmp_path / "b.json"), 11).seed == 11
    monkeypatch.delenv("QKDLAB_SEED")
    assert load_config(str(tmp_path / "b.json")).seed == 0


def test_bad_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QKDLAB_SEED", "pi")
    no_seed = {"n": 48, "epsilon": 0.35}
    (tmp_path / "c.json").write_text(json.dumps(no_seed))
    assert main(["simulate", "--config", str(tmp_path / "c.json")]) == EXIT_CONFIG
    assert "QKDLAB_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_noiseless_run_succeeds(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "stats.csv"
    code = main(["simulate", "--config", cfg, "--stats-out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["delta"] == "0.0"
    assert rows[0]["abort_reason"] == ""
    assert rows[0]["s_size"] == "48"
    assert "run 0000" in capsys.readouterr().out


def test_simulate_intercept_aborts_with_exit_2(tmp_path):
    cfg = write_config(
        tmp_path,
        n=512,
        delta_max=0.15,
        channel={"kind": "intercept_resend"},
    )
    out = tmp_path / "stats.csv"
    code = main(
        ["simulate", "--config", cfg, "--runs", "2", "--stats-out", str(out)]
    )
    assert code == EXIT_ABORT
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(r["abort_reason"] == "delta_exceeded" for r in rows)
    assert all(0.19 < float(r["delta"]) < 0.31 for r in rows)


def test_simulate_transcript_replays(tmp_path):
    cfg = write_config(tmp_path, seed=3)
    out = tmp_path / "run.transcript"
    assert main(["simulate", "--config", cfg, "--transcript-out", str(out)]) == EXIT_OK
    transcript = Transcript.from_text(out.read_text())
    replay_protocol(load_config(cfg), transcript)


def test_transcript_out_requires_single_run(tmp_path):
    cfg = write_config(tmp_path)
    code = main(
        [
            "simulate",
            "--config",
            cfg,
            "--runs",
            "2",
            "--transcript-out",
            str(tmp_path / "t"),
        ]
    )
    assert code == EXIT_CONFIG


def test_outputs_not_overwritten_without_force(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "stats.csv"
    assert main(["simulate", "--config", cfg, "--stats-out", str(out)]) == EXIT_OK
    first = out.read_bytes()
    assert main(["simulate", "--config", cfg, "--stats-out", str(out)]) == EXIT_CONFIG
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_bytes() == first
    code = main(["simulate", "--config", cfg, "--stats-out", str(out), "--force"])
    assert code == EXIT_OK


def test_identical_seed_gives_identical_csv_and_flag_overrides_config(tmp_path):
    cfg_a = write_config(tmp_path, "a.json", seed=5)
    cfg_b = write_config(tmp_path, "b.json", seed=9)

    def simulate(cfg, out, *extra):
        code = main(
            ["simulate", "--config", cfg, "--runs", "3", "--stats-out", str(out), *extra]
        )
        assert code == EXIT_OK
        return out.read_bytes()

    csv_a = simulate(cfg_a, tmp_path / "a.csv")
    csv_b = simulate(cfg_b, tmp_path / "b.csv", "--seed", "5")
    csv_c = simulate(cfg_b, tmp_path / "c.csv")
    assert csv_a == csv_b
    assert csv_a != csv_c


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("runs", ["0", "-1"])
def test_runs_below_one_is_a_config_error(command, runs, tmp_path, capsys):
    """No session runs, so there is no abort to report: exit 3, not 2."""
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    extra = ["--values", "0.1", "--out", str(out)] if command == "sweep" else []
    assert main([command, "--config", cfg, "--runs", runs, *extra]) == EXIT_CONFIG
    assert "--runs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_depolarizing_delta_is_monotone(tmp_path):
    cfg = write_config(
        tmp_path, n=1024, delta_max=0.49, channel={"kind": "depolarizing", "p": 0.0}
    )
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config",
            cfg,
            "--param",
            "channel.p",
            "--values",
            "0,0.04,0.08,0.12,0.16,0.2",
            "--runs",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 12
    assert all(r["param"] == "channel.p" for r in rows)
    assert all(r["abort_reason"] == "" for r in rows)
    means = []
    for token in ("0", "0.04", "0.08", "0.12", "0.16", "0.2"):
        pair = [float(r["delta"]) for r in rows if r["value"] == token]
        assert len(pair) == 2
        means.append(sum(pair) / 2)
    assert means == sorted(means)
    assert means[0] == 0.0


def test_sweep_of_a_key_the_channel_does_not_take_is_a_config_error(tmp_path, capsys):
    # the default --param channel.p on an identity channel: no model reads p
    cfg = write_config(tmp_path, channel={"kind": "identity"})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--values", "0,0.2,0.4", "--out", str(out)]) == (
        EXIT_CONFIG
    )
    assert "takes no arguments" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_of_a_boolean_value_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path, channel={"kind": "depolarizing", "p": 0.0})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--values", "0,true", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_sweep_rejects_non_numeric_value(tmp_path):
    cfg = write_config(tmp_path)
    code = main(
        ["sweep", "--config", cfg, "--values", "0,fast", "--out", str(tmp_path / "s")]
    )
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# bounds


def test_bounds_table_values(tmp_path):
    out = tmp_path / "bounds.csv"
    code = main(
        [
            "bounds",
            "--deltas",
            "0,0.05,0.1100,0.1101,0.25",
            "--n",
            "200",
            "--epsilon",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert [r["delta"] for r in rows] == ["0.0", "0.05", "0.11", "0.1101", "0.25"]
    assert float(rows[0]["key_rate"]) == 1.0
    assert float(rows[0]["mayers_rate"]) == 1.0
    assert float(rows[0]["sampling_bound"]) == 0.0
    assert float(rows[2]["key_rate"]) > 0.0 > float(rows[3]["key_rate"])
    for row in rows[1:]:
        assert float(row["key_rate"]) > float(row["mayers_rate"])
        assert 0.0 < float(row["sampling_bound"]) < 1.0


@pytest.mark.parametrize(
    "extra",
    [
        ["--deltas", "0.7"],
        ["--deltas", "0.1", "--n", "0"],
        ["--deltas", "0.1", "--n", "-5"],
        ["--deltas", "0.1", "--epsilon", "-1"],
        ["--deltas", "0.1", "--epsilon", "nan"],
    ],
    ids=["delta", "n_zero", "n_negative", "epsilon_negative", "epsilon_nan"],
)
def test_bounds_rejects_delta_out_of_range(extra, tmp_path):
    out = tmp_path / "b"
    assert main(["bounds", *extra, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


# ---------------------------------------------------------------------------
# audit

CHECK_NAMES = {
    "fidelity_floor",
    "uniformity_floor",
    "entropy_bound",
    "key_entropy_floor",
}


def run_audit(tmp_path, *extra):
    out = tmp_path / "audit.json"
    code = main(["audit", "--out", str(out), *extra])
    return code, json.loads(out.read_text())


def test_audit_identity_attack_passes_every_check(tmp_path, capsys):
    code, doc = run_audit(tmp_path, "--attack", "identity", "--n", "3")
    assert code == EXIT_OK
    assert set(doc["checks"]) == CHECK_NAMES
    assert all(entry.get("pass") for entry in doc["checks"].values())
    assert doc["report"]["per_signal_z_error"] == 0.0
    assert not doc["report"]["abort_expected"]
    assert "fidelity_floor: pass" in capsys.readouterr().out


def test_audit_rotation_attack(tmp_path):
    code, doc = run_audit(
        tmp_path, "--attack", "rotation:theta=0.1", "--n", "3"
    )
    assert code == EXIT_OK
    assert doc["report"]["per_signal_z_error"] == pytest.approx(
        0.1**2 / 4, abs=1e-4
    )
    assert set(doc["checks"]) == CHECK_NAMES
    for entry in doc["checks"].values():
        assert entry.get("pass") or "skipped" in entry


def test_audit_swap_attack_skips_out_of_scope_bounds(tmp_path):
    code, doc = run_audit(tmp_path, "--attack", "swap", "--n", "3")
    assert code == EXIT_OK
    checks = doc["checks"]
    assert checks["fidelity_floor"]["pass"]
    assert checks["uniformity_floor"]["pass"]
    skipped = [name for name, entry in checks.items() if "skipped" in entry]
    assert doc["report"]["vacuous"] == ("entropy_bound" in skipped)


def test_audit_rejects_bad_attack_and_code(tmp_path, capsys):
    assert main(["audit", "--attack", "mirror"]) == EXIT_CONFIG
    assert main(["audit", "--attack", "rotation:theta"]) == EXIT_CONFIG
    assert (
        main(["audit", "--attack", "identity", "--code", "nonsense:n=3"])
        == EXIT_CONFIG
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, reason",
    [
        (["--attack", "identity", "--n", "5"], "exact only up to 4 signals"),
        (
            ["--attack", "rotation:theta=3.14159", "--n", "4", "--delta-max", "0.0"],
            "probability numerically zero",
        ),
        (["--attack", "rotation:theta=inf", "--n", "3"], "is not finite"),
        (["--attack", "rotation:theta=nan", "--n", "3"], "is not finite"),
        (["--attack", "entangle:alpha=nan,beta=0"], "is not finite"),
        (["--attack", "rotation:theta=abc"], "bad attack parameter"),
        (["--attack", "identity", "--n", "3", "--delta-max", "inf"], "delta_max must be finite"),
        (["--attack", "identity", "--n", "3", "--delta-max", "nan"], "delta_max must be finite"),
    ],
)
def test_audit_outside_its_domain_is_a_config_error(extra, reason, capsys):
    assert main(["audit", *extra]) == EXIT_CONFIG
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("test_size", ["3000", "100000"])
def test_audit_pass_probability_is_finite_at_any_test_size(tmp_path, test_size):
    code, doc = run_audit(
        tmp_path, "--attack", "rotation:theta=0.5", "--n", "3", "--test-size", test_size
    )
    assert code == EXIT_OK
    assert 0.0 <= doc["report"]["test_pass_probability"] <= 1.0


def test_audit_code_length_must_match_n(capsys):
    argv = ["audit", "--n", "4", "--attack", "identity", "--code", "repetition:n=9"]
    assert main(argv) == EXIT_CONFIG
    assert "code length 9 != --n 4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# networked subcommands


@contextlib.contextmanager
def spawn_cli(*args, dev=False):
    """A qkdlab subprocess, killed if still running and reaped on exit;
    `dev` runs it under `-X dev`, which reports unclosed resources."""
    with subprocess.Popen(
        [sys.executable, *(["-X", "dev"] if dev else []), "-m", "qkdlab", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            yield proc
        finally:
            proc.kill()


def read_listening_port(proc):
    line = proc.stdout.readline()
    assert line.startswith("LISTENING "), line
    return int(line.split()[1])


@pytest.mark.parametrize("role, served_by", [("bob", "serve_party"), ("eve", "eve_proxy")])
def test_listener_is_closed_when_the_party_fails(tmp_path, monkeypatch, role, served_by):
    listeners = []

    def crash(*args, listener, **kwargs):
        listeners.append(listener)
        raise RuntimeError("the party crashed")

    monkeypatch.setattr(f"qkdlab.cli.{served_by}", crash)
    argv = [role, "--listen", "127.0.0.1:0"]
    argv += ["--config", write_config(tmp_path)] if role == "bob" else ["--connect", "127.0.0.1:9"]
    assert main(argv) == EXIT_INTERNAL
    assert len(listeners) == 1 and listeners[0].fileno() == -1


@pytest.mark.parametrize("role", ["alice", "bob"])
def test_a_peer_that_never_connects_exits_2_and_writes_the_outcome(
    tmp_path, capsys, refused_port, role
):
    transcript, key = tmp_path / "party.transcript", tmp_path / "party.key"
    outputs = ["--transcript-out", str(transcript), "--key-out", str(key)]
    if role == "alice":
        address = ["--connect", f"127.0.0.1:{refused_port}"]
    else:  # nobody dials the listener
        address = ["--listen", "127.0.0.1:0"]
    argv = [role, *address, "--timeout", "0.3", "--config", write_config(tmp_path), *outputs]
    assert main(argv) == EXIT_ABORT
    assert "aborted: transport_failure" in capsys.readouterr().err
    assert key.read_text() == "aborted\n"
    assert transcript.exists()


def test_a_peer_abort_text_never_reaches_the_aborted_line(tmp_path, capsys):
    """An ABORT whose payload names no reason prints as malformed_message,
    not as the peer's bytes."""
    sent = b"you lose\naborted: \xff"

    def fake_bob(listener):
        sock, _ = listener.accept()
        with sock, sock.makefile("rb") as rfile:
            recv_frame(rfile)  # Alice's HELLO
            send_frames(sock, [WireMessage(TAG_ABORT, sent)])

    with open_listener() as listener:
        bob = threading.Thread(target=fake_bob, args=(listener,))
        bob.start()
        port = listener.getsockname()[1]
        argv = ["alice", "--connect", f"127.0.0.1:{port}", "--config", write_config(tmp_path)]
        code = main(argv)
        bob.join(10)
    assert code == EXIT_ABORT
    assert capsys.readouterr().err == "aborted: malformed_message\n"


def test_proxy_that_cannot_reach_the_receiver_exits_2_without_leaking(refused_port):
    with spawn_cli(
        "eve",
        "--listen",
        "127.0.0.1:0",
        "--connect",
        f"127.0.0.1:{refused_port}",
        "--timeout",
        "0.5",
        dev=True,
    ) as eve:
        with socket.create_connection(("127.0.0.1", read_listening_port(eve))):
            _, err = eve.communicate(timeout=30)
    assert eve.returncode == EXIT_ABORT
    assert err.startswith("aborted: transport_failure")
    assert "ResourceWarning" not in err


@pytest.mark.parametrize(
    "mode_args",
    [["--mode", "mirror"], ["--mode", "depolarize", "--p", "2"]],
    ids=["mode", "weight"],
)
def test_bad_proxy_channel_is_a_config_error_before_binding(capsys, mode_args):
    argv = ["eve", "--listen", "127.0.0.1:0", "--connect", "127.0.0.1:9", *mode_args]
    assert main(argv) == EXIT_CONFIG
    assert "LISTENING" not in capsys.readouterr().out


def test_proxy_seed_resolves_like_the_parties(monkeypatch):
    seeds = []
    monkeypatch.setattr("qkdlab.cli.eve_proxy", lambda *, seed, **kwargs: seeds.append(seed))
    monkeypatch.setenv("QKDLAB_SEED", "7")
    argv = ["eve", "--listen", "127.0.0.1:0", "--connect", "127.0.0.1:9"]
    assert main(argv) == EXIT_OK
    assert main([*argv, "--seed", "3"]) == EXIT_OK
    assert seeds == [7, 3]


def test_cli_roles_match_in_process_run(tmp_path):
    cfg = write_config(tmp_path, n=64, seed=12)
    with spawn_cli(
        "bob",
        "--listen",
        "127.0.0.1:0",
        "--config",
        cfg,
        "--transcript-out",
        str(tmp_path / "bob.transcript"),
        "--key-out",
        str(tmp_path / "bob.key"),
    ) as bob:
        port = read_listening_port(bob)
        code = main(
            [
                "alice",
                "--connect",
                f"127.0.0.1:{port}",
                "--config",
                cfg,
                "--transcript-out",
                str(tmp_path / "alice.transcript"),
                "--key-out",
                str(tmp_path / "alice.key"),
            ]
        )
        assert code == EXIT_OK
        assert bob.wait(timeout=30) == EXIT_OK

    alice_t = (tmp_path / "alice.transcript").read_text()
    assert alice_t == (tmp_path / "bob.transcript").read_text()
    key_text = (tmp_path / "alice.key").read_text()
    assert key_text == (tmp_path / "bob.key").read_text()
    assert key_text.split()[0].isdigit()

    reference = run_protocol(load_config(cfg))
    assert reference.transcript.to_text() == alice_t
    n, hexkey = key_text.split()
    assert int(n) == reference.alice_key.n
    assert hexkey == reference.alice_key.to_hex()


def test_cli_eve_passive_proxy_is_transparent(tmp_path):
    cfg = write_config(tmp_path, n=64, seed=2)
    with spawn_cli("bob", "--listen", "127.0.0.1:0", "--config", cfg) as bob:
        bob_port = read_listening_port(bob)
        with spawn_cli(
            "eve",
            "--listen",
            "127.0.0.1:0",
            "--connect",
            f"127.0.0.1:{bob_port}",
            "--mode",
            "passive",
        ) as eve:
            eve_port = read_listening_port(eve)
            code = main(
                [
                    "alice",
                    "--connect",
                    f"127.0.0.1:{eve_port}",
                    "--config",
                    cfg,
                    "--key-out",
                    str(tmp_path / "alice.key"),
                ]
            )
            assert code == EXIT_OK
            assert bob.wait(timeout=30) == EXIT_OK
            assert eve.wait(timeout=30) == EXIT_OK

    reference = run_protocol(load_config(cfg))
    n, hexkey = (tmp_path / "alice.key").read_text().split()
    assert hexkey == reference.alice_key.to_hex()


def test_cli_abort_run_exits_2_and_writes_aborted_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path, n=256, delta_max=0.15, channel={"kind": "intercept_resend"}
    )
    with spawn_cli("bob", "--listen", "127.0.0.1:0", "--config", cfg) as bob:
        port = read_listening_port(bob)
        code = main(
            [
                "alice",
                "--connect",
                f"127.0.0.1:{port}",
                "--config",
                cfg,
                "--key-out",
                str(tmp_path / "alice.key"),
            ]
        )
        assert code == EXIT_ABORT
        assert bob.wait(timeout=30) == EXIT_ABORT
    assert "delta_exceeded" in capsys.readouterr().err
    assert (tmp_path / "alice.key").read_text() == "aborted\n"


def test_bad_endpoint_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["alice", "--connect", "localhost", "--config", cfg]) == EXIT_CONFIG
    assert main(["bob", "--listen", "127.0.0.1:x", "--config", cfg]) == EXIT_CONFIG
