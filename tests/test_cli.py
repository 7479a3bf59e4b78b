"""Command line behavior: configs, exit codes, file outputs, determinism."""

from __future__ import annotations

import contextlib
import csv
import json
import subprocess
import sys
import tracemalloc

import pytest

from qkdlab.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, load_config, main
from qkdlab.protocol import Transcript, replay_protocol, run_protocol


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


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, block_size=7)
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "block_size" in capsys.readouterr().err


def test_unknown_source_kind_rejected(tmp_path):
    cfg = write_config(tmp_path, source={"kind": "telepathy"})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "policy", ["hamming", "fountain", "zero", "repetition_blocks", "random:k=30,seed=1"]
)
def test_unbuildable_code_policy_rejected(tmp_path, policy):
    cfg = write_config(tmp_path, n=256, code_policy=policy)
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides",
    [
        {"n": 16, "epsilon": float("nan")},
        {"n": 16, "epsilon": float("inf")},
        {"n": 65535, "epsilon": 40000},  # |Omega| beyond HELLO's 32-bit field
        {"n": 16, "pool_bits": -1},
        {"n": 16, "pool_bits": 1.5},
        {"n": 16, "detector": {"efficiency": 1e-170}},  # 1/efficiency^2 overflows
        {"n": 65535, "detector": {"efficiency": 0.01}},  # a 164 GiB burst
        {"n": 4096, "detector": {"efficiency": 0.01}},  # a 10 GiB burst
    ],
    ids=[
        "nan_epsilon",
        "inf_epsilon",
        "omega_beyond_wire",
        "negative_pool",
        "fractional_pool",
        "vanishing_efficiency",
        "burst_at_wire_cap",
        "burst_at_n_4096",
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


def test_bounds_rejects_delta_out_of_range(tmp_path):
    code = main(["bounds", "--deltas", "0.7", "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG


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


def test_audit_code_length_must_match_n(capsys):
    argv = ["audit", "--n", "4", "--attack", "identity", "--code", "repetition:n=9"]
    assert main(argv) == EXIT_CONFIG
    assert "code length 9 != --n 4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# networked subcommands


@contextlib.contextmanager
def spawn_cli(*args):
    """A qkdlab subprocess, killed if still running and reaped on exit."""
    with subprocess.Popen(
        [sys.executable, "-m", "qkdlab", *args],
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

    def no_peer(*args, listener, **kwargs):
        listeners.append(listener)
        raise TimeoutError("no peer connected")

    monkeypatch.setattr(f"qkdlab.cli.{served_by}", no_peer)
    argv = [role, "--listen", "127.0.0.1:0"]
    argv += ["--config", write_config(tmp_path)] if role == "bob" else ["--connect", "127.0.0.1:9"]
    assert main(argv) == EXIT_INTERNAL
    assert len(listeners) == 1 and listeners[0].fileno() == -1


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
