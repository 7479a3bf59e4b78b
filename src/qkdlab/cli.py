"""Command line front end: simulations, sweeps, bound tables, audits, net runs.

Exit codes: 0 success; 2 protocol abort (an expected outcome, not an
error); 3 configuration problem; 4 internal invariant violation.  The
default master seed comes from the config file, then the QKDLAB_SEED
environment variable, then 0; the --seed flag beats them all.  Identical
config and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import qsim
from .codes import code_from_descriptor, descriptor_length
from .netchan import eve_proxy, open_listener, serve_party
from .protocol import (
    ABORT_TRANSPORT,
    STATS_FIELDS,
    DepolarizingChannel,
    DetectorModel,
    InterceptResendChannel,
    SessionConfig,
    channel_from_config,
    run_protocol,
    source_from_config,
    stream_seed,
)

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

SEED_ENV_VAR = "QKDLAB_SEED"


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}")
    except RecursionError:
        raise ConfigError(f"{path}: nested too deep to parse")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_booleans(raw, "config")  # bounds the depth before sweep copies it
    return raw


def resolve_seed(flag_seed: int | None, raw: dict) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in raw:
        if not isinstance(raw["seed"], int):
            raise ConfigError("seed in config must be an integer")
        return raw["seed"]
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(SessionConfig))
# config entries that name a model, built from their own sub-config
_MODEL_BUILDERS = {
    "source": source_from_config,
    "channel": channel_from_config,
    "detector": lambda raw: DetectorModel(**raw),
}


# levels below a config's top; a custom channel's unitary entries sit at 4
MAX_CONFIG_DEPTH = 32


def _reject_booleans(node, where: str, depth: int = 0) -> None:
    """A JSON true or false is an int to Python, but no config value is a
    boolean: refuse one anywhere, nested models and their lists included.
    Refuse nesting past MAX_CONFIG_DEPTH too, which no model reads and which
    would otherwise end this walk, or a copy of the config, in a
    RecursionError."""
    if depth > MAX_CONFIG_DEPTH:
        raise ConfigError(f"config nests deeper than {MAX_CONFIG_DEPTH} levels")
    if isinstance(node, bool):
        raise ConfigError(f"{where} is a boolean, not a number")
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_booleans(value, f"{where}.{key}", depth + 1)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_booleans(value, f"{where}[{i}]", depth + 1)


def build_session_config(raw: dict, flag_seed: int | None = None) -> SessionConfig:
    _reject_booleans(raw, "config")
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if not isinstance(raw.get("n"), int):
        raise ConfigError("config needs an integer key size 'n'")
    kwargs: dict = {"seed": resolve_seed(flag_seed, raw)}
    try:
        for name in _CONFIG_FIELDS:
            if name in raw and name != "seed":
                build = _MODEL_BUILDERS.get(name)
                kwargs[name] = build(raw[name]) if build else raw[name]
        return SessionConfig(**kwargs)
    except (TypeError, ValueError, KeyError) as err:
        raise ConfigError(f"bad configuration: {err}")


def load_config(path: str, flag_seed: int | None = None) -> SessionConfig:
    return build_session_config(_read_config_file(path), flag_seed)


def _guard_output(path: str, force: bool) -> None:
    if path and os.path.exists(path) and not force:
        raise ConfigError(f"refusing to overwrite {path} (pass --force)")


def _write_text(path: str, text: str, force: bool) -> None:
    _guard_output(path, force)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port:
        raise ConfigError(f"endpoint must look like host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"bad port in endpoint {text!r}")


# ---------------------------------------------------------------------------
# simulate and sweep


def _csv_text(header, rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _check_runs(runs: int) -> None:
    if runs < 1:
        raise ConfigError(f"--runs must be at least 1, got {runs}")


def cmd_simulate(args) -> int:
    _check_runs(args.runs)
    raw = _read_config_file(args.config)
    cfg = build_session_config(raw, args.seed)
    if args.transcript_out and args.runs != 1:
        raise ConfigError("--transcript-out needs --runs 1")

    rows = []
    completed = 0
    for i in range(args.runs):
        run_seed = cfg.seed if args.runs == 1 else stream_seed(cfg.seed, f"run|{i}")
        run_cfg = dataclasses.replace(cfg, seed=run_seed)
        result = run_protocol(run_cfg)
        rows.append(result.stats.as_row(f"{i:04d}"))
        if result.stats.abort_reason is None:
            completed += 1
        line = (
            f"run {i:04d}: delta={result.stats.delta} "
            f"abort={result.stats.abort_reason or '-'}"
        )
        print(line)
        if args.transcript_out:
            _write_text(args.transcript_out, result.transcript.to_text(), args.force)

    if args.stats_out:
        _write_text(args.stats_out, _csv_text(STATS_FIELDS, rows), args.force)
    return EXIT_OK if completed else EXIT_ABORT


def _set_by_path(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = raw
    for key in parts[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[parts[-1]] = value


def cmd_sweep(args) -> int:
    _check_runs(args.runs)
    raw = _read_config_file(args.config)
    base_seed = resolve_seed(args.seed, raw)
    tokens = [t for t in args.values.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--values is empty")

    rows = []
    for token in tokens:
        try:
            value = json.loads(token)
        except json.JSONDecodeError:
            raise ConfigError(f"sweep value {token!r} is not a number")
        varied = copy.deepcopy(raw)
        _set_by_path(varied, args.param, value)
        for i in range(args.runs):
            run_seed = stream_seed(base_seed, f"sweep|{token}|{i}")
            cfg = build_session_config(varied, run_seed)
            result = run_protocol(cfg)
            rows.append([args.param, token] + result.stats.as_row(f"{token}/{i}"))

    _write_text(args.out, _csv_text(["param", "value", *STATS_FIELDS], rows), args.force)
    print(f"swept {args.param} over {len(tokens)} values, {len(rows)} rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound tables


def cmd_bounds(args) -> int:
    try:
        deltas = [float(t) for t in args.deltas.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"bad --deltas list {args.deltas!r}")
    if not deltas:
        raise ConfigError("--deltas is empty")
    for d in deltas:
        if not 0.0 <= d <= 0.5:
            raise ConfigError(f"delta {d} outside [0, 1/2]")
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if not (math.isfinite(args.epsilon) and args.epsilon >= 0.0):
        raise ConfigError(f"--epsilon must be finite and nonnegative, got {args.epsilon}")

    rows = [
        [
            repr(d),
            repr(bounds_mod.binary_entropy(d)),
            repr(bounds_mod.key_rate(d)),
            repr(bounds_mod.mayers_rate(d)),
            repr(bounds_mod.sampling_bound(args.n, d, args.epsilon)),
        ]
        for d in deltas
    ]
    header = ["delta", "entropy", "key_rate", "mayers_rate", "sampling_bound"]
    _write_text(args.out, _csv_text(header, rows), args.force)
    print(f"wrote {len(deltas)} rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audits


def _parse_attack(text: str) -> np.ndarray:
    name, _, params_text = text.partition(":")
    params = {}
    if params_text:
        for pair in params_text.split(","):
            key, _, value = pair.partition("=")
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(f"bad attack parameter {pair!r}")
            if not math.isfinite(params[key]):
                raise ConfigError(f"attack parameter {pair!r} is not finite")
    try:
        if name == "identity":
            return qsim.identity_attack(**params)
        if name == "rotation":
            return qsim.rotation_attack(**params)
        if name == "swap":
            return qsim.swap_attack(**params)
        if name == "entangle":
            return qsim.entangle_attack(**params)
    except TypeError as err:
        raise ConfigError(f"attack {name!r}: {err}")
    raise ConfigError(f"unknown attack {name!r}")


AUDIT_SLACK = 1e-8


def audit_checks(report) -> dict:
    """Pass/fail per proof inequality, with skips where the bound is
    explicitly out of scope (vacuous regime, expected abort)."""
    checks: dict = {}
    checks["fidelity_floor"] = {
        "pass": bool(report.q0_fidelity >= 1.0 - report.eta - AUDIT_SLACK)
    }
    checks["uniformity_floor"] = {
        "pass": bool(report.uniformity_fidelity >= report.uniformity_floor - AUDIT_SLACK)
    }
    if report.vacuous:
        checks["entropy_bound"] = {"skipped": "bound vacuous at this eta"}
    else:
        checks["entropy_bound"] = {
            "pass": bool(report.entropy_q <= report.entropy_bound + AUDIT_SLACK)
        }
    if report.abort_expected:
        checks["key_entropy_floor"] = {"skipped": "error rate in the abort regime"}
    else:
        checks["key_entropy_floor"] = {
            "pass": bool(report.key_entropy >= report.key_entropy_floor - AUDIT_SLACK)
        }
    return checks


def cmd_audit(args) -> int:
    attack = _parse_attack(args.attack)
    descriptor = args.code or f"repetition:n={args.n}"
    try:
        length = descriptor_length(descriptor)
        if length != args.n:
            raise ConfigError(f"code length {length} != --n {args.n}")
        code = code_from_descriptor(descriptor)
    except ValueError as err:
        raise ConfigError(str(err))
    try:
        report = qsim.audit_protocol3(
            attack, args.n, code, delta_max=args.delta_max, test_size=args.test_size
        )
    except ValueError as err:  # the audit's own domain checks
        raise ConfigError(str(err))
    checks = audit_checks(report)
    doc = {"report": json.loads(report.to_json()), "checks": checks}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, text, args.force)
    else:
        sys.stdout.write(text)
    for name, entry in checks.items():
        if "skipped" in entry:
            print(f"{name}: skipped ({entry['skipped']})")
        else:
            print(f"{name}: {'pass' if entry['pass'] else 'FAIL'}")
    failed = any("pass" in entry and not entry["pass"] for entry in checks.values())
    return EXIT_INTERNAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# networked roles


def _write_outcome_files(outcome, args) -> None:
    if args.transcript_out:
        _write_text(args.transcript_out, outcome.transcript.to_text(), args.force)
    if args.key_out:
        if outcome.final_key is None:
            _write_text(args.key_out, "aborted\n", args.force)
        else:
            key = outcome.final_key
            _write_text(args.key_out, f"{key.n} {key.to_hex()}\n", args.force)


def _run_party(args, role: str, endpoint: str) -> int:
    cfg = load_config(args.config, args.seed)
    host, port = _parse_endpoint(endpoint)
    for path in (args.transcript_out, args.key_out):
        if path:
            _guard_output(path, args.force)
    if role == "alice":
        outcome = serve_party(cfg, role, connect=(host, port), timeout=args.timeout)
    else:
        with open_listener(host, port) as listener:
            print(f"LISTENING {listener.getsockname()[1]}", flush=True)
            outcome = serve_party(cfg, role, listener=listener, timeout=args.timeout)
    _write_outcome_files(outcome, args)
    if outcome.abort_reason:
        print(f"aborted: {outcome.abort_reason}", file=sys.stderr)
        return EXIT_ABORT
    print("key established")
    return EXIT_OK


def cmd_alice(args) -> int:
    return _run_party(args, "alice", args.connect)


def cmd_bob(args) -> int:
    return _run_party(args, "bob", args.listen)


# proxy mode -> the channel it applies to the signal burst, from --p
PROXY_CHANNELS = {
    "passive": lambda p: None,
    "intercept_resend": lambda p: InterceptResendChannel(),
    "depolarize": DepolarizingChannel,
}


def cmd_eve(args) -> int:
    lhost, lport = _parse_endpoint(args.listen)
    fhost, fport = _parse_endpoint(args.connect)
    if args.mode not in PROXY_CHANNELS:
        raise ConfigError(f"unknown proxy mode {args.mode!r}")
    try:
        channel = PROXY_CHANNELS[args.mode](args.p)
    except ValueError as err:
        raise ConfigError(f"bad proxy channel: {err}")
    seed = resolve_seed(args.seed, {})
    with open_listener(lhost, lport) as listener:
        print(f"LISTENING {listener.getsockname()[1]}", flush=True)
        try:
            eve_proxy(
                listener=listener,
                forward=(fhost, fport),
                channel=channel,
                seed=seed,
                timeout=args.timeout,
            )
        except OSError as err:
            print(f"aborted: {ABORT_TRANSPORT}: {err}", file=sys.stderr)
            return EXIT_ABORT
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run full in-process sessions",
        description=(
            "Stats CSV columns: run_id; n; epsilon; delta_max; delta (observed "
            "error rate); t_size and s_size (verification and key set sizes); "
            "r (key length); tau (syndrome bits spent); confirm_bits (pool "
            "bits spent on confirmation); key_rate_net ((r-tau-confirm)/n); "
            "abort_reason (empty on success).  With --runs 1 the master seed "
            "is used directly; otherwise run i derives its seed from "
            "(master, 'run|i')."
        ),
    )
    sim.add_argument("--config", required=True, help="JSON session config")
    sim.add_argument("--runs", type=int, default=1)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--stats-out", default=None, help="CSV output path")
    sim.add_argument("--transcript-out", default=None, help="single-run transcript")
    sim.add_argument("--force", action="store_true", help="overwrite outputs")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser(
        "sweep",
        help="vary one config entry over a value grid",
        description=(
            "CSV columns: param (dotted config path); value (grid token); then "
            "the simulate stats columns.  Run i at value v derives its seed "
            "from (master, 'sweep|v|i')."
        ),
    )
    swp.add_argument("--config", required=True)
    swp.add_argument("--param", default="channel.p", help="dotted config path")
    swp.add_argument("--values", required=True, help="comma-separated numbers")
    swp.add_argument("--runs", type=int, default=1, help="runs per value")
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--out", required=True, help="CSV output path")
    swp.add_argument("--force", action="store_true")
    swp.set_defaults(func=cmd_sweep)

    bnd = sub.add_parser(
        "bounds",
        help="rate and bound tables over an error-rate grid",
        description=(
            "CSV columns: delta; entropy (binary entropy h(delta)); key_rate "
            "(1 - 2h(delta)); mayers_rate (1 - h(delta) - h(2 delta)); "
            "sampling_bound (failure envelope at the given --n/--epsilon)."
        ),
    )
    bnd.add_argument("--deltas", required=True, help="comma-separated error rates")
    bnd.add_argument("--n", type=int, default=1024, help="kept-half size")
    bnd.add_argument("--epsilon", type=float, default=0.05, help="sampling margin")
    bnd.add_argument("--out", required=True)
    bnd.add_argument("--force", action="store_true")
    bnd.set_defaults(func=cmd_bounds)

    aud = sub.add_parser(
        "audit",
        help="exact small-size security audit of a fixed attack",
        description=(
            "Attack spec: identity | swap | rotation:theta=X | "
            "entangle:alpha=X,beta=Y.  Emits the full report plus pass/fail "
            "for each proof inequality; bounds that are vacuous or in the "
            "abort regime are reported as skipped."
        ),
    )
    aud.add_argument("--attack", required=True)
    aud.add_argument("--n", type=int, default=3, help="number of key signals")
    aud.add_argument("--code", default=None, help="code descriptor (default repetition)")
    aud.add_argument("--delta-max", type=float, default=0.11)
    aud.add_argument("--test-size", type=int, default=32)
    aud.add_argument("--out", default=None, help="JSON output path (default stdout)")
    aud.add_argument("--force", action="store_true")
    aud.set_defaults(func=cmd_audit)

    def add_net_common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--transcript-out", default=None)
        p.add_argument("--key-out", default=None)
        p.add_argument("--force", action="store_true")
        p.add_argument("--timeout", type=float, default=30.0)

    ali = sub.add_parser("alice", help="sender over a socket")
    ali.add_argument("--connect", required=True, help="host:port of the receiver")
    add_net_common(ali)
    ali.set_defaults(func=cmd_alice)

    bob = sub.add_parser("bob", help="receiver over a socket")
    bob.add_argument(
        "--listen", required=True, help="host:port to bind (port 0 picks one)"
    )
    add_net_common(bob)
    bob.set_defaults(func=cmd_bob)

    eve = sub.add_parser("eve", help="man-in-the-middle proxy")
    eve.add_argument("--listen", required=True, help="host:port facing the sender")
    eve.add_argument("--connect", required=True, help="host:port of the receiver")
    eve.add_argument("--mode", default="passive", help=" | ".join(PROXY_CHANNELS))
    eve.add_argument("--p", type=float, default=0.1, help="depolarize weight")
    eve.add_argument("--seed", type=int, default=None)
    eve.add_argument("--timeout", type=float, default=30.0)
    eve.set_defaults(func=cmd_eve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - the contract maps these to 4
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
