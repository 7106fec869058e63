"""Command-line interface.

Subcommands::

    tables   closed-form verification and cheating tables for a given y
    fair     the fair operating point and its bias
    sweep    honest-abort probability versus transmission distance
    run      stream protocol transcripts (one JSON record per line)
    attack   Monte Carlo estimate of an adversary's success rate

Flags override config-file values, which override built-in defaults; the
defaults reproduce the reference operating point (y = 0.9, eta = 0.1,
dark = 1e-4, 0.2 dB/km) with no flags.  Every command is deterministic
under a fixed ``--seed`` (the ``MDIQCT_SEED`` environment variable changes
the default seed).  Exit codes: 0 success, 1 runtime failure, 2 usage.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import adversaries, analysis, protocol
from .devices import ChannelParams, DetectorParams, single_photon_source, weak_coherent_source
from .errors import ConfigurationError, ParameterError
from .qmath import ALL_LABELS, BsmOutcome, cheating_table, verification_table

DEFAULT_SEED = 1
SEED_ENV_VAR = "MDIQCT_SEED"

DEFAULTS = {
    "y": 0.9,
    "la": 0.0,
    "lb": 0.0,
    "loss_coeff": 0.2,
    "eta": 0.1,
    "dark": 1e-4,
    "extended": False,
    "trials": 100_000,
    "workers": 1,
    "target_coin": 0,
    "adversary": "none",
    "mode": "mdi",
    "k_pulses": 10,
    "mu": 0.5,
    "med_model": "basis-flip",
    "sent": "plus",
    "lmin": 0.0,
    "lmax": 50.0,
    "step": 5.0,
    "tolerance": 1e-10,
    "max_rounds": protocol.DEFAULT_MAX_ROUNDS,
    "format": "json",
}

LABEL_ORDER = ["00", "01", "10", "11"]  # basis then bit


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdiqct", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("json", "csv")) -> None:
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_tables = sub.add_parser("tables", help="closed-form verification and cheating tables")
    p_tables.add_argument("--y", type=float, default=None)
    add_common(p_tables, formats=("json", "csv", "text"))

    p_fair = sub.add_parser("fair", help="fair operating point and bias")
    p_fair.add_argument("--tolerance", type=float, default=None)
    add_common(p_fair)

    p_sweep = sub.add_parser("sweep", help="honest-abort probability vs distance")
    p_sweep.add_argument("--lmin", type=float, default=None)
    p_sweep.add_argument("--lmax", type=float, default=None)
    p_sweep.add_argument("--step", type=float, default=None)
    p_sweep.add_argument("--eta", type=float, default=None)
    p_sweep.add_argument("--dark", type=float, default=None)
    p_sweep.add_argument("--loss-coeff", dest="loss_coeff", type=float, default=None)
    p_sweep.add_argument("--extended", action="store_true", default=None)
    add_common(p_sweep)

    p_run = sub.add_parser("run", help="stream protocol transcripts (JSON lines)")
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--y", type=float, default=None)
    p_run.add_argument("--la", type=float, default=None)
    p_run.add_argument("--lb", type=float, default=None)
    p_run.add_argument("--loss-coeff", dest="loss_coeff", type=float, default=None)
    p_run.add_argument("--eta", type=float, default=None)
    p_run.add_argument("--dark", type=float, default=None)
    p_run.add_argument("--extended", action="store_true", default=None)
    p_run.add_argument("--mode", choices=[m.value for m in protocol.Mode], default=None)
    p_run.add_argument(
        "--adversary", choices=adversaries.STRATEGY_NAMES, default=None,
        help="bob-med, alice-individual and alice-coherent need ideal devices: --eta 1 --dark 0",
    )
    p_run.add_argument("--target-coin", dest="target_coin", type=int, choices=(0, 1), default=None)
    p_run.add_argument("--k-pulses", dest="k_pulses", type=int, default=None)
    p_run.add_argument("--mu", type=float, default=None)
    p_run.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--config", help="JSON config file; flags take precedence")
    p_run.add_argument("--out", help="write output to this path instead of stdout")

    p_attack = sub.add_parser("attack", help="estimate an adversary's success rate")
    p_attack.add_argument("--adversary", choices=adversaries.STRATEGY_NAMES, default=None)
    p_attack.add_argument("--y", type=float, default=None)
    p_attack.add_argument("--target-coin", dest="target_coin", type=int, choices=(0, 1), default=None)
    p_attack.add_argument("--trials", type=int, default=None)
    p_attack.add_argument("--seed", type=int, default=None)
    p_attack.add_argument("--workers", type=int, default=None)
    p_attack.add_argument("--med-model", dest="med_model", choices=adversaries.MED_MODELS, default=None)
    p_attack.add_argument("--sent", choices=adversaries.SENT_STATES, default=None)
    add_common(p_attack)

    for p in (p_tables, p_fair, p_sweep, p_run, p_attack):  # config-file values meet the same checks
        p.set_defaults(option_actions={action.dest: action for action in p._actions})
    return parser


def _load_config_file(path: str, known_keys: set[str]) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = set(data) - known_keys
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return data


def _file_value(action: argparse.Action, value):
    """A config-file value, checked with the type and choices of its flag."""
    key = action.dest
    if action.nargs == 0:  # a store_true flag takes JSON true or false only
        if not isinstance(value, bool):
            raise ParameterError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if action.type is not None:
        wrong_type = ParameterError(f"config key {key!r} must be {action.type.__name__}, got {value!r}")
        # JSON true/false are not numbers, and int() would truncate 2.7 to 2.
        fractional = isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) or (action.type is int and fractional):
            raise wrong_type
        try:
            value = action.type(value)
        except (TypeError, ValueError):
            raise wrong_type from None
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _merge_options(args: argparse.Namespace, keys: list[str]) -> dict:
    """Resolve each option as flag > config file > default."""
    from_file = {}
    if getattr(args, "config", None):
        from_file = _load_config_file(args.config, set(keys) | {"seed"})
    opts = {}
    for key in (keys + ["seed"]) if hasattr(args, "seed") else keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            opts[key] = flag_value
        elif key in from_file:
            opts[key] = _file_value(args.option_actions[key], from_file[key])
        else:
            opts[key] = _default_seed() if key == "seed" else DEFAULTS[key]
    if opts.get("seed", 0) < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {opts['seed']}")
    return opts


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def _render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: Optional[str]) -> None:
    # Render fully before touching the filesystem so failures leave no file.
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_tables(args: argparse.Namespace) -> str:
    opts = _merge_options(args, ["y", "format"])
    y = float(opts["y"])
    table = verification_table(y)
    cheat = cheating_table(y)
    panels = {
        out.value: [[float(table.panel(out)[i, j]) for j in range(4)] for i in range(4)]
        for out in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS)
    }
    zero_cells = {
        out.value: [
            [LABEL_ORDER[la.index], LABEL_ORDER[lb.index]] for la, lb in table.zero_cells(out)
        ]
        for out in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS)
    }
    cheating = {
        sent: {
            out.value: [cheat.probability(sent, out, lb) for lb in ALL_LABELS]
            for out in (BsmOutcome.PSI_PLUS, BsmOutcome.PSI_MINUS)
        }
        for sent in ("plus", "minus")
    }
    doc = {
        "command": "tables",
        "y": y,
        "label_order": LABEL_ORDER,
        "verification": panels,
        "zero_cells": zero_cells,
        "cheating": cheating,
    }
    fmt = opts["format"]
    if fmt == "json":
        return _render_json(doc)
    if fmt == "csv":
        rows = []
        for out_name, panel in panels.items():
            for i, row_label in enumerate(LABEL_ORDER):
                for j, col_label in enumerate(LABEL_ORDER):
                    rows.append(
                        {
                            "section": "verification",
                            "outcome": out_name,
                            "row": row_label,
                            "col": col_label,
                            "probability": repr(panel[i][j]),
                            "zero_cell": int(panel[i][j] == 0.0),
                        }
                    )
        for sent, outs in cheating.items():
            for out_name, row in outs.items():
                for j, col_label in enumerate(LABEL_ORDER):
                    rows.append(
                        {
                            "section": "cheating",
                            "outcome": out_name,
                            "row": sent,
                            "col": col_label,
                            "probability": repr(row[j]),
                            "zero_cell": "",
                        }
                    )
        return _render_csv(rows, ["section", "outcome", "row", "col", "probability", "zero_cell"])
    # aligned text
    lines = [f"verification table, y = {y!r}"]
    for out_name, panel in panels.items():
        lines.append(f"\n{out_name}:")
        header = "      " + "".join(f"{c:>10}" for c in LABEL_ORDER)
        lines.append(header)
        for i, row_label in enumerate(LABEL_ORDER):
            cells = "".join(f"{panel[i][j]:>10.6f}" for j in range(4))
            lines.append(f"  {row_label:>4}{cells}")
    lines.append("\ncheating rows (normalized):")
    for sent, outs in cheating.items():
        for out_name, row in outs.items():
            cells = "".join(f"{v:>10.6f}" for v in row)
            lines.append(f"  {sent:>5} {out_name:>10}{cells}")
    return "\n".join(lines) + "\n"


def _cmd_fair(args: argparse.Namespace) -> str:
    opts = _merge_options(args, ["tolerance", "format"])
    point = analysis.solve_fair_y(float(opts["tolerance"]))
    doc = {
        "command": "fair",
        "tolerance": float(opts["tolerance"]),
        "y": point.y,
        "bias": point.bias,
        "cheat_bob": analysis.cheat_bob(point.y),
        "cheat_alice_coherent": analysis.cheat_alice_coherent(point.y),
    }
    if opts["format"] == "csv":
        row = {k: repr(doc[k]) for k in ("y", "bias", "cheat_bob", "cheat_alice_coherent")}
        return _render_csv([row], ["y", "bias", "cheat_bob", "cheat_alice_coherent"])
    return _render_json(doc)


def _cmd_sweep(args: argparse.Namespace) -> str:
    opts = _merge_options(
        args, ["lmin", "lmax", "step", "eta", "dark", "loss_coeff", "extended", "format"]
    )
    detector = DetectorParams(eta=float(opts["eta"]), dark=float(opts["dark"]))
    points = analysis.sweep_distance(
        float(opts["lmin"]),
        float(opts["lmax"]),
        float(opts["step"]),
        detector,
        loss_coeff=float(opts["loss_coeff"]),
        extended=bool(opts["extended"]),
    )
    doc = {
        "command": "sweep",
        "eta": detector.eta,
        "dark": detector.dark,
        "loss_coeff": float(opts["loss_coeff"]),
        "extended": bool(opts["extended"]),
        "points": [
            {
                "l_km": pt.l_km,
                "pr_abort": pt.pr_abort,
                "pr_abort_given_success": pt.pr_abort_given_success,
            }
            for pt in points
        ],
    }
    if opts["format"] == "csv":
        rows = [
            {
                "l_km": repr(pt.l_km),
                "pr_abort": repr(pt.pr_abort),
                "pr_abort_given_success": repr(pt.pr_abort_given_success),
            }
            for pt in points
        ]
        return _render_csv(rows, ["l_km", "pr_abort", "pr_abort_given_success"])
    return _render_json(doc)


def _build_run_config(opts: dict) -> protocol.RunConfig:
    mode = protocol.Mode(opts["mode"])
    weak = mode is protocol.Mode.MDI_WEAK_COHERENT
    source = weak_coherent_source(float(opts["mu"])) if weak else single_photon_source()
    return protocol.RunConfig(
        y=float(opts["y"]),
        channel=ChannelParams(float(opts["la"]), float(opts["lb"]), float(opts["loss_coeff"])),
        detector=DetectorParams(eta=float(opts["eta"]), dark=float(opts["dark"])),
        source_a=source,
        source_b=source,
        max_rounds=int(opts["max_rounds"]),
        mode=mode,
        k_pulses=int(opts["k_pulses"]) if weak else None,
        extended_dark_model=bool(opts["extended"]),
    )


def _cmd_run(args: argparse.Namespace) -> str:
    keys = [
        "trials", "y", "la", "lb", "loss_coeff", "eta", "dark", "extended",
        "mode", "adversary", "target_coin", "k_pulses", "mu", "max_rounds",
    ]
    opts = _merge_options(args, keys)
    if int(opts["trials"]) < 1:
        raise ParameterError(f"trials must be >= 1, got {opts['trials']}")
    config = _build_run_config(opts)
    strategy = None
    if opts["adversary"] != "none":
        strategy = adversaries.by_name(opts["adversary"], y=config.y, target_coin=int(opts["target_coin"]))
    rng = np.random.default_rng(int(opts["seed"]))
    lines = []
    for _ in range(int(opts["trials"])):
        if strategy is not None:
            t = protocol.run_with_adversary(config, strategy, rng)
        elif config.mode is protocol.Mode.MDI:
            t = protocol.run_honest(config, rng)
        elif config.mode is protocol.Mode.MDI_WEAK_COHERENT:
            t = protocol.run_weak_coherent(config, rng)
        else:
            t = protocol.run_baseline(config, None, rng)
        lines.append(protocol.transcript_json_line(t))
    return "\n".join(lines) + "\n"


def _cmd_attack(args: argparse.Namespace) -> str:
    keys = ["adversary", "y", "target_coin", "trials", "workers", "med_model", "sent", "format"]
    opts = _merge_options(args, keys)
    name = opts["adversary"]
    y = float(opts["y"])
    target = int(opts["target_coin"])
    scenario_params: dict = {"y": y, "target_coin": target}
    if name == "alice-individual":
        scenario_params["med_model"] = opts["med_model"]
    elif name == "alice-coherent":
        scenario_params["sent"] = opts["sent"]
    # "none" is honest play, on the estimator's default ideal devices.
    scenario = "honest-coin" if name == "none" else name
    est = analysis.estimate(
        scenario,
        trials=int(opts["trials"]),
        seed=int(opts["seed"]),
        workers=int(opts["workers"]),
        **scenario_params,
    )
    closed = analysis.closed_form_for_attack(name, y, med_model=opts["med_model"])
    doc = {
        "command": "attack",
        "adversary": name,
        "y": y,
        "target_coin": target,
        "trials": int(opts["trials"]),
        "effective_trials": est.trials,
        "seed": est.seed,
        "workers": int(opts["workers"]),
        "med_model": opts["med_model"] if name == "alice-individual" else None,
        "sent": opts["sent"] if name == "alice-coherent" else None,
        "mean": est.mean,
        "stderr": est.stderr,
        "closed_form": closed,
    }
    if opts["format"] == "csv":
        cols = [
            "adversary", "y", "target_coin", "trials", "effective_trials",
            "seed", "mean", "stderr", "closed_form",
        ]
        row = {c: repr(doc[c]) if isinstance(doc[c], float) else doc[c] for c in cols}
        return _render_csv([row], cols)
    return _render_json(doc)


_COMMANDS = {
    "tables": _cmd_tables,
    "fair": _cmd_fair,
    "sweep": _cmd_sweep,
    "run": _cmd_run,
    "attack": _cmd_attack,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _COMMANDS[args.command](args)
    except (ParameterError, ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(text, getattr(args, "out", None))
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
