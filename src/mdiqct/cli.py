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
import functools
import json
import os
import shutil
import sys
import tempfile
from typing import Iterator, Optional

import numpy as np

from . import adversaries, analysis, protocol
from .devices import ChannelParams, DetectorParams
from .errors import ConfigurationError, ParameterError
from .qmath import ALL_LABELS, SENT_STATES, BsmOutcome, cheating_table, validate_int, verification_table

DEFAULT_SEED = 1
SEED_ENV_VAR = "MDIQCT_SEED"
_ADVERSARY_HELP = "in run, bob-med, alice-individual and alice-coherent need ideal devices: --eta 1 --dark 0"

# Every option once: its default and the argparse settings of its flag,
# --<name> with "-" for "_".  The seed's default is read by _default_seed.
OPTIONS = {
    "y": (0.9, {"type": float}),
    "la": (0.0, {"type": float}),
    "lb": (0.0, {"type": float}),
    "loss_coeff": (0.2, {"type": float}),
    "eta": (0.1, {"type": float}),
    "dark": (1e-4, {"type": float}),
    "extended": (False, {"action": "store_true", "default": None}),
    "trials": (100_000, {"type": int}),
    "workers": (1, {"type": int}),
    "seed": (None, {"type": int}),
    "target_coin": (0, {"type": int, "choices": (0, 1)}),
    "adversary": ("none", {"choices": adversaries.STRATEGY_NAMES, "help": _ADVERSARY_HELP}),
    "mode": ("mdi", {"choices": [m.value for m in protocol.Mode]}),
    "k_pulses": (10, {"type": int}),
    "mu": (0.5, {"type": float}),
    "max_rounds": (protocol.DEFAULT_MAX_ROUNDS, {"type": int}),
    "med_model": ("basis-flip", {"choices": adversaries.MED_MODELS}),
    "sent": ("plus", {"choices": SENT_STATES}),
    "lmin": (0.0, {"type": float}),
    "lmax": (50.0, {"type": float}),
    "step": (5.0, {"type": float}),
    "tolerance": (1e-10, {"type": float}),
    "format": ("json", {}),  # each command lists its own formats
}

# Options that only one value of another option reads, as (that option, its
# value); giving one with any other value is a usage error.
SCOPED_OPTIONS = {
    "k_pulses": ("mode", "mdi-weak-coherent"),
    "mu": ("mode", "mdi-weak-coherent"),
    "med_model": ("adversary", "alice-individual"),
    "sent": ("adversary", "alice-coherent"),
}

# A run stream is drawn and written in batches, so its memory does not grow
# with --trials.  A weak-coherent batch holds max(1, RUN_BATCH_SLOTS // K)
# runs of K pulse slots each, so its memory is bounded by K alone; a batch of
# the other flows holds RUN_BATCH_ROWS runs.  A command's output is held in
# memory up to SPOOL_BYTES and spooled to a temporary file past that.
RUN_BATCH_SLOTS = 2**16
RUN_BATCH_ROWS = 2**12
SPOOL_BYTES = 2**20

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

    def command(name: str, handler, help_text: str, options: list[str], formats=("json", "csv")) -> None:
        p = sub.add_parser(name, help=help_text)
        # A command's options are its own flags; config-file values meet the same checks.
        actions = {}
        for key in options:
            actions[key] = p.add_argument("--" + key.replace("_", "-"), dest=key, **OPTIONS[key][1])
        if formats:
            actions["format"] = p.add_argument("--format", choices=formats)
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(handler=handler, option_actions=actions)

    command(
        "tables", _cmd_tables, "closed-form verification and cheating tables", ["y"],
        formats=("json", "csv", "text"),
    )
    command("fair", _cmd_fair, "fair operating point and bias", ["tolerance"])
    command(
        "sweep", _cmd_sweep, "honest-abort probability vs distance",
        ["lmin", "lmax", "step", "eta", "dark", "loss_coeff", "extended"],
    )
    command(
        "run", _cmd_run, "stream protocol transcripts (JSON lines)",
        ["trials", "y", "la", "lb", "loss_coeff", "eta", "dark", "extended", "mode", "adversary",
         "target_coin", "k_pulses", "mu", "max_rounds", "seed"],
        formats=(),
    )
    command(
        "attack", _cmd_attack, "estimate an adversary's success rate",
        ["adversary", "y", "target_coin", "trials", "seed", "workers", "med_model", "sent"],
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first one rather than at import."""
    return build_parser()


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


def _merge_options(args: argparse.Namespace) -> dict:
    """Resolve each of the command's own flags as flag > config file > default."""
    from_file = _load_config_file(args.config, set(args.option_actions)) if args.config else {}
    opts, given = {}, []
    for key, action in args.option_actions.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            opts[key] = flag_value
            given.append(key)
        elif key in from_file:
            opts[key] = _file_value(action, from_file[key])
            given.append(key)
        else:
            opts[key] = _default_seed() if key == "seed" else OPTIONS[key][0]
    if opts.get("seed", 0) < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {opts['seed']}")
    for key in given:
        scope = SCOPED_OPTIONS.get(key)
        if scope is not None and opts[scope[0]] != scope[1]:
            owner, value = scope
            flag = "--" + key.replace("_", "-")
            raise ParameterError(f"{key} ({flag}) only applies to {owner} {value}, got {owner} {opts[owner]}")
    return opts


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def _render_json(doc: dict) -> str:
    # A non-finite float is a runtime error, never a NaN or Infinity token.
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(spool, out_path: Optional[str]) -> None:
    """Copy a command's whole output from its spool to ``out_path``, written
    in place (a device, a pipe or a symlink's target as well), or to stdout."""
    spool.seek(0)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            shutil.copyfileobj(spool, fh)
    else:
        shutil.copyfileobj(spool, sys.stdout)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_tables(args: argparse.Namespace) -> str:
    opts = _merge_options(args)
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
        for sent in SENT_STATES
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
                            "probability": panel[i][j],
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
                            "probability": row[j],
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
    opts = _merge_options(args)
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
        return _render_csv([doc], ["y", "bias", "cheat_bob", "cheat_alice_coherent"])
    return _render_json(doc)


def _cmd_sweep(args: argparse.Namespace) -> str:
    opts = _merge_options(args)
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
        return _render_csv(doc["points"], ["l_km", "pr_abort", "pr_abort_given_success"])
    return _render_json(doc)


def _build_run_config(opts: dict) -> protocol.RunConfig:
    mode = protocol.Mode(opts["mode"])
    weak = mode is protocol.Mode.MDI_WEAK_COHERENT
    return protocol.RunConfig(
        y=float(opts["y"]),
        channel=ChannelParams(float(opts["la"]), float(opts["lb"]), float(opts["loss_coeff"])),
        detector=DetectorParams(eta=float(opts["eta"]), dark=float(opts["dark"])),
        mu=float(opts["mu"]) if weak else None,
        max_rounds=int(opts["max_rounds"]),
        mode=mode,
        k_pulses=int(opts["k_pulses"]) if weak else None,
        extended_dark_model=bool(opts["extended"]),
    )


def _cmd_run(args: argparse.Namespace) -> Iterator[str]:
    """The stream's pieces, one per batch, drawn as they are written."""
    opts = _merge_options(args)
    validate_int("trials", opts["trials"], 1)
    config = _build_run_config(opts)
    strategy = None
    if opts["adversary"] != "none":
        strategy = adversaries.by_name(opts["adversary"], target_coin=int(opts["target_coin"]))
    rng = np.random.default_rng(int(opts["seed"]))
    trials = int(opts["trials"])
    if config.mode is protocol.Mode.MDI_WEAK_COHERENT:
        batch = max(1, RUN_BATCH_SLOTS // config.k_pulses)
    else:
        batch = RUN_BATCH_ROWS
    for start in range(0, trials, batch):
        yield "\n".join(protocol.sample_run_lines(config, strategy, rng, min(batch, trials - start))) + "\n"


def _cmd_attack(args: argparse.Namespace) -> str:
    opts = _merge_options(args)
    name = opts["adversary"]
    # "none" is honest play, on the estimator's default ideal devices.
    scenario = analysis.attack_scenario(name)
    scenario_params = {key: opts[key] for key in analysis.SCENARIOS[scenario].keywords if key in opts}
    est = analysis.estimate(
        scenario,
        trials=int(opts["trials"]),
        seed=int(opts["seed"]),
        workers=int(opts["workers"]),
        **scenario_params,
    )
    closed = analysis.closed_form_for_attack(name, opts["y"], med_model=opts["med_model"])
    doc = {
        "command": "attack",
        "adversary": name,
        "y": opts["y"],
        "target_coin": opts["target_coin"],
        "trials": int(opts["trials"]),
        "effective_trials": est.trials,
        "seed": est.seed,
        "workers": int(opts["workers"]),
        "med_model": scenario_params.get("med_model"),
        "sent": scenario_params.get("sent"),
        "mean": est.mean,
        "stderr": est.stderr,
        "closed_form": closed,
    }
    if opts["format"] == "csv":
        cols = [
            "adversary", "y", "target_coin", "trials", "effective_trials",
            "seed", "mean", "stderr", "closed_form",
        ]
        return _render_csv([doc], cols)
    return _render_json(doc)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # The output is drawn whole into a spool before the filesystem is touched,
    # so a failure, even one in a stream's last batch, leaves no file and no output.
    with tempfile.SpooledTemporaryFile(SPOOL_BYTES, "w+", encoding="utf-8", newline="") as spool:
        try:
            output = args.handler(args)
            for piece in [output] if isinstance(output, str) else output:
                spool.write(piece)
        except (ParameterError, ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # runtime failure
            print(f"runtime error: {exc}", file=sys.stderr)
            return 1
        try:
            _emit(spool, getattr(args, "out", None))
        except OSError as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
