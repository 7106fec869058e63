"""Every command line either gives schema-valid strict JSON or is refused.

Hypothesis draws a subcommand and a subset of its own options, each given by
flag or through ``--config``, with values that include NaN, ±inf, 0,
negatives, 2⁷⁰, a float for an integer option and a wrong choice.  A call
exits 0 with output that parses without NaN or Infinity tokens and matches
the output schema, exits 2 with an ``error:`` line, or exits 1 only because
a run found no successful round within its cap (:class:`ExhaustionError`).

Each case stays small: at most 100 trials (one estimator chunk, so
``--workers`` starts no thread, and at most 100 transcript lines to
validate), at most 10⁴ weak-coherent pulse slots, and sweep grids of at
most about 10³ points or refused ones, from the value sets below.
"""
import contextlib
import io
import json
import math
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqct import cli
from test_cli import VALIDATOR

COMMANDS = {name: cli.build_parser().parse_args([name]).option_actions
            for name in ("tables", "fair", "sweep", "run", "attack")}

BAD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 2**70]
BAD_INTS = [0, -1, 2**70, 1.5]
# Values an option can take besides the bad ones.  The sweep values give
# grids of at most 1,001 points, or ones that are refused.
GOOD = {
    "y": [0.75, 0.9], "la": [0.0, 10.0], "lb": [5.0], "loss_coeff": [0.2], "eta": [0.1, 1.0],
    "dark": [0.0, 1e-4, 0.5], "mu": [0.5, 2.0], "lmin": [5.0], "lmax": [50.0], "step": [5.0, 0.05],
    "tolerance": [1e-10], "trials": [1, 7, 100], "workers": [1, 2], "seed": [5], "k_pulses": [1, 3, 100],
    "max_rounds": [1, 30],
}
EXHAUSTED = re.compile(r"runtime error: no (successful projection|detection) within \d+ rounds")


def values(key: str, action) -> tuple[list, list]:
    """The good and the bad values of one option."""
    if action.nargs == 0:  # a store_true flag: a config file gives it a JSON value
        return [True, False], ["yes"]
    if action.choices is not None:
        return list(action.choices), ["nope", 1.5]
    if key == "trials":  # never more than one chunk
        return GOOD[key], [0, -1, 1.5]
    return GOOD[key], BAD_INTS if action.type is int else BAD_FLOATS


@st.composite
def invocations(draw):
    """(argv without --config, config-file object, the effective format)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = COMMANDS[command]
    argv, config, fmt = [command], {}, "json"
    keys = draw(st.lists(st.sampled_from(sorted(actions)), unique=True))
    if "trials" in actions and "trials" not in keys:  # the default 10⁵ trials is too many here
        keys.append("trials")
    for key in keys:
        good, bad = values(key, actions[key])
        value = draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))
        if key == "format":
            fmt = value
        if not draw(st.booleans()):
            config[key] = value
        elif actions[key].nargs == 0:  # a switch is given by its presence
            argv.append("--" + key.replace("_", "-"))
        else:
            argv.append(f"--{key.replace('_', '-')}={value!r}" if isinstance(value, float) else
                        f"--{key.replace('_', '-')}={value}")
    return argv, config, fmt


def refuse_constant(name: str):
    raise AssertionError(f"non-strict JSON constant {name} in the output")


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(invocation=invocations())
def test_every_command_line_gives_strict_json_or_is_refused(invocation):
    argv, config, fmt = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)  # NaN and Infinity are written as Python's json reads them
            argv = [*argv, "--config", path]
        code, out, err = call(argv)
    if code == 2:
        assert out == ""
        assert any("error:" in line for line in err.splitlines()), err
    elif code == 1:
        assert out == "" and EXHAUSTED.fullmatch(err.strip()), err
    else:
        assert code == 0, (code, err)
        if argv[0] == "run" or fmt == "json":
            for line in (out.splitlines() if argv[0] == "run" else [out]):
                VALIDATOR.validate(json.loads(line, parse_constant=refuse_constant))
        else:
            assert not re.search(r"\b(nan|inf)\b", out), out
