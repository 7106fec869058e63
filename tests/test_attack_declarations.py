"""Each attack is declared once, in its strategy class; the other lists agree with it.

The registry ``adversaries.STRATEGIES`` is the one list of strategies.  The
CLI's ``--adversary`` choices, the estimator's scenarios and closed forms,
the protocol's routes and the CLI's note on ideal devices are each checked
against it, so a strategy added or renamed in one place fails here.
"""
import re

import pytest

from mdiqct import adversaries, analysis, cli, protocol
from mdiqct.protocol import Mode


def adversary_choices(command: str) -> tuple:
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    action = next(a for a in subparsers.choices[command]._actions if a.dest == "adversary")
    return tuple(action.choices)


@pytest.mark.parametrize("command", ["run", "attack"])
def test_cli_choices_are_the_registry(command):
    assert adversary_choices(command) == adversaries.STRATEGY_NAMES


@pytest.mark.parametrize("name", adversaries.STRATEGY_NAMES)
def test_each_strategy_is_declared_once(name):
    cls = adversaries.STRATEGIES[name]
    assert cls.name == name
    assert analysis.SCENARIOS[analysis.attack_scenario(name)].closed_form is not None
    for mode in cls.supported_modes:
        assert (mode, cls.role) in protocol._ROUTES


def test_ideal_devices_note_names_the_ideal_only_strategies():
    ideal_only = {
        name
        for name, cls in adversaries.STRATEGIES.items()
        if Mode.MDI in cls.supported_modes and protocol._ROUTES[(Mode.MDI, cls.role)][1]
    }
    named = {name for name in adversaries.STRATEGY_NAMES if re.search(rf"\b{name}\b", cli._ADVERSARY_HELP)}
    assert named == ideal_only == {"bob-med", "alice-individual", "alice-coherent"}
