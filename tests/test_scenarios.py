"""One gate over every estimator scenario, derived from the declarations.

``analysis.SCENARIOS`` declares each scenario's kernel, the keywords it takes
and the closed form of its mean; ``analysis.KEYWORDS`` declares each
keyword's default and domain.  Every case below is read from those two
tables, so a new scenario or keyword is covered without editing this file.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqct.analysis import CHUNK_SIZE, KEYWORDS, REQUIRED, SCENARIOS, estimate
from mdiqct.errors import ParameterError
from mdiqct.qmath import validate_y


def in_domain(name: str):
    """A value inside the keyword's domain: its default, or the first member."""
    keyword = KEYWORDS[name]
    return keyword.domain[0] if keyword.default is REQUIRED else keyword.default


def out_of_domain(name: str) -> list:
    """Values just outside the keyword's domain; an integer one also gets a float twin and a bool."""
    domain = KEYWORDS[name].domain
    if isinstance(domain, range):
        return [domain.start - 1, domain.stop, float(domain.start), True]
    if isinstance(domain, tuple):
        return ["nonsense"]
    if isinstance(domain, type):
        return [None]
    assert domain is validate_y
    return [0.5, 1.0]


def required(scenario: str) -> dict:
    return {
        key: in_domain(key) for key in SCENARIOS[scenario].keywords if KEYWORDS[key].default is REQUIRED
    }


def test_defaults_lie_in_their_domains():
    for name, keyword in KEYWORDS.items():
        if keyword.default is not REQUIRED:
            keyword.check(name, keyword.default)


def test_every_scenario_runs_on_its_required_keywords():
    for scenario in SCENARIOS:
        assert estimate(scenario, trials=10, seed=0, **required(scenario)).seed == 0


@pytest.mark.parametrize(
    "scenario, key",
    [(s, k) for s, spec in SCENARIOS.items() for k in KEYWORDS if k not in spec.keywords],
)
def test_keyword_the_scenario_does_not_take_is_refused(scenario, key):
    params = dict(required(scenario), **{key: in_domain(key)})
    with pytest.raises(ParameterError, match=key) as info:
        estimate(scenario, trials=10, seed=0, **params)
    assert all(taken in str(info.value) for taken in SCENARIOS[scenario].keywords)


@pytest.mark.parametrize(
    "scenario, key",
    [(s, k) for s, spec in SCENARIOS.items() for k in spec.keywords if KEYWORDS[k].default is REQUIRED],
)
def test_missing_required_keyword_is_refused(scenario, key):
    params = required(scenario)
    del params[key]
    with pytest.raises(ParameterError, match=key):
        estimate(scenario, trials=10, seed=0, **params)


@pytest.mark.parametrize(
    "scenario, key, value",
    [(s, k, v) for s, spec in SCENARIOS.items() for k in spec.keywords for v in out_of_domain(k)],
)
def test_value_outside_its_domain_is_refused(scenario, key, value):
    params = dict(required(scenario), **{key: value})
    with pytest.raises(ParameterError):
        estimate(scenario, trials=10, seed=0, **params)


@pytest.mark.parametrize("arg", ["trials", "workers", "seed"])
@pytest.mark.parametrize("value", [2.5, True, -1])
def test_run_arguments_must_be_integers_in_range(arg, value):
    args = {"trials": 10, "seed": 0, "workers": 1}
    args[arg] = value
    with pytest.raises(ParameterError, match=arg):
        estimate("bob-med", **args)


def test_numpy_integers_are_integers():
    as_python = estimate("table-cell", trials=1000, seed=3, index_a=1, index_b=2, outcome="psi-plus")
    as_numpy = estimate(
        "table-cell", trials=np.int64(1000), seed=np.uint32(3), workers=np.int8(1),
        index_a=np.int8(1), index_b=np.int64(2), outcome="psi-plus",
    )
    assert as_numpy == as_python


def keyword_values(name: str):
    domain = KEYWORDS[name].domain
    if isinstance(domain, range):
        return st.integers(domain.start, domain.stop - 1)
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    if domain is validate_y:
        return st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
    if domain is bool:
        return st.booleans()
    return st.just(KEYWORDS[name].default)  # device parameters stay at their defaults


CLOSED_FORM_TRIALS = 20_000


@st.composite
def closed_form_points(draw):
    scenario = draw(st.sampled_from(sorted(s for s, spec in SCENARIOS.items() if spec.closed_form)))
    params = {key: draw(keyword_values(key)) for key in SCENARIOS[scenario].keywords}
    return scenario, params, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(point=closed_form_points())
def test_sampled_mean_within_4_sigma_of_closed_form(point):
    scenario, params, seed = point
    expected = SCENARIOS[scenario].closed_form(params)
    est = estimate(scenario, trials=CLOSED_FORM_TRIALS, seed=seed, **params)
    assert est.trials > 0
    sigma = math.sqrt(expected * (1.0 - expected) / est.trials)
    assert abs(est.mean - expected) <= 4.0 * sigma, (scenario, params, est)


# Three chunks and a partial one; and seven and a partial one, which gives
# each of three workers more than one chunk of its contiguous range.
WORKER_CASES = [
    *(pytest.param(scenario, 3 * CHUNK_SIZE + 17, id=scenario) for scenario in sorted(SCENARIOS)),
    *(pytest.param(scenario, 7 * CHUNK_SIZE + 17, id=f"{scenario}-8-chunks") for scenario in sorted(SCENARIOS)),
]


@pytest.mark.parametrize("scenario, trials", WORKER_CASES)
def test_worker_count_leaves_every_scenario_bit_identical(scenario, trials):
    one, two, three = (
        estimate(scenario, trials=trials, seed=5, workers=workers, **required(scenario)) for workers in (1, 2, 3)
    )
    assert one == two == three
