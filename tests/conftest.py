from __future__ import annotations

import random

import pytest

from routeclubs import PayoffMatrix, generate_payoff_matrix, static_variant
from routeclubs.fixtures import table1_completed, table1_partial
from routeclubs.traffic import canonical_scenario

# Mean payoff over all ten strategic players of the full scenario, as
# recorded alongside the bundled Table 1 fixture rows; not recomputable
# from the five stored columns.
TABLE1_ROW_MEANS = {
    "00000": -48.3,
    "01110": -56.6,
    "01111": -55.8,
    "11111": -55.1,
    "11110": -54.4,
}


@pytest.fixture(scope="session")
def fixture_partial() -> PayoffMatrix:
    return table1_partial()


@pytest.fixture(scope="session")
def fixture_complete() -> PayoffMatrix:
    return table1_completed()


@pytest.fixture(scope="session")
def scenario():
    return canonical_scenario()


@pytest.fixture(scope="session")
def adaptive_matrix(scenario) -> PayoffMatrix:
    return generate_payoff_matrix(scenario)


@pytest.fixture(scope="session")
def static_matrix(scenario) -> PayoffMatrix:
    return generate_payoff_matrix(static_variant(scenario))


def random_game(rng: random.Random, n_av: int | None = None,
                with_humans: bool = False) -> PayoffMatrix:
    """Small game with integer payoffs in [-100, 0]."""
    n_av = n_av or rng.choice((2, 3, 4))
    n_humans = rng.choice((0, 1, 2)) if with_humans else 0
    n_players = n_av + n_humans
    av_ids = tuple(sorted(rng.sample(range(n_players), n_av)))
    entries = {
        action: tuple(float(rng.randint(-100, 0)) for _ in range(n_players))
        for action in range(1 << n_av)
    }
    return PayoffMatrix(n_players=n_players, av_ids=av_ids, entries=entries)
