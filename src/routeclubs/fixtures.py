"""Bundled payoff fixtures.

``table1_partial`` is a hand-curated partial matrix over five of the
ten strategic players of the canonical scenario (ids 0, 1, 5, 6, 7),
pricing the five joint actions that matter for its club story: the
all-on-route-0 equilibrium, the club {1,5,6}, and the club's one-joiner
and two-joiner extensions. The remaining five players never deviate in
any of these actions, so the cut preserves the stability structure.
"""

from __future__ import annotations

from importlib import resources

from .game import PayoffMatrix
from .matrixio import complete_with_fill, load_matrix

TABLE1_ROOT_CLUB = frozenset({1, 5, 6})


def table1_partial() -> PayoffMatrix:
    """Load the bundled partial fixture (partial flag set)."""
    with resources.as_file(
        resources.files("routeclubs.data").joinpath("table1_partial.matrix")
    ) as path:
        return load_matrix(path)


def table1_completed() -> PayoffMatrix:
    """The fixture completed with a uniform strongly negative fill (-999).

    The fill keeps every unobserved deviation unattractive, so the
    stability labels implied by the observed rows hold over the full
    action space and can be checked by complete-matrix operations.
    """
    return complete_with_fill(table1_partial())
