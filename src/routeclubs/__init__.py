"""Two-route mixed-autonomy routing games with emergent clubs.

A deterministic signal-controlled queue model prices every joint route
choice; on top of that, equilibrium classification, club detection,
club-dynamics graphs and a day-by-day formation replay.
"""

from .errors import (
    FormatError,
    IncompleteMatrixError,
    MatrixFormatError,
    PreconditionError,
)
from .exports import export_dot, export_scatter
from .formation import (
    TARGET_FIRST,
    TARGET_STABLE,
    DayEvent,
    DayRecord,
    FormationPolicy,
    choose_club,
    run_formation,
)
from .game import (
    MAX_AV_PLAYERS,
    Coalition,
    EquilibriumClass,
    EquilibriumTag,
    PayoffMatrix,
    action_from_string,
    action_to_string,
    classify_all,
    find_clubs,
    improving_coalitions,
    is_nash,
    is_strong,
    sort_coalitions,
)
from .matrixio import complete_with_fill, load_matrix, save_matrix
from .stability import (
    ClubGraph,
    ClubNode,
    build_club_graph,
    is_internally_stable,
    joiners,
    se_candidates,
    terminal_coalitions,
)
from .traffic import (
    ScenarioConfig,
    SignalPlan,
    SimOutcome,
    canonical_scenario,
    evaluate_lagged_day,
    generate_payoff_matrix,
    load_scenario,
    save_scenario,
    signal_plan,
    simulate,
    static_variant,
)

__version__ = "0.1.0"

__all__ = [
    "Coalition",
    "ClubGraph",
    "ClubNode",
    "DayEvent",
    "DayRecord",
    "EquilibriumClass",
    "EquilibriumTag",
    "FormatError",
    "FormationPolicy",
    "IncompleteMatrixError",
    "MatrixFormatError",
    "MAX_AV_PLAYERS",
    "PayoffMatrix",
    "PreconditionError",
    "ScenarioConfig",
    "SignalPlan",
    "SimOutcome",
    "TARGET_FIRST",
    "TARGET_STABLE",
    "action_from_string",
    "action_to_string",
    "build_club_graph",
    "canonical_scenario",
    "choose_club",
    "classify_all",
    "complete_with_fill",
    "evaluate_lagged_day",
    "export_dot",
    "export_scatter",
    "find_clubs",
    "generate_payoff_matrix",
    "improving_coalitions",
    "is_internally_stable",
    "is_nash",
    "is_strong",
    "joiners",
    "load_matrix",
    "load_scenario",
    "run_formation",
    "save_matrix",
    "save_scenario",
    "se_candidates",
    "signal_plan",
    "simulate",
    "sort_coalitions",
    "static_variant",
    "terminal_coalitions",
]
