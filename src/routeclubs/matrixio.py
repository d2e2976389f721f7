"""On-disk format for payoff matrices.

A matrix file is line-oriented text: a magic line, ``key value`` header
lines, a ``---`` separator, then one row per stored joint action. Rows
hold the action string (lowest strategic player leftmost) followed by
one payoff per player in ``player_ids`` order. Partial files must say
so in the header; loading checks the declared flag against the actual
row count so a fixture can never silently pass for a complete matrix.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .errors import MatrixFormatError
from .game import PayoffMatrix, action_from_string, action_to_string

MAGIC = "routeclubs-matrix 1"

_HEADER_KEYS = ("n_players", "player_ids", "av_ids", "quantum", "supply_mode",
                "scenario_hash", "partial", "actions")


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Payoffs(dict):
    """Payoff token -> float, each distinct token parsed once per file."""

    def __missing__(self, token: str) -> float:
        self[token] = value = float(token)
        return value


def save_matrix(g: PayoffMatrix, path: str | Path) -> None:
    """Write a matrix so that :func:`load_matrix` restores it bit-exactly."""
    lines = [MAGIC, f"n_players {g.n_players}"]
    if g.player_ids != tuple(range(g.n_players)):
        lines.append("player_ids " + " ".join(map(str, g.player_ids)))
    lines.append("av_ids " + " ".join(map(str, g.av_ids)))
    lines.append(f"quantum {_format_number(g.quantum)}")
    lines.append(f"supply_mode {g.supply_mode}")
    if g.scenario_hash:
        lines.append(f"scenario_hash {g.scenario_hash}")
    lines.append(f"partial {'true' if not g.complete else 'false'}")
    lines.append(f"actions {len(g.entries)}")
    lines.append("---")
    # each distinct payoff formatted once; -0.0 and 0.0 share one key and both print "0"
    text = {v: _format_number(v) for v in set().union(*g.entries.values())}
    n_av = g.n_av
    for action in g.actions():
        row = g.entries[action]
        lines.append(action_to_string(action, n_av) + " " + " ".join(map(text.__getitem__, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path: str | Path) -> PayoffMatrix:
    """Read a matrix file, raising :class:`MatrixFormatError` with line numbers."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise MatrixFormatError(f"matrix file {path} is not a text file: {e}") from None
    if not lines or lines[0].strip() != MAGIC:
        raise MatrixFormatError(f"expected magic line {MAGIC!r}", line=1)

    header: dict[str, str] = {}
    body_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line == "---":
            body_start = lineno + 1
            break
        key, _, value = line.partition(" ")
        if key not in _HEADER_KEYS:
            raise MatrixFormatError(f"unknown header key {key!r}", line=lineno)
        if key in header:
            raise MatrixFormatError(f"duplicate header key {key!r}", line=lineno)
        if not value.strip():
            raise MatrixFormatError(f"header key {key!r} has no value", line=lineno)
        header[key] = value.strip()
    if body_start is None:
        raise MatrixFormatError("missing '---' separator before rows")

    for key in ("n_players", "av_ids", "quantum", "supply_mode", "partial", "actions"):
        if key not in header:
            raise MatrixFormatError(f"missing header key {key!r}")
    try:
        n_players = int(header["n_players"])
        av_ids = tuple(int(t) for t in header["av_ids"].split())
        quantum = float(header["quantum"])
        declared_rows = int(header["actions"])
        player_ids = (tuple(int(t) for t in header["player_ids"].split())
                      if "player_ids" in header else ())
    except ValueError as e:
        raise MatrixFormatError(f"malformed header value: {e}") from None
    if header["partial"] not in ("true", "false"):
        raise MatrixFormatError("header key 'partial' must be 'true' or 'false'")
    declared_partial = header["partial"] == "true"

    n_av = len(av_ids)
    entries: dict[int, tuple[float, ...]] = {}
    payoff = _Payoffs()
    for lineno, raw in enumerate(lines[body_start - 1:], start=body_start):
        tokens = raw.split()
        if not tokens:
            continue
        action_text = tokens[0]
        try:
            if len(action_text) != n_av:
                raise ValueError
            action = action_from_string(action_text)
        except ValueError:
            raise MatrixFormatError(
                f"action string {action_text!r} is not {n_av} chars of 0/1", line=lineno) from None
        if action in entries:
            raise MatrixFormatError(f"duplicate action {action_text!r}", line=lineno)
        if len(tokens) - 1 != n_players:
            raise MatrixFormatError(
                f"row has {len(tokens) - 1} payoffs, expected {n_players}", line=lineno)
        try:
            entries[action] = tuple(map(payoff.__getitem__, tokens[1:]))
        except ValueError:
            raise MatrixFormatError("malformed payoff number", line=lineno) from None

    if len(entries) != declared_rows:
        raise MatrixFormatError(
            f"header declares {declared_rows} actions but file holds {len(entries)}")
    actually_partial = len(entries) != 1 << n_av
    if declared_partial != actually_partial:
        raise MatrixFormatError(
            f"header declares partial={str(declared_partial).lower()} but the file is "
            f"{'partial' if actually_partial else 'complete'}")
    try:
        return PayoffMatrix(
            n_players=n_players, av_ids=av_ids, entries=entries,
            player_ids=player_ids, quantum=quantum,
            supply_mode=header["supply_mode"],
            scenario_hash=header.get("scenario_hash", ""),
        )
    except ValueError as e:
        raise MatrixFormatError(str(e)) from None


def complete_with_fill(g: PayoffMatrix, fill: float = -999.0) -> PayoffMatrix:
    """Complete a partial matrix by pricing every missing action at ``fill``.

    A strongly negative fill marks the unobserved joint actions as
    unattractive for everyone, which makes the stability structure of
    the observed rows checkable by the complete-matrix operations
    without inventing plausible-looking data.
    """
    if fill > 0:
        raise ValueError("fill payoff must be <= 0")
    entries = dict(g.entries)
    filler = (float(fill),) * g.n_players
    for action in range(1 << g.n_av):
        entries.setdefault(action, filler)
    return replace(g, entries=entries)
