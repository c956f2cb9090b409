"""Payoff library for the claims being priced.

Built-in two-period variants: vanilla call, knock-out call, Asian call,
look-back call and look-back digital, plus tabulated custom claims keyed by
path.  Payouts are per option; contract size is applied by callers.
"""
from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_TABLE_DECIMALS = 9  # custom-claim lookup keys are rounded to this precision


class ClaimKind(str, Enum):
    VANILLA_CALL = "vanilla_call"
    KNOCKOUT_CALL = "knockout_call"
    ASIAN_CALL = "asian_call"
    LOOKBACK_CALL = "lookback_call"
    LOOKBACK_DIGITAL = "lookback_digital"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Breakpoint:
    """A payout nonsmoothness location: a kink (continuous) or a jump."""

    value: float
    kind: str  # "kink" | "jump"


@dataclass(frozen=True)
class Claim:
    kind: ClaimKind
    strike: float = 0.0
    barrier: float | None = None
    payout_level: float = 10.0
    contract_size: float = 100.0
    table: dict | None = field(default=None, hash=False)

    def __post_init__(self):
        if not (np.isfinite(self.contract_size) and self.contract_size > 0):
            raise ValueError("contract size must be positive and finite")
        if self.kind is not ClaimKind.CUSTOM and self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.kind is ClaimKind.KNOCKOUT_CALL and (self.barrier is None or self.barrier <= 0):
            raise ValueError("knock-out claim needs a positive barrier")
        if self.kind is ClaimKind.LOOKBACK_DIGITAL and self.payout_level <= 0:
            raise ValueError("digital payout level must be positive")
        if self.kind is ClaimKind.CUSTOM and not self.table:
            raise ValueError("custom claim needs a payout table")

    @property
    def label(self) -> str:
        params = ",".join(
            f"{_LABEL_NAMES[name]}={getattr(self, name):g}" for name in _KINDS[self.kind].params
        )
        return f"{self.kind.value}({params})" if params else self.kind.value


@dataclass(frozen=True)
class _Kind:
    """What one claim kind reads and pays: its parameters beyond the contract
    size, its payout on an (M, T) array of paths, and its per-period
    breakpoints."""

    params: tuple[str, ...]
    payout: Callable[[Claim, np.ndarray], np.ndarray]
    breakpoints: Callable[[Claim], list[list[Breakpoint]]]


def _lookup(claim: Claim, points: np.ndarray) -> np.ndarray:
    values = []
    for path in points:
        key = _table_key(path)
        try:
            values.append(claim.table[key])
        except KeyError:
            raise KeyError(f"custom claim table has no entry for path {key}") from None
    return np.array(values, dtype=float)


_LABEL_NAMES = {"strike": "K", "barrier": "B", "payout_level": "level"}

# Built-in kinds are two-period: x[:, 0] is X_1 and x[:, 1] is X_2.
_KINDS = {
    ClaimKind.VANILLA_CALL: _Kind(
        ("strike",),
        lambda c, x: np.maximum(x[:, 1] - c.strike, 0.0),
        lambda c: [[], [Breakpoint(c.strike, "kink")]],
    ),
    ClaimKind.KNOCKOUT_CALL: _Kind(
        ("strike", "barrier"),
        # strict inequality: at the barrier the option is dead
        lambda c, x: np.where(x[:, 0] < c.barrier, np.maximum(x[:, 1] - c.strike, 0.0), 0.0),
        lambda c: [[Breakpoint(c.barrier, "jump")], [Breakpoint(c.strike, "kink")]],
    ),
    ClaimKind.ASIAN_CALL: _Kind(
        ("strike",),
        lambda c, x: np.maximum(0.5 * (x[:, 0] + x[:, 1]) - c.strike, 0.0),
        lambda c: [[Breakpoint(c.strike, "kink")], [Breakpoint(c.strike, "kink")]],
    ),
    ClaimKind.LOOKBACK_CALL: _Kind(
        ("strike",),
        lambda c, x: np.maximum(np.maximum(x[:, 0] - c.strike, 0.0),
                                np.maximum(x[:, 1] - c.strike, 0.0)),
        lambda c: [[Breakpoint(c.strike, "kink")], [Breakpoint(c.strike, "kink")]],
    ),
    ClaimKind.LOOKBACK_DIGITAL: _Kind(
        ("strike", "payout_level"),
        lambda c, x: np.where((x[:, 0] >= c.strike) | (x[:, 1] >= c.strike), c.payout_level, 0.0),
        lambda c: [[Breakpoint(c.strike, "jump")], [Breakpoint(c.strike, "jump")]],
    ),
    ClaimKind.CUSTOM: _Kind((), _lookup, lambda c: [[], []]),
}


def vanilla_call(strike: float, contract_size: float = 100.0) -> Claim:
    return Claim(ClaimKind.VANILLA_CALL, strike, contract_size=contract_size)


def knockout_call(strike: float, barrier: float, contract_size: float = 100.0) -> Claim:
    return Claim(ClaimKind.KNOCKOUT_CALL, strike, barrier=barrier, contract_size=contract_size)


def asian_call(strike: float, contract_size: float = 100.0) -> Claim:
    return Claim(ClaimKind.ASIAN_CALL, strike, contract_size=contract_size)


def lookback_call(strike: float, contract_size: float = 100.0) -> Claim:
    return Claim(ClaimKind.LOOKBACK_CALL, strike, contract_size=contract_size)


def lookback_digital(strike: float, payout_level: float = 10.0, contract_size: float = 100.0) -> Claim:
    return Claim(ClaimKind.LOOKBACK_DIGITAL, strike, payout_level=payout_level, contract_size=contract_size)


def custom_claim(table: dict, contract_size: float = 100.0) -> Claim:
    """A claim that pays ``table[path]`` per option on each tabulated path;
    a non-finite level or payout raises ValueError naming its path."""
    for path, v in table.items():
        if not np.isfinite([*map(float, path), float(v)]).all():
            raise ValueError(f"custom claim table: path {tuple(path)} has a non-finite "
                             f"level or payout {v!r}")
    keyed = {_table_key(path): float(v) for path, v in table.items()}
    return Claim(ClaimKind.CUSTOM, contract_size=contract_size, table=keyed)


def configured_claim(spec: dict) -> Claim:
    """The claim a configuration's ``claim`` section describes: its
    ``variant``, ``contract_size`` and the parameters that kind reads; a
    custom claim is read from ``table_path``."""
    kind = ClaimKind(spec["variant"])
    if kind is ClaimKind.CUSTOM:
        if not spec.get("table_path"):
            raise ValueError("custom claim needs table_path in the configuration")
        return load_claim_table(spec["table_path"], contract_size=spec["contract_size"])
    params = {name: spec[name] for name in _KINDS[kind].params}
    return Claim(kind, contract_size=spec["contract_size"], **params)


def _table_key(path) -> tuple:
    return tuple(round(float(x), _TABLE_DECIMALS) for x in path)


def claim_payout(claim: Claim, path) -> float:
    """Payout per option for one index path (X_1, ..., X_T).

    Built-in variants require a two-period path; custom tables accept whatever
    horizon their table was built for.
    """
    return float(claim_payout_grid(claim, np.asarray(path, dtype=float)[None, :])[0])


def claim_payout_grid(claim: Claim, points: np.ndarray) -> np.ndarray:
    """Payout per option on each row of an (M, T) array of paths."""
    points = np.asarray(points, dtype=float)
    if claim.kind is not ClaimKind.CUSTOM and points.shape[1] != 2:
        raise ValueError(f"built-in claims are two-period, got paths of length {points.shape[1]}")
    return _KINDS[claim.kind].payout(claim, points)


def claim_breakpoints(claim: Claim) -> list[list[Breakpoint]]:
    """Per-period sorted breakpoints of the payout, so scenario grids can
    resolve every kink and jump.  Custom claims return empty lists."""
    return _KINDS[claim.kind].breakpoints(claim)


def load_claim_table(csv_path, contract_size: float = 100.0) -> Claim:
    """Read a custom claim from CSV rows of (X1, X2, payout)."""
    table = {}
    with open(csv_path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("x1", "# x1"):
                continue
            x1, x2, value = (float(v) for v in row[:3])
            table[(x1, x2)] = value
    return custom_claim(table, contract_size=contract_size)
