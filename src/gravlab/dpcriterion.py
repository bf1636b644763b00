"""Collapse-time estimates T = prefactor * hbar / E_delta and the mass scale
at which gravity and quantum scales meet (sqrt(hbar c / G)).

An identical-branch superposition has E_delta = 0 and an infinite lifetime;
that is a legitimate limiting query, so the infinity is a value, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GravlabError
from .massdist import DEFAULT_REL_TOL, SuperpositionSpec, e_delta
from .quantities import CODATA2018, PhysicalConstants


@dataclass(frozen=True)
class CollapseEstimate:
    """Result of the lifetime criterion for one superposition."""

    e_delta: float          # J
    collapse_time: float    # s; math.inf iff e_delta == 0
    prefactor: float
    inputs_digest: str

    @property
    def infinite(self) -> bool:
        return math.isinf(self.collapse_time)

    def to_dict(self) -> dict:
        return {
            "e_delta_J": self.e_delta,
            "collapse_time_s": None if self.infinite else self.collapse_time,
            "infinite_lifetime": self.infinite,
            "prefactor": self.prefactor,
            "inputs_digest": self.inputs_digest,
        }


def collapse_time(
    spec: SuperpositionSpec,
    prefactor: float = 1.0,
    constants: PhysicalConstants = CODATA2018,
    rel_tol: float = DEFAULT_REL_TOL,
) -> CollapseEstimate:
    """Lifetime of the superposition from the self energy of the branch difference."""
    if not prefactor > 0.0:
        raise ValueError(f"prefactor must be positive, got {prefactor}")
    energy = e_delta(spec, constants=constants, rel_tol=rel_tol)
    time = math.inf if energy == 0.0 else prefactor * constants.hbar / energy
    return CollapseEstimate(energy, time, prefactor, spec.content_digest())


def feynman_mass_scale(constants: PhysicalConstants = CODATA2018) -> float:
    """Mass M with G M^2 / (hbar c) = 1, in kg (~2.2e-8 kg, i.e. ~1e-5 g)."""
    return math.sqrt(constants.hbar * constants.c / constants.G)


@dataclass(frozen=True)
class SweepRow:
    parameter: float
    e_delta: float | None   # J; None when the row errored
    collapse_time: float | None
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON has no infinity: an infinite lifetime is ``"T_s": null`` with
        ``"infinite_lifetime": true``, as in ``CollapseEstimate.to_dict``."""
        row = {"parameter": self.parameter, "E_delta_J": self.e_delta,
               "T_s": self.collapse_time, "error": self.error}
        if self.collapse_time == math.inf:
            row.update(T_s=None, infinite_lifetime=True)
        return row


def lifetime_sweep(
    family: Iterable[tuple[float, SuperpositionSpec]] | Sequence[tuple[float, SuperpositionSpec]],
    prefactor: float = 1.0,
    constants: PhysicalConstants = CODATA2018,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[SweepRow]:
    """Evaluate the criterion over a parameterized family; per-row errors do not
    abort the sweep, and a row whose float arithmetic overflows or divides by
    zero records it as FloatRangeError.  Rows come back ordered by parameter value."""
    rows: list[SweepRow] = []
    for parameter, spec in family:
        try:
            est = collapse_time(spec, prefactor=prefactor, constants=constants, rel_tol=rel_tol)
            rows.append(SweepRow(float(parameter), est.e_delta, est.collapse_time))
        except GravlabError as exc:
            rows.append(SweepRow(float(parameter), None, None, error=str(exc)))
        except ArithmeticError as exc:
            error = f"FloatRangeError: {type(exc).__name__}: {exc}"
            rows.append(SweepRow(float(parameter), None, None, error=error))
    rows.sort(key=lambda row: row.parameter)
    return rows
