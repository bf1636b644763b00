"""Stochastic toy model of two-branch collapse with an ensemble energy ledger.

Each trajectory is a single Poisson decay event: a collapse time drawn from
Exponential(rate) and an outcome branch drawn with the configured weights.
The model deliberately stops there (no continuous localization dynamics); the
ledger then compares the ensemble's post-collapse mean energy against the
pre-collapse expectation value, whose difference converges to minus the
interference energy when outcomes follow the configured weights.

Trajectories are generated from the Philox-4x64 counter-based generator with
one counter block per trajectory index, so the ensemble is bit-reproducible
and independent of evaluation order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import np
from .errors import ProvenanceError
from .massdist import DEFAULT_REL_TOL, SuperpositionSpec, e_delta
from .persistence import json_digest
from .quantities import CODATA2018, PhysicalConstants

#: Outcome statistics are a modeling choice, not a derived result.
BORN_WEIGHT_NOTE = (
    "outcome statistics assumed: Born weights (squared branch amplitudes); "
    "collapse modeled as a single Poisson event per trajectory"
)

#: Smallest positive rate, 1/s.  A unit-rate draw -log(1 - u) is at most
#: 53 ln 2 = 36.7 (u < 1 - 2^-53), so every collapse time and the survival
#: horizon 5/rate stay finite at or above it.
MIN_RATE = 64.0 / sys.float_info.max


def check_rate(rate: float) -> None:
    """Reject a rate that is negative, not finite, or positive but below MIN_RATE."""
    if not (rate == 0.0 or MIN_RATE <= rate < math.inf):
        raise ValueError(f"rate must be 0 or finite and >= {MIN_RATE:.3g} 1/s, got {rate} "
                         "(a smaller positive rate draws collapse times past the float range)")


def check_weights(weights: tuple[float, float]) -> None:
    """Reject outcome weights that are negative or do not sum to 1 within 1e-12."""
    if not (min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= 1e-12):
        raise ValueError(f"outcome weights must be nonnegative and sum to 1, got {weights}")


@dataclass(frozen=True)
class CollapseModel:
    """Two-branch collapse parameters: decay rate, outcome weights, energies."""

    rate: float                                # 1/s
    outcome_weights: tuple[float, float]       # (w_a, w_b), sum to 1
    branch_energies: tuple[float, float] = (0.0, 0.0)   # J
    interference_energy: float = 0.0           # J, cross-term <psi_a|H|psi_b>
    spec_digest: str | None = None

    def __post_init__(self) -> None:
        check_rate(self.rate)
        check_weights(self.outcome_weights)
        if not all(map(math.isfinite, (*self.branch_energies, self.interference_energy))):
            raise ValueError("branch and interference energies must be finite")

    @property
    def pre_collapse_mean_energy(self) -> float:
        wa, wb = self.outcome_weights
        ea, eb = self.branch_energies
        return wa * ea + wb * eb + self.interference_energy

    @classmethod
    def from_superposition(
        cls,
        spec: SuperpositionSpec,
        branch_energies: tuple[float, float] = (0.0, 0.0),
        interference_energy: float = 0.0,
        prefactor: float = 1.0,
        constants: PhysicalConstants = CODATA2018,
        rel_tol: float = DEFAULT_REL_TOL,
        outcome_weights: tuple[float, float] = (0.5, 0.5),
    ) -> "CollapseModel":
        """Rate defaults to E_delta / (prefactor * hbar), the criterion's inverse lifetime;
        ``rel_tol`` is the quadrature tolerance of E_delta."""
        energy = e_delta(spec, constants=constants, rel_tol=rel_tol)
        return cls(
            rate=energy / (prefactor * constants.hbar),
            outcome_weights=outcome_weights,
            branch_energies=branch_energies,
            interference_energy=interference_energy,
            spec_digest=spec.content_digest(),
        )

    def content_digest(self) -> str:
        return json_digest({
            "rate": self.rate,
            "weights": list(self.outcome_weights),
            "energies": list(self.branch_energies),
            "interference": self.interference_energy,
            "spec": self.spec_digest,
        })


@dataclass(frozen=True)
class EnsembleSummary:
    survival_times: np.ndarray        # s
    survival_fractions: np.ndarray
    outcome_frequencies: tuple[float, float]
    mean_collapse_time: float         # s; inf when nothing collapses
    median_collapse_time: float
    mean_post_collapse_energy: float  # J
    assumption_note: str = BORN_WEIGHT_NOTE


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Per-trajectory events plus summary statistics; bit-reproducible from
    (model_digest, n_trajectories, seed)."""

    n_trajectories: int
    seed: int
    collapse_times: np.ndarray        # s; +inf marks a surviving trajectory
    outcomes: np.ndarray              # 0 = branch a, 1 = branch b
    model_digest: str
    infinite_lifetime: bool
    summary: EnsembleSummary

    def to_dict(self) -> dict:
        s = self.summary
        return {
            "n_trajectories": self.n_trajectories,
            "seed": self.seed,
            "model_digest": self.model_digest,
            "infinite_lifetime": self.infinite_lifetime,
            "outcome_frequencies": list(s.outcome_frequencies),
            "mean_collapse_time_s": None if math.isinf(s.mean_collapse_time) else s.mean_collapse_time,
            "median_collapse_time_s": None if math.isinf(s.median_collapse_time) else s.median_collapse_time,
            "mean_post_collapse_energy_J": s.mean_post_collapse_energy,
            "assumption_note": s.assumption_note,
        }


def _trajectory_uniforms(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two uniforms per trajectory from Philox counter block i = trajectory index.

    A single stream advancing the low counter word visits exactly the blocks
    Philox(counter=[i, 0, 0, 0], key=[seed, 0]) in order (4 outputs per
    block), so this vectorized draw is bit-identical to constructing one
    generator per trajectory; tests pin that equivalence.
    """
    gen = np.random.Generator(np.random.Philox(counter=[0, 0, 0, 0], key=[seed, 0]))
    block = gen.random(4 * n).reshape(n, 4)
    # copies, so the caller does not keep the whole 4n block alive
    return block[:, 0].copy(), block[:, 1].copy()


def simulate(model: CollapseModel, n: int, seed: int) -> TrajectoryEnsemble:
    """Draw n independent collapse trajectories.

    rate = 0 is the identical-branch limit: nothing ever collapses and the
    ensemble is flagged infinite_lifetime rather than erroring.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u_time, u_branch = _trajectory_uniforms(n, seed)
    wa = model.outcome_weights[0]
    outcomes = (u_branch >= wa).astype(np.int8)
    if model.rate > 0.0:
        # collapse times in units of 1/rate; the statistics are taken in those
        # units and scaled, so their sums cannot overflow at a rate near MIN_RATE
        unit_times = -np.log1p(-u_time)
        times = unit_times / model.rate
        grid = np.linspace(0.0, 5.0 / model.rate, 51)
        fractions = np.array([np.count_nonzero(times > t) for t in grid]) / n
        mean_t = float(np.mean(unit_times)) / model.rate
        median_t = float(np.median(unit_times)) / model.rate
    else:
        times = np.full(n, np.inf)
        grid = np.zeros(1)
        fractions = np.ones(1)
        mean_t = math.inf
        median_t = math.inf

    n_b = int(np.count_nonzero(outcomes))
    freq_b = n_b / n
    freqs = (1.0 - freq_b, freq_b)
    ea, eb = model.branch_energies
    # the exact sum of n - n_b copies of ea and n_b of eb, rounded once
    post_mean = float(Fraction(ea) * (n - n_b) + Fraction(eb) * n_b) / n

    summary = EnsembleSummary(
        survival_times=grid,
        survival_fractions=fractions,
        outcome_frequencies=freqs,
        mean_collapse_time=mean_t,
        median_collapse_time=median_t,
        mean_post_collapse_energy=post_mean,
    )
    return TrajectoryEnsemble(
        n_trajectories=n,
        seed=int(seed),
        collapse_times=times,
        outcomes=outcomes,
        model_digest=model.content_digest(),
        infinite_lifetime=model.rate == 0.0,
        summary=summary,
    )


@dataclass(frozen=True)
class EnergyLedger:
    """Pre/post collapse energy bookkeeping for one ensemble."""

    pre_collapse_mean: float      # J
    post_collapse_mean: float     # J
    residual: float               # post - pre
    expected_residual: float      # -interference_energy as n -> inf
    standard_error: float         # of the post-collapse mean
    n_trajectories: int
    assumption_note: str = BORN_WEIGHT_NOTE

    @property
    def within_three_sigma(self) -> bool:
        return abs(self.residual - self.expected_residual) <= 3.0 * self.standard_error

    def to_dict(self) -> dict:
        return {
            "assumption_note": self.assumption_note,
            "pre_collapse_mean_J": self.pre_collapse_mean,
            "post_collapse_mean_J": self.post_collapse_mean,
            "residual_J": self.residual,
            "expected_residual_J": self.expected_residual,
            "standard_error_J": self.standard_error,
            "within_three_sigma": self.within_three_sigma,
            "n_trajectories": self.n_trajectories,
        }


def energy_ledger(ensemble: TrajectoryEnsemble, model: CollapseModel) -> EnergyLedger:
    """Energy balance of the ensemble against the model's pre-collapse mean.

    The residual estimates -interference_energy: collapsing kills the cross
    term, while the weighted branch mean is preserved in expectation.
    """
    if ensemble.model_digest != model.content_digest():
        raise ProvenanceError(
            "ensemble was not produced from this model (content digests differ)"
        )
    wa, wb = model.outcome_weights
    ea, eb = model.branch_energies
    post = ensemble.summary.mean_post_collapse_energy
    pre = model.pre_collapse_mean_energy
    sem = abs(ea - eb) * math.sqrt(wa * wb / ensemble.n_trajectories)
    return EnergyLedger(
        pre_collapse_mean=pre,
        post_collapse_mean=post,
        residual=post - pre,
        expected_residual=0.0 - model.interference_energy,   # +0.0, not -0.0, at zero
        standard_error=sem,
        n_trajectories=ensemble.n_trajectories,
    )
