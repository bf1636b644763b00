"""Stochastic toy model of two-branch collapse with an ensemble energy ledger.

Each trajectory is a single Poisson decay event: a collapse time drawn from
Exponential(rate) and an outcome branch drawn with the configured weights.
The model deliberately stops there (no continuous localization dynamics); the
ledger then compares the ensemble's post-collapse mean energy against the
pre-collapse expectation value, whose difference converges to minus the
interference energy when outcomes follow the configured weights.

Trajectories are generated from the Philox-4x64 counter-based generator with
one counter block per trajectory index, so the ensemble is bit-reproducible
and independent of evaluation order, and the stream can be drawn, and
replayed, in fixed-size leaves.
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
    """Summary statistics of n trajectories; bit-reproducible from
    (model_digest, n_trajectories, seed).  The per-trajectory events are the
    replayable stream ``_trajectory_uniforms(n_trajectories, seed)``."""

    n_trajectories: int
    seed: int
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


#: Most trajectories drawn at once; a power of two of at least numpy's
#: pairwise-sum block (128), so every leaf is a whole subtree of that sum.
LEAF = 1 << 16

#: Half-width of the median window around ln 2, in units of 1/sqrt(n): the
#: sample median of n unit exponentials has standard deviation ~1/sqrt(n).
MEDIAN_WINDOW = 10.0


def _half(n: int) -> int:
    """Where numpy's pairwise sum splits a block of n > 128 values."""
    return n // 2 - n // 2 % 8


def _leaf_sizes(n: int):
    """numpy's pairwise split of n values, halved until each block fits in a leaf."""
    if n <= LEAF:
        yield n
    else:
        yield from _leaf_sizes(_half(n))
        yield from _leaf_sizes(n - _half(n))


def _pairwise_total(n: int, leaf_sums) -> float:
    """Add the leaf sums (an iterator, in stream order) along numpy's pairwise
    tree, so the total has the bits of ``np.add.reduce`` over all n values."""
    if n <= LEAF:
        return next(leaf_sums)
    left = _pairwise_total(_half(n), leaf_sums)
    return left + _pairwise_total(n - _half(n), leaf_sums)


def _trajectory_uniforms(n: int, seed: int):
    """Yield (u_time, u_branch), two uniforms per trajectory, leaf by leaf.

    One stream advancing the low counter word visits exactly the blocks
    Philox(counter=[i, 0, 0, 0], key=[seed, 0]) in order (4 outputs per
    block), so the leaves, joined, are bit-identical to constructing one
    generator per trajectory index i; tests pin that equivalence.
    """
    gen = np.random.Generator(np.random.Philox(counter=[0, 0, 0, 0], key=[seed, 0]))
    for size in _leaf_sizes(n):
        block = gen.random(4 * size).reshape(size, 4)
        yield block[:, 0], block[:, 1]


def _unit_times(u_time: np.ndarray) -> np.ndarray:
    """Collapse times in units of 1/rate.  The statistics are taken in those
    units and scaled, so their sums cannot overflow at a rate near MIN_RATE."""
    return -np.log1p(-u_time)


def _in_window(unit: np.ndarray, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """The count of unit times below lo, and those in [lo, hi]."""
    return int(np.count_nonzero(unit < lo)), unit[(unit >= lo) & (unit <= hi)]


def _window(n: int, seed: int, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """The count of the stream's unit times below lo, and the sorted ones in [lo, hi]."""
    below, kept = 0, []
    for u_time, _ in _trajectory_uniforms(n, seed):
        count, inside = _in_window(_unit_times(u_time), lo, hi)
        below += count
        kept.append(inside)
    return below, np.sort(np.concatenate(kept))


def _median(n: int, seed: int, below: int, kept: np.ndarray, lo: float, hi: float) -> float:
    """np.median of the n unit times, from the window [lo, hi] around it.

    A middle rank outside the window (a 10-sigma miss past a handful of
    trajectories) replays the stream once, with the window widened to all
    values on the side where the counts place that rank; only then are more
    than about 10 sqrt(n) values held.
    """
    first, last = (n - 1) // 2, n // 2
    if first < below or last >= below + kept.size:
        lo = -math.inf if first < below else lo
        hi = math.inf if last >= below + kept.size else hi
        below, kept = _window(n, seed, lo, hi)
    # np.median's own arithmetic: the mean of the one or two middle values
    return float(np.mean(kept[first - below:last - below + 1]))


def simulate(model: CollapseModel, n: int, seed: int) -> TrajectoryEnsemble:
    """Draw n independent collapse trajectories.

    The stream is drawn in leaves of at most LEAF trajectories, so memory is
    flat in n.  Each leaf adds exact counts (outcomes, survivors past each
    grid time, unit times below the median window) and its sum of unit times;
    the sums combine along numpy's pairwise tree, and the median is read from
    the window, so every statistic has the bits of the whole-array formula.

    rate = 0 is the identical-branch limit: nothing ever collapses and the
    ensemble is flagged infinite_lifetime rather than erroring.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    wa = model.outcome_weights[0]
    timed = model.rate > 0.0
    grid = np.linspace(0.0, 5.0 / model.rate, 51) if timed else np.zeros(1)
    survivors = np.zeros(grid.size, dtype=np.int64)
    half_width = MEDIAN_WINDOW / math.sqrt(n)
    lo, hi = math.log(2.0) - half_width, math.log(2.0) + half_width
    n_b, below, kept, sums = 0, 0, [], []
    for u_time, u_branch in _trajectory_uniforms(n, seed):
        n_b += int(np.count_nonzero(u_branch >= wa))
        if not timed:
            continue
        unit = _unit_times(u_time)
        sums.append(np.add.reduce(unit))
        times = unit / model.rate
        survivors += [np.count_nonzero(times > t) for t in grid]
        count, inside = _in_window(unit, lo, hi)
        below += count
        kept.append(inside)

    if timed:
        fractions = survivors / n
        mean_t = float(_pairwise_total(n, iter(sums)) / n) / model.rate
        kept = np.sort(np.concatenate(kept))
        median_t = _median(n, seed, below, kept, lo, hi) / model.rate
    else:
        fractions = np.ones(1)
        mean_t = math.inf
        median_t = math.inf

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
        model_digest=model.content_digest(),
        infinite_lifetime=not timed,
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
