"""Output checks for each gravlab command, and the uniform-ball E_delta oracle.

Tolerances are those of the repository's tier-1 tests.  Constants are the
CODATA 2018 values, restated here so the checks do not trust the package
they check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from workloads import Op

G = 6.67430e-11                          # m^3 kg^-1 s^-2
HBAR = 6.62607015e-34 / (2.0 * math.pi)  # J s, from the exact SI value of h

# E_delta at d/R >= CHECKED_ETA must match the oracle to the CLI's default
# quadrature tolerance; closer in, the U_a + U_b - mutual cancellation
# (ROADMAP item 1) costs digits today, so those values only feed the metrics
E_DELTA_REL_TOL = 1e-6
CHECKED_ETA = 0.3

FEYNMAN_MASS_G = 2.176e-5
# Moroz, Penrose & Tod, Class. Quantum Grav. 15, 2733 (1998), in SN-natural units
SN_SPECTRUM = (-0.16277, -0.030797, -0.012526)
HYDROGEN_E0_EV = -13.6
ELECTROSTATIC_RATIO = 0.625
TRACEBACK = "Traceback (most recent call last)"


def e_delta_oracle(mass: float, radius: float, d: float) -> float:
    """E_delta of a uniform ball of `mass` and `radius` displaced by `d`.

    For eta = d/R <= 2 the overlap series is summed directly, without the
    U_a + U_b - mutual subtraction that cancels at d << R (Penrose,
    Gen. Rel. Grav. 28, 581 (1996)); beyond that the balls are disjoint.
    """
    eta = d / radius
    if eta <= 2.0:
        return G * mass**2 / radius * (eta**2 / 2.0 - 3.0 * eta**3 / 16.0 + eta**5 / 160.0)
    return G * mass**2 * (6.0 / (5.0 * radius) - 1.0 / d)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(value: float, target: float, rel: float) -> bool:
    return abs(value / target - 1.0) <= rel


@dataclass(frozen=True)
class EDelta:
    """One reported E_delta, the oracle's value and how it was computed."""

    eta: float            # d/R
    value: float
    reference: float
    quadrature: bool      # radial-profile input, so the adaptive quadrature path

    @property
    def rel_err(self) -> float:
        return abs(self.value - self.reference) / self.reference


class Result:
    """Problems found in one operation's outputs, and the E_delta values
    it reported."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.e_deltas: list[EDelta] = []
        self.bundle_digest: str | None = None

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def check_operation(op: Op, exit_code: int, stderr: str, outdir: Path) -> Result:
    result = Result()
    result.require(exit_code == 0, f"exit code {exit_code}")
    result.require(TRACEBACK not in stderr, "traceback on stderr")
    bundle_path = outdir / "result_bundle.json"
    if not bundle_path.is_file():
        result.problems.append("no result_bundle.json")
        return result
    raw = bundle_path.read_bytes()
    result.bundle_digest = sha256_bytes(raw)
    bundle = json.loads(raw)
    for entry in bundle["files"]:
        path = outdir / entry["name"]
        result.require(path.is_file() and sha256_bytes(path.read_bytes()) == entry["sha256"],
                       f"sha256 mismatch for {entry['name']}")
    result.require(bundle["error"] is None, f"bundle reports error {bundle['error']}")
    if result.problems:
        return result
    name = op.command.replace("-", "_")
    try:
        summary = json.loads((outdir / f"{name}.json").read_text(encoding="utf-8"))
        CHECKS[op.command](op.expect, summary, result)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        result.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return result


def _feynman_scale(expect: dict, s: dict, r: Result) -> None:
    r.require(_close(s["mass_g"], FEYNMAN_MASS_G, 1e-3), f"mass_g {s['mass_g']}")


def _selfenergy(expect: dict, s: dict, r: Result) -> None:
    closed = G * expect["mass"] ** 2 / (2.0 * math.sqrt(math.pi) * expect["width"])
    r.require(_close(s["self_energy_J"], closed, 1e-9), f"self_energy_J {s['self_energy_J']}")
    r.require(abs(s["monte_carlo_J"] - closed) <= 5.0 * s["monte_carlo_stderr_J"],
              f"Monte Carlo {s['monte_carlo_J']} +- {s['monte_carlo_stderr_J']} vs {closed}")


def _e_delta_value(expect: dict, d: float, value: float | None, r: Result) -> None:
    eta = d / expect["radius"]
    if value is None:
        r.problems.append(f"no E_delta at d/R = {eta:.3g}")
        return
    e = EDelta(eta, value, e_delta_oracle(expect["mass"], expect["radius"], d),
               expect.get("quadrature", False))
    r.e_deltas.append(e)
    if eta >= CHECKED_ETA:
        r.require(e.rel_err <= E_DELTA_REL_TOL,
                  f"E_delta {value} at d/R = {eta:.3g} is {e.rel_err:.3g} from the oracle")


def _lifetime(e_delta: float, lifetime: float, r: Result) -> None:
    if e_delta > 0.0:
        r.require(_close(lifetime, HBAR / e_delta, 1e-12),
                  f"collapse time {lifetime} s is not hbar/E_delta")
    else:
        r.require(lifetime == math.inf, f"E_delta = {e_delta} with collapse time {lifetime} s")


def _e_delta(expect: dict, s: dict, r: Result) -> None:
    _e_delta_value(expect, expect["separation"], s["e_delta_J"], r)


def _collapse_time(expect: dict, s: dict, r: Result) -> None:
    _e_delta_value(expect, expect["separation"], s["e_delta_J"], r)
    lifetime = math.inf if s["infinite_lifetime"] else s["collapse_time_s"]
    _lifetime(s["e_delta_J"], lifetime, r)


def _lifetime_sweep(expect: dict, s: dict, r: Result) -> None:
    r.require(s["n_rows"] == expect["rows"], f"{s['n_rows']} rows, expected {expect['rows']}")
    r.require(s["errors"] == 0, f"{s['errors']} rows errored")
    for row in s["rows"]:
        r.require(row["error"] is None, f"row d = {row['parameter']}: {row['error']}")
        _e_delta_value(expect, row["parameter"], row["E_delta_J"], r)
        if row["E_delta_J"] is not None:
            _lifetime(row["E_delta_J"], row["T_s"], r)


def _sn_states(expect: dict, s: dict, r: Result) -> None:
    states = s["states"]
    r.require(len(states) == expect["states"], f"{len(states)} states")
    natural = G**2 * expect["mass"] ** 5 / HBAR**2
    for k, (state, ref) in enumerate(zip(states, SN_SPECTRUM)):
        value = state["eigenvalue"]["J"] / natural
        ok = abs(value - ref) <= 5e-4 if k == 0 else _close(value, ref, 1e-3)
        r.require(ok, f"state {k}: eigenvalue {value} natural units, expected {ref}")
    if expect.get("cross_check"):
        for row in s["cross_check"]:
            r.require(row["relative_difference"] < 1e-3,
                      f"SCF and shooting differ by {row['relative_difference']}")


def _sn_evolve(expect: dict, s: dict, r: Result) -> None:
    r.require(s["norm_drift"] < 1e-8, f"norm drift {s['norm_drift']}")
    if expect.get("compare_free"):
        r.require(s["final_free_width_m"] > s["initial_width_m"], "free packet did not spread")


def _hydrogen_shift(expect: dict, s: dict, r: Result) -> None:
    r.require(_close(s["e0_eV"], HYDROGEN_E0_EV, 1e-3), f"E0 {s['e0_eV']} eV")
    terms = {t["label"]: t for t in s["self_terms"]}
    ratio = terms["electrostatic"]["ratio_to_coulomb"]
    r.require(_close(ratio, ELECTROSTATIC_RATIO, 1e-2), f"electrostatic ratio {ratio}")


def _collapse_sim(expect: dict, s: dict, r: Result) -> None:
    ledger = s["energy_ledger"]
    r.require(s["ensemble"]["n_trajectories"] == expect["n"], "trajectory count")
    r.require(abs(ledger["residual_J"] - ledger["expected_residual_J"])
              <= 3.0 * ledger["standard_error_J"],
              f"ledger residual {ledger['residual_J']} outside 3 sigma of "
              f"{ledger['expected_residual_J']}")


CHECKS = {
    "feynman-scale": _feynman_scale,
    "selfenergy": _selfenergy,
    "e-delta": _e_delta,
    "collapse-time": _collapse_time,
    "lifetime-sweep": _lifetime_sweep,
    "sn-ground": _sn_states,
    "sn-spectrum": _sn_states,
    "sn-evolve": _sn_evolve,
    "hydrogen-shift": _hydrogen_shift,
    "collapse-sim": _collapse_sim,
}
