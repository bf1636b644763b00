"""Workload generator: the operations of one pass, drawn from a seed.

The seed sets every RNG seed handed to gravlab and draws the physical scales
(masses, radii, the Schrodinger-Newton mass, the collapse rate and energies):
each is its README value times 2**k, k drawn from SCALE_EXPONENTS.  A power of
two rescales floating-point arithmetic exactly, so the dimensionless problem,
and with it the work, is bit-identical for every seed (the SCF iteration
count, for one, changes with any other rescaling), while a change that
special-cases the README's literal values still shows.  Separations drawn as
d/R change the quadrature work, as the workloads intend.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("readme", "scale-up")
# every gravlab subcommand, in README order; each workload runs all of them
COMMANDS = ("feynman-scale", "selfenergy", "e-delta", "collapse-time", "lifetime-sweep",
            "sn-ground", "sn-spectrum", "sn-evolve", "hydrogen-shift", "collapse-sim")

SCALE_EXPONENTS = (-2, -1, 0, 1, 2)
README_SN_MASS_KG = 1e-17

PROFILE_SAMPLES = 16


@dataclass(frozen=True)
class Op:
    """One gravlab CLI invocation and what its output checks need to know."""

    name: str                      # unique within a pass
    command: str                   # gravlab subcommand
    args: tuple[str, ...]          # flags after the subcommand, without --output-dir
    expect: dict = field(default_factory=dict)
    # set on a probe of a defect known at seed: why it fails and the ROADMAP
    # item that fixes it.  A probe runs once per run, after the passes.
    known_defect: str | None = None

    def argv(self) -> list[str]:
        return [self.command, *self.args]


def _scale(rng: random.Random) -> float:
    return 2.0 ** rng.choice(SCALE_EXPONENTS)


def _log_uniform(rng: random.Random, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _num(x: float) -> str:
    return repr(float(x))


def _values(xs) -> str:
    return ",".join(_num(x) for x in xs)


def _sphere(mass: float, radius: float) -> tuple[str, ...]:
    return ("--shape", "uniform-sphere", "--mass", _num(mass), "--radius", _num(radius))


def _collapse_sim(n: int, seed: int, rate: float, energy: float) -> Op:
    return Op("collapse-sim", "collapse-sim",
              ("--n", str(n), "--rate", _num(rate), "--energy-a", _num(energy),
               "--energy-b", _num(2.0 * energy), "--interference", _num(0.25 * energy),
               "--seed", str(seed)),
              {"n": n})


def _readme(rng: random.Random, seed: int) -> tuple[list[Op], dict[str, str]]:
    """The ten README CLI examples with their README arguments, rescaled."""
    m, length, rate, energy = _scale(rng), _scale(rng), _scale(rng), _scale(rng)
    sn_mass = README_SN_MASS_KG * _scale(rng)
    ball = {"mass": m, "radius": length}
    ops = [
        Op("feynman-scale", "feynman-scale", ()),
        Op("selfenergy", "selfenergy",
           ("--shape", "gaussian", "--mass", _num(m), "--width", _num(length),
            "--monte-carlo", "--seed", str(seed)),
           {"shape": "gaussian", "mass": m, "width": length}),
        Op("e-delta", "e-delta", (*_sphere(m, length), "--separation", _num(4.0 * length)),
           dict(ball, separation=4.0 * length)),
        Op("collapse-time", "collapse-time",
           (*_sphere(m, length), "--separation", _num(4.0 * length)),
           dict(ball, separation=4.0 * length)),
        Op("lifetime-sweep", "lifetime-sweep",
           (*_sphere(m, length), "--sweep-kind", "separation",
            "--values", _values(k * length for k in (2, 3, 4, 6, 10))),
           dict(ball, rows=5)),
        Op("sn-ground", "sn-ground",
           ("--mass", _num(sn_mass), "--method", "both", "--scale", "sn-natural"),
           {"mass": sn_mass, "states": 1, "cross_check": True}),
        Op("sn-spectrum", "sn-spectrum",
           ("--mass", _num(sn_mass), "--n-states", "3", "--r-max", "250", "--points", "8000"),
           {"mass": sn_mass, "states": 3}),
        Op("sn-evolve", "sn-evolve",
           ("--mass", _num(sn_mass), "--sigma0", "2", "--compare-free"), {"compare_free": True}),
        Op("hydrogen-shift", "hydrogen-shift", ("--electrostatic", "--gravitational")),
        _collapse_sim(100_000, seed, rate, energy),
    ]
    return ops, {}


def _uniform_profile_csv(mass: float, radius: float) -> str:
    """A constant-density radial profile: a uniform ball on the quadrature path."""
    rho = mass / (4.0 / 3.0 * math.pi * radius**3)
    rows = [f"{_num(radius * i / (PROFILE_SAMPLES - 1))},{_num(rho)}"
            for i in range(PROFILE_SAMPLES)]
    return "# r_m,rho_kg_m3\n" + "\n".join(rows) + "\n"


def _scale_up(rng: random.Random, seed: int,
              input_dir: Path) -> tuple[list[Op], dict[str, str]]:
    """The same layers past the import floor: quadrature E_delta, a finer,
    longer evolution and millions of collapse trajectories.  The solvers this
    workload is not about run at or below README size, to keep passes short."""
    m, length, rate, energy = _scale(rng), _scale(rng), _scale(rng), _scale(rng)
    sn_mass = README_SN_MASS_KG * _scale(rng)
    profile = str(input_dir / "uniform_profile.csv")
    sphere_manifest = str(input_dir / "small_d_sweep.json")
    ball = {"mass": m, "radius": length}
    quad = dict(ball, quadrature=True)
    prof = ("--profile-csv", profile, "--mass", _num(m))

    eta_mid = _log_uniform(rng, (0.3, 1.5))
    eta_near = _log_uniform(rng, (0.01, 0.1))
    sweep_eta = sorted(_log_uniform(rng, (1e-3, 10.0)) for _ in range(40))
    # d/R from 1e-12 to 1, one per decade, jittered within the decade
    small_eta = [10.0**(k + rng.uniform(0.0, 0.5)) for k in range(-12, 0)] + [1.0]

    manifest = {
        "command": "lifetime-sweep",
        "parameters": {
            "shape": {"kind": "uniform_sphere", "mass_kg": m, "radius_m": length},
            "sweep": {"kind": "separation", "values": [e * length for e in small_eta]},
        },
        "seed": seed,
    }
    files = {
        profile: _uniform_profile_csv(m, length),
        sphere_manifest: json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    }
    ops = [
        Op("feynman-scale", "feynman-scale", ()),
        Op("selfenergy", "selfenergy",
           ("--shape", "gaussian", "--mass", _num(m), "--width", _num(length),
            "--monte-carlo", "--seed", str(seed)),
           {"shape": "gaussian", "mass": m, "width": length}),
        Op("e-delta", "e-delta", (*prof, "--separation", _num(eta_mid * length)),
           dict(quad, separation=eta_mid * length)),
        Op("collapse-time", "collapse-time", (*prof, "--separation", _num(eta_near * length)),
           dict(quad, separation=eta_near * length)),
        Op("lifetime-sweep.profile", "lifetime-sweep",
           (*prof, "--sweep-kind", "separation", "--values", _values(e * length for e in sweep_eta)),
           dict(quad, rows=len(sweep_eta))),
        Op("lifetime-sweep.small-d", "lifetime-sweep", ("--manifest", sphere_manifest),
           dict(ball, rows=len(small_eta))),
        Op("sn-ground", "sn-ground",
           ("--mass", _num(sn_mass), "--method", "scf", "--r-max", "250", "--points", "8000",
            "--scale", "sn-natural"),
           {"mass": sn_mass, "states": 1}),
        Op("sn-spectrum", "sn-spectrum",
           ("--mass", _num(sn_mass), "--n-states", "2", "--r-max", "120", "--points", "4000"),
           {"mass": sn_mass, "states": 2}),
        Op("sn-evolve", "sn-evolve",
           ("--mass", _num(sn_mass), "--sigma0", "2", "--compare-free",
            "--points", "4800", "--n-steps", "800"),
           {"compare_free": True}),
        Op("hydrogen-shift", "hydrogen-shift",
           ("--electrostatic", "--gravitational", "--points", "6000")),
        _collapse_sim(2_000_000, seed, rate, energy),
        Op("e-delta.small-d", "e-delta", (*prof, "--separation", _num(1e-6 * length)),
           dict(quad, separation=1e-6 * length),
           known_defect="E_delta cancels catastrophically at d << R and the negative-roundoff "
                        "guard raises an uncaught ArithmeticError (ROADMAP item 1)"),
    ]
    return ops, files


def generate(workload: str, seed: int, input_dir: Path) -> tuple[list[Op], dict[str, str]]:
    """Ops of one pass, and the input files (path -> text) they read."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "readme":
        return _readme(rng, seed)
    return _scale_up(rng, seed, Path(input_dir))


def pass_order(ops: list[Op]) -> list[Op]:
    """The operations one pass runs, in order: all but the probes."""
    return [op for op in ops if op.known_defect is None]


def probes(ops: list[Op]) -> list[Op]:
    """The probes of defects known at seed."""
    return [op for op in ops if op.known_defect is not None]


def warm_up_op(ops: list[Op]) -> Op:
    """The set-up invocation: the pass's collapse simulation, whose bundle is
    the reference for the rerun-hash check."""
    return next(op for op in ops if op.command == "collapse-sim")
