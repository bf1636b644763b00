"""Command-line front end: run manifests, dispatch, persistence, exit codes.

Every subcommand runs from a RunManifest; command-line flags are merged over
the manifest file, the merged manifest is persisted next to the outputs, and
re-running a persisted manifest reproduces identical content hashes (the
output directory itself is environment, so it is excluded from the canonical
form).  Exit codes: 0 success, 1 computational error, 2 validation/usage.

Each command is declared once, in COMMANDS: its handler and a table of Param
rows.  The table builds the command's flags, merges them over the manifest
file, and checks, converts and routes every parameter before anything is
written.  Handlers only compute; run() writes what they return.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from . import __version__, np
from .errors import FloatRangeError, GravlabError, GridError, ManifestError, OutputError
from .massdist import (
    DEFAULT_REL_TOL,
    MassDistribution,
    SuperpositionSpec,
    e_delta,
    e_delta_mc,
    radial_profile_from_csv,
    self_energy,
    self_energy_mc,
    shape_from_dict,
)
from .collapsesim import CollapseModel, check_rate, check_weights, energy_ledger, simulate
from .dpcriterion import collapse_time, feynman_mass_scale, lifetime_sweep
from .persistence import format_number, sha256_file, write_csv, write_json, write_plot_script
from .quantities import CODATA2018, ENERGY_SCALES, PhysicalConstants, kernel_length
from .snsolver import (
    KernelTerm,
    RadialGrid,
    WaveState,
    electrostatic_kernel,
    evolve,
    free_gaussian_width_squared,
    gravitational_kernel,
    hydrogen_diagnostic,
    load_state_csv,
    stationary_states,
    suggested_dt,
    validate_grid_resolution,
    validate_tail,
)
from .snsolver.evolution import STEP_FRACTION
from .snsolver.state import POINTS_PER_LENGTH
from .snsolver.stationary import DEFAULT_TOL

OUTPUT_DIR_ENV = "GRAVLAB_OUTPUT_DIR"
REQUIRED = object()   # the default of a parameter that must be given
COMPARISONS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


# ---------------------------------------------------------------------------
# Parameter tables: declaration, validation, flags
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """One settable value: its dotted path in the manifest, its kind (float, int, bool, str,
    list, dict, or a function (value, field) -> value that checks and converts a compound
    value), its default (a None default makes it optional), its check (a tuple of choices,
    bounds such as "> 0" or ">= 1, <= 1e8" that keep an array size allocatable, or a library
    function that raises ValueError) and its flags.  A flag is a name that sets the value as
    given, or a (name, argparse type or choices, help) triple whose values
    from_flags(target, *values) turns into the value to store in ``target`` (None: keep).
    A row with ``when = (path, values)`` is read only while the earlier row at ``path``
    holds one of ``values``; elsewhere its value is None.
    """

    path: str
    kind: Any
    default: Any = REQUIRED
    check: tuple | str | Callable | None = None
    flags: tuple = ()
    help: str = ""
    from_flags: Callable | None = None
    when: tuple | None = None

    def route(self) -> str:
        return f"{self.when[0]} is " + " or ".join(json.dumps(v).strip('"') for v in self.when[1])


def _typed(value, kind, field: str):
    """``value`` as ``kind``, strictly: a bool is not a number, a number must
    be finite and a non-integral float is not an int."""
    if kind is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ManifestError("must be an integer", field=field)
        return value
    if kind is float:
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise ManifestError("must be a finite number", field=field)
        return float(value)
    names = {bool: "true or false", str: "a string", list: "a list", dict: "an object"}
    if not isinstance(value, kind):
        raise ManifestError(f"must be {names[kind]}", field=field)
    return kind(value) if kind in (list, dict) else value


def _checked(row: Param, value, field: str):
    if value is None and row.default is None:
        return None
    if value is REQUIRED:
        route = f"; read when {row.route()}" if row.when else ""
        raise ManifestError("missing required parameter" + route, field=field)
    if row.kind in (float, int, bool, str, list, dict):
        value = _typed(value, row.kind, field)
    else:
        value = row.kind(value, field)
    if isinstance(row.check, tuple):
        if value not in row.check:
            raise ManifestError(f"must be one of {', '.join(row.check)}", field=field)
    elif callable(row.check):
        try:
            row.check(value)
        except ValueError as exc:
            raise ManifestError(str(exc), field=field) from exc
    elif row.check:
        for clause in row.check.split(", "):
            op, bound = clause.split()
            # an integral bound is compared exactly: float("9223372036854775807") is 2**63
            if not COMPARISONS[op](value, int(bound) if bound.isdigit() else float(bound)):
                raise ManifestError(f"must be {row.check}", field=field)
    return value


def _reject_unknown(payload: dict, paths: set[str], prefix: str, at: str = "") -> None:
    for key, value in payload.items():
        path = at + key
        if path in paths:
            continue
        if not any(p.startswith(path + ".") for p in paths):
            raise ManifestError("unknown key", field=prefix + path)
        if not isinstance(value, dict):
            raise ManifestError("must be an object", field=prefix + path)
        _reject_unknown(value, paths, prefix, path + ".")


def _get(payload: dict, path: str, default=None):
    """The value at the dotted ``path`` of ``payload``, or ``default``."""
    *groups, name = path.split(".")
    for key in groups:
        payload = payload.get(key, {})
    return payload.get(name, default)


def _validated(rows, payload: dict, prefix: str) -> dict:
    """Every row's value in ``payload``, checked and converted, keyed by path;
    defaults fill what is absent.  An undeclared or unread key is an error."""
    _reject_unknown(payload, {row.path for row in rows}, prefix)
    values: dict[str, Any] = {}
    for row in rows:
        field, unread = prefix + row.path, row.when and values[row.when[0]] not in row.when[1]
        if unread and _get(payload, row.path) is not None:
            raise ManifestError(f"not read unless {row.route()}", field=field)
        values[row.path] = None if unread else _checked(
            row, _get(payload, row.path, row.default), field)
    return values


def _add_flags(parser: argparse.ArgumentParser, rows, prefix: str) -> None:
    for row in rows:
        notes = [prefix + row.path,
                 "required" if row.default is REQUIRED else f"default {json.dumps(row.default)}"]
        if row.when:
            notes.append(f"read when {row.route()}")
        if isinstance(row.check, str):
            notes.append(row.check)
        for flag in row.flags:
            choices_or_kind = row.check if isinstance(row.check, tuple) else row.kind
            name, kind, text = (flag, choices_or_kind, row.help) if isinstance(flag, str) else flag
            if kind is bool:
                how = {"action": argparse.BooleanOptionalAction}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            parser.add_argument(name, default=None, help=f"{text} [{'; '.join(notes)}]", **how)


def _merge_flags(rows, args: argparse.Namespace, target: dict, prefix: str) -> None:
    """Store in ``target`` the value of every row whose flags were given."""
    for row in rows:
        names = [flag if isinstance(flag, str) else flag[0] for flag in row.flags]
        given = [getattr(args, name.lstrip("-").replace("-", "_")) for name in names]
        if all(v is None for v in given):
            continue
        value = given[0] if row.from_flags is None else row.from_flags(target, *given)
        if value is None:
            continue
        *groups, name = row.path.split(".")
        node = target
        for key in groups:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ManifestError("must be an object", field=prefix + key)
        node[name] = value


def _numbers(value, field: str, count: int | None = None) -> list[float]:
    items = _typed(value, list, field)
    if not items or count is not None and len(items) != count:
        raise ManifestError(f"must be a list of {count or 'one or more'} numbers", field=field)
    return [_typed(v, float, f"{field}[{i}]") for i, v in enumerate(items)]


def _pair(value, field: str) -> tuple[float, float]:
    return tuple(_numbers(value, field, 2))


def _shape(value, field: str) -> MassDistribution:
    params = _typed(value, dict, field)
    for key in ("mass_kg", "radius_m", "width_m", "smearing_length_m"):
        if params.get(key) is not None:
            _typed(params[key], float, f"{field}.{key}")
    if "center_m" in params:
        _numbers(params["center_m"], f"{field}.center_m", 3)
    try:
        if params.get("kind") == "radial_profile" and "csv" in params:
            shape = radial_profile_from_csv(params["csv"],
                                            center=params.get("center_m", (0.0, 0.0, 0.0)),
                                            mass=params.get("mass_kg"))
        else:
            shape = shape_from_dict(params)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ManifestError(f"bad shape definition: {exc}", field=field) from exc
    unknown = sorted(set(params) - set(shape.to_dict()) - {"csv"})
    if unknown:
        raise ManifestError("unknown shape key", field=f"{field}.{unknown[0]}")
    return shape


def _couplings(value, field: str) -> list[Callable]:
    """Kernel couplings, each as a function (mass, constants) -> KernelTerm."""
    makers: list[Callable] = []
    for i, entry in enumerate(_typed(value, list, field)):
        where = f"{field}[{i}]"
        if entry == "gravity":
            makers.append(gravitational_kernel)
        elif entry == "electrostatic":
            makers.append(lambda mass, constants: electrostatic_kernel(constants))
        elif isinstance(entry, dict) and "strength_J_m" in entry:
            if set(entry) - {"strength_J_m", "label"}:
                raise ManifestError("unknown coupling key", field=where)
            term = KernelTerm(_typed(entry["strength_J_m"], float, f"{where}.strength_J_m"),
                              _typed(entry.get("label", "custom"), str, f"{where}.label"))
            makers.append(lambda mass, constants, term=term: term)
        else:
            raise ManifestError(f"unrecognized coupling {entry!r}", field=where)
    return makers


def _shape_from_flags(params, kind, mass, radius, width, smearing_length, profile_csv):
    if profile_csv is not None:
        payload = {"kind": "radial_profile", "csv": profile_csv, "mass_kg": mass}
    elif kind is not None:
        payload = {"kind": kind.replace("-", "_"), "mass_kg": mass, "radius_m": radius,
                   "width_m": width, "smearing_length_m": smearing_length}
    else:
        return None
    return {key: value for key, value in payload.items() if value is not None}


def _displaced(payload: dict, d: float) -> dict:
    """A copy of the shape dict ``payload`` moved by ``d`` along x."""
    cx, cy, cz = payload.get("center_m", (0.0, 0.0, 0.0))
    return {**payload, "center_m": [cx + d, cy, cz]}


def _separated(params, separation):
    try:
        return _displaced(params["shape_a"], separation)
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise ManifestError("--separation needs a base shape", field="parameters.shape_a") from exc


def float_list(text: str) -> list[float]:
    """The argparse type of --values; argparse names it when a value is not a float."""
    return [float(v) for v in text.split(",") if v.strip()]


NO_ENERGIES = [0.0, 0.0]


def _energies_from_flags(params, energy_a, energy_b):
    a, b = _pair(params.get("branch_energies_J", NO_ENERGIES), "parameters.branch_energies_J")
    return [a if energy_a is None else energy_a, b if energy_b is None else energy_b]


# ---------------------------------------------------------------------------
# Run manifest and result bundle
# ---------------------------------------------------------------------------


MANIFEST_FIELDS = (
    Param("output_dir", str, None, flags=("--output-dir",)),
    # the Philox key takes an int64: from 2**63 on, seeds alias or overflow
    Param("seed", int, 0, ">= 0, <= 9223372036854775807", flags=("--seed",)),
    Param("parameters", dict, {}),
    Param("constant_overrides", dict, {}),
)


@dataclass
class RunManifest:
    """A command and its settings; MANIFEST_FIELDS declares the settings."""

    command: str
    parameters: dict
    constant_overrides: dict
    output_dir: str | None
    seed: int

    def canonical_dict(self) -> dict:
        # output_dir is where results land, not what they are; keep it out of
        # the canonical form so reruns into fresh directories hash identically
        return {key: value for key, value in vars(self).items() if key != "output_dir"}

    @staticmethod
    def from_dict(payload: dict) -> "RunManifest":
        if not isinstance(payload, dict):
            raise ManifestError("manifest must be a JSON object")
        command = payload.get("command")
        if not isinstance(command, str) or command not in COMMANDS:
            raise ManifestError(f"unknown command {command!r}", field="command")
        fields = {key: value for key, value in payload.items() if key != "command"}
        return RunManifest(command=command, **_validated(MANIFEST_FIELDS, fields, ""))


@dataclass
class ResultBundle:
    manifest: RunManifest
    files: list[dict]          # [{"name", "sha256"}]
    summary: dict
    summary_text: str
    tool_version: str = __version__
    error: dict | None = None

    def to_dict(self) -> dict:
        return {**vars(self), "manifest": self.manifest.canonical_dict()}


class Table(NamedTuple):
    """A CSV output and the gnuplot script that plots it, both named ``stem``."""

    stem: str
    header: list[str]
    rows: Iterable
    curves: list[tuple[int, int, str]]   # (x column, y column, title), 1-based
    xlabel: str
    ylabel: str
    logy: bool = False


# ---------------------------------------------------------------------------
# Command handlers: each takes the validated parameters, computes and returns
# (summary, summary lines, Table or None); run() writes the outputs
# ---------------------------------------------------------------------------


def _superposition(p: dict) -> SuperpositionSpec:
    try:
        return SuperpositionSpec(p["shape_a"], p["shape_b"])
    except ValueError as exc:
        raise ManifestError(str(exc), field="parameters.shape_b") from exc


def _cmd_selfenergy(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    shape = p["shape"]
    value = self_energy(shape, constants, method=p["method"], rel_tol=p["tolerance"])
    summary = {"self_energy_J": value, "shape": shape.to_dict(), "method": p["method"]}
    if p["monte_carlo"]:
        summary["monte_carlo_J"], summary["monte_carlo_stderr_J"] = self_energy_mc(
            shape, p["mc_samples"], manifest.seed, constants)
    return summary, [f"self energy: {format_number(value)} J"], None


def _cmd_e_delta(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    spec = _superposition(p)
    value = e_delta(spec, constants, method=p["method"], rel_tol=p["tolerance"])
    summary = {"e_delta_J": value, "superposition": spec.to_dict(),
               "inputs_digest": spec.content_digest()}
    if p["monte_carlo"]:
        summary["monte_carlo_J"], summary["monte_carlo_stderr_J"] = e_delta_mc(
            spec, p["mc_samples"], manifest.seed, constants)
    return summary, [f"E_delta: {format_number(value)} J"], None


def _cmd_collapse_time(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    estimate = collapse_time(_superposition(p), p["prefactor"], constants,
                             rel_tol=p["tolerance"])
    line = ("collapse time: infinite (identical branches)" if estimate.infinite
            else f"collapse time: {format_number(estimate.collapse_time)} s "
                 f"(E_delta = {format_number(estimate.e_delta)} J)")
    return estimate.to_dict(), [line], None


def _cmd_feynman_scale(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    kg = feynman_mass_scale(constants)
    summary = {
        "mass_kg": kg,
        "mass_g": kg * 1000.0,
        "gm2_over_hbar_c": constants.G * kg**2 / (constants.hbar * constants.c),
    }
    return summary, [f"threshold mass: {format_number(kg * 1000.0)} g"], None


def _cmd_lifetime_sweep(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    base, kind, separation = p["shape"], p["sweep.kind"], p["sweep.separation_m"]

    def rescaled_mass(shape: MassDistribution, lam: float) -> MassDistribution:
        payload = shape.to_dict()
        payload["mass_kg"] = payload["mass_kg"] * lam
        if payload["kind"] == "radial_profile":
            payload["rho_kg_m3"] = [lam * v for v in payload["rho_kg_m3"]]
        return shape_from_dict(payload)

    family = []
    try:
        for value in p["sweep.values"]:
            a, d = (base, value) if separation is None else (rescaled_mass(base, value), separation)
            b = shape_from_dict(_displaced(a.to_dict(), d))
            family.append((value, SuperpositionSpec(a, b)))
    except ValueError as exc:
        raise ManifestError(str(exc), field="parameters.sweep.values") from exc

    rows = lifetime_sweep(family, p["prefactor"], constants, rel_tol=p["tolerance"])
    summary = {
        "n_rows": len(rows),
        "kind": kind,
        "errors": sum(1 for r in rows if r.error is not None),
        "rows": [r.to_dict() for r in rows],
    }
    # errored rows keep their slot with empty cells; messages live in the JSON
    table = Table("lifetime_sweep", ["parameter", "E_delta_J", "T_s"],
                  [(r.parameter, r.e_delta, r.collapse_time) for r in rows],
                  [(1, 3, "collapse time")], "parameter", "T (s)", logy=True)
    return summary, [f"sweep over {kind}: {len(rows)} rows ({summary['errors']} errored)"], table


def _sn_grid(p: dict, mass: float, couplings: list[KernelTerm],
             constants: PhysicalConstants) -> tuple[RadialGrid, float]:
    """The grid, and its length unit in metres: the kernel length on a natural
    grid, 1 on an SI one."""
    unit = 1.0
    if p["grid.units"] == "natural":
        kappa = sum(t.strength for t in couplings)
        if kappa == 0.0:
            raise ManifestError("natural grid units need a nonzero coupling",
                                field="parameters.grid.units")
        unit = kernel_length(mass, kappa, constants)
    return RadialGrid.uniform(p["grid.r_max"] * unit, p["grid.points"]), unit


def _cmd_sn_states(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    mass = p["mass_kg"]
    couplings = [make(mass, constants) for make in p["couplings"]]
    if sum(t.strength for t in couplings) >= 0.0:
        raise ManifestError("a zero or repulsive net coupling binds no state",
                            field="parameters.couplings")
    grid, _ = _sn_grid(p, mass, couplings, constants)
    methods = ("scf", "shooting") if p["method"] == "both" else (p["method"],)
    results = {m: stationary_states(mass, couplings, p.get("n_states", 1), grid=grid, method=m,
                                    constants=constants, tol=p["tolerance"]) for m in methods}
    primary = results[methods[0]]
    scale = ENERGY_SCALES[p["scale_system"]](mass, constants)

    summary: dict[str, Any] = {
        "mass_kg": mass,
        "grid": {"r_max_m": grid.r_max, "points": grid.n},
        "states": [
            {
                "node_count": s.node_count,
                "eigenvalue": {"J": s.eigenvalue, "scaled": s.eigenvalue / scale,
                               "scale_system": p["scale_system"].upper()},
                "residual": s.residual,
                "iterations": s.iterations,
                "full_eigensolves": s.full_eigensolves,
                "discretization_error": s.discretization_error,
                "method": s.method,
            }
            for s in primary
        ],
    }
    if len(methods) == 2:
        summary["cross_check"] = [
            {"node_count": s1.node_count, "scf_J": s1.eigenvalue, "shooting_J": s2.eigenvalue,
             "shooting_discretization_error_J": s2.discretization_error,
             "relative_difference": abs(s1.eigenvalue - s2.eigenvalue) / abs(s1.eigenvalue)}
            for s1, s2 in zip(results["scf"], results["shooting"])
        ]
    table = Table(f"{manifest.command.replace('-', '_')}_profiles",
                  ["r_m"] + [f"psi_{s.node_count}" for s in primary],
                  zip(grid.r, *(np.real(s.state.psi) for s in primary)),
                  [(1, 2 + i, f"{s.node_count} nodes") for i, s in enumerate(primary)],
                  "r (m)", "psi")
    lines = [
        f"state {s.node_count} nodes: {format_number(s.eigenvalue)} J "
        f"({format_number(s.eigenvalue / scale)} {p['scale_system']})"
        for s in primary
    ]
    return summary, lines, table


def _cmd_sn_evolve(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    mass, n_steps = p["mass_kg"], p["n_steps"]
    couplings = [make(mass, constants) for make in p["couplings"]]
    kappa = sum(t.strength for t in couplings)
    record_every = max(1, n_steps // 200)
    if p["initial_state_csv"] is not None:
        try:
            state = load_state_csv(p["initial_state_csv"], mass)
        except (OSError, ValueError) as exc:
            raise ManifestError(str(exc), field="parameters.initial_state_csv") from exc
        grid, sigma0 = state.grid, None
    else:
        grid, unit = _sn_grid(p, mass, couplings, constants)
        sigma0 = p["sigma0"] * unit
    # the grid contract: the kernel and a Gaussian packet resolved, the wall in the tail
    validate_grid_resolution(grid, mass, couplings, constants)
    if sigma0 is not None:
        if grid.spacing > sigma0 / POINTS_PER_LENGTH:
            raise GridError(f"grid spacing {grid.spacing:.3e} m does not resolve sigma0 "
                            f"{sigma0:.3e} m (need >= {POINTS_PER_LENGTH} points per sigma0)")
        state = WaveState.gaussian_packet(grid, sigma0, mass)
    validate_tail(state.psi)
    dt = STEP_FRACTION * suggested_dt(state, kappa, constants)

    result = evolve(state, dt, n_steps, kappa=kappa, constants=constants,
                    record_every=record_every)
    # a packet that reaches the wall during the run has widths that belong to the box
    validate_tail(result.final_u / grid.r)
    header = ["t_s", "norm", "energy_J", "width_m"]
    columns = [result.times, result.norm, result.energy, result.width]
    curves = [(1, 4, "width")]
    summary = {
        "mass_kg": mass,
        "sigma0_m": sigma0,
        "dt_s": dt,
        "n_steps": n_steps,
        "norm_drift": abs(float(result.norm[-1] - result.norm[0])),
        "energy_relative_drift": abs(float(result.energy[-1] / result.energy[0] - 1.0))
        if result.energy[0] != 0.0 else 0.0,
        "final_width_m": float(result.width[-1]),
        "initial_width_m": float(result.width[0]),
        # the free packet's exact width at the last step; a loaded state has none
        "closed_form_free_width_m": None if sigma0 is None else math.sqrt(
            3.0 * free_gaussian_width_squared(sigma0, mass, float(result.times[-1]), constants)),
    }
    if p["compare_free"]:
        # the same initial state, evolved without the kernel
        free = evolve(state, dt, n_steps, kappa=0.0, constants=constants,
                      record_every=record_every)
        validate_tail(free.final_u / grid.r)
        header.append("free_width_m")
        columns.append(free.width)
        curves.append((1, 5, "free width"))
        summary["final_free_width_m"] = float(free.width[-1])
        summary["inhibited"] = bool(free.width[-1] > result.width[-1])
    table = Table("sn_evolve", header, zip(*columns), curves, "t (s)", "width (m)")
    return summary, [
        f"evolved {n_steps} steps of {format_number(dt)} s; "
        f"width {format_number(summary['initial_width_m'])} -> "
        f"{format_number(summary['final_width_m'])} m"
    ], table


def _cmd_hydrogen_shift(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    report = hydrogen_diagnostic(
        include_electrostatic_self=p["electrostatic"],
        include_gravitational_self=p["gravitational"],
        r_max_bohr=p["r_max_bohr"],
        n_points=p["points"],
        constants=constants,
        scf_tol=p["tolerance"],
    )
    lines = [f"ground state without self-terms: {report.e0_ev:.4f} eV"] + [
        f"{term.label}: first-order {format_number(term.first_order_ev)} eV "
        f"(ratio to Coulomb {format_number(term.ratio_to_coulomb)})"
        for term in report.terms
    ]
    return report.to_dict(), lines, None


def _cmd_collapse_sim(p: dict, manifest: RunManifest, constants: PhysicalConstants):
    n, energies, interference = p["n"], p["branch_energies_J"], p["interference_energy_J"]
    rate, weights = p["rate_per_s"], p["weights"]
    if rate is not None:
        model = CollapseModel(rate=rate, outcome_weights=weights,
                              branch_energies=energies, interference_energy=interference)
    else:
        spec = _superposition(p)
        try:
            model = CollapseModel.from_superposition(spec, energies, interference, p["prefactor"],
                                                     constants, p["tolerance"], weights)
        except ValueError as exc:
            # E_delta / (prefactor hbar) is out of the rate's range
            raise ManifestError(str(exc), field="parameters.prefactor") from exc

    ensemble = simulate(model, n, manifest.seed)
    ledger = energy_ledger(ensemble, model)
    summary = {
        "model": {
            "rate_per_s": model.rate,
            "outcome_weights": list(model.outcome_weights),
            "branch_energies_J": list(model.branch_energies),
            "interference_energy_J": model.interference_energy,
        },
        "ensemble": ensemble.to_dict(),
        "energy_ledger": ledger.to_dict(),
    }
    if ensemble.infinite_lifetime:
        return summary, [f"{n} trajectories, rate 0: InfiniteLifetime, no collapse events"], None
    s = ensemble.summary
    theory = np.exp(-model.rate * s.survival_times)
    table = Table("survival", ["t_s", "survival_fraction", "expected_exp"],
                  zip(s.survival_times, s.survival_fractions, theory),
                  [(1, 2, "empirical"), (1, 3, "exp(-rate t)")],
                  "t (s)", "surviving fraction", logy=True)
    return summary, [
        f"{n} trajectories, rate {format_number(model.rate)} 1/s; "
        f"outcome frequencies {s.outcome_frequencies[0]:.4f}/{s.outcome_frequencies[1]:.4f}",
        f"energy residual {format_number(ledger.residual)} J "
        f"(expected {format_number(ledger.expected_residual)} J)",
    ], table


# ---------------------------------------------------------------------------
# Commands: one declaration each
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    handler: Callable
    help: str
    params: tuple[Param, ...] = ()


QUADRATURE_TOL = Param("tolerance", float, DEFAULT_REL_TOL, "> 0", flags=("--tolerance",),
                       help="relative quadrature tolerance")
# the SCF defect rounds at about 1e-13 to 5e-13, so a tighter residual never converges
SCF_TOL = Param("tolerance", float, DEFAULT_TOL, ">= 1e-12", flags=("--tolerance",),
                help="SCF residual tolerance")
SCALE = Param("scale_system", str, "si", tuple(ENERGY_SCALES), flags=("--scale",),
              help="energy scale of the reported eigenvalues")

SHAPE = Param("shape", _shape, flags=(
    ("--shape", ("uniform-sphere", "spherical-shell", "gaussian", "point-mass"), ""),
    ("--mass", float, "kg"), ("--radius", float, "m"), ("--width", float, "gaussian sigma, m"),
    ("--smearing-length", float, "m"), ("--profile-csv", str, "two-column r,rho CSV"),
), from_flags=_shape_from_flags)
ENERGY_METHOD = Param("method", str, "auto", ("auto", "quadrature"))
MONTE_CARLO = (Param("monte_carlo", bool, False, flags=("--monte-carlo",)),
               Param("mc_samples", int, 200_000, ">= 20, <= 1e8", flags=("--mc-samples",),
                     when=("monte_carlo", (True,))))
BRANCHES = (SHAPE._replace(path="shape_a"),
            Param("shape_b", _shape, from_flags=_separated, flags=(
                ("--separation", float, "m; branch b is branch a displaced by this distance"),)))
PREFACTOR = Param("prefactor", float, 1.0, "> 0", flags=("--prefactor",))
SN_MASS = Param("mass_kg", float, check="> 0", flags=("--mass",), help="kg")
COUPLINGS = Param("couplings", _couplings, ["gravity"])
GRID = (Param("grid.r_max", float, 60.0, "> 0", flags=("--r-max",),
              help="domain size, in kernel natural lengths unless grid.units is si"),
        Param("grid.points", int, 2400, ">= 8, <= 1e7", flags=("--points",)),
        Param("grid.units", str, "natural", ("natural", "si")))
SN_METHOD = (Param("method", str, "scf", ("scf", "shooting", "both"), flags=("--method",)),
             SCF_TOL._replace(when=("method", ("scf", "both"))))

COMMANDS: dict[str, Command] = {
    "selfenergy": Command(
        _cmd_selfenergy, "gravitational self energy of one distribution",
        (SHAPE, ENERGY_METHOD._replace(flags=("--method",)), *MONTE_CARLO, QUADRATURE_TOL)),
    "e-delta": Command(
        _cmd_e_delta, "self energy of the branch difference",
        (*BRANCHES, ENERGY_METHOD, *MONTE_CARLO, QUADRATURE_TOL)),
    "collapse-time": Command(
        _cmd_collapse_time, "lifetime T = prefactor hbar / E_delta",
        (*BRANCHES, PREFACTOR, QUADRATURE_TOL)),
    "feynman-scale": Command(_cmd_feynman_scale, "mass where G M^2/(hbar c) = 1"),
    "lifetime-sweep": Command(_cmd_lifetime_sweep, "criterion over a parameter family", (
        SHAPE,
        Param("sweep.kind", str, check=("separation", "mass-scale"), flags=("--sweep-kind",)),
        Param("sweep.values", _numbers,
              flags=(("--values", float_list, "comma-separated parameter values"),)),
        Param("sweep.separation_m", float, REQUIRED, "> 0", flags=("--separation",),
              help="m; fixed separation", when=("sweep.kind", ("mass-scale",))),
        PREFACTOR,
        QUADRATURE_TOL,
    )),
    "sn-ground": Command(
        _cmd_sn_states, "self-gravitating ground state",
        (SN_MASS, COUPLINGS, *GRID, *SN_METHOD, SCALE)),
    "sn-spectrum": Command(
        _cmd_sn_states, "first n stationary states",
        (SN_MASS, COUPLINGS, *GRID, Param("n_states", int, 3, ">= 1", flags=("--n-states",)),
         *SN_METHOD, SCALE)),
    "sn-evolve": Command(_cmd_sn_evolve, "evolve a Gaussian packet", (
        SN_MASS, COUPLINGS,
        Param("n_steps", int, 1000, ">= 1, <= 1e7", flags=("--n-steps",)),
        Param("initial_state_csv", str, None),
        Param("sigma0", float, 2.0, "> 0", flags=("--sigma0",), when=("initial_state_csv", (None,)),
              help="initial width, in kernel natural lengths unless grid.units is si"),
        *(row._replace(when=("initial_state_csv", (None,))) for row in GRID),
        Param("compare_free", bool, False, flags=("--compare-free",)),
    )),
    "hydrogen-shift": Command(_cmd_hydrogen_shift, "hydrogen self-interaction diagnostic", (
        Param("electrostatic", bool, True, flags=("--electrostatic",)),
        Param("gravitational", bool, True, flags=("--gravitational",)),
        Param("r_max_bohr", float, 40.0, "> 0", flags=("--r-max-bohr",)),
        Param("points", int, 2000, ">= 8, <= 1e7", flags=("--points",)),
        SCF_TOL,
    )),
    "collapse-sim": Command(_cmd_collapse_sim, "stochastic collapse trajectories", (
        Param("n", int, 100_000, ">= 1, <= 1e8", flags=("--n",)),
        Param("rate_per_s", float, None, check_rate, flags=("--rate",), help="1/s"),
        Param("weights", _pair, [0.5, 0.5], check_weights,
              from_flags=lambda params, wa: [wa, 1.0 - wa],
              flags=(("--weight-a", float, "outcome weight of branch a"),)),
        Param("branch_energies_J", _pair, NO_ENERGIES, from_flags=_energies_from_flags,
              flags=(("--energy-a", float, "J"), ("--energy-b", float, "J"))),
        Param("interference_energy_J", float, 0.0, flags=("--interference",), help="J"),
        *(row._replace(flags=(), when=("rate_per_s", (None,))) for row in BRANCHES),
        *(row._replace(when=("rate_per_s", (None,))) for row in (PREFACTOR, QUADRATURE_TOL)),
    )),
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _resolve_output_dir(manifest: RunManifest) -> Path:
    if manifest.output_dir:
        return Path(manifest.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env) / manifest.command
    return Path.cwd() / "gravlab-runs" / manifest.command


def _check_output_dir(outdir: Path) -> None:
    """Refuse, before any compute and creating nothing, a target that is not
    a directory or whose nearest existing ancestor is not one."""
    probe = outdir
    while not probe.exists() and probe != probe.parent:
        probe = probe.parent
    if not probe.is_dir():
        raise ManifestError(f"{probe} is not a directory", field="output_dir")


POSITIVE = Param("", float, check="> 0")


def _constants(manifest: RunManifest) -> PhysicalConstants:
    values = {key: _checked(POSITIVE, value, f"constant_overrides.{key}")
              for key, value in manifest.constant_overrides.items()}
    try:
        return CODATA2018.with_overrides(**values)
    except ValueError as exc:
        raise ManifestError(str(exc), field="constant_overrides") from exc


def run(manifest: RunManifest) -> ResultBundle:
    """Validate, dispatch, persist.  Computational failures are recorded in
    the bundle (callers map them to exit status 1); validation failures raise
    ManifestError before anything is written, and a failed write OutputError."""
    command = COMMANDS.get(manifest.command)
    if command is None:
        raise ManifestError(f"unknown command {manifest.command!r}", field="command")
    p = _validated(command.params, manifest.parameters, "parameters.")
    constants = _constants(manifest)
    outdir = _resolve_output_dir(manifest)
    _check_output_dir(outdir)

    try:
        summary, lines, table = command.handler(p, manifest, constants)
        error = None
    except ManifestError:
        raise
    except (GravlabError, ArithmeticError) as exc:
        if not isinstance(exc, GravlabError):
            # overflow or division by zero on an extreme but valid input
            exc = FloatRangeError(f"{type(exc).__name__}: {exc}")
        error = {"type": type(exc).__name__, "message": str(exc)}
        summary, lines, table = {}, [f"error: {error['type']}: {error['message']}"], None

    try:
        produced = [write_json(outdir / "manifest.json", manifest.canonical_dict())]
        if error is None:
            name = manifest.command.replace("-", "_")
            produced.append(write_json(outdir / f"{name}.json", summary))
        if table is not None:
            data = write_csv(outdir / f"{table.stem}.csv", table.header, table.rows)
            produced += [data, write_plot_script(outdir / f"{table.stem}.gnuplot", data.name,
                                                 table.curves, table.xlabel, table.ylabel,
                                                 table.logy)]
        bundle = ResultBundle(
            manifest=manifest,
            files=[{"name": path.name, "sha256": sha256_file(path)} for path in produced],
            summary=summary,
            summary_text="\n".join(lines),
            error=error,
        )
        write_json(outdir / "result_bundle.json", bundle.to_dict())
    except OSError as exc:
        raise OutputError(f"cannot write the outputs in {outdir}: {exc}") from exc
    return bundle


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravlab",
        description="Numerical laboratory for gravitational self-energy, collapse-time "
                    "estimates, self-coupled wave mechanics, and collapse statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--manifest", metavar="JSON", default=None,
                       help="run-manifest file; explicit flags override its values")
        _add_flags(p, MANIFEST_FIELDS, "")
        _add_flags(p, command.params, "parameters.")
    return parser


def _merge_manifest(args: argparse.Namespace) -> RunManifest:
    payload: dict[str, Any] = {"command": args.command}
    if args.manifest:
        try:
            payload = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ManifestError(f"cannot read manifest: {exc}", field="manifest") from exc
        except ValueError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}", field="manifest") from exc
        if not isinstance(payload, dict):
            raise ManifestError("manifest must be a JSON object", field="manifest")
        if payload.get("command") not in (None, args.command):
            raise ManifestError(f"manifest is for {payload['command']!r}, not {args.command!r}",
                                field="command")
        payload["command"] = args.command
    _merge_flags(MANIFEST_FIELDS, args, payload, "")
    manifest = RunManifest.from_dict(payload)
    _merge_flags(COMMANDS[args.command].params, args, manifest.parameters, "parameters.")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = _merge_manifest(args)
        bundle = run(manifest)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(bundle.summary_text)
    print(f"outputs: {_resolve_output_dir(manifest)}")
    return 1 if bundle.error else 0


if __name__ == "__main__":
    sys.exit(main())
