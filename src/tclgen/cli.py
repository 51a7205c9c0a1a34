"""Command-line front end: scenario configs in, CSV artifacts out.

Subcommands
-----------
kernels         tabulate the dissipation and noise kernels
generator-dump  write generator coefficient matrices at selected times
cumulant-terms  print the symbolic ordered-cumulant term list
run             full scenario: kernels, generators, trajectory, diagnostics, report
scaling-study   error-vs-coupling slope fit against the purified truncated oracle
                (:func:`tclgen.models.scaling_study`)

Scenario files use INI syntax (sections [model], [bath], [run], [outputs]);
the README documents the schema and gives byte-level examples of every output
format.  All floats are written as ``%.12e`` with a ``.`` decimal separator,
so identical configs produce byte-identical CSVs.

Exit codes: 0 success, 1 bad config / unreadable file / bad usage,
2 route-equivalence violation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .algebra import SystemModel
from .bath import BathSpec, tabulate_kernels
from .cumulant import K_n_cumulant, drop_odd_terms, enumerate_ordered_cumulant_terms
from .exact import forward_map_exact
from .evolve import (
    NumericsError,
    invertibility_diagnostic,
    propagate,
    trace_distance,
)
from .models import (
    TruncatedBathConfig,
    _default_rho0,
    dephasing_exact,
    exact_small_bath,
    get_preset,
    scaling_study,
    to_interaction_picture,
)
from .quadrature import QuadratureSpec
from .tcl import (
    EquivalenceError,
    Generator,
    K4_influence,
    build_generator,
    format_k4_table,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "run_scenario",
    "main",
]

_ENV_OUT = "TCLGEN_OUT"
_STEPPERS = ("rk4-fixed", "rk45-adaptive")

_KNOWN_KEYS = {
    "model": {"preset", "dim", "h_sys", "coupling", "alpha"},
    "bath": {"modes", "beta", "fock_levels"},
    "run": {
        "t_max",
        "n_output",
        "order",
        "stepper",
        "max_step",
        "atol",
        "quad_scheme",
        "quad_nodes_per_unit_time",
        "quad_tolerance",
        "rho0",
    },
    "outputs": {
        "dir",
        "kernels",
        "generator",
        "trajectory",
        "diagnostic",
        "report",
        "generator_times",
    },
}


class ConfigError(Exception):
    """One or more configuration problems; collects every message."""

    def __init__(self, messages: Sequence[str]):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))

    def __str__(self) -> str:
        if len(self.messages) == 1:
            return self.messages[0]
        return "\n  - " + "\n  - ".join(self.messages)


@dataclass
class ScenarioConfig:
    """Fully validated scenario: model, reservoir, run settings, outputs."""

    model: SystemModel
    bath: BathSpec
    quad: QuadratureSpec
    preset: str | None
    fock_levels: int
    t_max: float
    n_output: int
    order: int
    stepper: str
    max_step: float
    atol: float
    rho0: np.ndarray
    out_dir: str
    write_kernels: bool
    write_generator: bool
    write_trajectory: bool
    write_diagnostic: bool
    write_report: bool
    generator_times: tuple[float, ...]
    config_hash: str


# --- config parsing -----------------------------------------------------------


def _parse_complex_list(raw: str) -> list[complex]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            out.append(complex(tok))
        except ValueError:
            raise ValueError(f"not a number: {tok!r}") from None
    return out


def _parse_modes(raw: str) -> list[tuple[float, float, float]]:
    modes = []
    for group in raw.split(";"):
        parts = [p.strip() for p in group.split(",")]
        if len(parts) != 3:
            raise ValueError(f"mode {group.strip()!r} is not a kappa,omega,mass triple")
        modes.append((float(parts[0]), float(parts[1]), float(parts[2])))
    return modes


def _parse_beta(raw: str) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(raw)


def _parse_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    key = raw.strip().lower()
    if key not in states:
        raise ValueError(f"not a boolean: {raw!r}")
    return states[key]


def _get(cp, section, key, conv, default, errors, check=None):
    """Fetch+convert one option, appending any complaint to ``errors``."""
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        val = conv(raw)
    except (ValueError, TypeError) as exc:
        errors.append(f"[{section}] {key}: {exc}")
        return default
    if check is not None:
        msg = check(val)
        if msg:
            errors.append(f"[{section}] {key}: {msg}")
            return default
    return val


def _name_clash(times: Iterable[float]) -> str | None:
    """Complaint about two distinct times whose generator CSVs share a name."""
    seen: dict[str, float] = {}
    for t in times:
        first = seen.setdefault(f"{t:g}", t)
        if first != t:
            return (f"times {first!r} and {t!r} would write the same generator "
                    "CSV (file names keep 6 significant digits)")
    return None


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config, aggregating every error found."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from None

    errors: list[str] = []
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"[{section}] unknown key {key!r}")

    # model: either a preset name or explicit dim/h_sys/coupling/alpha
    model = None
    bath = None
    fock_levels = 12
    alpha = _get(cp, "model", "alpha", float, None, errors,
                 lambda v: None if math.isfinite(v) else "must be finite")
    preset_name = cp.get("model", "preset", fallback=None)
    if preset_name is not None:
        try:
            preset = get_preset(preset_name.strip())
        except ValueError as exc:
            errors.append(f"[model] preset: {exc}")
            preset = None
        if preset is not None:
            model, bath, fock_levels = preset.model, preset.bath, preset.fock_levels
    else:
        dim = _get(cp, "model", "dim", int, None, errors,
                   lambda v: None if v >= 2 else f"must be >= 2, got {v}")
        h_raw = _get(cp, "model", "h_sys", _parse_complex_list, None, errors)
        x_raw = _get(cp, "model", "coupling", _parse_complex_list, None, errors)
        if dim is None or alpha is None or h_raw is None or x_raw is None:
            missing = [k for k, v in
                       (("dim", dim), ("alpha", alpha), ("h_sys", h_raw),
                        ("coupling", x_raw)) if v is None and
                       not cp.has_option("model", k)]
            if missing:
                errors.append(
                    "[model] needs either 'preset' or all of dim/h_sys/"
                    f"coupling/alpha (missing: {', '.join(missing)})"
                )
        else:
            shapes_ok = True
            for name, entries in (("h_sys", h_raw), ("coupling", x_raw)):
                if len(entries) != dim * dim:
                    errors.append(
                        f"[model] {name}: expected {dim * dim} row-major entries, "
                        f"got {len(entries)}"
                    )
                    shapes_ok = False
            if shapes_ok:
                try:
                    model = SystemModel(
                        dim,
                        np.array(h_raw, complex).reshape(dim, dim),
                        np.array(x_raw, complex).reshape(dim, dim),
                        alpha,
                    )
                except ValueError as exc:
                    errors.append(f"[model] {exc}")

    # bath: required for explicit models, optional overrides for presets
    modes = _get(cp, "bath", "modes", _parse_modes, None, errors)
    beta = _get(cp, "bath", "beta", _parse_beta, None, errors)
    fock_levels = _get(cp, "bath", "fock_levels", int, fock_levels, errors,
                       lambda v: None if v >= 2 else f"must be >= 2, got {v}")
    if modes is not None or beta is not None or bath is None:
        use_modes = modes if modes is not None else (bath.modes if bath else None)
        use_beta = beta if beta is not None else (bath.beta if bath else None)
        if use_modes is None or use_beta is None:
            if preset_name is None:
                errors.append("[bath] modes and beta are required without a preset")
        else:
            try:
                bath = BathSpec(modes=use_modes, beta=use_beta)
            except ValueError as exc:
                errors.append(f"[bath] {'beta' if 'beta' in str(exc) else 'modes'}: {exc}")

    if preset_name is not None and model is not None and alpha is not None:
        model = SystemModel(model.dim, model.h_sys, model.coupling, alpha)

    t_max = _get(cp, "run", "t_max", float, 2.0, errors,
                 lambda v: None if v > 0 else f"must be positive, got {v}")
    n_output = _get(cp, "run", "n_output", int, 41, errors,
                    lambda v: None if v >= 2 else f"must be >= 2, got {v}")
    order = _get(cp, "run", "order", int, 4, errors,
                 lambda v: None if v in (2, 4) else f"must be 2 or 4, got {v}")
    stepper = _get(cp, "run", "stepper", str.strip, "rk45-adaptive", errors,
                   lambda v: None if v in _STEPPERS
                   else f"must be one of {', '.join(_STEPPERS)}, got {v!r}")
    max_step = _get(cp, "run", "max_step", float, 0.01, errors,
                    lambda v: None if v > 0 else f"must be positive, got {v}")
    atol = _get(cp, "run", "atol", float, 1e-10, errors,
                lambda v: None if v > 0 else f"must be positive, got {v}")
    scheme = _get(cp, "run", "quad_scheme", str.strip, "gauss-legendre-nested", errors)
    npu = _get(cp, "run", "quad_nodes_per_unit_time", int, 16, errors)
    tol = _get(cp, "run", "quad_tolerance", float, 1e-8, errors)
    quad = QuadratureSpec()
    try:
        quad = QuadratureSpec(scheme=scheme, nodes_per_unit_time=npu, tolerance=tol)
    except ValueError as exc:
        errors.append(f"[run] quadrature: {exc}")

    rho0 = None
    rho_raw = _get(cp, "run", "rho0", _parse_complex_list, None, errors)
    if rho_raw is not None and model is not None:
        d = model.dim
        if len(rho_raw) != d * d:
            errors.append(
                f"[run] rho0: expected {d * d} row-major entries, got {len(rho_raw)}"
            )
        else:
            cand = np.array(rho_raw, complex).reshape(d, d)
            if np.linalg.norm(cand - cand.conj().T) > 1e-10:
                errors.append("[run] rho0: not Hermitian")
            elif abs(np.trace(cand).real - 1.0) > 1e-10 or abs(np.trace(cand).imag) > 1e-10:
                errors.append("[run] rho0: trace is not 1")
            elif np.linalg.eigvalsh((cand + cand.conj().T) / 2).min() < -1e-10:
                errors.append("[run] rho0: not positive semidefinite")
            else:
                rho0 = cand

    out_dir = _get(cp, "outputs", "dir", str.strip, "out", errors)
    flags = {}
    for name in ("kernels", "generator", "trajectory", "diagnostic", "report"):
        flags[name] = _get(cp, "outputs", name, _parse_bool, True, errors)
    gen_times = _get(
        cp, "outputs", "generator_times",
        lambda raw: tuple(float(p) for p in raw.split(",")),
        (0.5, 1.0, 2.0), errors,
        lambda ts: _name_clash(ts) if all(t >= 0 for t in ts)
        else "times must be nonnegative",
    )

    if errors or model is None or bath is None:
        if not errors:
            errors.append("incomplete config: model and bath sections underspecified")
        raise ConfigError(errors)

    if rho0 is None:
        rho0 = _default_rho0(model.dim)

    return ScenarioConfig(
        model=model,
        bath=bath,
        quad=quad,
        preset=preset_name.strip() if preset_name else None,
        fock_levels=fock_levels,
        t_max=t_max,
        n_output=n_output,
        order=order,
        stepper=stepper,
        max_step=max_step,
        atol=atol,
        rho0=rho0,
        out_dir=out_dir,
        write_kernels=flags["kernels"],
        write_generator=flags["generator"],
        write_trajectory=flags["trajectory"],
        write_diagnostic=flags["diagnostic"],
        write_report=flags["report"],
        generator_times=gen_times,
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:12],
    )


# --- deterministic CSV helpers -------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path: Path, meta: str, header: Sequence[str],
               rows: Iterable[Sequence[str]]) -> None:
    lines = [f"# {meta}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _matrix_rows(mat: np.ndarray) -> Iterable[list[str]]:
    for row in mat:
        yield [s for z in row for s in (_fmt(z.real), _fmt(z.imag))]


def _matrix_header(n_cols: int) -> list[str]:
    return [f"{p}{j}" for j in range(n_cols) for p in ("re", "im")]


def _vlog(verbose: bool, msg: str) -> None:
    if verbose:
        print(msg, file=sys.stderr)


# --- artifact writers -----------------------------------------------------------


def _write_kernels_csv(cfg: ScenarioConfig, outdir: Path, meta: str) -> Path:
    k = tabulate_kernels(cfg.bath, cfg.t_max, cfg.n_output)
    rows = ([_fmt(t), _fmt(a), _fmt(b)] for t, a, b in zip(k.tau_grid, k.D_values, k.D1_values))
    path = outdir / "kernels.csv"
    _write_csv(path, meta, ["tau", "D", "D1"], rows)
    return path


def _write_generator_csvs(gen: Generator, outdir: Path, meta: str,
                          times: Sequence[float], verbose: bool) -> list[Path]:
    """K2(t) (and K4(t) at order 4) as row-major re/im interleaved CSVs.

    These are the order-coefficient matrices, taken from the generator's
    memo; the propagated generator is alpha^2 K2 + alpha^4 K4.
    """
    paths = []
    header = _matrix_header(gen.dim**2)
    for t in times:
        coeffs = gen.coefficients(float(t))
        for name, mat in (("K2", coeffs.k2), ("K4", coeffs.k4)):
            if mat is None:
                continue
            path = outdir / f"generator_{name}_t{t:g}.csv"
            _write_csv(path, f"{meta} t={_fmt(t)} order_coefficient={name}",
                       header, _matrix_rows(mat))
            paths.append(path)
            _vlog(verbose, f"wrote {path}")
    return paths


def _trajectory_rows(traj) -> Iterable[list[str]]:
    for k, t in enumerate(traj.times):
        row = [_fmt(t)]
        for z in traj.states[k].ravel():
            row.extend((_fmt(z.real), _fmt(z.imag)))
        row.extend((
            _fmt(traj.trace_deviation[k]),
            _fmt(traj.herm_deviation[k]),
            _fmt(traj.min_eigenvalue[k]),
        ))
        yield row


def _oracle_trajectory(cfg: ScenarioConfig, t_grid: np.ndarray):
    """Exact interaction-picture reference states, or None when unavailable."""
    if cfg.preset is None:
        return None, ""
    if cfg.preset.startswith("dephasing"):
        states = np.stack([
            to_interaction_picture(
                cfg.model, dephasing_exact(cfg.rho0, cfg.model, cfg.bath, t), t
            )
            for t in t_grid
        ])
        return states, "closed-form dephasing solution"
    config = TruncatedBathConfig(cfg.bath, cfg.fock_levels)
    traj = exact_small_bath(cfg.rho0, cfg.model, config, t_grid)
    label = f"truncated product-space evolution ({cfg.fock_levels} levels/mode)"
    return traj.states, label


def run_scenario(cfg: ScenarioConfig, verbose: bool = False) -> tuple[int, list[Path]]:
    """Execute one scenario end to end; returns (0, written paths).

    Equivalence violations and numeric failures raise after all files that
    could be produced were written, so the report stays available forensically.
    """
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = f"config={cfg.config_hash} version={__version__}"
    t_grid = np.linspace(0.0, cfg.t_max, cfg.n_output)
    paths: list[Path] = []
    report: list[str] = [
        "reduced-dynamics run report",
        f"version: {__version__}",
        f"config: {cfg.config_hash}",
        f"scenario: preset={cfg.preset or 'custom'} dim={cfg.model.dim} "
        f"modes={len(cfg.bath.modes)} beta={cfg.bath.beta:g} "
        f"alpha={cfg.model.alpha:g} order={cfg.order}",
        f"run: t_max={cfg.t_max:g} n_output={cfg.n_output} stepper={cfg.stepper} "
        f"quad={cfg.quad.scheme} npu={cfg.quad.nodes_per_unit_time}",
        "",
    ]

    if cfg.write_kernels:
        paths.append(_write_kernels_csv(cfg, outdir, meta))
        _vlog(verbose, f"wrote {paths[-1]}")

    # one coefficient memo serves the trajectory, the CSVs and the route report
    if cfg.write_trajectory:
        _vlog(verbose, "building generator table")
    gen = build_generator(cfg.model, cfg.bath, cfg.order, cfg.quad, cfg.t_max,
                          interp="cubic" if cfg.write_trajectory else "direct")

    if cfg.write_generator:
        paths.extend(_write_generator_csvs(
            gen, outdir, meta, cfg.generator_times, verbose))

    traj = None
    if cfg.write_trajectory:
        _vlog(verbose, "propagating")
        traj = propagate(cfg.rho0, gen, t_grid, stepper=cfg.stepper,
                         max_step=cfg.max_step, atol=cfg.atol)
        d = cfg.model.dim
        header = ["time"]
        for i in range(d):
            for j in range(d):
                header.extend((f"re_{i}_{j}", f"im_{i}_{j}"))
        header.extend(("trace_dev", "herm_dev", "min_eig"))
        path = outdir / "trajectory.csv"
        _write_csv(path, meta, header, _trajectory_rows(traj))
        paths.append(path)
        _vlog(verbose, f"wrote {path}")
        report.append("trajectory monitors:")
        report.append(f"  max |trace - 1|    = {traj.trace_deviation.max():.3e}")
        report.append(f"  max hermiticity dev = {traj.herm_deviation.max():.3e}")
        report.append(f"  min eigenvalue      = {traj.min_eigenvalue.min():.3e}")
        report.append("")

    if cfg.write_diagnostic:
        diag = invertibility_diagnostic(cfg.model, cfg.bath, t_grid)
        rows = ([_fmt(t), _fmt(s), _fmt(c)] for t, s, c in
                zip(diag.times, diag.sigma_min, diag.condition_number))
        path = outdir / "diagnostic.csv"
        _write_csv(path, meta, ["time", "sigma_min", "condition_number"], rows)
        paths.append(path)
        _vlog(verbose, f"wrote {path}")

    equivalence_failure = None
    if cfg.write_report:
        if cfg.order == 4:
            # both quadrature routes on one grid, so rel_diff is free of
            # quadrature error; gen_diff sets the generator's K4 against them.
            # A K4 the memo took from K4_influence on this grid is reused.
            report.append(
                "fourth-order route comparison (kernel table vs ordered cumulant):")
            trip = max(1e-6, 100.0 * cfg.quad.tolerance)
            for t in cfg.generator_times:
                _vlog(verbose, f"route comparison at t={t:g}")
                coeffs = gen.coefficients(float(t))
                if coeffs.k4_route == "K4_influence":
                    a = coeffs.k4
                else:
                    a = K4_influence(cfg.model, cfg.bath, float(t), cfg.quad).matrix
                b = K_n_cumulant(cfg.model, cfg.bath, float(t), 4, cfg.quad).matrix
                scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-6)
                rel = np.linalg.norm(a - b) / scale
                gen_diff = np.linalg.norm(coeffs.k4 - a) / scale
                report.append(
                    f"  t= {_fmt(t)}  rel_diff= {rel:.3e}  gen_diff= {gen_diff:.3e}")
                if rel > trip and equivalence_failure is None:
                    equivalence_failure = (float(t), rel, trip)
            report.append("")
        else:
            report.append("(order-2 run: fourth-order routes not exercised)")
            report.append("")

        if traj is not None:
            exact_states, label = _oracle_trajectory(cfg, t_grid)
            if exact_states is not None:
                errs = [trace_distance(a, b)
                        for a, b in zip(traj.states, exact_states)]
                report.append(f"exact reference comparison ({label}):")
                report.append(
                    f"  max trace distance over grid = {max(errs):.3e}")
                if cfg.model.dim == 2:
                    coh = max(abs(a[0, 1] - b[0, 1])
                              for a, b in zip(traj.states, exact_states))
                    report.append(f"  max coherence error          = {coh:.3e}")
                report.append("")
            else:
                report.append("(no exact reference for this scenario)")
                report.append("")

        j = forward_map_exact(cfg.model, cfg.bath, cfg.t_max)
        eye = np.eye(cfg.model.dim**2)
        scan_alphas = np.linspace(0.1, 2.0, 20)
        sig = np.empty(len(scan_alphas))
        report.append(
            f"coupling scan of forward-map conditioning at t = {cfg.t_max:g}:")
        report.append("  alpha  sigma_min  cond")
        for k, a in enumerate(scan_alphas):
            svals = np.linalg.svd(eye + a * a * j, compute_uv=False)
            sig[k] = svals[-1]
            report.append(
                f"  {a:.6f}  {_fmt(sig[k])}  {_fmt(svals[0] / svals[-1])}")
        steps = len(scan_alphas) - 1
        drops = int(np.sum(np.diff(sig) <= 1e-14))
        trend = "yes" if drops == steps else "no"
        report.append(
            f"  sigma_min non-increasing in alpha: {trend} ({drops}/{steps} steps)")
        report.append("")

        path = outdir / "report.txt"
        path.write_text("\n".join(report) + "\n", encoding="ascii")
        paths.append(path)
        _vlog(verbose, f"wrote {path}")

    if equivalence_failure is not None:
        t, rel, trip = equivalence_failure
        raise EquivalenceError(
            f"fourth-order routes disagree at t = {t:g}: relative difference "
            f"{rel:.3e} exceeds {trip:.3e} (see report.txt)"
        )
    return 0, paths


# --- subcommands -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the config-error path."""

    def error(self, message):
        raise ConfigError([message])


def _load_config(args) -> ScenarioConfig:
    if args.config is None:
        raise ConfigError(["--config PATH is required for this subcommand"])
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = parse_config(text)
    if getattr(args, "order", None) is not None:
        cfg.order = args.order
    if getattr(args, "quad_nodes", None) is not None:
        try:
            cfg.quad = replace(cfg.quad, nodes_per_unit_time=args.quad_nodes)
        except ValueError as exc:
            raise ConfigError([f"--quad-nodes: {exc}"]) from None
    out = args.out or os.environ.get(_ENV_OUT)
    if out:
        cfg.out_dir = out
    return cfg


def _cmd_kernels(args) -> int:
    cfg = _load_config(args)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = f"config={cfg.config_hash} version={__version__}"
    path = _write_kernels_csv(cfg, outdir, meta)
    _vlog(args.verbose, f"wrote {path}")
    return 0


def _cmd_generator_dump(args) -> int:
    cfg = _load_config(args)
    if args.print_k4_table:
        print(format_k4_table())
    times = cfg.generator_times
    if args.times is not None:
        try:
            times = tuple(float(p) for p in args.times.split(","))
        except ValueError:
            raise ConfigError([f"--times: cannot parse {args.times!r}"]) from None
        if any(t < 0 for t in times):
            raise ConfigError(["--times: times must be nonnegative"])
        clash = _name_clash(times)
        if clash:
            raise ConfigError([f"--times: {clash}"])
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = f"config={cfg.config_hash} version={__version__}"
    gen = build_generator(cfg.model, cfg.bath, cfg.order, cfg.quad, cfg.t_max,
                          interp="direct")
    _write_generator_csvs(gen, outdir, meta, times, args.verbose)
    return 0


def _cmd_cumulant_terms(args) -> int:
    if args.n < 1:
        raise ConfigError([f"n must be >= 1, got {args.n}"])
    terms = enumerate_ordered_cumulant_terms(args.n)
    if not args.raw:
        terms = drop_odd_terms(terms)
    for term in terms:
        print(term.format_line())
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    status, _ = run_scenario(cfg, verbose=args.verbose)
    return status


def _cmd_scaling_study(args) -> int:
    problems = []
    try:
        alphas = tuple(float(p) for p in args.alphas.split(","))
    except ValueError:
        problems.append(f"--alphas: cannot parse {args.alphas!r}")
        alphas = ()
    if alphas and (len(alphas) < 2 or any(a <= 0 for a in alphas)):
        problems.append("--alphas: need >= 2 positive values")
    if args.t_max <= 0:
        problems.append(f"--t-max: must be positive, got {args.t_max}")
    if args.n_output < 2:
        problems.append(f"--n-output: must be >= 2, got {args.n_output}")
    if args.fock is not None and args.fock < 2:
        problems.append(f"--fock: must be >= 2, got {args.fock}")
    if problems:
        raise ConfigError(problems)

    res = scaling_study(
        preset_name=args.preset,
        alphas=alphas,
        t_max=args.t_max,
        fock_levels=args.fock,
        n_output=args.n_output,
        verbose=args.verbose,
    )

    outdir = Path(args.out or os.environ.get(_ENV_OUT) or "out")
    outdir.mkdir(parents=True, exist_ok=True)
    desc = (
        f"scaling preset={args.preset} "
        f"alphas={','.join(f'{a:g}' for a in res.alphas)} t_max={args.t_max:g} "
        f"fock={args.fock if args.fock is not None else 'preset'} "
        f"n_output={args.n_output}"
    )
    h = hashlib.sha256(desc.encode()).hexdigest()[:12]
    rows = ([_fmt(a), _fmt(e2), _fmt(e4)] for a, e2, e4 in
            zip(res.alphas, res.errors_order2, res.errors_order4))
    _write_csv(outdir / "scaling.csv", f"config={h} version={__version__}",
               ["alpha", "err_order2", "err_order4"], rows)
    _vlog(args.verbose, f"wrote {outdir / 'scaling.csv'}")
    print(f"order-2 slope: {res.slope_order2:.3f}")
    print(f"order-4 slope: {res.slope_order4:.3f}")
    return 0


def _add_common_flags(sp) -> None:
    sp.add_argument("--config", metavar="PATH", help="scenario config file")
    sp.add_argument("--out", metavar="DIR",
                    help=f"output directory (overrides config and ${_ENV_OUT})")
    sp.add_argument("--order", type=int, choices=(2, 4),
                    help="override the run order")
    sp.add_argument("--quad-nodes", type=int, metavar="N",
                    help="override quadrature nodes per unit time")
    sp.add_argument("--verbose", action="store_true",
                    help="progress messages on stderr")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tclgen",
                     description="time-local generator construction and runs")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kernels", help="tabulate D and D1 kernels as CSV")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_kernels)

    sp = sub.add_parser("generator-dump",
                        help="write K2/K4 matrices at selected times")
    _add_common_flags(sp)
    sp.add_argument("--times", metavar="T1,T2,...",
                    help="evaluation times (default: [outputs] generator_times)")
    sp.add_argument("--print-k4-table", action="store_true",
                    help="also print the fourth-order term table")
    sp.set_defaults(func=_cmd_generator_dump)

    sp = sub.add_parser("cumulant-terms",
                        help="print the ordered-cumulant term list for order n")
    sp.add_argument("n", type=int)
    sp.add_argument("--raw", action="store_true",
                    help="include odd-length substrings (dropped by default)")
    sp.set_defaults(func=_cmd_cumulant_terms)

    sp = sub.add_parser("run", help="execute a full scenario")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("scaling-study",
                        help="error-vs-coupling slopes against the exact oracle")
    sp.add_argument("--preset", default="spinboson-single-mode")
    sp.add_argument("--alphas", default="0.025,0.05,0.1,0.2",
                    metavar="A1,A2,...")
    sp.add_argument("--t-max", type=float, default=4.0)
    sp.add_argument("--fock", type=int, default=None, metavar="N",
                    help="oracle Fock levels per purified mode "
                         "(default: preset value)")
    sp.add_argument("--n-output", type=int, default=81)
    sp.add_argument("--out", metavar="DIR")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(func=_cmd_scaling_study)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except EquivalenceError as exc:
        print(f"equivalence violation: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
