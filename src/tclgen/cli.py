"""Command-line front end: scenario configs in, CSV artifacts out.

Subcommands
-----------
kernels         tabulate the dissipation and noise kernels
generator-dump  write generator coefficient matrices at selected times
cumulant-terms  print the symbolic ordered-cumulant term list
run             full scenario: kernels, generators, trajectory, diagnostics, report
scaling-study   error-vs-coupling slope fit against the purified truncated oracle
                (:func:`tclgen.models.scaling_study`)

Scenario files use INI syntax (sections [model], [bath], [run], [outputs]).
Their one schema is the table ``_KEYS``: each key's converter, default and
check; the README's config reference mirrors it and gives byte-level examples
of every output format.  Every CSV is one float table written by
``np.savetxt`` as ``%.12e``, so identical configs produce byte-identical CSVs.

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
from typing import Sequence

import numpy as np

from . import __version__
from .algebra import SystemModel
from .bath import BathSpec, tabulate_kernels
from .cumulant import drop_odd_terms, enumerate_ordered_cumulant_terms
from .evolve import NumericsError, _validate_state
from .models import _default_rho0, _truncated_reference, get_preset, scaling_study, simulate
from .quadrature import QuadratureSpec
from .tcl import (
    ORDERS,
    EquivalenceError,
    Generator,
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
_STEPPERS = ("magnus4", "rk4-fixed", "rk45-adaptive")
# quadrature nodes per unit time, which also set the generator grid's density
_NODES_PER_UNIT_TIME = (4, 96)


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


def _parse_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    key = raw.strip().lower()
    if key not in states:
        raise ValueError(f"not a boolean: {raw!r}")
    return states[key]


def _not_positive(v: float) -> str | None:
    return None if math.isfinite(v) and v > 0 else f"must be positive and finite, got {v}"


def _below_two(v: int) -> str | None:
    return None if v >= 2 else f"must be >= 2, got {v}"


def _node_range(v: int) -> str | None:
    lo, hi = _NODES_PER_UNIT_TIME
    return None if lo <= v <= hi else f"must be from {lo} to {hi}, got {v}"


def _parse_times(raw: str) -> tuple[float, ...]:
    """Comma-separated generator times: nonnegative, finite, none repeated,
    and no two distinct times whose generator CSVs share a name."""
    times = tuple(float(p) for p in raw.split(","))
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise ValueError("times must be nonnegative and finite")
    seen: dict[str, float] = {}
    for t in times:
        if t in seen.values():
            raise ValueError(f"time {t!r} is given twice")
        first = seen.setdefault(f"{t:g}", t)
        if first != t:
            raise ValueError(f"times {first!r} and {t!r} would write the same generator "
                             "CSV (file names keep 6 significant digits)")
    return times


# The config schema, {section: {key: (converter, default, check)}}.  A check
# returns None or a complaint; a complaint from the converter or the check
# becomes "[section] key: ..." and the key falls back to its default.  A None
# default means none of its own: the [model] keys, and [bath] modes and beta,
# which a preset supplies.  parse_config reads each key where the scenario it
# builds needs it, so complaints come out model first, then bath, run, outputs.
_KEYS = {
    "model": {
        "preset": (lambda raw: get_preset(raw.strip()), None, None),
        "dim": (int, None, _below_two),
        "h_sys": (_parse_complex_list, None, None),
        "coupling": (_parse_complex_list, None, None),
        "alpha": (float, None, lambda v: None if math.isfinite(v) else "must be finite"),
    },
    "bath": {
        "modes": (_parse_modes, None, None),
        "beta": (float, None, None),
        "fock_levels": (int, 12, _below_two),
    },
    "run": {
        "t_max": (float, 2.0, _not_positive),
        "n_output": (int, 41, _below_two),
        "order": (int, 4, lambda v: None if v in ORDERS else f"must be 2 or 4, got {v}"),
        "stepper": (str.strip, "magnus4",
                    lambda v: None if v in _STEPPERS
                    else f"must be one of {', '.join(_STEPPERS)}, got {v!r}"),
        "max_step": (float, 0.01, _not_positive),
        "atol": (float, 1e-10, _not_positive),
        "quad_scheme": (str.strip, "gauss-legendre-nested", None),
        "quad_nodes_per_unit_time": (int, 16, _node_range),
        "quad_tolerance": (float, 1e-8, None),
        "rho0": (_parse_complex_list, None, None),
    },
    "outputs": {
        "dir": (str.strip, "out", None),
        "kernels": (_parse_bool, True, None),
        "generator": (_parse_bool, True, None),
        "trajectory": (_parse_bool, True, None),
        "diagnostic": (_parse_bool, True, None),
        "report": (_parse_bool, True, None),
        "generator_times": (_parse_times, (0.5, 1.0, 2.0), None),
    },
}

# Flags that stand for config keys, {args attribute: (flag, section, key)}.  A
# given flag's string is read in place of the file's value, by that key's
# converter and check, and follows the config text into its hash in this order.
_FLAG_KEYS = {
    "order": ("--order", "run", "order"),
    "quad_nodes": ("--quad-nodes", "run", "quad_nodes_per_unit_time"),
    "times": ("--times", "outputs", "generator_times"),
}


def _square(label: str, entries: list, d: int, errors: list[str]) -> np.ndarray | None:
    """``entries`` as a row-major d x d matrix, or None after a complaint."""
    if len(entries) != d * d:
        errors.append(f"{label}: expected {d * d} row-major entries, got {len(entries)}")
        return None
    return np.array(entries, complex).reshape(d, d)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config, aggregating every error found."""
    return _parse_config(text, {})


def _parse_config(text: str, flags: dict[tuple[str, str], tuple[str, str]]) -> ScenarioConfig:
    """:func:`parse_config`, with ``flags`` {(section, key): (flag, raw)}
    read in place of the file's values and hashed after its text."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from None

    errors: list[str] = []
    for section in cp.sections():
        if section not in _KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _KEYS[section]:
                errors.append(f"[{section}] unknown key {key!r}")

    def get(section, key, default=None):
        """Fetch and check one key, or its flag, by its ``_KEYS`` entry.  An absent
        or rejected key gives ``default``, or the table's default if that is None."""
        conv, fallback, check = _KEYS[section][key]
        default = fallback if default is None else default
        label, raw = flags.get((section, key),
                               (f"[{section}] {key}", cp.get(section, key, fallback=None)))
        if raw is None:
            return default
        try:
            val = conv(raw)
        except (ValueError, TypeError) as exc:
            errors.append(f"{label}: {exc}")
            return default
        msg = check(val) if check is not None else None
        if msg:
            errors.append(f"{label}: {msg}")
            return default
        return val

    # model: either a preset or explicit dim/h_sys/coupling/alpha
    model = None
    bath = None
    alpha = get("model", "alpha")
    preset = get("model", "preset")
    has_preset = cp.has_option("model", "preset")
    if has_preset:
        if preset is not None:
            model = preset.model if alpha is None else replace(preset.model, alpha=alpha)
        errors.extend(f"[model] {key}: cannot be combined with 'preset' (only alpha "
                      "overrides a preset)" for key in ("dim", "h_sys", "coupling")
                      if cp.has_option("model", key))
    else:
        dim, h_raw, x_raw = (get("model", k) for k in ("dim", "h_sys", "coupling"))
        missing = [k for k in ("dim", "alpha", "h_sys", "coupling")
                   if not cp.has_option("model", k)]
        if missing:
            errors.append(
                "[model] needs either 'preset' or all of dim/h_sys/"
                f"coupling/alpha (missing: {', '.join(missing)})"
            )
        elif None not in (dim, alpha, h_raw, x_raw):
            h, x = [_square(f"[model] {k}", v, dim, errors)
                    for k, v in (("h_sys", h_raw), ("coupling", x_raw))]
            if h is not None and x is not None:
                try:
                    model = SystemModel(dim, h, x, alpha)
                except ValueError as exc:
                    errors.append(f"[model] {exc}")

    # bath: required for explicit models; a preset's values are the defaults
    modes = get("bath", "modes", preset.bath.modes if preset else None)
    beta = get("bath", "beta", preset.bath.beta if preset else None)
    fock_levels = get("bath", "fock_levels", preset.fock_levels if preset else None)
    if modes is None or beta is None:
        if not has_preset:
            errors.append("[bath] modes and beta are required without a preset")
    else:
        try:
            bath = BathSpec(modes=modes, beta=beta)
        except ValueError as exc:
            errors.append(f"[bath] {'beta' if 'beta' in str(exc) else 'modes'}: {exc}")

    # the rest of [run] goes into ScenarioConfig as it is
    run = {key: get("run", key) for key in _KEYS["run"] if key != "rho0"}
    quad = QuadratureSpec()
    try:
        quad = QuadratureSpec(run.pop("quad_scheme"), run.pop("quad_nodes_per_unit_time"),
                              run.pop("quad_tolerance"))
    except ValueError as exc:
        errors.append(f"[run] quadrature: {exc}")

    rho0 = None
    rho_raw = get("run", "rho0")
    if rho_raw is not None and model is not None:
        rho0 = _square("[run] rho0", rho_raw, model.dim, errors)
        if rho0 is not None:
            try:
                _validate_state(rho0, model.dim)
            except ValueError as exc:
                errors.append(f"[run] {exc}")

    out = {key: get("outputs", key) for key in _KEYS["outputs"]}

    if errors or model is None or bath is None:
        if not errors:
            errors.append("incomplete config: model and bath sections underspecified")
        raise ConfigError(errors)

    if rho0 is None:
        rho0 = _default_rho0(model.dim)
    hashed = text + "".join(f"\n{flag} {raw}" for flag, raw in flags.values())

    return ScenarioConfig(
        model=model,
        bath=bath,
        quad=quad,
        preset=preset.name if preset else None,
        fock_levels=fock_levels,
        **run,
        rho0=rho0,
        out_dir=out["dir"],
        write_kernels=out["kernels"],
        write_generator=out["generator"],
        write_trajectory=out["trajectory"],
        write_diagnostic=out["diagnostic"],
        write_report=out["report"],
        generator_times=out["generator_times"],
        config_hash=hashlib.sha256(hashed.encode()).hexdigest()[:12],
    )


# --- deterministic CSV helpers -------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path: Path, meta: str, header: Sequence[str], table: np.ndarray) -> None:
    """A ``# meta`` line, the header line, then one line per row of ``table``."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"# {meta}\n{','.join(header)}\n")
        np.savetxt(f, table, fmt="%.12e", delimiter=",")


def _re_im(m: np.ndarray) -> np.ndarray:
    """Complex entries as re/im pairs along the last axis."""
    return np.ascontiguousarray(m, dtype=complex).view(float)


def _vlog(verbose: bool, msg: str) -> None:
    if verbose:
        print(msg, file=sys.stderr)


class _OutputDir:
    """A command's output directory, created on construction.  Every file
    written through it is recorded in ``paths`` and, when verbose, logged."""

    def __init__(self, out_dir: str, config_hash: str, verbose: bool):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.meta = f"config={config_hash} version={__version__}"
        self.verbose = verbose
        self.paths: list[Path] = []

    def csv(self, name: str, header: Sequence[str], columns: Sequence[np.ndarray],
            meta: str = "") -> None:
        """Write ``columns``, 1-d or 2-d, side by side as one CSV whose comment
        line is the directory's plus ``meta``."""
        _write_csv(self.dir / name, self.meta + meta, header, np.column_stack(columns))
        self._wrote(self.dir / name)

    def text(self, name: str, lines: Sequence[str]) -> None:
        (self.dir / name).write_text("\n".join(lines) + "\n", encoding="ascii")
        self._wrote(self.dir / name)

    def _wrote(self, path: Path) -> None:
        self.paths.append(path)
        _vlog(self.verbose, f"wrote {path}")


# --- artifact writers -----------------------------------------------------------


def _write_kernels_csv(cfg: ScenarioConfig, out: _OutputDir) -> None:
    k = tabulate_kernels(cfg.bath, cfg.t_max, cfg.n_output)
    out.csv("kernels.csv", ["tau", "D", "D1"], [k.tau_grid, k.D_values, k.D1_values])


def _write_generator_csvs(gen: Generator, out: _OutputDir, times: Sequence[float]) -> None:
    """K2(t) (and K4(t) at order 4) as row-major re/im interleaved CSVs.

    These are the order-coefficient matrices, taken from the generator's
    memo; a trajectory steps with alpha^2 K2 + alpha^4 K4.
    """
    header = [f"{p}{j}" for j in range(gen.dim**2) for p in ("re", "im")]
    for t in times:
        coeffs = gen.coefficients(float(t))
        for name, mat in (("K2", coeffs.k2), ("K4", coeffs.k4)):
            if mat is not None:
                out.csv(f"generator_{name}_t{t:g}.csv", header, [_re_im(mat)],
                        f" t={_fmt(t)} order_coefficient={name}")


def run_scenario(cfg: ScenarioConfig, verbose: bool = False) -> tuple[int, list[Path]]:
    """Execute one scenario end to end; returns (0, written paths).

    The numbers come from one :func:`tclgen.models.simulate` call, and every
    file after ``kernels.csv`` is written from its :class:`RunResult`.  A
    truncated-bath reference over its dimension cap fails first, before any
    file; a numeric failure (exit 3) inside the call leaves ``kernels.csv``
    alone.  An equivalence violation raises after every file is written, so
    the report stays available forensically.
    """
    if cfg.write_trajectory and cfg.write_report:
        _truncated_reference(cfg.preset, cfg.bath, cfg.fock_levels, cfg.model.dim)
    out = _OutputDir(cfg.out_dir, cfg.config_hash, verbose)
    if cfg.write_kernels:
        _write_kernels_csv(cfg, out)
    res = simulate(cfg.model, cfg.bath, cfg.rho0, t_max=cfg.t_max, n_output=cfg.n_output,
                   order=cfg.order, quad=cfg.quad, stepper=cfg.stepper, max_step=cfg.max_step,
                   atol=cfg.atol, generator_times=cfg.generator_times, preset=cfg.preset,
                   fock_levels=cfg.fock_levels, trajectory=cfg.write_trajectory,
                   diagnostic=cfg.write_diagnostic, report=cfg.write_report, verbose=verbose)
    if cfg.write_generator:
        _write_generator_csvs(res.generator, out, cfg.generator_times)
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

    traj, diag = res.trajectory, res.diagnostic
    if traj is not None:
        d = range(cfg.model.dim)
        header = ["time", *(f"{p}_{i}_{j}" for i in d for j in d for p in ("re", "im")),
                  "trace_dev", "herm_dev", "min_eig"]
        out.csv("trajectory.csv", header,
                [traj.times, _re_im(traj.states.reshape(len(traj.times), -1)),
                 traj.trace_deviation, traj.herm_deviation, traj.min_eigenvalue])
        report += [f"stepper work: {traj.steps} steps, {traj.evaluations} generator evaluations",
                   "trajectory monitors:",
                   f"  max |trace - 1|    = {traj.trace_deviation.max():.3e}",
                   f"  max hermiticity dev = {traj.herm_deviation.max():.3e}",
                   f"  min eigenvalue      = {traj.min_eigenvalue.min():.3e}", ""]
    if diag is not None:
        out.csv("diagnostic.csv", ["time", "sigma_min", "condition_number"],
                [diag.times, diag.sigma_min, diag.condition_number])

    if cfg.write_report:
        if cfg.order == 4:
            report.append("fourth-order route comparison (kernel table vs ordered cumulant):")
            report += [f"  t= {_fmt(t)}  rel_diff= {rel:.3e}  margin= {rel / threshold:.3e}"
                       for t, rel, threshold in res.routes]
        else:
            report.append("(order-2 run: fourth-order routes not exercised)")
        report.append("")

        if traj is not None and res.reference_states is None:
            report += ["(no exact reference for this scenario)", ""]
        elif traj is not None:
            report += [f"exact reference comparison ({res.reference_label}):",
                       f"  max trace distance over grid = {res.reference_error:.3e}"]
            if res.reference_levels is not None:
                shift = res.truncation_shift
                report.append("  reference shift at +2 levels = " + (
                    "not checked (over the dimension cap)" if shift is None else f"{shift:.3e}"))
            if cfg.model.dim == 2:
                report.append(f"  max coherence error          = {res.coherence_error:.3e}")
            report.append("")

        svals = res.scan_singular_values
        steps = len(svals) - 1
        drops = int(np.sum(np.diff(svals[:, -1]) <= 1e-14))
        report += [f"coupling scan of forward-map conditioning at t = {cfg.t_max:g}:",
                   "  alpha  sigma_min  cond",
                   *(f"  {a:.6f}  {_fmt(s[-1])}  {_fmt(s[0] / s[-1])}"
                     for a, s in zip(res.scan_alphas, svals)),
                   f"  sigma_min non-increasing in alpha: {'yes' if drops == steps else 'no'} "
                   f"({drops}/{steps} steps)", ""]
        out.text("report.txt", report)

    for t, rel, threshold in res.routes:
        if rel > threshold:
            raise EquivalenceError(
                f"fourth-order routes disagree at t = {t:g}: relative difference "
                f"{rel:.3e} exceeds {threshold:.3e} (see report.txt)"
            )
    return 0, out.paths


# --- subcommands -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the config-error path."""

    def error(self, message):
        raise ConfigError([message])


def _load_config(args) -> ScenarioConfig:
    if args.config is None:
        raise ConfigError(["--config PATH is required for this subcommand"])
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = _parse_config(text, {(section, key): (flag, raw)
                               for dest, (flag, section, key) in _FLAG_KEYS.items()
                               if (raw := getattr(args, dest, None)) is not None})
    cfg.out_dir = args.out or os.environ.get(_ENV_OUT) or cfg.out_dir
    return cfg


def _cmd_kernels(args) -> int:
    cfg = _load_config(args)
    _write_kernels_csv(cfg, _OutputDir(cfg.out_dir, cfg.config_hash, args.verbose))
    return 0


def _cmd_generator_dump(args) -> int:
    cfg = _load_config(args)
    if args.print_k4_table:
        print(format_k4_table())
    gen = build_generator(cfg.model, cfg.bath, cfg.order, cfg.quad, cfg.t_max,
                          interp="direct")
    _write_generator_csvs(gen, _OutputDir(cfg.out_dir, cfg.config_hash, args.verbose),
                          cfg.generator_times)
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
    return run_scenario(_load_config(args), verbose=args.verbose)[0]


def _cmd_scaling_study(args) -> int:
    problems = []
    try:
        alphas = tuple(float(p) for p in args.alphas.split(","))
    except ValueError:
        problems.append(f"--alphas: cannot parse {args.alphas!r}")
        alphas = ()
    if alphas and (len(alphas) < 2 or any(_not_positive(a) for a in alphas)):
        problems.append("--alphas: need >= 2 positive finite values")
    elif alphas and len(set(alphas)) < 2:
        problems.append(f"--alphas: need >= 2 distinct values, got {args.alphas!r}")
    for flag, value, check in (("--t-max", args.t_max, _not_positive),
                               ("--n-output", args.n_output, _below_two),
                               ("--fock", args.fock, _below_two)):
        if value is not None and (problem := check(value)):
            problems.append(f"{flag}: {problem}")
    if problems:
        raise ConfigError(problems)

    res = scaling_study(preset_name=args.preset, alphas=alphas, t_max=args.t_max,
                        fock_levels=args.fock, n_output=args.n_output, verbose=args.verbose)

    desc = (f"scaling preset={args.preset} alphas={','.join(f'{a:g}' for a in res.alphas)} "
            f"t_max={args.t_max:g} fock={args.fock if args.fock is not None else 'preset'} "
            f"n_output={args.n_output}")
    out = _OutputDir(args.out or os.environ.get(_ENV_OUT) or "out",
                     hashlib.sha256(desc.encode()).hexdigest()[:12], args.verbose)
    out.csv("scaling.csv", ["alpha", "err_order2", "err_order4"],
            [res.alphas, res.errors_order2, res.errors_order4])
    print(f"order-2 slope: {res.slope_order2:.3f}")
    print(f"order-4 slope: {res.slope_order4:.3f}")
    return 0


def _add_common_flags(sp, run_keys: bool = True) -> None:
    """--config, --out, --verbose and, with ``run_keys``, --order and --quad-nodes."""
    sp.add_argument("--config", metavar="PATH", help="scenario config file")
    sp.add_argument("--out", metavar="DIR",
                    help=f"output directory (overrides config and ${_ENV_OUT})")
    if run_keys:
        sp.add_argument("--order", metavar="N", help="[run] order (2 or 4)")
        sp.add_argument("--quad-nodes", metavar="N",
                        help="[run] quad_nodes_per_unit_time (4 to 96)")
    sp.add_argument("--verbose", action="store_true",
                    help="progress messages on stderr")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tclgen",
                     description="time-local generator construction and runs")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kernels", help="tabulate D and D1 kernels as CSV")
    _add_common_flags(sp, run_keys=False)
    sp.set_defaults(func=_cmd_kernels)

    sp = sub.add_parser("generator-dump",
                        help="write K2/K4 matrices at selected times")
    _add_common_flags(sp)
    sp.add_argument("--times", metavar="T1,T2,...",
                    help="[outputs] generator_times")
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
