"""The benchmark's three workloads: inputs, the timed operation, output checks.

Every workload has three steps, all run in one fresh worker process:

* ``setup(seed, op_dir)`` builds the scenario (counted in ``setup_s``);
* ``run(state)`` is the timed operation;
* ``check(state, output, ref)`` compares the outputs with the values recorded
  in ``reference.json`` and returns ``(oracle_err, problems)``.

Matrices and errors are compared within the scenario's
``QuadratureSpec.tolerance``, never byte for byte, so a change that only moves
the last bits still passes.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

import tclgen
from tclgen import cli

GAUSS = "gauss-legendre-nested"
GENERATOR_TIMES = (0.5, 1.0, 2.0)
ROUTE_LIMIT = 1e-8  # route and internal checks, as in acceptance criterion 3


# --- helpers ----------------------------------------------------------------


def encode(m) -> list:
    """Complex array as [real part, imaginary part] nested lists."""
    m = np.asarray(m, dtype=complex)
    return [m.real.tolist(), m.imag.tolist()]


def decode(x) -> np.ndarray:
    return np.asarray(x[0], dtype=float) + 1j * np.asarray(x[1], dtype=float)


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance of ``a`` from ``b``, relative to ``b``."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def max_trace_distance(states, exact) -> float:
    """Largest (1/2) trace norm of the Hermitian part of a state difference."""
    worst = 0.0
    for a, b in zip(states, exact, strict=True):
        diff = a - b
        diff = (diff + diff.conj().T) / 2.0
        worst = max(worst, 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
    return worst


def _csv_rows(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def csv_matrix(path: Path) -> np.ndarray:
    """A generator CSV (re/im interleaved columns) as a complex matrix."""
    rows = _csv_rows(path)
    return rows[:, 0::2] + 1j * rows[:, 1::2]


def csv_states(path: Path, dim: int) -> np.ndarray:
    """The states of trajectory.csv, shape (T, dim, dim)."""
    vals = _csv_rows(path)[:, 1 : 1 + 2 * dim * dim]
    return (vals[:, 0::2] + 1j * vals[:, 1::2]).reshape(-1, dim, dim)


def _within(name: str, value: float, ref: float, tol: float, problems: list) -> None:
    if not abs(value - ref) <= tol:
        problems.append(f"{name} = {value:.15e}, recorded {ref:.15e} (tolerance {tol:g})")


# --- tclgen run on a preset ---------------------------------------------------


class RunScenario:
    """``tclgen run`` on a preset config, through the command-line entry point."""

    def __init__(self, config: str, orders: tuple[int, ...]):
        self.config = config
        self.orders = orders

    def setup(self, seed: int, op_dir: Path) -> dict:
        path = op_dir / "scenario.ini"
        path.write_text(self.config)
        return {"cfg": cli.parse_config(self.config), "config": path, "out": op_dir / "out"}

    def run(self, state: dict) -> int:
        return cli.main(["run", "--config", str(state["config"]), "--out", str(state["out"])])

    def artifacts(self) -> list[str]:
        names = ["kernels.csv", "trajectory.csv", "diagnostic.csv", "report.txt"]
        names += [f"generator_K{n}_t{t:g}.csv" for t in GENERATOR_TIMES for n in self.orders]
        return names

    def check(self, state: dict, exit_code: int, ref: dict):
        cfg, out = state["cfg"], state["out"]
        tol = cfg.quad.tolerance
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        missing = [n for n in self.artifacts()
                   if not (out / n).is_file() or (out / n).stat().st_size == 0]
        if missing:
            return None, problems + [f"missing artifacts: {', '.join(missing)}"]
        for n in self.orders:
            for t in GENERATOR_TIMES:
                got = csv_matrix(out / f"generator_K{n}_t{t:g}.csv")
                diff = rel_diff(got, decode(ref[f"K{n}"][f"{t:g}"]))
                if not diff <= tol:
                    problems.append(f"K{n}(t={t:g}) differs from the record by {diff:.3e}")
        err = max_trace_distance(csv_states(out / "trajectory.csv", cfg.model.dim),
                                 decode(ref["exact_states"]))
        _within("oracle_err", err, ref["oracle_err"], tol, problems)
        match = re.search(r"max trace distance over grid = (\S+)",
                          (out / "report.txt").read_text())
        # report.txt prints four significant digits
        if match is None or not abs(float(match.group(1)) - err) <= max(tol, 1e-3 * err):
            problems.append("report.txt does not state the reference error")
        return err, problems


# --- K4 routes on a seeded three-level instance --------------------------------


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class RouteCheck:
    """K4 by the kernel table, by ordered cumulants, and self-checked.

    The instance is a random d=3 system with two modes, drawn like those of
    acceptance criterion 3 from a fixed generator, then turned into the
    seed's own basis by a Haar-random unitary U.  The matrices the program
    sees change with the seed; cost and accuracy do not, so every reference
    value can be recorded once and rotated: K4 -> S K4 S^dag with
    S = conj(U) kron U, and states -> U rho U^dag.
    """

    dim = 3
    times = GENERATOR_TIMES
    base_seed = 23
    fock_levels = 10  # for the recorded exact reference
    probe_grid = np.linspace(0.0, 2.0, 21)
    quad = tclgen.QuadratureSpec(GAUSS, 12, 1e-8)

    def base(self):
        rng = np.random.default_rng(self.base_seed)
        d = self.dim
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h_sys = (h + h.conj().T) / 2.0
        h_sys *= 1.5 / max(1.0, np.max(np.abs(np.linalg.eigvalsh(h_sys))))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        coupling = (x + x.conj().T) / 2.0
        coupling *= 1.2 / np.linalg.norm(coupling, 2)
        modes = [(float(rng.uniform(0.5, 1.4)), float(rng.uniform(0.6, 1.8)), 1.0)
                 for _ in range(2)]
        beta = [1.0, 2.5, math.inf][int(rng.integers(3))]
        return h_sys, coupling, modes, beta

    def setup(self, seed: int | None, op_dir: Path) -> dict:
        """Scenario in the basis of ``seed``; ``None`` keeps the base basis."""
        h_sys, coupling, modes, beta = self.base()
        u = (np.eye(self.dim) if seed is None
             else _haar_unitary(np.random.default_rng(seed), self.dim))
        model = tclgen.SystemModel(
            self.dim, u @ h_sys @ u.conj().T, u @ coupling @ u.conj().T, alpha=0.1)
        rho0 = np.full((self.dim, self.dim), 1.0 / self.dim, dtype=complex)
        return {"model": model, "bath": tclgen.BathSpec(modes, beta), "u": u,
                "rho0": u @ rho0 @ u.conj().T}

    def run(self, state: dict) -> dict:
        model, bath, quad = state["model"], state["bath"], self.quad
        out: dict = {"table": [], "cumulant": [], "ordered": []}
        for t in self.times:
            out["table"].append(tclgen.K4_influence(model, bath, t, quad).matrix)
            out["cumulant"].append(tclgen.K_n_cumulant(model, bath, t, 4, quad).matrix)
            out["ordered"].append(tclgen.K4_cumulant_ordered(model, bath, t, quad).matrix)
        # accuracy probe: order-2 dynamics of the same instance
        gen = tclgen.build_generator(model, bath, 2, quad, float(self.probe_grid[-1]))
        out["states"] = tclgen.propagate(
            state["rho0"], gen, self.probe_grid, stepper="rk4-fixed", max_step=0.01).states
        return out

    def check(self, state: dict, out: dict, ref: dict):
        u = state["u"]
        s = np.kron(u.conj(), u)
        problems: list[str] = []
        for k, t in enumerate(self.times):
            table = out["table"][k]
            routes = rel_diff(out["cumulant"][k], table)
            internal = rel_diff(out["ordered"][k], table)
            recorded = rel_diff(table, s @ decode(ref["K4"][f"{t:g}"]) @ s.conj().T)
            if not routes < ROUTE_LIMIT:
                problems.append(f"t={t:g}: route difference {routes:.3e}")
            if not internal < ROUTE_LIMIT:
                problems.append(f"t={t:g}: internal check difference {internal:.3e}")
            if not recorded <= self.quad.tolerance:
                problems.append(f"t={t:g}: K4 differs from the record by {recorded:.3e}")
        exact = [u @ r @ u.conj().T for r in decode(ref["exact_states"])]
        err = max_trace_distance(out["states"], exact)
        _within("oracle_err", err, ref["oracle_err"], self.quad.tolerance, problems)
        return err, problems


WORKLOADS = {
    "run-o4": RunScenario(
        "[model]\npreset = spinboson-single-mode\n\n"
        "[run]\norder = 4\nt_max = 2.0\nn_output = 41\n",
        orders=(2, 4),
    ),
    "run-o2-long": RunScenario(
        "[model]\npreset = spinboson-two-mode\n\n"
        "[run]\norder = 2\nt_max = 10.0\nn_output = 101\natol = 1e-12\n",
        orders=(2,),
    ),
    "routes-d3": RouteCheck(),
}
