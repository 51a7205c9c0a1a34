"""Config parsing, CSV determinism, exit codes, subcommand behavior."""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import tclgen.cli
import tclgen.evolve
import tclgen.exact
import tclgen.models
import tclgen.quadrature
import tclgen.tcl
from tclgen.algebra import SuperOp, SystemModel
from tclgen.bath import BathSpec
from tclgen.cli import ConfigError, main, parse_config
from tclgen.cumulant import K_n_cumulant
from tclgen.evolve import NumericsError
from tclgen.quadrature import QuadratureSpec
from tclgen.tcl import K2_influence

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

PRESET_MIN = """\
[model]
preset = spinboson-single-mode
"""

EXPLICIT = """\
[model]
dim = 2
h_sys = 0.5, 0, 0, -0.5
coupling = 0, 1, 1, 0
alpha = 0.1

[bath]
modes = 1, 1, 1; 0.6, 1.7, 1
beta = 2.5
"""


@pytest.fixture(autouse=True)
def _no_out_env(monkeypatch):
    monkeypatch.delenv("TCLGEN_OUT", raising=False)


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return lines[0], header, data


# --- config parsing ---------------------------------------------------------------


def test_preset_config_defaults():
    cfg = parse_config(PRESET_MIN)
    assert cfg.preset == "spinboson-single-mode"
    assert cfg.model.alpha == 0.1
    assert cfg.fock_levels == 12
    assert (cfg.t_max, cfg.n_output, cfg.order) == (2.0, 41, 4)
    assert cfg.stepper == "rk45-adaptive"
    assert cfg.quad == QuadratureSpec("gauss-legendre-nested", 16, 1e-8)
    assert cfg.out_dir == "out"
    assert cfg.generator_times == (0.5, 1.0, 2.0)
    assert np.allclose(cfg.rho0, PLUS, atol=1e-15)
    assert all(
        (cfg.write_kernels, cfg.write_generator, cfg.write_trajectory,
         cfg.write_diagnostic, cfg.write_report)
    )
    assert len(cfg.config_hash) == 12


def test_preset_alpha_override():
    cfg = parse_config(PRESET_MIN + "alpha = 0.25\n")
    assert cfg.model.alpha == 0.25
    assert np.array_equal(cfg.model.coupling, np.array([[0, 1], [1, 0]], dtype=complex))


def test_explicit_model_and_bath():
    cfg = parse_config(EXPLICIT)
    assert cfg.preset is None
    assert cfg.model.dim == 2
    assert cfg.model.h_sys[0, 0] == 0.5
    assert len(cfg.bath.modes) == 2
    assert cfg.bath.modes[1].omega == 1.7
    assert cfg.bath.beta == 2.5


def test_infinite_beta_spelling():
    cfg = parse_config(EXPLICIT.replace("beta = 2.5", "beta = inf"))
    assert cfg.bath.beta == math.inf


def test_run_section_overrides():
    text = PRESET_MIN + (
        "[run]\nt_max = 3.5\nn_output = 7\norder = 2\nstepper = rk4-fixed\n"
        "quad_scheme = simpson-uniform\nquad_nodes_per_unit_time = 8\n"
        "rho0 = 1, 0, 0, 0\n"
        "[outputs]\ndir = myout\nkernels = no\ngenerator_times = 0.25, 0.75\n"
    )
    cfg = parse_config(text)
    assert (cfg.t_max, cfg.n_output, cfg.order, cfg.stepper) == (3.5, 7, 2, "rk4-fixed")
    assert cfg.quad.scheme == "simpson-uniform"
    assert cfg.quad.nodes_per_unit_time == 8
    assert cfg.out_dir == "myout"
    assert cfg.write_kernels is False
    assert cfg.generator_times == (0.25, 0.75)
    assert np.array_equal(cfg.rho0, np.diag([1.0, 0.0]).astype(complex))


def test_bad_beta_error_names_section_and_key():
    with pytest.raises(ConfigError, match=r"\[bath\] beta"):
        parse_config(PRESET_MIN + "[bath]\nbeta = -1\n")


def test_unknown_preset_error_lists_options():
    with pytest.raises(ConfigError, match="spinboson-two-mode"):
        parse_config("[model]\npreset = nope\n")


def test_errors_are_aggregated():
    text = PRESET_MIN + "[run]\norder = 3\nt_max = -2\nstepper = euler\n"
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    msg = str(exc_info.value)
    assert msg.count("\n  - ") == 3
    assert "order" in msg and "t_max" in msg and "stepper" in msg


def test_colliding_generator_times_rejected():
    # both times would be written to generator_K2_t1.csv
    with pytest.raises(ConfigError, match=r"\[outputs\] generator_times: times 1.0 and 1.0000001"):
        parse_config(PRESET_MIN + "[outputs]\ngenerator_times = 0.5, 1.0, 1.0000001\n")
    assert parse_config(PRESET_MIN + "[outputs]\ngenerator_times = 1.0, 1.0\n")


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        parse_config(PRESET_MIN + "[extras]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"\[run\] unknown key 'colour'"):
        parse_config(PRESET_MIN + "[run]\ncolour = red\n")


def test_missing_model_pieces_reported():
    with pytest.raises(ConfigError, match="missing: h_sys, coupling"):
        parse_config("[model]\ndim = 2\nalpha = 0.1\n[bath]\nmodes = 1,1,1\nbeta = 1\n")
    with pytest.raises(ConfigError, match=r"\[bath\] modes and beta are required"):
        parse_config(
            "[model]\ndim = 2\nalpha = 0.1\nh_sys = 0.5,0,0,-0.5\ncoupling = 0,1,1,0\n"
        )


def test_rho0_validation_messages():
    for value, msg in (
        ("1, 0, 0", "expected 4 row-major entries"),
        ("1, 1, 0, 0", "not Hermitian"),
        ("1, 0, 0, 1", "trace is not 1"),
        ("1.5, 0, 0, -0.5", "not positive semidefinite"),
    ):
        with pytest.raises(ConfigError, match=msg):
            parse_config(PRESET_MIN + f"[run]\nrho0 = {value}\n")


def test_ini_syntax_error_is_a_config_error():
    with pytest.raises(ConfigError, match="syntax:"):
        parse_config("this is not an ini file ][")


def test_config_hash_tracks_text():
    a = parse_config(PRESET_MIN)
    b = parse_config(PRESET_MIN)
    c = parse_config(PRESET_MIN + "alpha = 0.2\n")
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash


def test_non_commuting_matrix_errors_surface():
    with pytest.raises(ConfigError, match=r"\[model\].*Hermitian"):
        parse_config(EXPLICIT.replace("h_sys = 0.5, 0, 0, -0.5", "h_sys = 0, 1, 0, 0"))


# --- run subcommand end to end ------------------------------------------------------


RUN_SMALL = """\
[model]
preset = spinboson-single-mode

[run]
t_max = 1.0
n_output = 6
order = 4
quad_nodes_per_unit_time = 8

[outputs]
generator_times = 0.5, 1.0
"""


def test_run_writes_all_artifacts_deterministically(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(RUN_SMALL)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outs.append(out)
    expected = [
        "kernels.csv",
        "generator_K2_t0.5.csv",
        "generator_K4_t0.5.csv",
        "generator_K2_t1.csv",
        "generator_K4_t1.csv",
        "trajectory.csv",
        "diagnostic.csv",
        "report.txt",
    ]
    for fname in expected:
        fa, fb = outs[0] / fname, outs[1] / fname
        assert fa.is_file(), fname
        assert fa.read_bytes() == fb.read_bytes(), fname


def _record_calls(monkeypatch, **originals):
    """Wrap each named function in every tclgen namespace that holds it.

    Returns ``{name: [positional arguments of each call]}``.
    """
    calls = {key: [] for key in originals}

    def recording(key, original):
        def wrapper(*args, **kwargs):
            calls[key].append(args)
            return original(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "tclgen" or name.startswith("tclgen."):
            for attr, value in list(vars(module).items()):
                for key, original in originals.items():
                    if value is original:
                        monkeypatch.setattr(module, attr, recording(key, original))
    return calls


def test_run_computes_each_k4_once(tmp_path, monkeypatch):
    # count K4_exact and K4_influence in every tclgen namespace that holds them
    originals = {"exact": tclgen.exact.K4_exact, "influence": tclgen.tcl.K4_influence}
    calls = _record_calls(monkeypatch, **originals)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(RUN_SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    times = {key: [float(args[2]) for args in made] for key, made in calls.items()}
    # the 33 table nodes include both generator times; the quadrature table
    # runs only in the report's route check, once per generator time
    cfg = parse_config(RUN_SMALL)
    assert len(times["exact"]) == len(set(times["exact"])) == 33
    assert times["influence"] == [float(t) for t in cfg.generator_times]
    for t in cfg.generator_times:
        k4 = originals["exact"](cfg.model, cfg.bath, t).matrix
        expected = [",".join(f"{v:.12e}" for z in row for v in (z.real, z.imag))
                    for row in k4]
        lines = (out / f"generator_K4_t{t:g}.csv").read_text().splitlines()
        assert lines[2:] == expected


def test_route_check_reuses_a_quadrature_k4_from_the_memo(tmp_path, monkeypatch):
    # five modes are past the exact route's cost limit at t = 0.5, so the
    # generator's memo already holds K4_influence(0.5) on the run's grid
    calls = _record_calls(monkeypatch, influence=tclgen.tcl.K4_influence)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(
        "[model]\ndim = 2\nh_sys = 0.5, 0, 0, -0.5\ncoupling = 0, 1, 1, 0\n"
        "alpha = 0.1\n[bath]\nbeta = 2.5\n"
        "modes = " + "; ".join(f"0.3, {0.5 + 0.1 * k:g}, 1" for k in range(5)) + "\n"
        "[run]\nt_max = 0.5\norder = 4\n"
        "[outputs]\ngenerator_times = 0.5\ntrajectory = false\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [float(args[2]) for args in calls["influence"]] == [0.5]
    report = (out / "report.txt").read_text()
    assert re.search(r"t= 5\.000000000000e-01  rel_diff= \S+  gen_diff= 0\.000e\+00", report)


def test_order_two_run_uses_no_quadrature(tmp_path, monkeypatch):
    # the diagnostic and the coupling scan take the forward map in closed form
    calls = _record_calls(
        monkeypatch,
        simplex2=tclgen.quadrature.integrate_simplex2,
        correction=tclgen.evolve.forward_map_correction,
    )
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(RUN_SMALL.replace("order = 4", "order = 2"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "diagnostic.csv").is_file()
    assert "coupling scan of forward-map conditioning" in (out / "report.txt").read_text()
    assert calls == {"simplex2": [], "correction": []}


def test_run_trajectory_is_constant_when_uncoupled(tmp_path):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        PRESET_MIN + "alpha = 0\n"
        "[run]\nt_max = 1.0\nn_output = 5\norder = 2\nquad_nodes_per_unit_time = 8\n"
        "[outputs]\nkernels = false\ngenerator = false\ndiagnostic = false\n"
        "report = false\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, header, data = read_csv(out / "trajectory.csv")
    state_cols = [k for k, h in enumerate(header) if h.startswith(("re_", "im_"))]
    states = data[:, state_cols]
    assert np.max(np.abs(states - states[0])) < 1e-12


def test_report_contents_for_dephasing(tmp_path):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        "[model]\npreset = dephasing-single-mode\n"
        "[run]\nt_max = 1.5\nn_output = 11\norder = 4\nquad_nodes_per_unit_time = 8\n"
        "[outputs]\nkernels = false\ngenerator = false\ngenerator_times = 1.0\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "fourth-order route comparison (kernel table vs ordered cumulant):" in report
    assert "exact reference comparison (closed-form dephasing solution):" in report
    coh = re.search(r"max coherence error\s+= (\S+)", report)
    assert coh is not None
    assert float(coh.group(1)) < 1e-6
    trend = re.search(r"sigma_min non-increasing in alpha: (yes|no) \((\d+)/19 steps\)", report)
    assert trend is not None


def test_report_route_agreement_for_spinboson(tmp_path):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        PRESET_MIN
        + "[run]\norder = 4\nquad_nodes_per_unit_time = 8\n"
        "[outputs]\nkernels = false\ngenerator = false\ntrajectory = false\n"
        "diagnostic = false\ngenerator_times = 1.0\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    match = re.search(r"t= 1\.0+e\+00\s+rel_diff= (\S+)", report)
    assert match is not None
    assert float(match.group(1)) < 1e-8


@pytest.mark.parametrize("npu", [8, 16])
def test_route_check_ignores_simpson_quadrature_error(tmp_path, npu):
    # the generator's K4 is exact while the check routes carry the Simpson
    # rule's error (about 3e-3 relative at t = 0.5 with 8 nodes per unit
    # time); the route check must compare the two quadrature routes, which
    # share that error, and report the generator's distance separately
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        PRESET_MIN
        + f"[run]\norder = 4\nt_max = 2.0\nquad_scheme = simpson-uniform\n"
        f"quad_nodes_per_unit_time = {npu}\n"
        "[outputs]\nkernels = false\ngenerator = false\ntrajectory = false\n"
        "diagnostic = false\ngenerator_times = 0.5, 2.0\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = re.findall(r"rel_diff= (\S+)\s+gen_diff= (\S+)", (out / "report.txt").read_text())
    assert len(rows) == 2
    assert all(float(rel) < 1e-12 for rel, _ in rows)
    assert 1e-8 < float(rows[0][1]) < 1e-2  # the quadrature error, reported


def test_order2_run_skips_route_comparison(tmp_path):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        "[model]\npreset = dephasing-single-mode\n"
        "[run]\norder = 2\nt_max = 1.0\nn_output = 5\nquad_nodes_per_unit_time = 8\n"
        "[outputs]\nkernels = false\ngenerator = false\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "(order-2 run: fourth-order routes not exercised)" in report
    assert "rel_diff" not in report


# --- exit codes ------------------------------------------------------------------------


def test_missing_config_flag_is_usage_error(tmp_path, capsys):
    assert main(["run"]) == 1
    assert "--config PATH is required" in capsys.readouterr().err


def test_unreadable_config_is_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "io error:" in capsys.readouterr().err


def test_bad_usage_is_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_quad_nodes_override(tmp_path, capsys):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN)
    assert main(["kernels", "--config", str(cfg_path), "--quad-nodes", "3",
                 "--out", str(tmp_path / "o")]) == 1
    assert "--quad-nodes" in capsys.readouterr().err


def test_equivalence_violation_exits_two_after_writing_report(tmp_path, capsys, monkeypatch):
    original = K_n_cumulant

    def perturbed(model, bath, t, n, quad):
        out = original(model, bath, t, n, quad)
        return SuperOp(out.dim, out.matrix + 1e-3 * np.eye(out.dim**2))

    monkeypatch.setattr(tclgen.cli, "K_n_cumulant", perturbed)
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        PRESET_MIN
        + "[run]\norder = 4\nquad_nodes_per_unit_time = 8\n"
        "[outputs]\nkernels = false\ngenerator = false\ntrajectory = false\n"
        "diagnostic = false\ngenerator_times = 1.0\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "equivalence violation:" in capsys.readouterr().err
    report = (out / "report.txt").read_text()
    assert "rel_diff" in report  # forensics stay on disk


def test_numeric_failure_exits_three(tmp_path, capsys, monkeypatch):
    def raiser(*args, **kwargs):
        raise NumericsError("stub stepper failure")

    monkeypatch.setattr(tclgen.cli, "propagate", raiser)
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        "[model]\npreset = dephasing-single-mode\n"
        "[run]\norder = 2\nt_max = 1.0\nquad_nodes_per_unit_time = 8\n"
        "[outputs]\nkernels = false\ngenerator = false\ndiagnostic = false\n"
        "report = false\n"
    )
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure: stub stepper failure" in capsys.readouterr().err


# --- output directory precedence ----------------------------------------------------------


def test_out_dir_precedence(tmp_path, monkeypatch):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        "[model]\npreset = dephasing-single-mode\n"
        "[run]\nn_output = 3\n"
        f"[outputs]\ndir = {tmp_path / 'from_config'}\n"
    )
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"

    assert main(["kernels", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config" / "kernels.csv").is_file()

    monkeypatch.setenv("TCLGEN_OUT", str(env_dir))
    assert main(["kernels", "--config", str(cfg_path)]) == 0
    assert (env_dir / "kernels.csv").is_file()

    assert main(["kernels", "--config", str(cfg_path), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "kernels.csv").is_file()


# --- kernels and generator-dump subcommands -------------------------------------------------


def test_kernels_csv_quarter_period_values(tmp_path):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        "[model]\npreset = dephasing-single-mode\n"
        f"[run]\nt_max = {math.pi}\nn_output = 3\n"
    )
    out = tmp_path / "out"
    assert main(["kernels", "--config", str(cfg_path), "--out", str(out)]) == 0
    meta, header, data = read_csv(out / "kernels.csv")
    assert header == ["tau", "D", "D1"]
    assert np.allclose(data[:, 1], [0.0, 1.0, 0.0], atol=1e-10)
    assert data[0, 2] == pytest.approx(1.0 / math.tanh(0.5), abs=1e-12)


def test_generator_dump_order2_files_and_values(tmp_path):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN + "[run]\norder = 2\nquad_nodes_per_unit_time = 8\n")
    out = tmp_path / "out"
    assert main(["generator-dump", "--config", str(cfg_path), "--out", str(out),
                 "--times", "0.5,1.0"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "generator_K2_t0.5.csv",
        "generator_K2_t1.csv",
    ]
    _, header, data = read_csv(out / "generator_K2_t1.csv")
    assert header == [f"{p}{j}" for j in range(4) for p in ("re", "im")]
    cfg = parse_config(cfg_path.read_text())
    quad = QuadratureSpec("gauss-legendre-nested", 8, 1e-8)
    k2 = K2_influence(cfg.model, cfg.bath, 1.0, quad).matrix
    reconstructed = data[:, 0::2] + 1j * data[:, 1::2]
    assert np.max(np.abs(reconstructed - k2)) < 1e-12


def test_generator_dump_order4_adds_k4_files(tmp_path):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN + "[run]\norder = 4\nquad_nodes_per_unit_time = 8\n")
    out = tmp_path / "out"
    assert main(["generator-dump", "--config", str(cfg_path), "--out", str(out),
                 "--times", "0.5"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "generator_K2_t0.5.csv",
        "generator_K4_t0.5.csv",
    ]


def test_generator_dump_prints_term_table(tmp_path, capsys):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN + "[run]\norder = 2\nquad_nodes_per_unit_time = 8\n")
    assert main(["generator-dump", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o"), "--times", "0.5",
                 "--print-k4-table"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 18
    assert lines[-1].startswith("# global prefactor 1/4")


def test_generator_dump_bad_times(tmp_path, capsys):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN)
    # 1.0 and 1.0000001 would both be written to generator_K2_t1.csv
    for times, complaint in (("abc", "--times"),
                             ("0.5,1.0,1.0000001", "--times: times 1.0 and 1.0000001")):
        assert main(["generator-dump", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o"), "--times", times]) == 1
        assert complaint in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- cumulant-terms subcommand ----------------------------------------------------------------


def test_cumulant_terms_even_listing(capsys):
    assert main(["cumulant-terms", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "- 2+2      (t,t1)(t2,t3)"
    assert lines[-1] == "+ 4        (t,t1,t2,t3)"
    assert sum(1 for line in lines if line.startswith("-")) == 3


def test_cumulant_terms_raw_listing(capsys):
    assert main(["cumulant-terms", "4", "--raw"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 26


def test_cumulant_terms_sixth_order(capsys):
    assert main(["cumulant-terms", "6"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 46


def test_cumulant_terms_rejects_nonpositive(capsys):
    assert main(["cumulant-terms", "0"]) == 1
    assert "n must be >= 1" in capsys.readouterr().err


# --- scaling-study subcommand -------------------------------------------------------------------


def test_scaling_study_flag_validation(capsys):
    assert main(["scaling-study", "--alphas", "0.1", "--t-max", "0",
                 "--n-output", "1", "--fock", "1"]) == 1
    err = capsys.readouterr().err
    for frag in ("--alphas", "--t-max", "--n-output", "--fock"):
        assert frag in err


def test_scaling_study_rejects_an_oversized_purified_reference(monkeypatch, capsys):
    # Two thermal modes purify to four, so the preset's 10 levels would need
    # dimension 2 * 10^4; the check fires before any generator is built.
    def no_generator(*args, **kwargs):
        raise AssertionError("generator built before the dimension check")

    monkeypatch.setattr(tclgen.models, "build_generator", no_generator)
    assert main(["scaling-study", "--preset", "spinboson-two-mode"]) == 1
    err = capsys.readouterr().err
    assert "dimension 20000 exceeds the cap 4096" in err
    assert "at most 6 Fock levels per mode fit" in err


def test_scaling_study_takes_k2_in_closed_form(monkeypatch):
    # K4 comes from the closed form too: no quadrature route runs
    calls = _record_calls(monkeypatch, k2=tclgen.tcl.K2_influence,
                          k4=tclgen.tcl.K4_influence)
    res = tclgen.cli.scaling_study(alphas=(0.1, 0.2), t_max=0.5, fock_levels=4,
                                   n_output=6)
    assert calls == {"k2": [], "k4": []}
    assert np.all(np.isfinite(res.errors_order2 + res.errors_order4))


def test_scaling_study_propagates_the_generator_of_build_generator(monkeypatch):
    # every rung is build_generator's cubic generator, the one `tclgen run`
    # can propagate; a hand run of one rung reproduces its error bitwise
    alphas, t_max, n_output = (0.1, 0.2), 0.5, 6
    made = []
    original = tclgen.tcl.build_generator

    def recording(*args, **kwargs):
        made.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(tclgen.models, "build_generator", recording)
    res = tclgen.cli.scaling_study(alphas=alphas, t_max=t_max, fock_levels=4,
                                   n_output=n_output)
    assert len(made) == 2 * len(alphas)
    assert all(kwargs == {"interp": "cubic"} for _, kwargs in made)
    assert [args[2] for args, _ in made] == [2, 4, 2, 4]
    assert [args[0].alpha for args, _ in made] == [0.1, 0.1, 0.2, 0.2]

    preset = tclgen.get_preset("spinboson-single-mode")
    model = SystemModel(2, preset.model.h_sys, preset.model.coupling, 0.2)
    t_grid = np.linspace(0.0, t_max, n_output)
    rho0 = tclgen.models._default_rho0(2)
    oracle = tclgen.exact_small_bath(
        rho0, model, tclgen.TruncatedBathConfig(preset.bath, 4, purified=True),
        t_grid, check_truncation=False)
    gen = original(model, preset.bath, 4, QuadratureSpec(), t_max, interp="cubic")
    traj = tclgen.propagate(rho0, gen, t_grid, stepper="rk45-adaptive", atol=1e-13)
    err = max(tclgen.trace_distance(a, b) for a, b in zip(traj.states, oracle.states))
    assert err == res.errors_order4[1]


def test_scaling_study_smoke(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "scaling-study", "--alphas", "0.1,0.2", "--t-max", "1.0",
        "--n-output", "11", "--fock", "6",
        "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"order-2 slope: -?\d+\.\d{3}", stdout)
    assert re.search(r"order-4 slope: -?\d+\.\d{3}", stdout)
    _, header, data = read_csv(out / "scaling.csv")
    assert header == ["alpha", "err_order2", "err_order4"]
    assert data.shape == (2, 3)
    assert np.array_equal(data[:, 0], [0.1, 0.2])
    assert np.all(data[:, 1:] > 0)
