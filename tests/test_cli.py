"""Config parsing, CSV determinism, exit codes, subcommand behavior."""

import hashlib
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tclgen.cli
import tclgen.cumulant
import tclgen.evolve
import tclgen.exact
import tclgen.models
import tclgen.quadrature
import tclgen.tcl
from tclgen.algebra import SuperOp, SystemModel
from tclgen.bath import BathSpec
from tclgen.cli import ConfigError, main, parse_config
from tclgen.evolve import NumericsError
from tclgen.quadrature import QuadratureSpec
from tclgen.tcl import K2_influence
from test_exact import DETERMINISTIC, roundoff_bound

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
    assert cfg.stepper == "magnus4"
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


def test_preset_rejects_explicit_model_keys():
    # alpha may override a preset; dim, h_sys and coupling may not, whatever their value
    text = PRESET_MIN + "dim = 3\nh_sys = 9, 9, 9, 9\ncoupling = banana\nalpha = 0.2\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.messages == [
        f"[model] {key}: cannot be combined with 'preset' (only alpha overrides a preset)"
        for key in ("dim", "h_sys", "coupling")
    ]
    with pytest.raises(ConfigError) as info:
        parse_config("[model]\npreset = nope\ncoupling = 0, 1, 1, 0\n[run]\norder = 3\n")
    assert [m.split(":")[0] for m in info.value.messages] == [
        "[model] preset", "[model] coupling", "[run] order"]


def test_readme_config_reference_matches_the_schema_table():
    # the four tables under README "Config reference" list exactly the keys of
    # cli._KEYS, in its order, and state every literal default it holds
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    reference = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in reference.split("\n### ")[1:]:
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in block.splitlines() if line.startswith("| `")]
        tables[re.match(r"`\[(\w+)\]`", block).group(1)] = {
            row[0].strip("`"): row[-1] for row in rows}
    schema = tclgen.cli._KEYS
    assert list(tables) == list(schema)
    for section, keys in schema.items():
        assert list(tables[section]) == list(keys), section
        for key, (conv, default, _) in keys.items():
            if default is not None:
                literal = re.search(r"`([^`]*)`", tables[section][key]).group(1)
                assert conv(literal) == default, (section, key, literal)


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


def test_quad_nodes_above_96_rejected_with_other_errors():
    text = PRESET_MIN + "[run]\nquad_nodes_per_unit_time = 100000\norder = 3\n"
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    msg = str(exc_info.value)
    assert msg.count("\n  - ") == 2
    assert "[run] quad_nodes_per_unit_time: must be from 4 to 96, got 100000" in msg
    cfg = parse_config(PRESET_MIN + "[run]\nquad_nodes_per_unit_time = 96\n")
    assert cfg.quad.nodes_per_unit_time == 96


def test_colliding_generator_times_rejected():
    # both times would be written to generator_K2_t1.csv
    with pytest.raises(ConfigError, match=r"\[outputs\] generator_times: times 1.0 and 1.0000001"):
        parse_config(PRESET_MIN + "[outputs]\ngenerator_times = 0.5, 1.0, 1.0000001\n")
    # so would a repeated time, twice
    with pytest.raises(ConfigError, match=r"\[outputs\] generator_times: time 1.0 is given twice"):
        parse_config(PRESET_MIN + "[outputs]\ngenerator_times = 1.0, 1.0\n")


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


# every numeric key of an explicit config, with a finite value
_NUMERIC_KEYS = {
    ("model", "dim"): "2",
    ("model", "h_sys"): "0.5, 0, 0, -0.5",
    ("model", "coupling"): "0, 1, 1, 0",
    ("model", "alpha"): "0.1",
    ("bath", "modes"): "1, 1, 1; 0.6, 1.7, 1",
    ("bath", "beta"): "2.5",
    ("bath", "fock_levels"): "6",
    ("run", "t_max"): "1.0",
    ("run", "n_output"): "6",
    ("run", "order"): "2",
    ("run", "max_step"): "0.01",
    ("run", "atol"): "1e-10",
    ("run", "quad_nodes_per_unit_time"): "8",
    ("run", "quad_tolerance"): "1e-8",
    ("run", "rho0"): "1, 0, 0, 0",
    ("outputs", "generator_times"): "0.5, 1.0",
}
_NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "1e309", "infj", "1+nanj"])


@DETERMINISTIC
@given(st.fixed_dictionaries({
    key: st.none() | st.tuples(st.integers(0, 5), _NON_FINITE) for key in _NUMERIC_KEYS
}))
def test_config_numbers_are_finite_or_rejected(swaps):
    # one entry of any numeric key may be infinite or NaN; the config is
    # then rejected as a whole, or every number that comes back is finite
    sections: dict[str, list[str]] = {}
    for (section, key), value in _NUMERIC_KEYS.items():
        if swaps[section, key] is not None:
            index, bad = swaps[section, key]
            parts = re.split(r"([,;])", value)
            parts[2 * (index % ((len(parts) + 1) // 2))] = bad
            value = "".join(parts)
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                   for name, lines in sections.items())
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    numbers = [cfg.model.h_sys, cfg.model.coupling, cfg.model.alpha, cfg.bath.modes,
               cfg.fock_levels, cfg.t_max, cfg.n_output, cfg.order, cfg.max_step, cfg.atol,
               cfg.quad.nodes_per_unit_time, cfg.quad.tolerance, cfg.rho0,
               cfg.generator_times]
    assert all(np.all(np.isfinite(np.asarray(x))) for x in numbers)
    assert cfg.bath.beta > 0  # inf is the zero-temperature limit


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


def _assert_csv_text(path: Path, meta: str, header: list[str], rows) -> None:
    """``path`` holds ``# meta``, the header, then each row as ``%.12e`` values,
    and ends in one newline."""
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n"), path.name
    lines = text[:-1].split("\n")
    assert lines[0] == f"# {meta}", path.name
    assert lines[1] == ",".join(header), path.name
    assert lines[2:] == [",".join(f"{v:.12e}" for v in row) for row in rows], path.name


def _re_im_row(m) -> list[float]:
    return [v for z in np.ravel(m) for v in (z.real, z.imag)]


def test_csv_text_is_the_library_arrays(tmp_path):
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(RUN_SMALL)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    # the library's own arrays, computed in the order run_scenario computes them
    cfg = parse_config(RUN_SMALL)
    meta = f"config={cfg.config_hash} version={tclgen.__version__}"
    t_grid = np.linspace(0.0, cfg.t_max, cfg.n_output)
    k = tclgen.bath.tabulate_kernels(cfg.bath, cfg.t_max, cfg.n_output)
    _assert_csv_text(out / "kernels.csv", meta, ["tau", "D", "D1"],
                     zip(k.tau_grid, k.D_values, k.D1_values))
    gen = tclgen.tcl.build_generator(cfg.model, cfg.bath, cfg.order, cfg.quad, cfg.t_max,
                                     interp="cubic")
    for t in cfg.generator_times:
        coeffs = gen.coefficients(t)
        for name, mat in (("K2", coeffs.k2), ("K4", coeffs.k4)):
            _assert_csv_text(out / f"generator_{name}_t{t:g}.csv",
                             f"{meta} t={t:.12e} order_coefficient={name}",
                             [f"{p}{j}" for j in range(4) for p in ("re", "im")],
                             map(_re_im_row, mat))
    traj = tclgen.propagate(cfg.rho0, gen, t_grid, stepper=cfg.stepper,
                            max_step=cfg.max_step, atol=cfg.atol)
    header = ("time,re_0_0,im_0_0,re_0_1,im_0_1,re_1_0,im_1_0,re_1_1,im_1_1,"
              "trace_dev,herm_dev,min_eig").split(",")
    _assert_csv_text(out / "trajectory.csv", meta, header,
                     ([t, *_re_im_row(state), tr, herm, mn] for t, state, tr, herm, mn in
                      zip(traj.times, traj.states, traj.trace_deviation,
                          traj.herm_deviation, traj.min_eigenvalue)))
    diag = tclgen.invertibility_diagnostic(cfg.model, cfg.bath, t_grid)
    _assert_csv_text(out / "diagnostic.csv", meta, ["time", "sigma_min", "condition_number"],
                     zip(diag.times, diag.sigma_min, diag.condition_number))

    out = tmp_path / "scaling"
    assert main(["scaling-study", "--alphas", "0.1,0.2", "--t-max", "0.5",
                 "--n-output", "6", "--fock", "4", "--out", str(out)]) == 0
    res = tclgen.models.scaling_study(preset_name="spinboson-single-mode", alphas=(0.1, 0.2),
                                      t_max=0.5, fock_levels=4, n_output=6)
    meta = (out / "scaling.csv").read_text().split("\n", 1)[0][2:]
    assert re.fullmatch(rf"config=[0-9a-f]{{12}} version={re.escape(tclgen.__version__)}", meta)
    _assert_csv_text(out / "scaling.csv", meta, ["alpha", "err_order2", "err_order4"],
                     zip(res.alphas, res.errors_order2, res.errors_order4))


def test_report_is_the_run_result(tmp_path):
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(RUN_SMALL)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    # every number below the report's header is a field of the library's
    # RunResult, formatted as the report formats it
    cfg = parse_config(RUN_SMALL)
    res = tclgen.models.simulate(
        cfg.model, cfg.bath, cfg.rho0, t_max=cfg.t_max, n_output=cfg.n_output,
        order=cfg.order, quad=cfg.quad, stepper=cfg.stepper, max_step=cfg.max_step,
        atol=cfg.atol, generator_times=cfg.generator_times, preset=cfg.preset,
        fock_levels=cfg.fock_levels, trajectory=True, diagnostic=True, report=True)
    traj, svals = res.trajectory, res.scan_singular_values
    drops = int(np.sum(np.diff(svals[:, -1]) <= 1e-14))
    expected = [
        f"stepper work: {traj.steps} steps, {traj.evaluations} generator evaluations",
        "trajectory monitors:",
        f"  max |trace - 1|    = {traj.trace_deviation.max():.3e}",
        f"  max hermiticity dev = {traj.herm_deviation.max():.3e}",
        f"  min eigenvalue      = {traj.min_eigenvalue.min():.3e}",
        "",
        "fourth-order route comparison (kernel table vs ordered cumulant):",
        *(f"  t= {t:.12e}  rel_diff= {rel:.3e}  margin= {rel / threshold:.3e}"
          for t, rel, threshold in res.routes),
        "",
        f"exact reference comparison ({res.reference_label}):",
        f"  max trace distance over grid = {res.reference_error:.3e}",
        f"  reference shift at +2 levels = {res.truncation_shift:.3e}",
        f"  max coherence error          = {res.coherence_error:.3e}",
        "",
        f"coupling scan of forward-map conditioning at t = {cfg.t_max:g}:",
        "  alpha  sigma_min  cond",
        *(f"  {a:.6f}  {s[-1]:.12e}  {s[0] / s[-1]:.12e}" for a, s in zip(res.scan_alphas, svals)),
        f"  sigma_min non-increasing in alpha: {'yes' if drops == 19 else 'no'} "
        f"({drops}/19 steps)",
        "",
    ]
    assert (out / "report.txt").read_text().splitlines()[6:] == expected
    assert [t for t, _, _ in res.routes] == [0.5, 1.0]
    assert res.reference_label == "truncated product-space evolution (12 levels/mode)"
    assert res.reference_error == pytest.approx(
        max(tclgen.trace_distance(a, b) for a, b in zip(traj.states, res.reference_states)))


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
    # count the K4 routes in every tclgen namespace that holds them, and keep
    # the generator the run builds, whose memo the CSVs are written from
    originals = {"exact": tclgen.exact.K4_exact, "grid": tclgen.exact._k4_exact_grid,
                 "influence": tclgen.tcl.K4_influence,
                 "table": tclgen.exact.K4_table_exact_times}
    calls = _record_calls(monkeypatch, **originals)
    built, build = [], tclgen.models.build_generator

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tclgen.models, "build_generator", keep)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(RUN_SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    # the 33 table nodes, both generator times among them, come from one grid
    # call of 32 steps to t_max; the closed-form kernel table runs only in
    # the report's route check, at each generator time, and neither the
    # per-time closed form nor the quadrature table runs at all
    cfg = parse_config(RUN_SMALL)
    assert [tuple(map(float, args[2:4])) for args in calls["grid"]] == [(1.0, 32.0)]
    assert calls["exact"] == []
    assert ([float(t) for args in calls["table"] for t in args[2]]
            == [float(t) for t in cfg.generator_times])
    assert calls["influence"] == []
    (gen,) = built
    for t in cfg.generator_times:
        k4 = gen.coefficients(t).k4
        expected = [",".join(tclgen.cli._fmt(v) for z in row for v in (z.real, z.imag))
                    for row in k4]
        lines = (out / f"generator_K4_t{t:g}.csv").read_text().splitlines()
        assert lines[2:] == expected
        per_time = originals["exact"](cfg.model, cfg.bath, t).matrix
        assert np.linalg.norm(k4 - per_time) <= 1e-13 * np.linalg.norm(per_time)


def test_run_checks_every_generator_time_in_one_call(tmp_path, monkeypatch):
    # the benchmark's order-4 run: its three generator times go to one route
    # check, which takes the closed-form kernel table for all three in one call
    calls = _record_calls(monkeypatch, check=tclgen.tcl.check_k4_routes,
                          table=tclgen.exact.K4_table_exact_times)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text("[model]\npreset = spinboson-single-mode\n\n"
                        "[run]\norder = 4\nt_max = 2.0\nn_output = 41\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(calls["check"]) == len(calls["table"]) == 1
    assert list(calls["table"][0][2]) == [0.5, 1.0, 2.0]
    assert len(re.findall(r"margin= ", (out / "report.txt").read_text())) == 3


FIVE_MODES = (
    "[model]\ndim = 2\nh_sys = 0.5, 0, 0, -0.5\ncoupling = 0, 1, 1, 0\n"
    "alpha = 0.1\n[bath]\nbeta = 2.5\n"
    "modes = " + "; ".join(f"0.3, {0.5 + 0.1 * k:g}, 1" for k in range(5)) + "\n"
    "[run]\nt_max = 0.5\norder = 4\n"
    "[outputs]\ngenerator_times = 0.5\ntrajectory = false\n"
)


def test_route_check_reuses_a_quadrature_k4_from_the_memo(tmp_path, monkeypatch):
    # five modes are past the exact route's cost limit at t = 0.5, so the
    # generator's memo already holds K4_influence(0.5) on the run's grid
    calls = _record_calls(monkeypatch, influence=tclgen.tcl.K4_influence)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(FIVE_MODES)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [float(args[2]) for args in calls["influence"]] == [0.5]
    report = (out / "report.txt").read_text()
    row = re.search(r"t= 5\.000000000000e-01  rel_diff= (\S+)  margin= (\S+)", report)
    assert row is not None
    assert float(row.group(2)) == pytest.approx(float(row.group(1)) / 1e-7, rel=1e-3)


def test_route_check_follows_the_cost_rule_at_each_time(tmp_path, monkeypatch):
    # three modes: chains d^3 = 864 is past 12 points^2 = 768 at t = 0.5 but
    # not 3072 at t = 1, so the memo holds K4_influence(0.5) and K4_exact(1);
    # the check reuses each and runs the other route at that time only
    calls = _record_calls(
        monkeypatch, exact=tclgen.exact.K4_exact, influence=tclgen.tcl.K4_influence,
        table=tclgen.exact.K4_table_exact_times, cumulant=tclgen.cumulant.K_n_cumulant)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(
        "[model]\ndim = 2\nh_sys = 0.5, 0, 0, -0.5\ncoupling = 0, 1, 1, 0\n"
        "alpha = 0.1\n[bath]\nbeta = 2.5\n"
        "modes = 0.3, 0.5, 1; 0.3, 0.7, 1; 0.3, 0.9, 1\n"
        "[run]\nt_max = 1.0\norder = 4\n"
        "[outputs]\ngenerator_times = 0.5, 1.0\ntrajectory = false\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    times = {key: [float(t) for args in made for t in np.atleast_1d(args[2])]
             for key, made in calls.items()}
    assert times == {"exact": [1.0], "influence": [0.5], "table": [1.0], "cumulant": [0.5]}
    assert len(re.findall(r"rel_diff= \S+  margin= \S+", (out / "report.txt").read_text())) == 2


def test_route_check_follows_the_table_of_a_grid_run(tmp_path, monkeypatch):
    # five modes to t_max = 2 take every node from the closed-form grid,
    # t = 0.5 too, where the per-time rule would take quadrature: the check
    # sets that node against the closed-form kernel table
    calls = _record_calls(monkeypatch, table=tclgen.exact.K4_table_exact_times,
                          cumulant=tclgen.cumulant.K_n_cumulant)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(FIVE_MODES.replace("t_max = 0.5", "t_max = 2")
                        .replace("trajectory = false", "trajectory = true"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [float(t) for args in calls["table"] for t in args[2]] == [0.5]
    assert calls["cumulant"] == []
    row = re.search(r"t= 5\.000000000000e-01  rel_diff= \S+  margin= (\S+)",
                    (out / "report.txt").read_text())
    assert row is not None and float(row.group(1)) <= 0.1


def test_cli_holds_no_k4_route():
    # the route choice and both route checks live in tclgen.tcl
    routes = ("K4_exact", "K4_table_exact", "K4_influence", "K_n_cumulant")
    source = Path(tclgen.cli.__file__).read_text()
    for name in routes:
        assert name not in vars(tclgen.cli) and name not in source
    objects = {id(getattr(tclgen, name)) for name in routes}
    assert not objects & {id(value) for value in vars(tclgen.cli).values()}


def test_cli_holds_no_run_science():
    # the reference choice, the route loop, the trace distances, the
    # diagnostic and the coupling scan's SVD live in tclgen.models.simulate
    names = ("trace_distance", "exact_small_bath", "dephasing_exact", "forward_map_exact",
             "invertibility_diagnostic", "propagate", "check_k4_routes")
    source = Path(tclgen.cli.__file__).read_text()
    for name in ("svd", *names):
        assert name not in vars(tclgen.cli) and name not in source
    objects = {id(np.linalg.svd), *(id(getattr(tclgen.models, name)) for name in names)}
    assert not objects & {id(value) for value in vars(tclgen.cli).values()}


def test_order_four_run_uses_no_quadrature(tmp_path, monkeypatch):
    # the generator and both sides of the route check are closed-form
    calls = _record_calls(
        monkeypatch,
        interval=tclgen.quadrature.integrate_interval,
        simplex2=tclgen.quadrature.integrate_simplex2,
        simplex3=tclgen.quadrature.integrate_simplex3,
    )
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(RUN_SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(re.findall(r"rel_diff= ", (out / "report.txt").read_text())) == 2
    assert calls == {"interval": [], "simplex2": [], "simplex3": []}


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


def test_rk4_fixed_run_stays_inside_the_generator_table(tmp_path):
    # 20 steps of 0.01 from t = 0.8 end one ulp past t = 1.0, the table's
    # end; each step's last stage is taken no later than its interval's end
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(RUN_SMALL.replace("order = 4\n", "order = 4\nstepper = rk4-fixed\n"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "stepper=rk4-fixed" in (out / "report.txt").read_text()


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


@pytest.mark.parametrize("stepper", ["magnus4", "rk45-adaptive"])
def test_report_states_the_stepper_work(tmp_path, stepper):
    # one line before the trajectory monitors: the trajectory's own counts
    # magnus4 is the default, which RUN_SMALL leaves unset
    setting = "" if stepper == "magnus4" else f"stepper = {stepper}\n"
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(RUN_SMALL.replace("order = 4\n", "order = 4\n" + setting))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = parse_config(cfg_path.read_text())
    gen = tclgen.tcl.build_generator(cfg.model, cfg.bath, cfg.order, cfg.quad, cfg.t_max,
                                     interp="cubic")
    traj = tclgen.propagate(cfg.rho0, gen, np.linspace(0.0, cfg.t_max, cfg.n_output),
                            stepper=cfg.stepper, max_step=cfg.max_step, atol=cfg.atol)
    lines = (out / "report.txt").read_text().splitlines()
    assert f"stepper={stepper}" in lines[4]
    at = lines.index("trajectory monitors:")
    assert lines[at - 1] == (f"stepper work: {traj.steps} steps, {traj.evaluations} "
                             "generator evaluations")
    assert sum(line.startswith("stepper work:") for line in lines) == 1


def test_report_states_the_reference_truncation_shift(tmp_path, monkeypatch):
    # the shift comes from the oracle call the comparison already makes, and
    # only the report states it (6.7e-5 at 6 levels); over the cap the report
    # says the check did not run
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        PRESET_MIN + "[bath]\nfock_levels = 6\n"
        "[run]\norder = 2\nt_max = 1.0\nn_output = 5\nquad_nodes_per_unit_time = 8\n"
        "[outputs]\nkernels = false\ngenerator = false\ndiagnostic = false\n"
    )
    cfg = parse_config(cfg_path.read_text())
    oracle = tclgen.exact_small_bath(
        cfg.rho0, cfg.model, tclgen.TruncatedBathConfig(cfg.bath, 6), np.linspace(0.0, 1.0, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    report = (tmp_path / "a" / "report.txt").read_text()
    assert f"  reference shift at +2 levels = {oracle.truncation_shift:.3e}\n" in report
    assert "  max trace distance over grid = " in report

    monkeypatch.setattr(tclgen.models, "_DIM_CAP", 12)  # 6 levels fit, 8 do not
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    report = (tmp_path / "b" / "report.txt").read_text()
    assert "  reference shift at +2 levels = not checked (over the dimension cap)\n" in report


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
    # the quadrature routes would carry the Simpson rule's error (about 3e-3
    # relative at t = 0.5 with 8 nodes per unit time); the route check sets
    # the closed-form kernel table against the generator's closed-form K4,
    # so neither column carries any quadrature error
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
    rows = re.findall(r"rel_diff= (\S+)\s+margin= (\S+)", (out / "report.txt").read_text())
    assert len(rows) == 2
    assert all(float(rel) < 1e-12 and float(margin) < 1e-6 for rel, margin in rows)


DEPHASING_LONG = (
    "[model]\npreset = dephasing-single-mode\n[run]\norder = 4\nt_max = 32\n"
    "[outputs]\ngenerator_times = 8, 16, 32\ntrajectory = {}\n"
)


@pytest.mark.parametrize("trajectory", ["false", "true"])
def test_route_check_passes_where_k4_vanishes_at_long_times(tmp_path, trajectory):
    # K4 is 0 on this preset, so both routes are round-off of pairing chains
    # that grow as t^3; it once passed 1e-6 of its scale at t = 32 (2.3e-6),
    # and now stays far below the round-off floor eps B(t) on either K4 grid
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(DEPHASING_LONG.format(trajectory))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    margins = re.findall(r"margin= (\S+)", (out / "report.txt").read_text())
    assert len(margins) == 3 and all(float(m) < 0.1 for m in margins)


@pytest.mark.parametrize("shift, code", [(2.0, 2), (0.5, 0)])
def test_round_off_floor_trips_at_eps_b(tmp_path, monkeypatch, shift, code):
    # where K4 vanishes the threshold is eps B(t) itself: a shift of the
    # table route at t = 32 by twice it fails the run, by half of it passes
    preset = tclgen.models.get_preset("dephasing-single-mode")
    floor = roundoff_bound(preset.model, preset.bath, 32.0)
    original = tclgen.tcl.K4_table_exact_times

    def shifted(model, bath, times):
        out = original(model, bath, times)
        out[np.asarray(times) == 32.0] += shift * floor / model.dim * np.eye(model.dim**2)
        return out

    monkeypatch.setattr(tclgen.tcl, "K4_table_exact_times", shifted)
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(DEPHASING_LONG.format("false"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == code
    margin = re.search(r"t= 3\.2\S+  rel_diff= \S+  margin= (\S+)", (out / "report.txt").read_text())
    assert float(margin.group(1)) == pytest.approx(shift, rel=1e-2)


def test_route_check_at_time_zero_reports_zero_margin(tmp_path):
    # both routes are exactly 0 at t = 0, where the round-off floor is 0 too
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        PRESET_MIN
        + "[run]\norder = 4\n"
        "[outputs]\nkernels = false\ngenerator = false\ntrajectory = false\n"
        "diagnostic = false\ngenerator_times = 0, 1\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "  t= 0.000000000000e+00  rel_diff= 0.000e+00  margin= 0.000e+00\n" in report
    assert len(re.findall(r"margin= ", report)) == 2


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


@pytest.mark.parametrize("line, complaint", [
    ("t_max = inf", "[run] t_max: must be positive and finite, got inf"),
    ("rho0 = nan, 0, 0, 1", "[run] rho0: entries must be finite"),
], ids=["t_max", "rho0"])
def test_non_finite_input_exits_one_before_any_output(tmp_path, capsys, line, complaint):
    cfg = tmp_path / "c.ini"
    cfg.write_text(PRESET_MIN + f"[run]\n{line}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert complaint in capsys.readouterr().err
    assert not out.exists()


def test_rho0_at_the_edge_of_the_state_rule_exits_one_before_any_output(tmp_path, capsys):
    # trace 1 + 8e-11 + 7e-11j: each part is within 1e-10, its distance from 1
    # is not; propagate applies the same rule, so the run must stop up front
    cfg = tmp_path / "c.ini"
    cfg.write_text(PRESET_MIN + "[run]\nrho0 = 0.50000000004+0.000000000035j, 0, 0, "
                   "0.50000000004+0.000000000035j\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: [run] rho0: trace is not 1" in capsys.readouterr().err
    assert not out.exists()


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
    assert main(["generator-dump", "--config", str(cfg_path), "--quad-nodes", "3",
                 "--out", str(tmp_path / "o")]) == 1
    assert "--quad-nodes" in capsys.readouterr().err


def test_quad_nodes_override_above_96_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN)
    assert main(["run", "--config", str(cfg_path), "--quad-nodes", "97",
                 "--out", str(tmp_path / "o")]) == 1
    assert "--quad-nodes: must be from 4 to 96, got 97" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_file_and_flag_problems_are_reported_together(tmp_path, capsys):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN + "[run]\nt_max = -1\nstepper = euler\n")
    assert main(["generator-dump", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--quad-nodes", "200", "--order", "3", "--times", "0.5,0.5"]) == 1
    assert capsys.readouterr().err == (
        "error: \n"
        "  - [run] t_max: must be positive and finite, got -1.0\n"
        "  - --order: must be 2 or 4, got 3\n"
        "  - [run] stepper: must be one of magnus4, rk4-fixed, rk45-adaptive, got 'euler'\n"
        "  - --quad-nodes: must be from 4 to 96, got 200\n"
        "  - --times: time 0.5 is given twice\n")
    assert not (tmp_path / "o").exists()


def _run_outputs(tmp_path, name, text, *flags):
    """Every file of a ``tclgen run`` of ``text``, as {name: lines}."""
    cfg_path = tmp_path / f"{name}.ini"
    cfg_path.write_text(text)
    out = tmp_path / name
    assert main(["run", "--config", str(cfg_path), "--out", str(out), *flags]) == 0
    return {p.name: p.read_text().splitlines() for p in sorted(out.iterdir())}


def _config_hashes(files):
    return {h for lines in files.values() for line in lines
            for h in re.findall(r"^(?:# config=|config: )([0-9a-f]{12})\b", line)}


def test_run_flags_act_as_their_config_keys_and_enter_the_hash(tmp_path):
    base = PRESET_MIN + "[run]\nt_max = 0.5\nn_output = 6\n"
    plain = _run_outputs(tmp_path, "plain", base)
    flagged = [_run_outputs(tmp_path, f"flags{i}", base, "--order", "2", "--quad-nodes", "8")
               for i in range(2)]
    keyed = _run_outputs(tmp_path, "keys", base + "order = 2\nquad_nodes_per_unit_time = 8\n")
    assert flagged[0] == flagged[1]
    assert flagged[0].keys() == keyed.keys()
    for name, lines in flagged[0].items():
        differ = [(a, b) for a, b in zip(lines, keyed[name]) if a != b]
        assert len(lines) == len(keyed[name]) and differ, name
        assert all(a.startswith(("# config=", "config: ")) for a, _ in differ), name
    assert "order=2" in " ".join(flagged[0]["report.txt"])
    (plain_hash,), (flag_hash,), (key_hash,) = (_config_hashes(f)
                                                for f in (plain, flagged[0], keyed))
    assert len({plain_hash, flag_hash, key_hash}) == 3
    assert plain_hash == hashlib.sha256(base.encode()).hexdigest()[:12]


def test_kernels_takes_no_run_flags(tmp_path, capsys):
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(PRESET_MIN)
    for flags in (["--order", "2"], ["--quad-nodes", "8"]):
        assert main(["kernels", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     *flags]) == 1
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _perturb(monkeypatch, name):
    """Shift the K4 that ``tclgen.tcl.<name>`` returns, one SuperOp or a
    stack of matrices, by 1e-3 times the identity."""
    original = getattr(tclgen.tcl, name)

    def perturbed(*args):
        out = original(*args)
        if isinstance(out, SuperOp):
            return SuperOp(out.dim, out.matrix + 1e-3 * np.eye(out.dim**2))
        return out + 1e-3 * np.eye(out.shape[-1])

    monkeypatch.setattr(tclgen.tcl, name, perturbed)


def test_equivalence_violation_exits_two_after_writing_report(tmp_path, capsys, monkeypatch):
    _perturb(monkeypatch, "K4_table_exact_times")
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


def test_quadrature_route_violation_exits_two_after_writing_report(
        tmp_path, capsys, monkeypatch):
    # five modes take the quadrature pair, whose ordered-cumulant side is perturbed
    _perturb(monkeypatch, "K_n_cumulant")
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(FIVE_MODES)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "equivalence violation:" in capsys.readouterr().err
    report = (out / "report.txt").read_text()
    assert "rel_diff" in report  # forensics stay on disk


def test_numeric_failure_exits_three(tmp_path, capsys, monkeypatch):
    # kernels.csv is written before the library call, every other file after it
    def raiser(*args, **kwargs):
        raise NumericsError("stub stepper failure")

    monkeypatch.setattr(tclgen.models, "propagate", raiser)
    cfg_path = tmp_path / "s.ini"
    cfg_path.write_text(
        "[model]\npreset = dephasing-single-mode\n"
        "[run]\norder = 2\nt_max = 1.0\nquad_nodes_per_unit_time = 8\n"
    )
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure: stub stepper failure" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["kernels.csv"]


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


def test_scaling_study_rejects_non_finite_flags(capsys):
    for flags, complaint in ((["--t-max", "inf"], "--t-max: must be positive and finite"),
                             (["--alphas", "0.1,nan"], "--alphas: need >= 2 positive finite")):
        assert main(["scaling-study", *flags]) == 1
        assert complaint in capsys.readouterr().err


def test_scaling_study_rejects_repeated_couplings(tmp_path, capsys):
    with pytest.raises(ValueError, match="two distinct coupling values"):
        tclgen.models.scaling_study(alphas=(0.1, 0.1), t_max=0.5, fock_levels=4, n_output=6)
    out = tmp_path / "o"
    assert main(["scaling-study", "--alphas", "0.1,0.1", "--t-max", "0.5", "--n-output", "6",
                 "--fock", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: \n  - --alphas: need >= 2 distinct values, got '0.1,0.1'\n"
        "  - --fock: must be >= 2, got 1\n")
    assert not out.exists()


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


ORACLE_OVER_CAP = (
    "[model]\npreset = spinboson-single-mode\n[bath]\n"
    "modes = 0.3, 0.5, 1; 0.3, 0.7, 1; 0.3, 0.9, 1; 0.3, 1.1, 1\n"
)


def test_run_checks_the_oracle_dimension_before_any_work(tmp_path, monkeypatch, capsys):
    # four modes at the preset's 12 levels need dimension 2 * 12^4; the run
    # fails before it builds a generator or writes a file
    def no_generator(*args, **kwargs):
        raise AssertionError("generator built before the dimension check")

    monkeypatch.setattr(tclgen.models, "build_generator", no_generator)
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(ORACLE_OVER_CAP)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "dimension 41472 exceeds the cap 4096" in err
    assert "at most 6 Fock levels per mode fit" in err
    assert not out.exists()
    # without a trajectory there is nothing to compare with the oracle
    monkeypatch.undo()
    cfg_path.write_text(ORACLE_OVER_CAP + "[outputs]\ntrajectory = false\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0


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
    # can propagate, re-coupled from one order-4 build; a hand run of one
    # rung reproduces its error bitwise
    alphas, t_max, n_output = (0.1, 0.2), 0.5, 6
    made = []
    original = tclgen.tcl.build_generator

    def recording(*args, **kwargs):
        made.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(tclgen.models, "build_generator", recording)
    res = tclgen.cli.scaling_study(alphas=alphas, t_max=t_max, fock_levels=4,
                                   n_output=n_output)
    assert len(made) == 1
    args, kwargs = made[0]
    assert kwargs == {"interp": "cubic"}
    assert args[2] == 4

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
