"""Golden corpus of config complaints: every message, in order, word for word.

The expected lists were recorded from the per-key parser that the schema table
in :mod:`tclgen.cli` replaced, so a change to the table or to its readers that
rewords, drops, adds or reorders a complaint fails here.
"""

import pytest

from tclgen.cli import ConfigError, _build_parser, parse_config

PRESET = "[model]\npreset = spinboson-single-mode\n"
MODEL = "[model]\ndim = 2\nh_sys = 0.5, 0, 0, -0.5\ncoupling = 0, 1, 1, 0\nalpha = 0.1\n"
BATH = "[bath]\nmodes = 1, 1, 1; 0.6, 1.7, 1\nbeta = 2.5\n"
_PRESETS = "dephasing-single-mode, spinboson-single-mode, spinboson-two-mode"
_NEEDS = "[model] needs either 'preset' or all of dim/h_sys/coupling/alpha (missing: "
_NO_BATH = "[bath] modes and beta are required without a preset"
_SAME_CSV = ("times 0.1 and 0.1000000001 would write the same generator CSV "
             "(file names keep 6 significant digits)")

CASES = [
    ("syntax", "this is not an ini file ][", [
        "syntax: File contains no section headers.\nfile: '<string>', line: 1\n"
        "'this is not an ini file ]['",
    ]),
    ("duplicate-key", PRESET + "preset = dephasing-single-mode\n", [
        "syntax: While reading from '<string>' [line  3]: option 'preset' in section "
        "'model' already exists",
    ]),
    ("empty", "", [
        _NEEDS + "dim, alpha, h_sys, coupling)",
        _NO_BATH,
    ]),
    ("unknown-section-and-key",
     PRESET + "[extras]\nx = 1\n[run]\ncolour = red\nt_max = 1\n[outputs]\nformat = csv\n", [
         "unknown section [extras]",
         "[run] unknown key 'colour'",
         "[outputs] unknown key 'format'",
     ]),
    ("unknown-preset", "[model]\npreset = spin-boson\nalpha = x\n[run]\nt_max = 0\n", [
        "[model] alpha: could not convert string to float: 'x'",
        f"[model] preset: unknown preset 'spin-boson'; available: {_PRESETS}",
        "[run] t_max: must be positive and finite, got 0.0",
    ]),
    ("missing-model-keys", "[model]\ndim = 2\n[run]\norder = 3\n", [
        _NEEDS + "alpha, h_sys, coupling)",
        _NO_BATH,
        "[run] order: must be 2 or 4, got 3",
    ]),
    ("missing-bath", MODEL, [
        _NO_BATH,
    ]),
    ("model-conversions",
     "[model]\ndim = two\nh_sys = a, b\ncoupling = 0, 1, 1, zero\nalpha = weak\n" + BATH, [
         "[model] alpha: could not convert string to float: 'weak'",
         "[model] dim: invalid literal for int() with base 10: 'two'",
         "[model] h_sys: not a number: 'a'",
         "[model] coupling: not a number: 'zero'",
     ]),
    ("model-checks", "[model]\ndim = 1\nh_sys = 1\ncoupling = 0\nalpha = inf\n" + BATH, [
        "[model] alpha: must be finite",
        "[model] dim: must be >= 2, got 1",
    ]),
    ("model-shapes", MODEL.replace("dim = 2", "dim = 3") + BATH, [
        "[model] h_sys: expected 9 row-major entries, got 4",
        "[model] coupling: expected 9 row-major entries, got 4",
    ]),
    ("model-non-hermitian", MODEL.replace("0.5, 0, 0, -0.5", "0, 1, 0, 0") + BATH, [
        "[model] h_sys is not Hermitian within 1e-12",
    ]),
    ("bath-conversions", MODEL + "[bath]\nmodes = 1, 1\nbeta = hot\nfock_levels = many\n", [
        "[bath] modes: mode '1, 1' is not a kappa,omega,mass triple",
        "[bath] beta: could not convert string to float: 'hot'",
        "[bath] fock_levels: invalid literal for int() with base 10: 'many'",
        _NO_BATH,
    ]),
    ("bath-checks", MODEL + "[bath]\nmodes = 1, 1, 1\nbeta = 2.5\nfock_levels = 1\n", [
        "[bath] fock_levels: must be >= 2, got 1",
    ]),
    ("bath-beta", MODEL + "[bath]\nmodes = 1, 1, 1\nbeta = -1\n", [
        "[bath] beta: beta must be positive (math.inf allowed), got -1.0",
    ]),
    ("bath-modes", MODEL + "[bath]\nmodes = 1, -1, 1\nbeta = 1\n", [
        "[bath] modes: mode frequency must be positive, got -1.0",
    ]),
    ("bath-mass", MODEL + "[bath]\nmodes = 1, 1, 0\nbeta = 1\n", [
        "[bath] modes: mode mass must be positive, got 0.0",
    ]),
    ("bath-preset-override", PRESET + "[bath]\nbeta = 0\nfock_levels = 0\n", [
        "[bath] fock_levels: must be >= 2, got 0",
        "[bath] beta: beta must be positive (math.inf allowed), got 0.0",
    ]),
    ("run-conversions",
     PRESET + "[run]\nt_max = x\nn_output = 2.5\norder = four\nstepper = euler\n"
     "max_step = y\natol = z\nquad_scheme = simpson-uniform\n"
     "quad_nodes_per_unit_time = many\nquad_tolerance = tiny\nrho0 = a, b\n", [
         "[run] t_max: could not convert string to float: 'x'",
         "[run] n_output: invalid literal for int() with base 10: '2.5'",
         "[run] order: invalid literal for int() with base 10: 'four'",
         "[run] stepper: must be one of magnus4, rk4-fixed, rk45-adaptive, got 'euler'",
         "[run] max_step: could not convert string to float: 'y'",
         "[run] atol: could not convert string to float: 'z'",
         "[run] quad_nodes_per_unit_time: invalid literal for int() with base 10: 'many'",
         "[run] quad_tolerance: could not convert string to float: 'tiny'",
         "[run] rho0: not a number: 'a'",
     ]),
    ("run-checks",
     PRESET + "[run]\nt_max = -1\nn_output = 1\norder = 3\nstepper = rk4\nmax_step = 0\n"
     "atol = nan\nquad_nodes_per_unit_time = 97\n", [
         "[run] t_max: must be positive and finite, got -1.0",
         "[run] n_output: must be >= 2, got 1",
         "[run] order: must be 2 or 4, got 3",
         "[run] stepper: must be one of magnus4, rk4-fixed, rk45-adaptive, got 'rk4'",
         "[run] max_step: must be positive and finite, got 0.0",
         "[run] atol: must be positive and finite, got nan",
         "[run] quad_nodes_per_unit_time: must be from 4 to 96, got 97",
     ]),
    ("run-low-nodes", PRESET + "[run]\nquad_nodes_per_unit_time = 3\n", [
        "[run] quad_nodes_per_unit_time: must be from 4 to 96, got 3",
    ]),
    ("run-quadrature-scheme", PRESET + "[run]\nquad_scheme = trapezoid\n", [
        "[run] quadrature: unknown scheme 'trapezoid', expected one of "
        "('simpson-uniform', 'gauss-legendre-nested')",
    ]),
    ("run-quadrature-tolerance", PRESET + "[run]\nquad_tolerance = 2\nrho0 = 1\n", [
        "[run] quadrature: tolerance must be in (0, 1), got 2.0",
        "[run] rho0: expected 4 row-major entries, got 1",
    ]),
    ("rho0-shape", PRESET + "[run]\nrho0 = 1, 0, 0\n", [
        "[run] rho0: expected 4 row-major entries, got 3",
    ]),
    ("rho0-finite", PRESET + "[run]\nrho0 = nan, 0, 0, 1\n", [
        "[run] rho0: entries must be finite",
    ]),
    ("rho0-hermitian", PRESET + "[run]\nrho0 = 1, 1, 0, 0\n", [
        "[run] rho0: not Hermitian",
    ]),
    ("rho0-trace", PRESET + "[run]\nrho0 = 1, 0, 0, 1\n", [
        "[run] rho0: trace is not 1",
    ]),
    ("rho0-positive", PRESET + "[run]\nrho0 = 1.5, 0, 0, -0.5\n", [
        "[run] rho0: not positive semidefinite",
    ]),
    ("rho0-without-model", "[model]\npreset = nope\n[run]\nrho0 = 1, 2\n", [
        f"[model] preset: unknown preset 'nope'; available: {_PRESETS}",
    ]),
    ("outputs-conversions",
     PRESET + "[outputs]\ndir = elsewhere\nkernels = maybe\ngenerator = 2\n"
     "trajectory = yes please\ndiagnostic = x\nreport =\ngenerator_times = a\n", [
         "[outputs] kernels: not a boolean: 'maybe'",
         "[outputs] generator: not a boolean: '2'",
         "[outputs] trajectory: not a boolean: 'yes please'",
         "[outputs] diagnostic: not a boolean: 'x'",
         "[outputs] report: not a boolean: ''",
         "[outputs] generator_times: could not convert string to float: 'a'",
     ]),
    ("outputs-negative-time", PRESET + "[outputs]\ngenerator_times = 0.5, -1\n", [
        "[outputs] generator_times: times must be nonnegative and finite",
    ]),
    ("outputs-colliding-times", PRESET + "[outputs]\ngenerator_times = 0.1, 0.1000000001\n", [
        f"[outputs] generator_times: {_SAME_CSV}",
    ]),
    ("outputs-repeated-time",
     PRESET + "[run]\nt_max = 0\n[outputs]\ngenerator_times = 0.5, 0.5, 1\n", [
         "[run] t_max: must be positive and finite, got 0.0",
         "[outputs] generator_times: time 0.5 is given twice",
     ]),
    ("everything-wrong",
     "[model]\nalpha = x\ndim = 1\n[bath]\nbeta = y\nfock_levels = 1\n[run]\nt_max = 0\n"
     "rho0 = 1, 0, 0, 0\n[outputs]\nkernels = no way\n[more]\n", [
         "unknown section [more]",
         "[model] alpha: could not convert string to float: 'x'",
         "[model] dim: must be >= 2, got 1",
         _NEEDS + "h_sys, coupling)",
         "[bath] beta: could not convert string to float: 'y'",
         "[bath] fock_levels: must be >= 2, got 1",
         _NO_BATH,
         "[run] t_max: must be positive and finite, got 0.0",
         "[outputs] kernels: not a boolean: 'no way'",
     ]),
]

# command-line overrides, run against a valid preset config
CLI_CASES = [
    ("quad-nodes-override", ["run", "--quad-nodes", "3"], [
        "--quad-nodes: must be from 4 to 96, got 3",
    ]),
    ("quad-nodes-override-high", ["kernels", "--quad-nodes", "97"], [
        "--quad-nodes: must be from 4 to 96, got 97",
    ]),
    ("times-override", ["generator-dump", "--times", "-1"], [
        "--times: times must be nonnegative and finite",
    ]),
    ("times-override-collision", ["generator-dump", "--times", "0.1,0.1000000001"], [
        f"--times: {_SAME_CSV}",
    ]),
    ("times-override-repeat", ["generator-dump", "--times", "0.5,0.5"], [
        "--times: time 0.5 is given twice",
    ]),
    ("times-override-conversion", ["generator-dump", "--times", "0.5,soon"], [
        "--times: could not convert string to float: 'soon'",
    ]),
    ("scaling-flags",
     ["scaling-study", "--alphas", "x", "--t-max", "-1", "--n-output", "1", "--fock", "1"], [
         "--alphas: cannot parse 'x'",
         "--t-max: must be positive and finite, got -1.0",
         "--n-output: must be >= 2, got 1",
         "--fock: must be >= 2, got 1",
     ]),
    ("scaling-alphas", ["scaling-study", "--alphas", "0.1", "--t-max", "inf"], [
        "--alphas: need >= 2 positive finite values",
        "--t-max: must be positive and finite, got inf",
    ]),
    ("scaling-alphas-sign", ["scaling-study", "--alphas", "0.1,-0.2"], [
        "--alphas: need >= 2 positive finite values",
    ]),
]


@pytest.mark.parametrize("text, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_config_messages_match_the_corpus(text, expected):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.messages == expected


@pytest.mark.parametrize("argv, expected", [c[1:] for c in CLI_CASES],
                         ids=[c[0] for c in CLI_CASES])
def test_override_messages_match_the_corpus(tmp_path, argv, expected):
    if argv[0] != "scaling-study":
        config = tmp_path / "preset.ini"
        config.write_text(PRESET)
        argv = [*argv, "--config", str(config), "--out", str(tmp_path / "out")]
    args = _build_parser().parse_args(argv)
    with pytest.raises(ConfigError) as info:
        args.func(args)
    assert info.value.messages == expected
    assert not (tmp_path / "out").exists()
