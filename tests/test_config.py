"""Config parsing, validation, and experiment resolution."""

import numpy as np
import pytest

import symstep as ss
from symstep.config import (build_config, parse_lines, resolve, resolve_model,
                            resolve_initial_state)

KEPLER_TEXT = "model = kepler\nscheme = verlet\nh = 0.2\nt_end = 5000\necc = 0.3\n"


def test_parse_full_kepler_config():
    cfg = ss.parse_config(KEPLER_TEXT)
    assert cfg.model == "kepler"
    assert cfg.scheme is ss.SchemeVariant.VERLET
    assert cfg.h == 0.2
    assert cfg.t_end == 5000.0
    assert cfg.ecc == 0.3
    model = resolve_model(cfg)
    s0 = resolve_initial_state(cfg, model)
    np.testing.assert_allclose(s0.q, [0.7, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(s0.p, [0.0, np.sqrt(1.3 / 0.7)],
                               rtol=0, atol=1e-15)


def test_comments_and_blank_lines_ignored():
    cfg = ss.parse_config("# a comment\n\nmodel = kepler  # trailing\n"
                          "scheme = s3-corrected\nh = 0.1\nt_end = 1\n")
    assert cfg.model == "kepler"
    assert cfg.scheme is ss.SchemeVariant.S3_CORRECTED


def test_zero_h_rejected_with_name():
    with pytest.raises(ss.ConfigError, match="h"):
        ss.parse_config(KEPLER_TEXT.replace("h = 0.2", "h = 0"))


def test_empty_text_lists_missing_keys():
    with pytest.raises(ss.ConfigError) as err:
        ss.parse_config("")
    msg = str(err.value)
    for key in ("model", "scheme", "h", "t_end"):
        assert key in msg


def test_unknown_key_reports_line_number():
    with pytest.raises(ss.ConfigError, match="line 2"):
        ss.parse_config("model = kepler\nbogus = 1\n")


@pytest.mark.parametrize("line", ["t_end = inf", "omega = nan",
                                  "q0 = nan, 0", "steps = 0.1, inf"])
def test_non_finite_number_reports_line_number(line):
    key = line.split()[0]
    rest = [ln for ln in ("model = harmonic", "scheme = verlet", "h = 0.1",
                          "t_end = 1") if not ln.startswith(key + " ")]
    with pytest.raises(ss.ConfigError, match="line 2: .*non-finite"):
        ss.parse_config("\n".join(rest[:1] + [line] + rest[1:]))


def test_duplicate_key_rejected():
    with pytest.raises(ss.ConfigError, match="duplicate"):
        parse_lines("h = 0.1\nh = 0.2\n")


def test_line_without_equals_rejected():
    with pytest.raises(ss.ConfigError, match="line 1"):
        parse_lines("just words\n")


def test_vector_values_parse():
    cfg = ss.parse_config("model = harmonic\nscheme = verlet\nh = 0.1\n"
                          "t_end = 1\nq0 = 1.0, 2.0\np0 = 0.0, -1.0\n"
                          "mass = 1.0, 2.0\n")
    assert cfg.q0 == (1.0, 2.0)
    assert cfg.p0 == (0.0, -1.0)
    assert cfg.mass == (1.0, 2.0)


def test_q0_without_p0_rejected():
    with pytest.raises(ss.ConfigError, match="together"):
        ss.parse_config("model = harmonic\nscheme = verlet\nh = 0.1\n"
                        "t_end = 1\nq0 = 1.0\n")


def test_q0_p0_length_mismatch_rejected():
    with pytest.raises(ss.ConfigError):
        ss.parse_config("model = harmonic\nscheme = verlet\nh = 0.1\n"
                        "t_end = 1\nq0 = 1.0\np0 = 0.0, 1.0\n")


def test_ecc_and_q0_mutually_exclusive():
    with pytest.raises(ss.ConfigError, match="exclusive"):
        ss.parse_config("model = kepler\nscheme = verlet\nh = 0.1\nt_end = 1\n"
                        "ecc = 0.3\nq0 = 1, 0\np0 = 0, 1\n")


def test_ecc_range_enforced():
    with pytest.raises(ss.ConfigError):
        ss.parse_config(KEPLER_TEXT.replace("ecc = 0.3", "ecc = 1.0"))


def test_bad_scheme_name_rejected():
    with pytest.raises(ss.ConfigError, match="scheme"):
        ss.parse_config(KEPLER_TEXT.replace("verlet", "rk4"))


def test_unknown_model_name_rejected():
    cfg = ss.parse_config("model = morse\nscheme = verlet\nh = 0.1\n"
                          "t_end = 1\nq0 = 1\np0 = 0\n")
    with pytest.raises(ss.ConfigError, match="unknown model"):
        resolve_model(cfg)


def test_steps_list_parses_and_validates():
    cfg = ss.parse_config("model = kepler\nscheme = verlet\nh = 0.1\n"
                          "t_end = 1\nsteps = 0.1, 0.05, 0.025\n")
    assert cfg.steps == (0.1, 0.05, 0.025)
    with pytest.raises(ss.ConfigError):
        ss.parse_config("model = kepler\nscheme = verlet\nh = 0.1\n"
                        "t_end = 1\nsteps = 0.1, -0.05\n")


def test_resolve_step_count_and_solver():
    cfg = ss.parse_config("model = kepler\nscheme = verlet\nh = 0.2\n"
                          "t_end = 5000\nrecord_stride = 10\n"
                          "tolerance = 1e-12\nmax_iterations = 30\n")
    model, s0, n_steps, solver = resolve(cfg)
    assert n_steps == 25000
    assert solver.tolerance == 1e-12
    assert solver.max_iterations == 30


def test_resolve_rejects_non_dividing_stride():
    cfg = ss.parse_config("model = kepler\nscheme = verlet\nh = 0.1\n"
                          "t_end = 1\nrecord_stride = 3\n")
    with pytest.raises(ss.ConfigError, match="record_stride"):
        resolve(cfg)


def test_resolve_rejects_step_count_overflow():
    """t_end/h overflows to inf; the count is a ConfigError, not an
    OverflowError from int()."""
    cfg = ss.parse_config("model = kepler\nscheme = verlet\nh = 1e-10\n"
                          "t_end = 1e300\n")
    with pytest.raises(ss.ConfigError, match="too many steps"):
        resolve(cfg)


def test_resolve_harmonic_with_explicit_state():
    cfg = ss.parse_config("model = harmonic\nscheme = s3-corrected\nh = 0.1\n"
                          "t_end = 1\nq0 = 1\np0 = 0\nomega = 2.0\n")
    model, s0, n_steps, _ = resolve(cfg)
    assert model.dimension == 1
    assert n_steps == 10
    assert model.value([1.0]) == pytest.approx(2.0)


def test_model_without_state_rejected():
    cfg = ss.parse_config("model = harmonic\nscheme = verlet\nh = 0.1\nt_end = 1\n")
    with pytest.raises(ss.ConfigError, match="q0"):
        resolve(cfg)


def test_defaults():
    cfg = ss.parse_config("model = kepler\nscheme = verlet\nh = 0.1\nt_end = 1\n")
    assert cfg.record_stride == 1
    assert cfg.tolerance == 1e-13
    assert cfg.max_iterations == 50
    assert cfg.output is None
    # kepler default start is the e=0.3 orbit
    s0 = resolve_initial_state(cfg, resolve_model(cfg))
    assert s0.q[0] == pytest.approx(0.7)


def test_build_config_validates_types():
    with pytest.raises(ss.ConfigError):
        build_config({"model": ("kepler", 1), "scheme": ("verlet", 2),
                      "h": ("fast", 3), "t_end": ("1", 4)})
