"""Command line: argument handling, CSV output, exit codes."""

import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import symstep
from symstep.cli import main

RUN_ARGS = ["run", "--model", "kepler", "--scheme", "verlet",
            "--h", "0.2", "--t_end", "5000", "--ecc", "0.3",
            "--record_stride", "10"]


def read_csv(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows])
    return header, data, lines


# ---------------------------------------------------------------------- run

def test_run_row_count_and_headers(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(RUN_ARGS + ["--output", str(out)]) == 0
    header, data, _ = read_csv(out)
    assert header == ["t", "q1", "q2", "p1", "p2", "H", "dH"]
    assert data.shape == (2501, 7)


def test_run_first_row_has_zero_dh(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["run", "--model", "harmonic", "--scheme", "s3-corrected",
                 "--h", "0.1", "--t_end", "1", "--q0", "1", "--p0", "0",
                 "--output", str(out)]) == 0
    _, data, _ = read_csv(out)
    assert data[0, 0] == 0.0
    assert data[0, 4] == 0.0  # dH
    assert data[0, 3] == 0.5  # H = kinetic 0 + potential 0.5


def test_run_values_round_trip_exactly(tmp_path):
    """%.17g serialization must reproduce the binary doubles on re-read."""
    import symstep as ss

    out = tmp_path / "t.csv"
    main(["run", "--model", "kepler", "--scheme", "s3-corrected", "--h", "0.1",
          "--t_end", "2", "--ecc", "0.3", "--output", str(out)])
    _, data, _ = read_csv(out)
    m = ss.make_model("kepler")
    traj = ss.integrate(m, "s3-corrected", ss.PhaseState(*ss.kepler_start(0.3)),
                        0.1, 20)
    np.testing.assert_array_equal(data[:, 1:3], traj.q)
    np.testing.assert_array_equal(data[:, 3:5], traj.p)


def test_run_final_energy_circular_corrected(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["run", "--model", "kepler", "--scheme", "s3-corrected",
                 "--h", "0.1", "--t_end", str(2 * np.pi),
                 "--q0", "1, 0", "--p0", "0, 1", "--output", str(out)]) == 0
    _, data, _ = read_csv(out)
    assert abs(data[-1, 5] + 0.5) <= 1e-6


def test_run_writes_stdout_by_default(capsys):
    assert main(["run", "--model", "harmonic", "--scheme", "verlet",
                 "--h", "0.1", "--t_end", "0.5", "--q0", "1", "--p0", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,q1,p1,H,dH"
    assert len(lines) == 7


def test_run_solver_failure_exit_2(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["run", "--model", "kepler", "--scheme", "s3-corrected",
                 "--h", "0.1", "--t_end", "1", "--ecc", "0.3",
                 "--tolerance", "1e-30", "--max_iterations", "2",
                 "--output", str(out)])
    assert code == 2
    _, _, lines = read_csv(out)
    assert lines[-1].startswith("# aborted at step")


def test_run_singular_start_exit_2(tmp_path, capsys):
    """A start at the Kepler singularity fails at step 1 like any other
    solver failure: exit 2, and a CSV that ends in the abort line."""
    out = tmp_path / "t.csv"
    code = main(["run", "--model", "kepler", "--q0", "0,0", "--p0", "0,1",
                 "--scheme", "s3-corrected", "--h", "0.1", "--t_end", "1",
                 "--output", str(out)])
    assert code == 2
    assert "solver failure at step 1 (non_finite)" in capsys.readouterr().err
    _, _, lines = read_csv(out)
    assert lines[-1] == "# aborted at step 1"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_run_residual_floor_exit_2(tmp_path, capsys):
    """An LJ(16) run whose residual floor lies above the tolerance aborts
    at step 2 with the cause in the message."""
    from test_integrators import lj16_floor_case

    s, h = lj16_floor_case()
    out = tmp_path / "t.csv"
    code = main(["run", "--model", "lj-cluster", "--scheme", "s3-corrected",
                 "--q0=" + ",".join(map(repr, s.q.tolist())),
                 "--p0=" + ",".join(map(repr, s.p.tolist())),
                 "--h", str(h), "--t_end", "0.02", "--output", str(out)])
    assert code == 2
    assert "solver failure at step 2 (residual_floor)" in capsys.readouterr().err
    _, _, lines = read_csv(out)
    assert lines[-1] == "# aborted at step 2"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_output_mode_follows_umask(tmp_path, umask, mode):
    """The output CSV gets the mode a plain open() gives under the umask,
    not the temporary file's 0600."""
    out = tmp_path / "t.csv"
    old = os.umask(umask)
    try:
        code = main(["run", "--model", "harmonic", "--scheme", "verlet",
                     "--h", "0.1", "--t_end", "1", "--q0", "1", "--p0", "0",
                     "--output", str(out)])
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == mode


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = kepler\nscheme = verlet\nh = 0.2\n"
                   "t_end = 5000\necc = 0.3\nrecord_stride = 10\n")
    out = tmp_path / "t.csv"
    assert main(["run", "--config", str(cfg), "--t_end", "10",
                 "--record_stride", "1", "--output", str(out)]) == 0
    _, data, _ = read_csv(out)
    assert data.shape[0] == 51  # override t_end=10 -> 50 steps


# ------------------------------------------------------------------ compare

def test_compare_free_particle_nan_ratio(capsys):
    # dyadic h and state values keep every operation exact, so both drifts
    # are literally zero and the ratio degenerates to 0/0
    assert main(["compare", "--model", "free", "--scheme", "s3-corrected",
                 "--h", "0.5", "--t_end", "1", "--q0", "1, 0",
                 "--p0", "0.5, -0.5"]) == 0
    out = capsys.readouterr().out
    assert "drift_ratio,nan" in out


def test_compare_kepler_ratio_below_one(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--model", "kepler", "--scheme", "s3-corrected",
                 "--h", "0.2", "--t_end", "5000", "--ecc", "0.3",
                 "--output", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "variant,max_abs_drift,reversibility_error,wall_seconds"
    assert text[1].startswith("verlet,")
    assert text[2].startswith("s3-corrected,")
    ratio = float(text[3].split(",")[1])
    assert 0.0 < ratio < 1.0
    for row in (1, 2):
        for cell in text[row].split(",")[1:]:
            assert np.isfinite(float(cell))


def test_compare_variant_against_itself(capsys):
    assert main(["compare", "--model", "kepler", "--scheme", "verlet",
                 "--h", "0.1", "--t_end", "10", "--ecc", "0.3"]) == 0
    out = capsys.readouterr().out
    ratio = float([ln for ln in out.splitlines()
                   if ln.startswith("drift_ratio")][0].split(",")[1])
    assert ratio == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- converge

def test_converge_verlet_harmonic(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["converge", "--model", "harmonic", "--scheme", "verlet",
                 "--h", "0.1", "--t_end", "10", "--q0", "1", "--p0", "0",
                 "--steps", "0.1, 0.05, 0.025, 0.0125",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,global_error"
    assert len(lines) == 6
    order = float(lines[-1].split(",")[1])
    assert 1.8 <= order <= 2.2


def test_converge_single_h_usage_error(capsys):
    code = main(["converge", "--model", "harmonic", "--scheme", "verlet",
                 "--h", "0.1", "--t_end", "10", "--q0", "1", "--p0", "0",
                 "--steps", "0.1"])
    assert code == 1
    assert "steps" in capsys.readouterr().err


# -------------------------------------------------------------------- check

def test_check_harmonic_verlet_all_pass(capsys):
    assert main(["check", "--model", "harmonic", "--scheme", "verlet",
                 "--h", "0.1", "--t_end", "10", "--q0", "1", "--p0", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for name in ("gradient-fd", "hessian-fd", "reversibility",
                 "symplecticity", "energy-bounded", "energy-drift"):
        assert name in out


def test_check_printed_kepler_fails_energy(capsys):
    code = main(["check", "--model", "kepler", "--scheme", "s3-printed",
                 "--h", "0.05", "--t_end", "20", "--ecc", "0.3"])
    assert code == 4
    out = capsys.readouterr().out
    sympl = [ln for ln in out.splitlines() if ln.startswith("symplecticity")][0]
    drift = [ln for ln in out.splitlines() if ln.startswith("energy-drift")][0]
    assert "pass" in sympl
    assert "FAIL" in drift


def test_check_singular_fd_step_named_failure(capsys):
    code = main(["check", "--model", "kepler", "--scheme", "verlet",
                 "--h", "0.05", "--t_end", "1", "--q0", "1e-5, 0",
                 "--p0", "0, 1", "--fd_step", "1e-5"])
    assert code == 4
    out = capsys.readouterr().out
    grad = [ln for ln in out.splitlines() if ln.startswith("gradient-fd")][0]
    assert "FAIL" in grad and "SingularityError" in grad


# -------------------------------------------------------------- exit codes

def test_usage_error_exit_1(capsys):
    assert main(["run"]) == 1  # missing required keys
    assert main(["run", "--model", "kepler", "--scheme", "verlet",
                 "--h", "nope", "--t_end", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["--model", "harmonic", "--q0", "nan", "--p0", "0", "--t_end", "1"],
    ["--model", "kepler", "--t_end", "inf"],
])
def test_non_finite_flag_exit_1(capsys, args):
    assert main(["run", "--h", "0.1", "--scheme", "verlet"] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("symstep: ") and err.count("\n") == 1
    assert "non-finite" in err


def test_step_count_overflow_exit_1(capsys):
    assert main(["run", "--model", "kepler", "--scheme", "verlet",
                 "--h", "1e-10", "--t_end", "1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("symstep: ") and err.count("\n") == 1
    assert "too many steps" in err


def test_too_many_records_exit_1(capsys):
    """1e21 steps pass the step count check, but their records cannot be
    allocated: a one-line config error, not a traceback."""
    assert main(["run", "--model", "kepler", "--scheme", "verlet",
                 "--h", "0.1", "--t_end", "1e20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("symstep: ") and err.count("\n") == 1
    assert "records of dimension 2 are too many to allocate" in err


def test_unreadable_config_exit_3(capsys):
    assert main(["run", "--config", "/does/not/exist.cfg"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_output_exit_3(capsys):
    code = main(["run", "--model", "harmonic", "--scheme", "verlet",
                 "--h", "0.1", "--t_end", "1", "--q0", "1", "--p0", "0",
                 "--output", "/does/not/exist/t.csv"])
    assert code == 3
    capsys.readouterr()


def test_entry_point_subprocess():
    """The installed console script behaves like main()."""
    # the child imports the symstep this process imported, installed or not
    src = os.path.dirname(os.path.dirname(symstep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "symstep.cli", "bogus"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("symstep: ")

    proc = subprocess.run(
        [sys.executable, "-m", "symstep.cli", "run", "--model", "free",
         "--scheme", "verlet", "--h", "0.5", "--t_end", "1",
         "--q0", "0", "--p0", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "t,q1,p1,H,dH"
