"""Seeded inputs, operations and output checks of the three workloads.

An *op* is one user-visible experiment: a call (or short sequence of calls)
into the public ``symstep`` API.  A workload turns a seed into a fixed list of
ops, one *pass*.  The benchmark repeats that same pass until its time is
spent, so every pass has the same composition and the quantiles of op time
land on the same kind of op from seed to seed.  Draws are stratified: each
(scheme, step size) case appears equally often in a pass, and eccentricities
are drawn within fixed strata.  The seed changes every input; it does not
change what a pass is made of.

Every op is checked after it runs.  ``Outcome.reported_failure`` marks an
op that failed in a way the library reports and that does not show a wrong
output: an implicit solve that did not converge (a trajectory with
``failed_step`` and a cause, which is checked for form), or a FAIL in
``check``'s energy-bounded row.  It counts against ``ok_frac``.
``Outcome.check_error`` marks a wrong output and makes the whole run
incorrect.
"""

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import symstep as ss
from symstep import cli

# Every implicit solve uses the library's default tolerance (1e-13), at every
# h: a tolerance scaled with h can let Newton stop before its first iteration.
SOLVER = ss.SolverConfig()

KEPLER_SCHEMES = ("verlet", "s3-corrected", "s3-generating")
KEPLER_STEPS = (0.1, 0.05, 0.025)
KEPLER_ECC_MAX = 0.7        # at e = 0.9 these h do not resolve perihelion
KEPLER_STRATA = 8           # eccentricities per (scheme, h) case and pass

# max |H - H0| / |H0| <= C * h^2 on one Kepler orbit with e <= 0.7: twice
# the largest constant measured over e in [0, 0.7] and the three step sizes.
KEPLER_ENERGY_C = {"verlet": 60.0, "s3-corrected": 20.0, "s3-generating": 150.0}
# the same bound for a 10-step lj-cluster segment: twice the largest constant
# measured (verlet; s3-corrected stays below a fifth of it)
LJ_ENERGY_C = {"verlet": 1.0, "s3-corrected": 1.0}

LJ_LATTICE = 2.0 ** (1.0 / 6.0)   # pair-potential minimum, sigma = 1
LJ_JITTER = 0.02
LJ_KT = 0.05
LJ_STEPS = 10                     # steps per lj-cluster op
LJ_BASE_SEED = 2016

CLI_MIXES = 3                     # Kepler/harmonic mixes per cli-session pass

STRATUM_DRAW = 0.1


def _strata(rng, n, lo, hi):
    """One value in each of n equal strata of [lo, hi], drawn within the
    middle STRATUM_DRAW of its stratum.

    The energy error grows steeply with eccentricity, so the median over ops
    only repeats from seed to seed when every pass covers the range alike.
    """
    return [lo + (hi - lo) * (k + 0.5 + STRATUM_DRAW * (rng.random() - 0.5)) / n
            for k in range(n)]


def kepler_state(ecc, angle):
    """Perihelion start of a unit Kepler orbit (H0 = -1/2), rotated by angle."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    q = rot @ np.array([1.0 - ecc, 0.0])
    p = rot @ np.array([0.0, math.sqrt((1.0 + ecc) / (1.0 - ecc))])
    return q, p


def lj_state(rng, n_atoms, jitter=LJ_JITTER):
    """Jittered 2 x 2 x (N/4) lattice with momenta at temperature LJ_KT
    (centre-of-mass momentum removed, kinetic energy set exactly)."""
    idx = np.arange(n_atoms)
    sites = np.stack([idx % 2, (idx // 2) % 2, idx // 4], axis=1) * LJ_LATTICE
    q = sites + rng.normal(scale=jitter, size=sites.shape)
    p = rng.normal(size=sites.shape)
    p -= p.mean(axis=0)
    p *= math.sqrt(LJ_KT * 3 * (n_atoms - 1) / float(np.sum(p * p)))
    return q.ravel(), p.ravel()


def relabel(rng, q, p):
    """The same cluster in new coordinates: a random signed permutation of
    the axes and a random order of the atoms, both exact in floating point."""
    n_atoms = q.size // 3
    atoms = rng.permutation(n_atoms)
    axes = rng.permutation(3)
    signs = rng.choice([-1.0, 1.0], size=3)

    def move(v):
        return (v.reshape(n_atoms, 3)[atoms][:, axes] * signs).ravel()

    return move(q), move(p)


def lj_relaxed_state(rng, model):
    """A cluster near a local minimum (gradient descent from a jittered
    lattice) with momenta at temperature LJ_KT.

    ``check``'s energy-bounded row compares the two halves of the run, so it
    needs a run that spans several vibration periods about an equilibrium;
    from the unrelaxed lattice the cluster collapses and its energy error
    keeps growing.
    """
    n_atoms = model.dimension // 3
    q, p = lj_state(rng, n_atoms, jitter=0.05)
    for _ in range(2000):
        q = q - 0.01 * model.gradient(q)
    return q, p


def energy(model, q, p):
    """H = p.p / 2m + V(q), summed here from the model's potential."""
    return 0.5 * float(np.sum(p * p / model.mass)) + model.value(q)


@dataclass
class Run:
    """One integration an op performs: the inputs handed to the library."""

    model: object
    scheme: str
    q0: np.ndarray
    p0: np.ndarray
    h: float
    n_steps: int

    def state(self):
        return ss.PhaseState(self.q0, self.p0)

    def settings(self):
        """The same integration as ``symstep`` config keys and values."""
        return [("model", self.model.name), ("scheme", self.scheme),
                ("h", repr(self.h)), ("t_end", repr(self.h * self.n_steps)),
                ("q0", _vec(self.q0)), ("p0", _vec(self.p0))]

    def flags(self):
        """The same integration as ``symstep`` command-line flags."""
        return [f"--{key}={value}" for key, value in self.settings()]


@dataclass
class Op:
    case: str                     # what kind of op, for tables and tracing
    run: Run                      # the integration it performs (or drives)
    argv: Optional[list] = None   # command line, for cli-session ops
    expect_exit: int = 0
    steps: int = 0                # integration steps the op performs when
                                  # every run in it completes


@dataclass
class Outcome:
    wall_s: float
    steps: int
    energy_err: Optional[float] = None
    reported_failure: bool = False
    check_error: Optional[str] = None


def no_span(name, **attrs):
    """Stands in for Tracer.span when a run is not traced."""
    return contextlib.nullcontext()


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


def _check_failure_report(traj, n_steps):
    """A failed trajectory must say where and why, and hold the states
    before the failing step."""
    k = traj.failed_step
    if k is None or not 1 <= k <= n_steps:
        return f"failed_step {k} outside 1..{n_steps}"
    if traj.failure is None or not traj.failure.cause:
        return "failed trajectory without a cause"
    if len(traj) != k:
        return f"{len(traj)} records before failing step {k}"
    return None


def _trajectory_outcome(op, traj, drift, wall, energy_c):
    """Check an integrate op: a failure report in due form, or every record
    and an energy error within energy_c * h^2."""
    r = op.run
    if traj.failed:
        return Outcome(wall, traj.failed_step - 1, reported_failure=True,
                       check_error=_check_failure_report(traj, r.n_steps))
    out = Outcome(wall, r.n_steps,
                  energy_err=drift.max_abs / abs(energy(r.model, r.q0, r.p0)))
    bound = energy_c[r.scheme] * r.h * r.h
    if len(traj) != r.n_steps + 1:
        out.check_error = f"{op.case}: {len(traj)} records for {r.n_steps} steps"
    elif not out.energy_err <= bound:
        out.check_error = (f"{op.case}: energy error {out.energy_err:.3e} "
                           f"above the second-order bound {bound:.3e}")
    return out


class KeplerSweep:
    """integrate + energy_drift on one Kepler orbit per op."""

    name = "kepler-sweep"

    def __init__(self, seed, scratch_dir):
        rng = np.random.default_rng([seed, 1])
        self.model = ss.make_model("kepler")
        ops = []
        for scheme in KEPLER_SCHEMES:
            for h in KEPLER_STEPS:
                n = int(round(2.0 * math.pi / h))
                for ecc in _strata(rng, KEPLER_STRATA, 0.0, KEPLER_ECC_MAX):
                    q, p = kepler_state(ecc, 2.0 * math.pi * rng.random())
                    run = Run(self.model, scheme, q, p, h, n)
                    ops.append(Op(f"{scheme}/h={h}", run, steps=n))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self):
        run = self.ops[0].run
        for scheme in KEPLER_SCHEMES:
            traj = ss.integrate(self.model, scheme, run.state(), run.h, 2)
            ss.energy_drift(traj, self.model)

    def execute(self, op, span=no_span):
        r = op.run
        t0 = time.perf_counter()
        with span("integrators.integrate", steps=r.n_steps):
            traj = ss.integrate(r.model, r.scheme, r.state(), r.h, r.n_steps,
                                 solver_cfg=SOLVER)
        with span("diagnostics.energy_drift", records=len(traj)):
            drift = ss.energy_drift(traj, r.model)
        wall = time.perf_counter() - t0
        return _trajectory_outcome(op, traj, drift, wall, KEPLER_ENERGY_C)


class LJCluster:
    """One 10-step integrate segment of a Lennard-Jones cluster per op.

    A pass holds eleven ops: verlet at N = 8, 16 and h = 0.005, 0.002 once
    each; s3-corrected at N = 8 twice per h, at N = 16 twice at h = 0.005 and
    once at h = 0.002.  The last case stops at max_iterations within its
    first steps (the absolute tolerance cannot be met at that h); it stays,
    and counts against ok_frac.

    Each op slot integrates its own jittered lattice with thermal momenta,
    drawn from a fixed stream; the seed draws the slot order and relabels
    every cluster (see ``relabel``).  The energy error of a short segment
    varies by more than half between independently drawn clusters, so
    clusters drawn afresh per seed would leave energy_err.p50 unrepeatable.
    """

    name = "lj-cluster"
    CASES = (("verlet", 8, 0.005, 1), ("verlet", 8, 0.002, 1),
             ("verlet", 16, 0.005, 1), ("verlet", 16, 0.002, 1),
             ("s3-corrected", 8, 0.005, 2), ("s3-corrected", 8, 0.002, 2),
             ("s3-corrected", 16, 0.005, 2), ("s3-corrected", 16, 0.002, 1))

    def __init__(self, seed, scratch_dir):
        rng = np.random.default_rng([seed, 2])
        self.models = {n: ss.make_model("lj-cluster", dimension=3 * n)
                       for n in (8, 16)}
        ops = []
        for scheme, n_atoms, h, count in self.CASES:
            for _ in range(count):
                base = np.random.default_rng([LJ_BASE_SEED, len(ops)])
                q, p = relabel(rng, *lj_state(base, n_atoms))
                run = Run(self.models[n_atoms], scheme, q, p, h, LJ_STEPS)
                ops.append(Op(f"{scheme}/N={n_atoms}/h={h}", run, steps=LJ_STEPS))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self):
        for op in self.ops:
            r = op.run
            ss.integrate(r.model, r.scheme, r.state(), r.h, 1)

    def execute(self, op, span=no_span):
        r = op.run
        t0 = time.perf_counter()
        with span("integrators.integrate", steps=r.n_steps):
            traj = ss.integrate(r.model, r.scheme, r.state(), r.h, r.n_steps,
                                 solver_cfg=SOLVER)
        wall = time.perf_counter() - t0
        drift = None if traj.failed else ss.energy_drift(traj, r.model)
        return _trajectory_outcome(op, traj, drift, wall, LJ_ENERGY_C)

    def solver_probe(self):
        """Mean Newton iterations per implicit step, from one public step()
        per implicit case at that case's first start state."""
        seen, iters = set(), []
        for op in self.ops:
            r = op.run
            key = (r.scheme, r.model.dimension, r.h)
            if r.scheme == "verlet" or key in seen:
                continue
            seen.add(key)
            try:
                iters.append(ss.step(r.scheme, r.model, r.state(), r.h).solver.iterations)
            except ss.StepError as err:
                iters.append(err.report.iterations)
        return sum(iters) / len(iters)


class CliSession:
    """In-process ``symstep.cli.main`` calls, stdout captured: the README mix.

    A pass holds one ``check`` on a relaxed LJ(8) cluster and CLI_MIXES
    mixes of Kepler and harmonic commands.  Each mix holds, with seeded
    parameters: four ``run`` (Kepler, two schemes, record_stride 1, CSV into
    a scratch directory), four ``compare``, two ``converge`` on the harmonic
    model, nine ``check`` on Kepler and one ``check --scheme s3-printed`` on
    the harmonic model, which must exit 4.

    Six ops of a mix cost less than a Kepler ``check`` and five cost more,
    so the median op time is the middle of the Kepler checks rather than the
    edge between two kinds of op.  The LJ(8) check costs as much as two or
    three mixes; repeating the mix gives a run more samples of the median.

    The LJ(8) cluster is one fixed relaxed cluster, relabelled by the seed
    (see ``relabel``).  Clusters drawn afresh per seed make the check fail
    on about one seed in forty (a first step at max_iterations with a
    residual just above the absolute tolerance, or a failed energy-bounded
    row), which makes ok_frac differ from seed to seed.

    A command that reports a failure that does not show a wrong output
    counts against ok_frac like a failed lj-cluster segment (see
    ``_reported_failure``).
    """

    name = "cli-session"

    def __init__(self, seed, scratch_dir):
        rng = np.random.default_rng([seed, 3])
        self.scratch = scratch_dir
        self.kepler = ss.make_model("kepler")
        self.harmonic = ss.make_model("harmonic", dimension=1)
        self.lj8 = ss.make_model("lj-cluster", dimension=24)
        self._reference = {}
        ops = []
        for _ in range(CLI_MIXES):
            self._add_mix(rng, ops)
        base = np.random.default_rng([LJ_BASE_SEED, 3])
        q, p = relabel(rng, *lj_relaxed_state(base, self.lj8))
        r = Run(self.lj8, "s3-corrected", q, p, 0.02, 50)
        ops.append(Op("check/lj8", r, ["check"] + r.flags(),
                      steps=3 * r.n_steps + 4 * 24))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def _add_mix(self, rng, ops):
        """Append one mix of Kepler and harmonic commands to ops."""
        eccs = iter(_strata(rng, 17, 0.1, 0.5))

        def kepler_run(scheme, h, t_end):
            q, p = kepler_state(next(eccs), 0.0)
            return Run(self.kepler, scheme, q, p, h, int(round(t_end / h)))

        for scheme in ("s3-corrected", "verlet"):
            for _ in range(2):
                # the Kepler checks' t_end: a run then costs under half a
                # check, so the median op lies among the checks, well clear
                # of the runs
                r = kepler_run(scheme, 0.05, 5.0)
                path = os.path.join(self.scratch, f"run-{len(ops)}.csv")
                argv = (["run"] + r.flags()
                        + ["--record_stride", "1", "--output", path])
                ops.append(Op(f"run/{scheme}", r, argv, steps=r.n_steps))
        for scheme in ("s3-corrected", "s3-generating") * 2:
            r = kepler_run(scheme, 0.1, 20.0)
            argv = ["compare"] + r.flags()
            # two variants, each integrated forward, then forward and back
            ops.append(Op(f"compare/{scheme}", r, argv, steps=6 * r.n_steps))
        steps = (0.1, 0.05, 0.025, 0.0125)
        for scheme in ("s3-corrected", "verlet"):
            amp = 0.5 + rng.random()
            r = Run(self.harmonic, scheme, np.array([amp]), np.array([0.0]),
                    steps[-1], int(round(10.0 / steps[-1])))
            argv = (["converge", "--model", "harmonic", "--scheme", scheme,
                     "--h", "0.1", "--t_end", "10", "--q0", repr(amp),
                     "--p0", "0", "--steps", ", ".join(map(str, steps))])
            ops.append(Op(f"converge/{scheme}", r, argv,
                          steps=sum(int(round(10.0 / h)) for h in steps)))
        for _ in range(9):
            r = kepler_run("s3-corrected", 0.05, 5.0)
            ops.append(Op("check/kepler", r, ["check"] + r.flags(),
                          steps=3 * r.n_steps + 4 * 2))
        amp = 0.5 + rng.random()
        r = Run(self.harmonic, "s3-printed", np.array([amp]), np.array([0.0]),
                0.1, 100)
        ops.append(Op("check/s3-printed", r, ["check"] + r.flags(),
                      expect_exit=cli.EXIT_DIAGNOSTIC, steps=3 * 100 + 4))

    def warm_up(self):
        path = os.path.join(self.scratch, "warm-up.csv")
        for argv in (["run", "--model", "kepler", "--scheme", "s3-corrected",
                      "--h", "0.1", "--t_end", "0.2", "--output", path],
                     ["compare", "--model", "kepler", "--scheme", "s3-corrected",
                      "--h", "0.1", "--t_end", "0.2"],
                     ["converge", "--model", "harmonic", "--scheme", "verlet",
                      "--h", "0.1", "--t_end", "0.2", "--q0", "1", "--p0", "0",
                      "--steps", "0.1, 0.05"],
                     ["check", "--model", "harmonic", "--scheme", "s3-corrected",
                      "--h", "0.1", "--t_end", "0.2", "--q0", "1", "--p0", "0"]):
            call_cli(argv)
        os.unlink(path)

    def execute(self, op, span=no_span):
        with span("cli.main", command=op.argv[0]):
            code, wall, stdout, stderr = call_cli(op.argv)
        out = Outcome(wall, op.steps)
        if op.expect_exit == cli.EXIT_OK and _reported_failure(code, stdout, stderr):
            if op.argv[0] == "run":
                os.unlink(op.argv[op.argv.index("--output") + 1])
            return Outcome(wall, 0, reported_failure=True)
        if code != op.expect_exit:
            out.check_error = f"{op.case}: exit code {code}, expected {op.expect_exit}"
            return out
        command = op.argv[0]
        if command == "run":
            out.check_error, out.energy_err = self._check_run(op)
        elif command == "compare":
            out.check_error, out.energy_err = self._check_compare(op, stdout)
        elif command == "converge":
            order = float(stdout.strip().splitlines()[-1].split(",")[1])
            if not abs(order - 2.0) <= 0.05:
                out.check_error = f"{op.case}: fitted order {order}"
        else:
            # row: name, value, "<=", threshold, pass|FAIL[, (note)]
            status = [line.split()[4] for line in stdout.splitlines() if line.strip()]
            if op.expect_exit == cli.EXIT_OK and set(status) != {"pass"}:
                out.check_error = f"{op.case}: rows {status}"
            if op.expect_exit == cli.EXIT_DIAGNOSTIC and "FAIL" not in status:
                out.check_error = f"{op.case}: no FAIL row in the witness"
        return out

    def reference(self, op):
        """The trajectory a run op must have written (computed once)."""
        key = id(op)
        if key not in self._reference:
            r = op.run
            self._reference[key] = ss.integrate(r.model, r.scheme, r.state(),
                                                r.h, r.n_steps)
        return self._reference[key]

    def _check_run(self, op):
        path = op.argv[op.argv.index("--output") + 1]
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        os.unlink(path)
        leftovers = [n for n in os.listdir(self.scratch) if n.startswith(".symstep-")]
        if leftovers:
            return f"{op.case}: temporary files left: {leftovers}", None
        ref = self.reference(op)
        d = op.run.model.dimension
        body = rows[1:]
        if len(body) != op.run.n_steps + 1:
            return f"{op.case}: {len(body)} CSV rows for {op.run.n_steps} steps", None
        cells = np.array([[float(c) for c in row] for row in body])
        if not (np.array_equal(cells[:, 1:1 + d], ref.q)
                and np.array_equal(cells[:, 1 + d:1 + 2 * d], ref.p)
                and np.array_equal(cells[:, 0], ref.times)):
            return f"{op.case}: CSV does not reproduce the trajectory", None
        h0 = abs(cells[0, 1 + 2 * d])
        err = float(np.max(np.abs(cells[:, 2 + 2 * d]))) / h0
        bound = KEPLER_ENERGY_C[op.run.scheme] * op.run.h ** 2
        if not err <= bound:
            return f"{op.case}: energy error {err:.3e} above {bound:.3e}", err
        return None, err

    def _check_compare(self, op, stdout):
        lines = stdout.splitlines()
        ratio = [float(line.split(",")[1]) for line in lines
                 if line.startswith("drift_ratio,")]
        row = [line.split(",") for line in lines
               if line.startswith(op.run.scheme + ",")]
        if len(ratio) != 1 or not math.isfinite(ratio[0]) or len(row) != 1:
            return f"{op.case}: no finite drift_ratio", None
        h0 = abs(energy(op.run.model, op.run.q0, op.run.p0))
        return None, float(row[0][1]) / h0


def _reported_failure(code, stdout, stderr):
    """Whether a command line failed in a way it reported and that does not
    show a wrong output.

    ``run``, ``compare`` and ``converge`` exit EXIT_SOLVER with a message
    when an implicit solve does not converge.  ``check`` exits
    EXIT_DIAGNOSTIC; that is such a failure when every FAIL row carries a
    StepError or solver-failure note or is the energy-bounded row.  That row
    compares the largest energy error of the second half of one run with
    that of the first: on a short chaotic LJ run the error can still be
    growing while the energy-drift row and its second-order bound hold.  Any
    other FAIL row is a wrong output.
    """
    if code == cli.EXIT_SOLVER:
        return "fail" in stderr
    if code != cli.EXIT_DIAGNOSTIC:
        return False
    # row: name, value, "<=", threshold, pass|FAIL[, (note)]
    failed = [line.split(None, 5) for line in stdout.splitlines()
              if line.split()[4:5] == ["FAIL"]]
    return bool(failed) and all(
        row[0] == "energy-bounded"
        or len(row) == 6 and row[5].startswith(("(StepError", "(solver failure"))
        for row in failed)


def call_cli(argv):
    """Run ``symstep.cli.main(argv)`` in process; returns (exit code, wall
    seconds, captured stdout, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()


# name -> class; each is built as cls(seed, scratch_dir)
WORKLOADS = {w.name: w for w in (KeplerSweep, LJCluster, CliSession)}
