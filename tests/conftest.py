import numpy as np
import pytest

import symstep as ss


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run every model through every scheme once, so first-call costs
    (imports, LAPACK set-up) are paid before any timed test runs."""
    models = [
        ss.make_model("free", dimension=2),
        ss.make_model("harmonic", dimension=2, omega=1.0),
        ss.make_model("kepler"),
        ss.make_model("lj-cluster", dimension=6),
    ]
    for model in models:
        if model.name == "kepler":
            s = ss.PhaseState((1.0, 0.0), (0.0, 1.0))
        elif model.name == "lj-cluster":
            s = ss.PhaseState((0.0, 0, 0, 1.1, 0, 0), np.zeros(6))
        else:
            s = ss.PhaseState(np.ones(2), np.zeros(2))
        ss.validate_derivatives(model, s.q)
        for variant in ss.SchemeVariant:
            ss.integrate(model, variant, s, 1e-3, 2)
