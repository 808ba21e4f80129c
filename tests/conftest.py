import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from poroflow import FluidModel
from poroflow import darcy_linear

# Canonical reservoir simulation parameters (reference pressure is
# atmospheric; permeability value carries a documented unit anomaly in the
# source table and is used as m^2).
TABLE1 = {
    "mu0": 3.95e-5,  # Pa.s
    "beta": 3e-6,
    "p0": 101325.0,  # Pa
    "k": 1e-12,  # m^2
}


@pytest.fixture(scope="session")
def table1_fluid():
    return FluidModel(mu0=TABLE1["mu0"], beta=TABLE1["beta"], p0=TABLE1["p0"])


@pytest.fixture(scope="session")
def unit_fluid():
    return FluidModel(mu0=1.0, beta=1.0, p0=1.0)


@pytest.fixture
def factor_calls(monkeypatch):
    """Shapes of the matrices the solver factors, one per factorization of
    either kind (banded Cholesky or SuperLU), counted at darcy_linear._factor
    before it runs, so a factorization that fails counts too."""
    calls = []
    factor = darcy_linear._factor

    def counting(A, *args):
        calls.append(A.shape)
        return factor(A, *args)

    monkeypatch.setattr(darcy_linear, "_factor", counting)
    return calls
