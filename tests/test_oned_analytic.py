"""Closed-form 1D strip solutions and the well-posedness threshold."""

import numpy as np
import pytest

from poroflow import Degenerate, FluidModel, NonExistence, NonFiniteData
from poroflow import oned_analytic as o1
from poroflow import transform as tr

import _oracles

# p0*k/(mu0*L*beta) with the canonical parameters and L = 100 m
VSTAR_TABLE1_L100 = 8.550632911392405
# 1 - ln(0.5) at unit parameters, v0 = 0.5, x = 0
P_UNIT_V05_X0 = 1.6931471805599453


def unit_problem(v0):
    return o1.StripProblem(L=1.0, k=1.0, fluid=FluidModel(1.0, 1.0, 1.0), v0=v0)


def table1_problem(fluid, v0):
    return o1.StripProblem(L=100.0, k=1e-12, fluid=fluid, v0=v0)


def hopf_cole_to_pressure(P, problem):
    """Pressure from the transformed variable P of the closed form through
    the Kirchhoff kernel measured from the outlet pressure p_R: P is the
    Kirchhoff variable minus its ceiling there."""
    fluid, p_R = problem.fluid, problem.p_R
    return tr.kirchhoff_inverse(P + tr.kirchhoff_ceiling(fluid, p_R), fluid, p_R)


# one model parameter replaced by a non-finite value
WITH_BAD_PARAMETER = {
    "fluid.mu0": lambda bad: FluidModel(mu0=bad, beta=1.0, p0=1.0),
    "fluid.beta": lambda bad: FluidModel(mu0=1.0, beta=bad, p0=1.0),
    "fluid.p0": lambda bad: FluidModel(mu0=1.0, beta=1.0, p0=bad),
    "strip.L": lambda bad: o1.StripProblem(L=bad, k=1.0, fluid=FluidModel(1.0, 1.0, 1.0), v0=0.5),
    "strip.k": lambda bad: o1.StripProblem(L=1.0, k=bad, fluid=FluidModel(1.0, 1.0, 1.0), v0=0.5),
    "strip.v0": lambda bad: o1.StripProblem(L=1.0, k=1.0, fluid=FluidModel(1.0, 1.0, 1.0), v0=bad),
    "strip.p_R": lambda bad: o1.StripProblem(
        L=1.0, k=1.0, fluid=FluidModel(1.0, 1.0, 1.0), v0=0.5, p_R=bad
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("parameter", sorted(WITH_BAD_PARAMETER))
def test_non_finite_parameter_rejected(parameter, bad):
    with pytest.raises(NonFiniteData):
        WITH_BAD_PARAMETER[parameter](bad)


class TestExistenceThreshold:
    def test_unit_values(self):
        assert o1.existence_threshold(unit_problem(0.0)) == 1.0

    def test_table1(self, table1_fluid):
        v = o1.existence_threshold(table1_problem(table1_fluid, 0.0))
        assert v == pytest.approx(VSTAR_TABLE1_L100, rel=1e-14)

    def test_doubling_beta_halves_threshold(self, table1_fluid):
        doubled = FluidModel(table1_fluid.mu0, 2 * table1_fluid.beta, table1_fluid.p0)
        v1 = o1.existence_threshold(table1_problem(table1_fluid, 0.0))
        v2 = o1.existence_threshold(table1_problem(doubled, 0.0))
        assert v2 == pytest.approx(0.5 * v1, rel=1e-14)

    def test_degenerate(self):
        prob = o1.StripProblem(L=1.0, k=1.0, fluid=FluidModel(1.0, 0.0, 1.0), v0=0.1)
        with pytest.raises(Degenerate):
            o1.existence_threshold(prob)


class TestDirectPressure:
    def test_outlet_boundary_condition(self, table1_fluid):
        prob = table1_problem(table1_fluid, 2.0)
        assert o1.direct_pressure_1d(prob.L, prob) == table1_fluid.p0

    def test_unit_closed_form(self):
        got = o1.direct_pressure_1d(0.0, unit_problem(0.5))
        assert got == pytest.approx(P_UNIT_V05_X0, rel=1e-14)

    def test_ode_oracle_unit(self):
        prob = unit_problem(0.5)
        x = np.linspace(0.0, 1.0, 11)
        oracle = _oracles.strip_pressure_ode(x, prob.L, prob.k, prob.fluid, prob.v0)
        got = o1.direct_pressure_1d(x, prob)
        assert np.max(np.abs(got - oracle) / np.abs(oracle)) < 1e-10

    def test_ode_oracle_table1(self, table1_fluid):
        prob = table1_problem(table1_fluid, 0.8 * VSTAR_TABLE1_L100)
        x = np.linspace(0.0, 100.0, 9)
        oracle = _oracles.strip_pressure_ode(x, prob.L, prob.k, prob.fluid, prob.v0)
        got = o1.direct_pressure_1d(x, prob)
        assert np.max(np.abs(got - oracle) / np.abs(oracle)) < 1e-9

    def test_zero_velocity_hydrostatic(self, table1_fluid):
        prob = table1_problem(table1_fluid, 0.0)
        x = np.linspace(0.0, 100.0, 7)
        assert np.allclose(o1.direct_pressure_1d(x, prob), table1_fluid.p0, rtol=1e-15)

    def test_monotone_decreasing_in_x(self, table1_fluid):
        prob = table1_problem(table1_fluid, 0.5 * VSTAR_TABLE1_L100)
        p = o1.direct_pressure_1d(np.linspace(0.0, 100.0, 101), prob)
        assert np.all(np.diff(p) <= 0.0)

    def test_position_validated(self, table1_fluid):
        prob = table1_problem(table1_fluid, 1.0)
        with pytest.raises(ValueError):
            o1.direct_pressure_1d(-0.1, prob)
        with pytest.raises(ValueError):
            o1.direct_pressure_1d(100.1, prob)


class TestThresholdSharpness:
    EPS = 1e-6

    def test_just_below_is_finite(self, table1_fluid):
        prob = table1_problem(table1_fluid, (1.0 - self.EPS) * VSTAR_TABLE1_L100)
        assert np.isfinite(o1.direct_pressure_1d(0.0, prob))

    def test_just_above_raises(self, table1_fluid):
        prob = table1_problem(table1_fluid, (1.0 + self.EPS) * VSTAR_TABLE1_L100)
        with pytest.raises(NonExistence):
            o1.direct_pressure_1d(0.0, prob)

    def test_interior_point_may_survive(self, table1_fluid):
        # above threshold the failure is at the inlet; far enough downstream
        # the log argument is still positive
        prob = table1_problem(table1_fluid, 1.5 * VSTAR_TABLE1_L100)
        assert np.isfinite(o1.direct_pressure_1d(99.0, prob))
        with pytest.raises(NonExistence):
            o1.direct_pressure_1d(0.0, prob)


class TestTransformedPressure:
    def test_outlet_value(self, table1_fluid):
        prob = table1_problem(table1_fluid, 3.0)
        expected = -table1_fluid.p0 / table1_fluid.beta
        assert o1.transformed_pressure_1d(prob.L, prob) == pytest.approx(expected, rel=1e-15)

    def test_unit_values(self):
        assert o1.transformed_pressure_1d(0.0, unit_problem(0.5)) == pytest.approx(
            -0.5, rel=1e-15
        )

    def test_defined_above_threshold(self, table1_fluid):
        prob = table1_problem(table1_fluid, 100.0 * VSTAR_TABLE1_L100)
        assert np.isfinite(o1.transformed_pressure_1d(0.0, prob))

    def test_sign_criterion_matches_threshold(self, table1_fluid):
        vstar = VSTAR_TABLE1_L100
        below = table1_problem(table1_fluid, 0.999999 * vstar)
        above = table1_problem(table1_fluid, 1.000001 * vstar)
        assert o1.transformed_pressure_1d(0.0, below) < 0.0
        assert o1.transformed_pressure_1d(0.0, above) > 0.0

    @pytest.mark.parametrize("case", ["unit", "table1"])
    def test_pointwise_equivalence_with_direct(self, case, table1_fluid):
        if case == "unit":
            prob = unit_problem(0.5)
        else:
            prob = table1_problem(table1_fluid, 0.8 * VSTAR_TABLE1_L100)
        x = np.linspace(0.0, prob.L, 1001)
        via_transform = hopf_cole_to_pressure(o1.transformed_pressure_1d(x, prob), prob)
        direct = o1.direct_pressure_1d(x, prob)
        assert np.max(np.abs(via_transform - direct) / np.abs(direct)) < 1e-12


class TestVelocity:
    def test_constant(self, table1_fluid):
        assert o1.velocity_1d(table1_problem(table1_fluid, 0.5)) == 0.5
        assert o1.velocity_1d(table1_problem(table1_fluid, 0.0)) == 0.0

    def test_independent_of_material(self, table1_fluid):
        a = o1.StripProblem(L=1.0, k=1e-12, fluid=table1_fluid, v0=0.7)
        b = o1.StripProblem(L=9.0, k=1e-10, fluid=FluidModel(2.0, 5e-5, 2e5), v0=0.7)
        assert o1.velocity_1d(a) == o1.velocity_1d(b) == 0.7


class TestNonReferenceOutlet:
    def test_forms_stay_consistent(self, table1_fluid):
        # outlet at 2*p0 still satisfies the transform equivalence
        prob = o1.StripProblem(
            L=50.0, k=1e-12, fluid=table1_fluid, v0=1.0, p_R=2 * table1_fluid.p0
        )
        x = np.linspace(0.0, 50.0, 101)
        via_transform = hopf_cole_to_pressure(o1.transformed_pressure_1d(x, prob), prob)
        assert np.max(np.abs(via_transform - o1.direct_pressure_1d(x, prob))) < 1e-9 * prob.p_R
        oracle = _oracles.strip_pressure_ode(
            x[:5], prob.L, prob.k, prob.fluid, prob.v0, p_R=prob.p_R
        )
        assert np.allclose(o1.direct_pressure_1d(x[:5], prob), oracle, rtol=1e-9)
