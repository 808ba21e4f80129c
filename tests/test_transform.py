"""Pointwise transform maps: frozen oracle values, round trips, and
algebraic identities."""

import numpy as np
import pytest

from poroflow import (
    BodyForcePotential,
    Degenerate,
    DomainViolation,
    FluidModel,
    TransformOverflow,
)
from poroflow import transform as tr

import _oracles

# mu0*exp[3e-6*(4.2e9/101325 - 1)], 40-digit arithmetic
VISCOSITY_TABLE1_AT_4p2E9 = 4.4730249865543545e-05
# 1 - ln(0.5)
FORWARD_UNIT_AT_MINUS_HALF = 1.6931471805599453
# 1 - ln(2)
KIRCHHOFF_INV_UNIT_AT_MINUS_ONE = 0.30685281944005469


# The two-constant family through the Kirchhoff kernel, as the transform
# module docstring states it, with p_ref = p0: the member A*P + B = HC of
# ptilde is P = (P_K(ptilde) - C - B)/A, and A*P + B + C is the P_K that
# kirchhoff_inverse maps back. A = 1, B = 0 is the Hopf-Cole variable.
def family_from_pressure(ptilde, fluid, A=1.0, B=0.0):
    C = tr.kirchhoff_ceiling(fluid, fluid.p0)
    return (tr.kirchhoff_forward(ptilde, fluid, fluid.p0) - C - B) / A


def family_to_pressure(P, fluid, A=1.0, B=0.0):
    P_K = A * np.asarray(P, dtype=float) + B + tr.kirchhoff_ceiling(fluid, fluid.p0)
    return tr.kirchhoff_inverse(P_K, fluid, fluid.p0)


class TestFluidModel:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FluidModel(mu0=0.0, beta=1.0, p0=1.0)
        with pytest.raises(ValueError):
            FluidModel(mu0=1.0, beta=-1e-9, p0=1.0)
        with pytest.raises(ValueError):
            FluidModel(mu0=1.0, beta=1.0, p0=0.0)

    def test_degenerate_flag(self, table1_fluid):
        assert not table1_fluid.is_degenerate
        assert FluidModel(1.0, 0.0, 1.0).is_degenerate


class TestViscosity:
    def test_reference_pressure_gives_mu0(self, table1_fluid):
        assert tr.viscosity(table1_fluid.p0, table1_fluid) == table1_fluid.mu0

    def test_beta_zero_constant(self):
        fluid = FluidModel(mu0=2.5, beta=0.0, p0=10.0)
        for p in (-1e9, 0.0, 10.0, 1e12):
            assert tr.viscosity(p, fluid) == 2.5

    def test_table1_high_pressure(self, table1_fluid):
        got = tr.viscosity(4.2e9, table1_fluid)
        assert got == pytest.approx(VISCOSITY_TABLE1_AT_4p2E9, rel=1e-14)

    def test_vectorized_and_positive(self, table1_fluid):
        p = np.geomspace(1.0, 1e9, 64)
        mu = tr.viscosity(p, table1_fluid)
        assert mu.shape == p.shape
        assert np.all(mu > 0.0)


class TestReferenceViscosityField:
    def test_zero_potential_gives_mu0(self, table1_fluid):
        assert tr.reference_viscosity_field(0.0, table1_fluid) == table1_fluid.mu0

    def test_beta_zero(self):
        fluid = FluidModel(mu0=7.0, beta=0.0, p0=3.0)
        assert tr.reference_viscosity_field(123.0, fluid) == 7.0

    def test_unit_case(self, unit_fluid):
        assert tr.reference_viscosity_field(np.log(2.0), unit_fluid) == pytest.approx(
            0.5, rel=1e-15
        )


class TestPressureMultiplier:
    def test_viscosity_decomposition(self, table1_fluid):
        # mu0_tilde(xi) * g(p + xi), g(ptilde) = exp[beta*(ptilde/p0 - 1)],
        # must reproduce the viscosity at p
        rng = np.random.default_rng(7)
        p = rng.uniform(1e4, 1e9, 500)
        xi = rng.uniform(-1e6, 1e6, 500)
        f = table1_fluid
        g = np.exp(f.beta * ((p + xi) / f.p0 - 1.0))
        lhs = tr.reference_viscosity_field(xi, f) * g
        rhs = tr.viscosity(p, table1_fluid)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-14


class TestHopfColeForward:
    """The Hopf-Cole back-map P -> ptilde, the family member A = 1, B = 0
    mapped back through the Kirchhoff kernel."""

    def test_log_argument_one(self, table1_fluid):
        P = -table1_fluid.p0 / table1_fluid.beta
        assert family_to_pressure(P, table1_fluid) == pytest.approx(
            table1_fluid.p0, rel=1e-15
        )

    def test_unit_closed_form(self, unit_fluid):
        assert family_to_pressure(-0.5, unit_fluid) == pytest.approx(
            FORWARD_UNIT_AT_MINUS_HALF, rel=1e-15
        )

    def test_positive_input_has_no_pressure(self, table1_fluid):
        with pytest.raises(DomainViolation):
            family_to_pressure(1.0, table1_fluid)
        with pytest.raises(DomainViolation):
            family_to_pressure(0.0, table1_fluid)

    def test_beta_zero_degenerate(self):
        with pytest.raises(Degenerate):
            family_to_pressure(-1.0, FluidModel(1.0, 0.0, 1.0))


class TestHopfColeInverse:
    def test_reference_pressure(self, table1_fluid):
        got = tr.hopf_cole_inverse(table1_fluid.p0, 0.0, table1_fluid)
        assert got == pytest.approx(-table1_fluid.p0 / table1_fluid.beta, rel=1e-15)
        assert got == pytest.approx(-3.3775e10, rel=1e-15)

    def test_strictly_negative(self, table1_fluid):
        rng = np.random.default_rng(3)
        p = rng.uniform(-1e8, 1e10, 2000)
        assert np.all(tr.hopf_cole_inverse(p, 0.0, table1_fluid) < 0.0)

    def test_round_trip(self, table1_fluid):
        rng = np.random.default_rng(11)
        p = rng.uniform(table1_fluid.p0, 1e9, 1000)
        back = family_to_pressure(tr.hopf_cole_inverse(p, 0.0, table1_fluid), table1_fluid)
        assert np.max(np.abs(back - p) / p) < 1e-9

    def test_round_trip_with_potential(self, table1_fluid):
        rng = np.random.default_rng(12)
        p = rng.uniform(table1_fluid.p0, 1e8, 200)
        xi = rng.uniform(-1e5, 1e5, 200)
        ptilde = family_to_pressure(tr.hopf_cole_inverse(p, xi, table1_fluid), table1_fluid)
        assert np.max(np.abs(ptilde - (p + xi)) / np.abs(p + xi)) < 1e-9

    def test_beta_zero_degenerate(self):
        with pytest.raises(Degenerate):
            tr.hopf_cole_inverse(1.0, 0.0, FluidModel(1.0, 0.0, 1.0))

    def test_overflow_guard(self, table1_fluid):
        # absurdly negative pressure drives the exponent past float64 range
        with pytest.raises(TransformOverflow):
            tr.hopf_cole_inverse(-3e13, 0.0, table1_fluid)


class TestKirchhoff:
    def test_empty_interval(self, table1_fluid):
        assert tr.kirchhoff_forward(table1_fluid.p0, table1_fluid, table1_fluid.p0) == 0.0

    def test_unit_closed_form_vs_quadrature(self, unit_fluid):
        ptilde = 1.0 - np.log(2.0)
        got = tr.kirchhoff_forward(ptilde, unit_fluid, unit_fluid.p0)
        assert got == pytest.approx(-1.0, rel=1e-14)
        oracle = _oracles.kirchhoff_by_quadrature(ptilde, unit_fluid)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_shift_identity_vs_main_transform(self, table1_fluid):
        # the two transformed variables differ by the constant p0/beta
        rng = np.random.default_rng(21)
        ptilde = rng.uniform(table1_fluid.p0, 1e9, 1000)
        shift = tr.kirchhoff_forward(
            ptilde, table1_fluid, table1_fluid.p0
        ) - tr.hopf_cole_inverse(ptilde, 0.0, table1_fluid)
        ref = table1_fluid.p0 / table1_fluid.beta
        assert np.max(np.abs(shift - ref) / ref) < 1e-12

    def test_far_above_reference_is_the_ceiling(self, unit_fluid):
        # exp[-beta*(ptilde - p0)/p0] = e^-999 is 0 in float64, so the value
        # is the ceiling p0/beta, not an overflow
        assert tr.kirchhoff_forward(1000.0, unit_fluid, unit_fluid.p0) == 1.0
        got = tr.kirchhoff_forward(np.array([1.0, 1000.0]), unit_fluid, unit_fluid.p0)
        assert np.array_equal(got, [0.0, 1.0])

    def test_inverse_trivial_and_frozen(self, table1_fluid, unit_fluid):
        assert tr.kirchhoff_inverse(0.0, table1_fluid, table1_fluid.p0) == pytest.approx(
            table1_fluid.p0, rel=1e-15
        )
        got = tr.kirchhoff_inverse(-1.0, unit_fluid, unit_fluid.p0)
        assert got == pytest.approx(KIRCHHOFF_INV_UNIT_AT_MINUS_ONE, rel=1e-14)
        oracle = _oracles.kirchhoff_inverse_by_rootfind(-1.0, unit_fluid, -5.0, 5.0)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_inverse_domain_violation(self, table1_fluid):
        p0 = table1_fluid.p0
        with pytest.raises(DomainViolation):
            tr.kirchhoff_inverse(2.0 * p0 / table1_fluid.beta, table1_fluid, p0)

    def test_round_trip(self, table1_fluid):
        # contract direction: kirchhoff_forward(kirchhoff_inverse(P_K)) = P_K
        rng = np.random.default_rng(5)
        scale = table1_fluid.p0 / table1_fluid.beta
        P_K = np.concatenate(
            [rng.uniform(-10.0, -0.01, 500), rng.uniform(0.01, 0.99, 500)]
        ) * scale
        p0 = table1_fluid.p0
        back = tr.kirchhoff_forward(tr.kirchhoff_inverse(P_K, table1_fluid, p0), table1_fluid, p0)
        assert np.max(np.abs(back - P_K) / np.abs(P_K)) < 1e-13

    def test_round_trip_from_pressure(self, table1_fluid):
        rng = np.random.default_rng(6)
        ptilde = rng.uniform(table1_fluid.p0, 1e9, 1000)
        p0 = table1_fluid.p0
        back = tr.kirchhoff_inverse(tr.kirchhoff_forward(ptilde, table1_fluid, p0), table1_fluid, p0)
        assert np.max(np.abs(back - ptilde) / ptilde) < 1e-9

    def test_beta_zero_degenerate(self):
        fluid = FluidModel(1.0, 0.0, 1.0)
        with pytest.raises(Degenerate):
            tr.kirchhoff_forward(1.0, fluid, fluid.p0)
        with pytest.raises(Degenerate):
            tr.kirchhoff_inverse(0.0, fluid, fluid.p0)


class TestTransformFamily:
    def test_main_member(self, table1_fluid):
        p = np.linspace(2e5, 5e8, 50)
        assert np.allclose(
            family_from_pressure(p, table1_fluid),
            tr.hopf_cole_inverse(p, 0.0, table1_fluid),
            rtol=1e-15,
        )

    def test_kirchhoff_member(self, table1_fluid):
        B = -table1_fluid.p0 / table1_fluid.beta
        p = np.linspace(2e5, 5e8, 50)
        scale = table1_fluid.p0 / table1_fluid.beta  # natural size of both variables
        diff = family_from_pressure(p, table1_fluid, B=B) - tr.kirchhoff_forward(
            p, table1_fluid, table1_fluid.p0
        )
        assert np.max(np.abs(diff)) < 1e-12 * scale

    def test_family_round_trip(self, table1_fluid):
        rng = np.random.default_rng(9)
        A, B = -2.5, 1e9
        p = rng.uniform(2e5, 1e9, 200)
        back = family_to_pressure(
            family_from_pressure(p, table1_fluid, A, B), table1_fluid, A, B
        )
        assert np.max(np.abs(back - p) / p) < 1e-12


class TestBodyForcePotential:
    def test_zero(self):
        xi = BodyForcePotential.zero()
        assert xi == BodyForcePotential() and xi.is_zero
        assert not BodyForcePotential(xi=lambda x, y: 0.0 * x).is_zero
        assert xi(1.0, 2.0) == 0.0
        assert np.array_equal(xi.at_points(np.zeros((5, 2))), np.zeros(5))

    def test_callable(self):
        xi = BodyForcePotential(xi=lambda x, y: 2.0 * x + y)
        assert xi(1.0, 3.0) == 5.0
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(xi.at_points(pts), [2.0, 1.0])

    def test_non_finite_rejected(self):
        xi = BodyForcePotential(xi=lambda x, y: np.full_like(x, np.nan))
        with pytest.raises(ValueError):
            xi(0.0, 0.0)
