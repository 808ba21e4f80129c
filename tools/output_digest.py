"""Print one SHA-256 digest per output of a fixed grid of solves, so that two
checkouts can be compared for bit-identical results. Run it in each
checkout and compare the two listings:

    python tools/output_digest.py > digests.txt
    diff parent/digests.txt change/digests.txt

The script imports poroflow from the src directory next to it. Its grid:

* the 10 x 3 strip on a 40 x 12 mesh, diagonal and crossed, with xi = 0 and
  xi = 0.3 y, inflow v0 = r v* for r in 0.1, 0.26, 0.63 and 0.95 (unit
  fluid, k = 1, pressure p0 on "right"): cold, on a fresh mesh per case, and
  warm, in two rounds on one mesh; each case is a transformed solve followed
  by a Picard solve. Also pure-velocity data, r = 1.2 (NonExistence, its
  node set) and Barus reciprocity between two of the cases.
* Darcy reciprocity on the strip with wall data 0.0 and -0.0.
* the 100 x 30 reservoir on a 400 x 120 mesh at the paper's Table-1 fluid:
  the ceiling-flux calibration and five injection pressures.
* shared corners, listed after the total of factorizations: the strip on a
  40 x 12 mesh, diagonal and crossed, with "right" and "top" both pressure
  labels whose callable data differ at the corner they share, inflow on
  "left" (xi = 0): a transformed and a Picard solve, Barus reciprocity
  between two of those, and Darcy reciprocity between two linear solves.

Outputs: transformed U, P, p, v, reactions and residual; Picard p, v,
reactions, update history, sweep and CG counts; for every other linear
solve (Picard's sweeps and the reciprocity solves), numbered in case order,
its field, CG count and backward error, and for a solve of an assembled
system (dl.solve: a reciprocity solve, or a sweep whose weights are all 1)
the boundary_flux of each label of the system too; a sweep with other
weights (dl._solve_sweep) has no system, so no boundary_flux line; the
number of factorizations, per case and in total; and, as plain text, the
kind of each factorization of a case in turn ("_BandFactor" for banded
Cholesky, "SuperLU"), so a listing shows which solver each mesh got. The
transformed path's own linear solve is digested only as its transformed/
outputs, whether it superposed held responses or called dl.solve, so the
solves numbered in a case are the same in two checkouts that differ in that
choice. It runs in a few seconds on one core and prints about 3,300 lines.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from poroflow import (
    BodyForcePotential,
    BoundarySpec,
    FluidModel,
    NonExistence,
    PermeabilityField,
)
from poroflow import barus_direct as bd
from poroflow import darcy_linear as dl
from poroflow import geometry
from poroflow import verification as vf

UNIT = FluidModel(mu0=1.0, beta=1.0, p0=1.0)
TABLE1 = FluidModel(mu0=3.95e-5, beta=3e-6, p0=101325.0)
STRIP = (10.0, 3.0, 40, 12)
V_STAR = UNIT.p0 / (UNIT.mu0 * STRIP[0] * UNIT.beta)  # k = 1
RATIOS = (0.1, 0.26, 0.63, 0.95)
POTENTIALS = {"xi0": BodyForcePotential.zero(), "xi0.3y": BodyForcePotential(lambda x, y: 0.3 * y)}
P_INJ = (1.6 * TABLE1.p0, 10.0 * TABLE1.p0, 1e7, 3e8, 4e9)


def digest(value) -> str:
    """SHA-256 of the dtype, shape and bytes of value as an array."""
    a = np.ascontiguousarray(value)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


class Recorder:
    """Wraps dl.solve, dl._solve_sweep and dl._factor: every linear solve
    outside a transformed solve (see transformed_bvp) is digested under the
    current case name as it returns, and factorizations are counted, with
    their kinds."""

    def __init__(self):
        self.lines = []
        self.case = ""
        self.solves = 0
        self.factors = 0
        self.kinds = []
        self.total_factors = 0
        self.muted = False
        self._solve, self._solve_sweep, self._factor = dl.solve, dl._solve_sweep, dl._factor
        dl.solve, dl._solve_sweep, dl._factor = self.solve, self.solve_sweep, self.factor

    def emit(self, name, value):
        self.lines.append(f"{self.case}/{name} {digest(value)}")

    def factor(self, *args):
        self.factors += 1
        self.total_factors += 1
        lu = self._factor(*args)
        self.kinds.append(type(lu).__name__)
        return lu

    def solved(self, result):
        """Digest result as the next solve of the case; returns its number."""
        k = self.solves
        self.solves += 1
        self.emit(f"solve{k}/field", result.field.values)
        self.emit(f"solve{k}/iterations", result.iterations)
        self.emit(f"solve{k}/residual", result.residual)
        return k

    def solve(self, system):
        result = self._solve(system)
        if not self.muted:
            k = self.solved(result)
            labels = list(system.bcs.pressure) + list(system.bcs.velocity)
            fluxes = [dl.boundary_flux(result.field, system, label) for label in labels]
            self.emit(f"solve{k}/boundary_flux", np.array(fluxes))
        return result

    def solve_sweep(self, base, weights, start):
        result = self._solve_sweep(base, weights, start)
        if not self.muted:
            self.solved(result)
        return result

    def transformed_bvp(self, call, *args):
        """call(*args), with the linear solves of the transformed path in it
        left undigested."""
        self.muted = True
        try:
            return call(*args)
        finally:
            self.muted = False

    def start(self, case):
        self.case, self.solves, self.factors, self.kinds = case, 0, 0, []

    def end(self):
        self.emit("factorizations", self.factors)
        self.lines.append(f"{self.case}/factor_kinds {' '.join(self.kinds) or '-'}")


def strip_bcs(v0):
    return BoundarySpec(pressure={"right": UNIT.p0}, velocity={"left": -v0, "top": 0.0, "bottom": 0.0})


def transformed(rec, mesh, fluid, xi, K, bcs):
    report = rec.transformed_bvp(dl.solve_transformed_bvp, mesh, fluid, xi, K, bcs)
    for name in ("U", "P", "p"):
        rec.emit(f"transformed/{name}", getattr(report, name).values)
    rec.emit("transformed/v", report.v.values)
    rec.emit("transformed/reactions", report.reactions)
    rec.emit("transformed/residual", report.residual)
    return report


def picard(rec, mesh, fluid, xi, K, bcs):
    report = bd.picard_solve(mesh, fluid, xi, K, bcs, bd.PicardConfig(tol=1e-10))
    rec.emit("picard/p", report.p.values)
    rec.emit("picard/v", report.v.values)
    rec.emit("picard/reactions", report.reactions)
    rec.emit("picard/update_history", np.array(report.update_history))
    rec.emit("picard/sweeps", report.iterations)
    rec.emit("picard/cg", report.linear_iterations)
    return report


def strip_case(rec, case, mesh, xi, bcs):
    rec.start(case)
    K = PermeabilityField.isotropic(mesh, 1.0)
    transformed(rec, mesh, UNIT, xi, K, bcs)
    picard(rec, mesh, UNIT, xi, K, bcs)
    rec.end()


def strip_mesh(pattern):
    return geometry.make_rectangle_mesh(*STRIP, pattern)


def linear_solutions(mesh, mobility, specs):
    """The FluxSolution of one linear solve per spec, for Darcy reciprocity."""
    sols = []
    for b in specs:
        system = dl.assemble(mesh, mobility, b)
        field = dl.solve(system).field
        sols.append(vf.FluxSolution(field, dl.nodal_reactions(system, field)))
    return sols


def strip_grid(rec):
    for pattern in ("diagonal", "crossed"):
        for xi_name, xi in POTENTIALS.items():
            for r in RATIOS:
                case = f"strip/{pattern}/{xi_name}/r{r}/cold"
                strip_case(rec, case, strip_mesh(pattern), xi, strip_bcs(r * V_STAR))
            mesh = strip_mesh(pattern)
            for round_ in (1, 2):
                for r in RATIOS:
                    case = f"strip/{pattern}/{xi_name}/r{r}/warm{round_}"
                    strip_case(rec, case, mesh, xi, strip_bcs(r * V_STAR))
            v0 = 0.3 * V_STAR
            pure = BoundarySpec(pressure={}, velocity={"left": -v0, "right": v0, "top": 0.0, "bottom": 0.0})
            strip_case(rec, f"strip/{pattern}/{xi_name}/pure_velocity", mesh, xi, pure)
            rec.start(f"strip/{pattern}/{xi_name}/r1.2")
            K = PermeabilityField.isotropic(mesh, 1.0)
            try:
                rec.transformed_bvp(dl.solve_transformed_bvp, mesh, UNIT, xi, K, strip_bcs(1.2 * V_STAR))
                rec.emit("non_existence", "not raised")
            except NonExistence as err:
                rec.emit("non_existence", err.nodes)
            rec.end()
        mesh = strip_mesh(pattern)
        rec.start(f"strip/{pattern}/reciprocity")
        specs = [strip_bcs(r * V_STAR) for r in RATIOS[:2]]
        K = PermeabilityField.isotropic(mesh, 1.0)
        sols = [
            vf.FluxSolution(report.p, report.reactions)
            for report in (
                rec.transformed_bvp(dl.solve_transformed_bvp, mesh, UNIT, POTENTIALS["xi0"], K, b)
                for b in specs
            )
        ]
        rec.emit("barus", vf.reciprocity_residual_barus(*sols, *specs, mesh, UNIT))
        mobility = dl.mobility_tensors(mesh, UNIT, POTENTIALS["xi0"], K)
        for wall in (0.0, -0.0):
            specs = [
                BoundarySpec(pressure={"right": p}, velocity={"left": v, "top": wall, "bottom": wall})
                for p, v in ((1.0, -0.2), (2.0, 0.1))
            ]
            sols = linear_solutions(mesh, mobility, specs)
            rec.emit(f"darcy/wall{wall!r}", vf.reciprocity_residual_darcy(*sols, *specs, mesh))
        rec.end()


def reservoir_grid(rec):
    mesh = geometry.make_reservoir_mesh(100.0, 30.0, 0.2, 400, 120)
    K = PermeabilityField.isotropic(mesh, 1e-12)
    rec.start("reservoir/calibration")
    model = rec.transformed_bvp(vf.calibrate_ceiling_flux, mesh, TABLE1, K, 10.0 * TABLE1.p0)
    rec.emit("C", model.C)
    rec.end()
    for p_inj in P_INJ:
        rec.start(f"reservoir/p_inj{p_inj!r}")
        bcs = BoundarySpec(pressure={"inlet": p_inj, "well": TABLE1.p0}, velocity={"wall": 0.0})
        transformed(rec, mesh, TABLE1, BodyForcePotential.zero(), K, bcs)
        rec.end()


def corner_bcs(v0, slope):
    """Strip data with "right" and "top" both pressure labels; at their
    shared corner (10, 3) right reads 1 + 3 slope and top 1 + 5 slope."""
    return BoundarySpec(
        pressure={
            "right": lambda x, y: UNIT.p0 * (1.0 + slope * y),
            "top": lambda x, y: UNIT.p0 * (1.0 + 0.5 * slope * x),
        },
        velocity={"left": -v0, "bottom": 0.0},
    )


def corner_grid(rec):
    xi = POTENTIALS["xi0"]
    for pattern in ("diagonal", "crossed"):
        mesh = strip_mesh(pattern)
        K = PermeabilityField.isotropic(mesh, 1.0)
        specs = [corner_bcs(r * V_STAR, slope) for r, slope in ((RATIOS[0], 0.05), (RATIOS[1], 0.1))]
        rec.start(f"corner/{pattern}")
        reports = [transformed(rec, mesh, UNIT, xi, K, specs[0])]
        picard(rec, mesh, UNIT, xi, K, specs[0])
        reports.append(rec.transformed_bvp(dl.solve_transformed_bvp, mesh, UNIT, xi, K, specs[1]))
        sols = [vf.FluxSolution(report.p, report.reactions) for report in reports]
        rec.emit("barus", vf.reciprocity_residual_barus(*sols, *specs, mesh, UNIT))
        sols = linear_solutions(mesh, dl.mobility_tensors(mesh, UNIT, xi, K), specs)
        rec.emit("darcy", vf.reciprocity_residual_darcy(*sols, *specs, mesh))
        rec.end()


def main():
    rec = Recorder()
    strip_grid(rec)
    reservoir_grid(rec)
    rec.case = "all"
    rec.emit("factorizations", rec.total_factors)
    corner_grid(rec)
    print("\n".join(rec.lines))


if __name__ == "__main__":
    main()
