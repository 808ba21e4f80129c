"""The tools the change notes rely on run, and the bit-check harness is
deterministic: tools/output_digest.py, which digests a fixed grid of solves
so that two checkouts can be compared bit for bit, and tools/code_size.py,
which counts each module's code and docstring lines. Each runs as a
subprocess, as it is run by hand, so a name the digest wraps that no longer
exists fails here."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATIOS = ("0.1", "0.26", "0.63", "0.95")


def run(script):
    proc = subprocess.run(
        [sys.executable, f"tools/{script}"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def grid_cases():
    """The case names of the digest's grid, in the order it runs them."""
    cases = []
    for pattern in ("diagonal", "crossed"):
        for xi in ("xi0", "xi0.3y"):
            for start in ("cold", "warm1", "warm2"):
                cases += [f"strip/{pattern}/{xi}/r{r}/{start}" for r in RATIOS]
            cases += [f"strip/{pattern}/{xi}/pure_velocity", f"strip/{pattern}/{xi}/r1.2"]
        cases.append(f"strip/{pattern}/reciprocity")
    cases.append("reservoir/calibration")
    for p_inj in ("162120.0", "1013250.0", "10000000.0", "300000000.0", "4000000000.0"):
        cases.append(f"reservoir/p_inj{p_inj}")
    return cases + ["all", "corner/diagonal", "corner/crossed"]


def test_output_digest_is_deterministic_and_covers_its_grid():
    first, second = run("output_digest.py"), run("output_digest.py")
    assert first == second
    # each case ends with its count of factorizations, and "all" is the total
    names = [line.split(" ", 1)[0] for line in first]
    cases = [name.removesuffix("/factorizations") for name in names if name.endswith("/factorizations")]
    assert cases == grid_cases()
    for line in first:
        name, value = line.split(" ", 1)
        assert any(name.startswith(f"{case}/") for case in cases), name
        if name.endswith("/factor_kinds"):
            assert set(value.split()) <= {"_BandFactor", "SuperLU", "-"}
        else:
            assert re.fullmatch("[0-9a-f]{64}", value), line
    # a Picard sweep is digested as a numbered solve with no boundary fluxes:
    # a warm strip case's solves outnumber its solves of an assembled system
    case = f"strip/diagonal/xi0/r{RATIOS[2]}/warm1/"
    fields = [n for n in names if n.startswith(case) and re.search(r"/solve\d+/field$", n)]
    fluxes = [n for n in names if n.startswith(case) and re.search(r"/solve\d+/boundary_flux$", n)]
    assert len(fields) > len(fluxes) >= 1


def test_code_size_lists_every_module():
    header, *rows = run("code_size.py")
    assert header.split() == ["module", "wc", "-l", "code", "docstring"]
    package = ROOT / "src" / "poroflow"
    modules = sorted(path.name for path in package.glob("*.py"))
    assert [row.split()[0] for row in rows] == modules + ["total"]
    table = [[int(cell) for cell in row.split()[1:]] for row in rows]
    for module, (lines, code, docs) in zip(modules, table):
        assert lines == (package / module).read_text().count("\n")
        assert 0 < code and code + docs <= lines
    assert table[-1] == [sum(column) for column in zip(*table[:-1])]
