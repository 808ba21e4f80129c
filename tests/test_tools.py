"""The tools the change notes rely on run, and the bit-check harness is
deterministic: tools/output_digest.py, which digests a fixed grid of solves
so that two checkouts can be compared bit for bit (--against another
checkout compares them in one command), and tools/code_size.py,
which counts each module's code and docstring lines. Each runs as a
subprocess, as it is run by hand, so a name the digest wraps that no longer
exists fails here."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATIOS = ("0.1", "0.26", "0.63", "0.95")


def run(script, *args):
    proc = subprocess.run(
        [sys.executable, f"tools/{script}", *args], cwd=ROOT, capture_output=True, text=True, timeout=600
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
    # each injection pressure digests what the benchmark's reservoir op
    # reads of its Hopf-Cole data, reciprocity with the one before it
    reads = ["boundary_flux", "min_principle", "min_principle/violation_nodes",
             "max_principle", "max_principle/violation_nodes", "reciprocity"]
    for k, case in enumerate(case for case in cases if case.startswith("reservoir/p_inj")):
        prefix = f"{case}/hopf_cole/"
        got = [name.removeprefix(prefix) for name in names if name.startswith(prefix)]
        assert got == (reads if k else reads[:-1])


def test_output_digest_against_its_own_tree_prints_nothing():
    # the digest of this tree, run in a subprocess, against this tree's own:
    # exit 0 (run checks it) and no line that differs
    assert run("output_digest.py", "--against", str(ROOT)) == []


def test_output_digest_counts_each_class_of_differing_line():
    # a class is a line's name with each run of digits replaced by N
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    listing = [
        "-reservoir/p_inj4000000000.0/transformed/residual " + "a" * 64,
        "+reservoir/p_inj4000000000.0/transformed/residual " + "b" * 64,
        "-strip/crossed/xi0.3y/r0.1/warm2/transformed/reactions " + "c" * 64,
        "+reservoir/p_inj162120.0/transformed/residual " + "d" * 64,
    ]
    assert digest.classes(listing) == [
        "# 3 reservoir/p_injN.N/transformed/residual",
        "# 1 strip/crossed/xiN.Ny/rN.N/warmN/transformed/reactions",
    ]
    assert digest.classes([]) == []


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
