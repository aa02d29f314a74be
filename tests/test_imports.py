"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by_import(module):
    """Whether a fresh ``import grasp_eq`` from src/ loads ``module``."""
    code = ("import sys, grasp_eq; print(grasp_eq.__file__); "
            f"print({module!r} in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    path, loaded = out.stdout.split()
    assert Path(path).resolve().parent == (SRC / "grasp_eq").resolve()
    return loaded == "True"


def scipy_modules_loaded_by(statement):
    """The scipy modules a fresh interpreter holds after ``statement``."""
    code = (f"import sys; {statement}; "
            "print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return set(out.stdout.split())


def test_import_loads_no_scipy_module_beyond_scipy_spatial():
    # the nearest-sample queries need scipy.spatial; scipy.linalg.lapack,
    # which the QPs call, comes with it, so it costs the import nothing
    assert (scipy_modules_loaded_by("import grasp_eq")
            <= scipy_modules_loaded_by("import scipy.spatial"))


def test_import_leaves_sparse_graph_routines_unloaded():
    # contact clustering labels its components with numpy alone
    assert not loaded_by_import("scipy.sparse.csgraph")


def test_import_leaves_scipy_optimize_unloaded():
    # both QPs are the package's own active-set solvers; scipy.optimize
    # alone would add about 8 MB to the peak resident set
    assert not loaded_by_import("scipy.optimize")


def test_import_leaves_the_gradient_check_unloaded():
    # only the gradcheck verb needs it
    assert not loaded_by_import("grasp_eq.gradcheck")
