"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_sparse_graph_routines_unloaded():
    # contact clustering labels its components with numpy alone
    code = ("import sys, grasp_eq; print(grasp_eq.__file__); "
            "print('scipy.sparse.csgraph' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    path, loaded = out.stdout.split()
    assert Path(path).resolve().parent == (SRC / "grasp_eq").resolve()
    assert loaded == "False"
