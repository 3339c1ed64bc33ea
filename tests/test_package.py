"""The package root: the modules are the API, and ``import pnbm`` gives only ``__version__``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pnbm

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_root_exports_no_public_name():
    # A fresh interpreter: here, every submodule a test imported is an attribute of pnbm.
    src = str(Path(pnbm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import pnbm; print(sorted(n for n in vars(pnbm) if not n.startswith('_')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


def test_version_is_the_pyproject_version():
    # Read with a regex: tomllib needs Python 3.11, and the project supports 3.10.
    project = (ROOT / "pyproject.toml").read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert pnbm.__version__ == version
