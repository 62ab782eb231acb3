"""What a fresh interpreter loads.

Adaptive QUADPACK (``scipy.integrate``, which itself imports
``scipy.optimize``) is imported on first use, and only the truncation
radius of an evolution uses it, so the Poincare checks never load it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("scipy.optimize", "scipy.integrate")

N3_GRID_PAIRS = """
from isofp.cli import reports_for_pair
from isofp.densities import parse_density_spec

d = parse_density_spec("cauchy:beta=4,n=3")
for theorem in ("product", "isotropic_Wstar", "refined_outside_ball", "hybrid"):
    assert not isinstance(reports_for_pair(d, theorem, 2024, 1e-6), str)
"""

TRUNCATION = """
from isofp.densities import parse_density_spec
from isofp.fpsolver import _truncation_radius

_truncation_radius(parse_density_spec("cauchy:beta=4,n=1"))
"""


def loaded_after(code):
    """The watched modules in sys.modules after ``code`` runs in a fresh
    interpreter that imports isofp from this checkout."""
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import isofp.cli",
        code,
        f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", ["", N3_GRID_PAIRS], ids=["import", "n3-grid-pairs"])
def test_checks_load_no_quadpack(code):
    assert loaded_after(code) == []


def test_truncation_radius_loads_quadpack():
    assert "scipy.integrate" in loaded_after(TRUNCATION)
