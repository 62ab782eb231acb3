"""What a fresh interpreter loads, and what the package exposes.

No process imports ``scipy.integrate`` (which would also load
``scipy.optimize`` and ``scipy.special``): the truncation radius of an
evolution takes its tails with the package's port of QUADPACK.  log Gamma
is the package's own (``densities.gammaln``), and scipy's ``ive`` is
imported on first use, which only the mixtures of an even-n check make;
so evolutions, ``weights`` and every check at odd n load no
``scipy.special`` either.

Code that only the tests use lives in ``tests/oracles.py``, not in the
package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("scipy.special", "scipy.optimize", "scipy.integrate")

N3_GRID_PAIRS = """
from isofp.cli import reports_for_pair
from isofp.densities import parse_density_spec

d = parse_density_spec("cauchy:beta=4,n=3")
for theorem in ("product", "isotropic_Wstar", "refined_outside_ball", "hybrid"):
    assert not isinstance(reports_for_pair(d, theorem, 2024, 1e-6), str)
"""

ODD_N_COMMANDS = """
import contextlib, io, tempfile
from isofp.cli import THEOREMS, main

with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for spec in ("gaussian:sigma=1,n=1", "cauchy:beta=4,n=3", "exponential:beta=1,n=3",
                 "inverse_gamma:mu=2,n=1"):
        assert main(["weights", "--density", spec, "--out", out]) == 0
    for spec in ("gaussian:sigma=1,n=1", "cauchy:beta=4,n=3"):
        for theorem in THEOREMS:
            assert main(["check", "--theorem", theorem, "--density", spec, "--out", out]) == 0
"""

EVEN_N_WSTAR = """
import contextlib, io, tempfile
from isofp.cli import main

with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    assert main(["check", "--theorem", "isotropic_Wstar", "--density", "cauchy:beta=3,n=2",
                 "--out", out]) == 0
"""

LINE_RELAX_EVOLUTIONS = """
from isofp.cli import evolution_settings, evolution_task
from isofp.densities import parse_density_spec

for spec in ("gaussian:sigma=1,n=1", "cauchy:beta=4,n=1", "inverse_gamma:mu=2,n=1",
             "cauchy:beta=4,n=3"):
    (verdict, _), texts, _ = evolution_task(parse_density_spec(spec), evolution_settings({}))
    assert verdict == "pass" and texts
"""


# names that left the package: the oracles now in tests/oracles.py (among
# them the general adaptive integrator, the node walk of grid_moments and
# the pointwise values of mixtures and separable members);
# quadrature_weight_function and IsotropicDensity.label, deleted as copies of
# WeightFunction(weight_from_density) and density_label; cumulative_integral,
# cli._quadrature_weight_column and RadialGrid.face_areas, second routes to
# P, K and the volume element; and RadialGrid.cells and two __repr__
# methods, which nothing called
ORACLES = ("PQPair", "_VALIDATION_POINTS", "_validation_grid", "w_from_pq", "cauchy_pq",
           "barenblatt_pq", "maximize_family_constant", "std_normal_1d",
           "quadrature_weight_function", "cumulative_integral",
           "_quadrature_weight_column", "Integrator", "DEFAULT_INTEGRATOR", "_quad_finite",
           "_node_moments", "_shell_blocks")
# methods a class no longer defines or inherits from a base other than object
ORACLE_METHODS = {"fpsolver.Solver": ("steady_state", "apply_flux_divergence",
                                      "dissipation_entropy_sqrt_form"),
                  "fpsolver.RadialGrid": ("face_areas", "cells"),
                  "densities.IsotropicDensity": ("label",),
                  "densities.Density1D": ("__repr__",),
                  "quadrature.TestFunction": ("__repr__",),
                  "quadrature.HypersphericalGrid": ("_shell_points",),
                  "corpus.GaussianMixture": ("_terms", "_eval_points", "_grad_points"),
                  "corpus.SeparableMember": ("_eval_points", "_grad_points")}

SURFACE = f"""
import importlib, pkgutil
import isofp

modules = [isofp] + [importlib.import_module("isofp." + m.name)
                     for m in pkgutil.iter_modules(isofp.__path__)]
found = [m.__name__ + "." + name for m in modules
         for name in getattr(m, "__all__", ())
         if not hasattr(m, name)]
found += [m.__name__ + "." + name for m in modules for name in {ORACLES!r}
          if hasattr(m, name)]
for owner, names in {ORACLE_METHODS!r}.items():
    module, cls = owner.split(".")
    mro = getattr(importlib.import_module("isofp." + module), cls).__mro__[:-1]
    found += [owner + "." + name for name in names if any(name in vars(k) for k in mro)]
RESULT = sorted(found)
"""


def fresh(code):
    """The value ``code`` leaves in RESULT, run in a fresh interpreter whose
    only path into this checkout is ``src``."""
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        code,
        "print(json.dumps(RESULT))",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, cwd=SRC)
    return json.loads(out.stdout.splitlines()[-1])


def loaded_after(code):
    """The watched modules in sys.modules after ``code`` runs in a fresh
    interpreter that imports isofp from this checkout."""
    return fresh("\n".join([
        "import isofp.cli",
        code,
        f"RESULT = [m for m in {WATCHED!r} if m in sys.modules]",
    ]))


@pytest.mark.parametrize("code", ["", N3_GRID_PAIRS, ODD_N_COMMANDS],
                         ids=["import", "n3-grid-pairs", "odd-n-commands"])
def test_checks_load_no_special_and_no_quadpack(code):
    assert loaded_after(code) == []


def test_even_n_check_loads_special_on_first_use():
    # the n = 2 mixtures' sphere averages call scipy's ive, imported there
    assert loaded_after(EVEN_N_WSTAR) == ["scipy.special"]


def test_evolutions_load_no_quadpack_and_no_special():
    # each evolution takes a dozen truncation tails
    assert loaded_after(LINE_RELAX_EVOLUTIONS) == []


def test_surface_resolves_and_holds_no_oracle():
    # every __all__ name resolves, and no test oracle is defined or exported
    assert fresh(SURFACE) == []
