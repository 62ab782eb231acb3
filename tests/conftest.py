import pytest

from isofp.densities import closed_form_weight, make_density
from isofp.fpsolver import build_solver, perturbed_initial_state


CATALOG_REPRESENTATIVES = [
    ("gaussian", {"sigma": 1.0}, 1),
    ("cauchy_type", {"beta": 4.0}, 1),
    ("exponential_type", {"beta": 1.0}, 2),
    ("barenblatt", {"a": 1.0, "p": 2.0}, 2),
    ("inverse_gamma_1d", {"mu": 2.0}, 1),
]


@pytest.fixture(scope="session")
def gaussian_1d():
    return make_density("gaussian", {"sigma": 1.0}, 1)


@pytest.fixture(scope="session")
def cauchy_4_1():
    return make_density("cauchy_type", {"beta": 4.0}, 1)


def _evolution(d, cells):
    solver = build_solver(d, closed_form_weight(d), cells=cells)
    state = perturbed_initial_state(solver, "cosine", eps=0.1)
    trace = solver.evolve(state, 10.0, 1e-3, sample_every=0.01)
    return solver, trace


@pytest.fixture(scope="session")
def gaussian_run(gaussian_1d):
    """Perturbed Gaussian evolution at 400 cells, shared across rate,
    Hellinger and dissipation tests."""
    return _evolution(gaussian_1d, 400)


@pytest.fixture(scope="session")
def gaussian_run_fine(gaussian_1d):
    return _evolution(gaussian_1d, 800)


@pytest.fixture(scope="session")
def cauchy_run(cauchy_4_1):
    return _evolution(cauchy_4_1, 400)


@pytest.fixture(scope="session")
def cauchy_run_fine(cauchy_4_1):
    return _evolution(cauchy_4_1, 800)
