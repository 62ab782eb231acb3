"""A fixed sweep over the density catalog's edges: every valid density
reaches a verdict in every check and in its evolution.

The grid takes the catalog's edges at n = 1, 2, 3: a Barenblatt support
of radius 0.5, Cauchy tails just past the density's and the marginal
weight's integrability limits, a slow exponential and a Barenblatt
profile with an endpoint singularity; beside them a narrow Gaussian and
a Cauchy well inside its range, whose evolutions meet a rate bound, and
the inverse Gamma entry on both sides of its truncation limit.  Every
check runs serially at the default seed and tolerance, and every
evolution with the default solver settings.
"""

import pytest

from isofp import cli
from isofp.densities import parse_density_spec
from isofp.inequality import summarize_reports

SPECS = [spec for n in (1, 2, 3) for spec in (
    f"barenblatt:a=0.5,p=3,n={n}",
    f"barenblatt:a=1,p=5,n={n}",
    f"cauchy:beta={n / 2 + 0.6:g},n={n}",
    f"cauchy:beta={(n + 1) / 2 + 0.05:g},n={n}",
    f"cauchy:beta={n / 2 + 2.5:g},n={n}",
    f"exponential:beta=0.3,n={n}",
    f"gaussian:sigma=0.3,n={n}",
)] + ["inverse_gamma:mu=0.5,n=1", "inverse_gamma:mu=2,n=1"]

MARCH = cli.evolution_settings({})  # the run defaults


@pytest.mark.parametrize("spec", SPECS)
def test_every_check_and_evolution_reaches_a_verdict(spec):
    d = parse_density_spec(spec)
    inconclusive = []
    for theorem in cli.THEOREMS:
        result = cli.reports_for_pair(d, theorem, 2024, 1e-6)
        if isinstance(result, str):
            assert result, theorem  # a skip names its reason
            continue
        s = summarize_reports(result)
        assert s["failed"] == 0, (theorem, s)
        assert s["total"] > 0, theorem
        inconclusive += [f"{theorem}/{r.witness}" for r in result
                         if r.status == "inconclusive"]
    # an honest inconclusive (quadrature error above tol) is listed, not failed
    if inconclusive:
        print(f"{spec}: inconclusive {inconclusive}")

    try:
        trace = cli.run_evolution(d, MARCH)
    except cli.TruncationError as exc:
        assert str(exc)  # unchecked: no solver, with its reason
        return
    (verdict, detail), _ = cli._evolution_artifacts(d, trace, MARCH)
    assert verdict in ("pass", "unchecked"), detail
