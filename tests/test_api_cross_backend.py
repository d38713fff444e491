"""Cross-backend agreement: one spec, two simulators, one bracket, one truth.

The acceptance experiment of the API redesign: a moderate configuration
(N=50, d=2, rho=0.85) is run through the ``cluster`` and ``fleet``
backends; their ensemble estimates must agree within their confidence
intervals, and every estimate must sit inside the ``qbd_bounds``
lower/upper bracket.  This is the paper's Figure 10 sandwich, executed
through the unified API.  At N=3 the ``exact`` backend is ground truth,
and the fleet must land within a few half-widths of it.
"""

import itertools
import math

import pytest

from repro import ExperimentSpec, run, select_backend

SPEC = ExperimentSpec.create(
    num_servers=50,
    d=2,
    utilization=0.85,
    num_events=120_000,   # fleet horizon per replication
    num_jobs=30_000,      # cluster horizon per replication
    seed=20160627,
    threshold=2,          # keeps the QBD block at C(51, 2) = 1275
)

SIMULATORS = ("cluster", "fleet")

# (d, rho): d = 3 polls every server of N = 3 without replacement.
EXACT_CASES = [(d, utilization) for d in (2, 3) for utilization in (0.5, 0.8)]


@pytest.fixture(scope="module")
def estimates():
    return {
        name: run(SPEC, backend=name, replications=4)
        for name in SIMULATORS
    }


@pytest.fixture(scope="module")
def bracket():
    return run(SPEC, backend="qbd_bounds")


class TestCrossBackendAgreement:
    def test_every_simulator_returns_an_interval(self, estimates):
        for name, result in estimates.items():
            assert result.replications == 4, name
            assert math.isfinite(result.half_width), name
            assert result.mean_delay > 1.0, name

    def test_simulators_agree_within_confidence_intervals(self, estimates):
        # Pairwise: the difference of means must be covered by the summed
        # half-widths (plus slack for the independent finite-sample biases
        # of three genuinely different engines).
        for a, b in itertools.combinations(SIMULATORS, 2):
            first, second = estimates[a], estimates[b]
            gap = abs(first.mean_delay - second.mean_delay)
            allowance = 1.5 * (first.half_width + second.half_width)
            assert gap <= allowance, (
                f"{a} ({first.mean_delay:.4f} ± {first.half_width:.4f}) vs "
                f"{b} ({second.mean_delay:.4f} ± {second.half_width:.4f}): "
                f"gap {gap:.4f} > allowance {allowance:.4f}"
            )

    def test_estimates_sit_inside_the_qbd_bracket(self, estimates, bracket):
        lower = bracket.extras["lower_delay"]
        upper = bracket.extras["upper_delay"]  # inf when the T=2 upper model is unstable
        assert lower < upper
        for name, result in estimates.items():
            assert lower <= result.mean_delay <= upper, (
                f"{name} estimate {result.mean_delay:.4f} outside [{lower:.4f}, {upper}]"
            )

    def test_estimates_respect_the_meanfield_direction(self, estimates):
        # At finite N the SQ(d) delay exceeds its N -> infinity limit.
        limit = run(SPEC, backend="meanfield").mean_delay
        for name, result in estimates.items():
            assert result.mean_delay >= limit - 3.0 * result.half_width, name

    def test_auto_selects_a_capable_engine_for_every_backend_spec(self, estimates):
        # The acceptance clause: auto must place every spec in this test.
        chosen = select_backend(SPEC)
        assert chosen.name in SIMULATORS
        assert chosen.capabilities.why_unsupported(SPEC) is None
        for name in SIMULATORS + ("qbd_bounds", "meanfield"):
            result = estimates.get(name)
            if result is not None:
                assert result.backend == name


class TestFleetAgainstExact:
    @pytest.mark.parametrize("d,utilization", EXACT_CASES)
    def test_fleet_within_three_half_widths_of_exact(self, d, utilization):
        spec = ExperimentSpec.create(
            num_servers=3,
            d=d,
            utilization=utilization,
            num_events=100_000,
            seed=11,
            buffer_size=20,
        )
        exact = run(spec, backend="exact")
        assert exact.extras["truncation_mass"] <= 4e-6
        estimate = run(spec, backend="fleet", replications=8)
        gap = abs(estimate.mean_delay - exact.mean_delay)
        assert gap <= 3.0 * estimate.half_width, (
            f"fleet {estimate.mean_delay:.4f} ± {estimate.half_width:.4f} vs "
            f"exact {exact.mean_delay:.4f}"
        )
