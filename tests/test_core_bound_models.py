"""Tests for the lower/upper bound models and their QBD generator blocks."""

import numpy as np
import pytest

from repro.core.bound_models import (
    BoundKind,
    LowerBoundModel,
    UpperBoundModel,
    make_bound_model,
    verify_redirections_respect_precedence,
)
from repro.core.model import SQDModel
from repro.core.solver_cache import solver_cache
from repro.core.state import imbalance, precedes
from repro.core.state_space import boundary_states, first_repeating_block, repeating_block
from repro.core.transitions import arrival_transitions


@pytest.fixture
def model():
    return SQDModel(num_servers=3, d=2, utilization=0.7)


class TestRedirectionRules:
    def test_lower_bound_redirects_arrival_to_shortest_queue(self, model):
        lower = LowerBoundModel(model, threshold=2)
        # (3, 3, 1) has imbalance 2 = T; an arrival into the top group would
        # give (4, 3, 1) (imbalance 3) and must be redirected to (3, 3, 2).
        redirections = lower.redirections((3, 3, 1))
        arrival_redirects = [r for r in redirections if "arrival" in r.reason]
        assert len(arrival_redirects) == 1
        assert arrival_redirects[0].original_target == (4, 3, 1)
        assert arrival_redirects[0].redirected_target == (3, 3, 2)

    def test_lower_bound_redirects_departure_to_longest_queue(self, model):
        lower = LowerBoundModel(model, threshold=2)
        # (3, 1, 1): a departure from the shortest group would give (3, 1, 0)
        # with imbalance 3; the lower bound takes the job from the longest
        # queue instead: (2, 1, 1).
        redirections = lower.redirections((3, 1, 1))
        departure_redirects = [r for r in redirections if "departure" in r.reason]
        assert len(departure_redirects) == 1
        assert departure_redirects[0].original_target == (3, 1, 0)
        assert departure_redirects[0].redirected_target == (2, 1, 1)

    def test_upper_bound_blocks_departure(self, model):
        upper = UpperBoundModel(model, threshold=2)
        redirections = upper.redirections((3, 1, 1))
        departure_redirects = [r for r in redirections if "departure" in r.reason]
        assert len(departure_redirects) == 1
        assert departure_redirects[0].redirected_target is None

    def test_upper_bound_arrival_injects_phantom_jobs(self, model):
        upper = UpperBoundModel(model, threshold=2)
        redirections = upper.redirections((3, 3, 1))
        arrival_redirects = [r for r in redirections if "arrival" in r.reason]
        assert len(arrival_redirects) == 1
        target = arrival_redirects[0].redirected_target
        assert target == (4, 3, 2)
        assert imbalance(target) <= 2
        assert precedes(arrival_redirects[0].original_target, target)

    def test_no_redirections_away_from_the_threshold(self, model):
        lower = LowerBoundModel(model, threshold=3)
        assert lower.redirections((2, 1, 1)) == []
        upper = UpperBoundModel(model, threshold=3)
        assert upper.redirections((2, 1, 1)) == []

    def test_all_targets_stay_inside_restricted_space(self, model):
        for threshold in (1, 2, 3):
            for bound in (LowerBoundModel(model, threshold), UpperBoundModel(model, threshold)):
                states = boundary_states(3, threshold) + first_repeating_block(3, threshold)
                for state in states:
                    for target in bound.transition_map(state):
                        assert bound.contains(target), f"{target} escapes S for T={threshold}"

    def test_redirections_respect_precedence_order(self, model):
        for threshold in (1, 2):
            states = boundary_states(3, threshold) + first_repeating_block(3, threshold)
            assert verify_redirections_respect_precedence(LowerBoundModel(model, threshold), states)
            assert verify_redirections_respect_precedence(UpperBoundModel(model, threshold), states)

    def test_state_outside_space_rejected(self, model):
        lower = LowerBoundModel(model, threshold=1)
        with pytest.raises(ValueError):
            lower.transition_map((3, 1, 0))

    def test_rate_conservation_lower_bound(self, model):
        # The lower bound only reroutes transitions, so the total outgoing rate
        # of every all-busy state is lambda*N + N*mu.
        lower = LowerBoundModel(model, threshold=2)
        for state in first_repeating_block(3, 2):
            total_rate = sum(lower.transition_map(state).values())
            expected = model.total_arrival_rate + 3 * model.service_rate
            assert total_rate == pytest.approx(expected)

    def test_upper_bound_loses_rate_only_through_blocking(self, model):
        upper = UpperBoundModel(model, threshold=2)
        for state in first_repeating_block(3, 2):
            total_rate = sum(upper.transition_map(state).values())
            blocked = sum(r.rate for r in upper.redirections(state) if r.redirected_target is None)
            expected = model.total_arrival_rate + 3 * model.service_rate - blocked
            assert total_rate == pytest.approx(expected)


class TestFactory:
    def test_make_bound_model(self, model):
        assert isinstance(make_bound_model(model, 2, "lower"), LowerBoundModel)
        assert isinstance(make_bound_model(model, 2, BoundKind.UPPER), UpperBoundModel)
        with pytest.raises(ValueError):
            make_bound_model(model, 2, "sideways")

    def test_single_server_rejected(self):
        with pytest.raises(ValueError):
            LowerBoundModel(SQDModel(1, 1, 0.5), threshold=2)

    def test_invalid_threshold_rejected(self, model):
        with pytest.raises(Exception):
            LowerBoundModel(model, threshold=0)


class TestQBDBlocks:
    def test_block_shapes(self, small_lower_blocks):
        blocks = small_lower_blocks
        m = blocks.block_size
        b = blocks.boundary_size
        assert blocks.R00.shape == (b, b)
        assert blocks.R01.shape == (b, m)
        assert blocks.R10.shape == (m, b)
        for block in (blocks.A0, blocks.A1, blocks.A2):
            assert block.shape == (m, m)

    def test_generator_rows_sum_to_zero(self, small_lower_blocks):
        blocks = small_lower_blocks
        boundary_rows = np.hstack([blocks.R00, blocks.R01]).sum(axis=1)
        assert np.allclose(boundary_rows, 0.0, atol=1e-10)
        level_rows = (blocks.A0 + blocks.A1 + blocks.A2).sum(axis=1)
        assert np.allclose(level_rows, 0.0, atol=1e-10)
        b0_rows = np.hstack([blocks.R10, blocks.A1, blocks.A0]).sum(axis=1)
        assert np.allclose(b0_rows, 0.0, atol=1e-10)

    def test_upper_bound_blocks_departure_capacity(self, small_lower_blocks, small_upper_blocks):
        # A blocked departure is removed from the chain (the bottom server
        # pauses), so the upper bound model's generator is still conservative
        # but its total downward ("service") rate is strictly smaller than the
        # lower bound model's in the states at the imbalance threshold.
        level_rows = (small_upper_blocks.A0 + small_upper_blocks.A1 + small_upper_blocks.A2).sum(axis=1)
        assert np.allclose(level_rows, 0.0, atol=1e-9)
        lower_down = small_lower_blocks.A2.sum()
        upper_down = small_upper_blocks.A2.sum()
        assert upper_down < lower_down - 1e-9
        # Per-row downward rate never exceeds the full service capacity N*mu.
        n_mu = small_upper_blocks.model.num_servers * small_upper_blocks.model.service_rate
        assert np.all(small_upper_blocks.A2.sum(axis=1) <= n_mu + 1e-9)

    def test_off_diagonal_blocks_nonnegative(self, small_lower_blocks, small_upper_blocks):
        for blocks in (small_lower_blocks, small_upper_blocks):
            assert np.all(blocks.A0 >= 0)
            assert np.all(blocks.A2 >= 0)
            assert np.all(blocks.R01 >= 0)
            assert np.all(blocks.R10 >= 0)
            off_diag = blocks.A1 - np.diag(np.diag(blocks.A1))
            assert np.all(off_diag >= 0)

    def test_level_independence_holds_for_larger_models(self):
        # qbd_blocks() internally asserts Eq. (9); exercising it on a bigger
        # model makes sure the shift-invariance is not an artifact of N=3.
        model = SQDModel(num_servers=5, d=3, utilization=0.8)
        blocks = LowerBoundModel(model, threshold=2).qbd_blocks()
        assert blocks.block_size == 15
        blocks_upper = UpperBoundModel(model, threshold=2).qbd_blocks()
        assert blocks_upper.block_size == 15

    def test_arrival_rate_into_higher_job_counts_is_lambda_n(self, small_lower_blocks):
        # In the lower bound model every arrival (redirected or not) adds
        # exactly one job, so from any repeating state the total rate into
        # states with one more job equals lambda*N.  Those targets live either
        # within the same block (A1) or in the next block (A0).
        blocks = small_lower_blocks
        lam_n = blocks.model.total_arrival_rate
        block1_totals = blocks.partition.block0_array.sum(axis=1) + blocks.model.num_servers
        block2_totals = block1_totals + blocks.model.num_servers
        for i, source_total in enumerate(block1_totals):
            up_rate = sum(
                blocks.A1[i, j] for j, t in enumerate(block1_totals) if t == source_total + 1
            ) + sum(
                blocks.A0[i, j] for j, t in enumerate(block2_totals) if t == source_total + 1
            )
            assert up_rate == pytest.approx(lam_n)


def reference_qbd_blocks(bound):
    """The per-state loop ``qbd_blocks`` used to be, reading ``transition_map`` row by row."""
    n, t = bound.model.num_servers, bound.threshold
    boundary, block0, block1, block2 = (
        boundary_states(n, t), first_repeating_block(n, t), repeating_block(n, t, 1), repeating_block(n, t, 2)
    )
    boundary_index, block0_index, block1_index, block2_index = (
        {state: i for i, state in enumerate(states)} for states in (boundary, block0, block1, block2)
    )
    b, m = len(boundary), len(block0)
    R00, R01, R10 = np.zeros((b, b)), np.zeros((b, m)), np.zeros((m, b))
    A0, A1, A2 = np.zeros((m, m)), np.zeros((m, m)), np.zeros((m, m))
    rows = (
        (boundary, ((boundary_index, R00), (block0_index, R01)), R00),
        (block0, ((boundary_index, R10),), None),
        (block1, ((block0_index, A2), (block1_index, A1), (block2_index, A0)), A1),
    )
    for states, destinations, diagonal in rows:
        for i, state in enumerate(states):
            total_rate = 0.0
            for target, rate in bound.transition_map(state).items():
                total_rate += rate
                for index, matrix in destinations:
                    if target in index:
                        matrix[i, index[target]] += rate
            if diagonal is not None:
                diagonal[i, i] -= total_rate
    return {"R00": R00, "R01": R01, "R10": R10, "A0": A0, "A1": A1, "A2": A2}


def assert_blocks_bitwise_equal(bound):
    """Blocks from a cold plan and from the then warm one are the loop's, bit for bit."""
    solver_cache().clear()
    cold, warm = bound.qbd_blocks(), bound.qbd_blocks()
    for name, expected in reference_qbd_blocks(bound).items():
        for blocks in (cold, warm):
            got = getattr(blocks, name)
            assert got.flags.c_contiguous and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), name


class TestAssemblyIsTheLoopBitwise:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_d_threshold_and_bound(self, n):
        for d in range(1, n + 1):
            for threshold in (1, 2, 3):
                for utilization in (0.3, 0.7, 0.9, 0.95):
                    model = SQDModel(n, d, utilization)
                    assert_blocks_bitwise_equal(LowerBoundModel(model, threshold))
                    assert_blocks_bitwise_equal(UpperBoundModel(model, threshold))

    def test_figure10_panel_size(self):
        model = SQDModel(12, 2, 0.8)
        assert_blocks_bitwise_equal(LowerBoundModel(model, 3))
        assert_blocks_bitwise_equal(UpperBoundModel(model, 3))

    def test_wide_pool(self):
        # T = 1 at N = 200: a state read as a base-(max entry + 1) number
        # would need 4^200; the rank key stays below 4 * C(200, 1).
        model = SQDModel(200, 2, 0.9)
        assert_blocks_bitwise_equal(LowerBoundModel(model, 1))
        assert_blocks_bitwise_equal(UpperBoundModel(model, 1))

    def test_redirected_arrival_folds_into_the_bottom_arrival(self):
        # At T = 2 the top-group arrival out of (3, 3, 1) would reach (4, 3, 1);
        # the lower model sends it to (3, 3, 2), the bottom group's own
        # arrival target.  (3, 3, 1) is in B0 and (3, 3, 2) in B1, so the
        # entry is one of A0's, read off their shifts (4, 4, 2) -> (4, 4, 3).
        model = SQDModel(3, 2, 0.7)
        lower = LowerBoundModel(model, threshold=2)
        (_, top_rate), (bottom_target, bottom_rate) = arrival_transitions((3, 3, 1), model)
        assert bottom_target == (3, 3, 2)
        folded = top_rate + bottom_rate
        assert lower.transition_map((3, 3, 1))[(3, 3, 2)] == folded
        blocks = lower.qbd_blocks()
        block0 = blocks.partition.block0_array.tolist()
        assert [3, 3, 1] in block0 and [2, 2, 1] in block0
        # Rows of A0 are B1's states (B0 + 1), columns B2's (B0 + 2).
        row, column = block0.index([3, 3, 1]), block0.index([2, 2, 1])
        assert blocks.A0[row, column] == folded
        assert blocks.A1[row, row] == -sum(lower.transition_map((4, 4, 2)).values())

    def test_unexpected_block_is_an_error(self):
        class Skipping(LowerBoundModel):
            def _redirect_arrays(self, sources, moves):
                target, kept = super()._redirect_arrays(sources, moves)
                target += 2  # every target two levels up
                return target, kept

        with pytest.raises(RuntimeError, match="unexpected block"):
            Skipping(SQDModel(3, 2, 0.7), threshold=2).qbd_blocks()


class TestAssemblyPlan:
    """One plan per (bound-model class, N, d, T); every call keeps the bits."""

    @pytest.fixture(autouse=True)
    def no_plans(self):
        solver_cache().clear()
        yield
        solver_cache().clear()

    def test_one_plan_serves_every_rate(self):
        def no_rebuild():
            raise AssertionError("the plan was rebuilt")

        LowerBoundModel(SQDModel(4, 2, 0.3), 3).qbd_blocks()
        plan = solver_cache().plan((LowerBoundModel, 4, 2, 3), no_rebuild)
        for utilization, service_rate in ((0.95, 1.0), (0.7, 2.5), (1.2, 0.5)):
            bound = LowerBoundModel(SQDModel(4, 2, utilization, service_rate=service_rate), 3)
            blocks = bound.qbd_blocks()
            assert solver_cache().plan((LowerBoundModel, 4, 2, 3), no_rebuild) is plan
            assert blocks.partition is plan.partition
            for name, expected in reference_qbd_blocks(bound).items():
                assert getattr(blocks, name).tobytes() == expected.tobytes(), name
        assert len(solver_cache()) == 0 and solver_cache().stats.lookups == 0

    def test_subclass_with_its_own_rule_gets_its_own_plan(self):
        # Warm the parent's plan first: the subclass must not be served it.
        LowerBoundModel(SQDModel(3, 2, 0.7), threshold=2).qbd_blocks()

        class Skipping(LowerBoundModel):
            def _redirect_arrays(self, sources, moves):
                target, kept = super()._redirect_arrays(sources, moves)
                target += 2
                return target, kept

        for _ in range(2):  # a failed build stores nothing
            with pytest.raises(RuntimeError, match="unexpected block"):
                Skipping(SQDModel(3, 2, 0.7), threshold=2).qbd_blocks()
