"""Tests for the dispatching policies."""

import numpy as np
import pytest

from repro.policies import (
    ClusterView,
    JoinIdleQueue,
    JoinShortestQueue,
    LeastWorkLeft,
    PowerOfD,
    RoundRobin,
    UniformRandom,
)
from repro.policies.sqd import POLL_BLOCK_INDICES


def make_view(queue_lengths, work=None):
    return ClusterView(
        queue_lengths=np.asarray(queue_lengths, dtype=np.int64),
        work_remaining=None if work is None else np.asarray(work, dtype=float),
    )


class TestClusterView:
    def test_num_servers_and_idle(self):
        view = make_view([0, 2, 0, 1])
        assert view.num_servers == 4
        assert view.idle_servers().tolist() == [0, 2]


class TestPowerOfD:
    def test_d_equal_n_always_picks_global_shortest(self, rng):
        policy = PowerOfD(4)
        view = make_view([3, 1, 2, 5])
        for _ in range(20):
            assert policy.select_server(view, rng) == 1

    def test_d_one_is_uniform(self, rng):
        policy = PowerOfD(1)
        counts = np.zeros(3)
        view = make_view([5, 5, 5])
        for _ in range(3000):
            counts[policy.select_server(view, rng)] += 1
        assert np.all(counts > 800)

    def test_never_selects_longer_of_the_polled_pair(self, rng):
        # With d = N-1 = 2 out of 3 servers, the longest queue can only be
        # selected when it is polled together with an even longer one — here it
        # is the unique maximum, so it must never win a poll it shares.
        policy = PowerOfD(3)
        view = make_view([7, 1, 1])
        for _ in range(50):
            assert policy.select_server(view, rng) != 0

    def test_tie_breaking_is_random_among_polled_shortest(self, rng):
        policy = PowerOfD(2)
        view = make_view([0, 0])
        chosen = {policy.select_server(view, rng) for _ in range(100)}
        assert chosen == {0, 1}

    def test_d_larger_than_n_rejected(self, rng):
        policy = PowerOfD(5)
        with pytest.raises(ValueError):
            policy.select_server(make_view([1, 1]), rng)

    def test_invalid_d_rejected(self):
        with pytest.raises(Exception):
            PowerOfD(0)

    def test_feedback_cost_is_d(self):
        assert PowerOfD(3).feedback_messages_per_job == 3

    def test_sampling_is_without_replacement(self, rng):
        # With d = N every server is polled, so the unique zero-length queue
        # must always be found even though it sits at the last index.
        policy = PowerOfD(6)
        view = make_view([4, 4, 4, 4, 4, 0])
        for _ in range(20):
            assert policy.select_server(view, rng) == 5

    @pytest.mark.parametrize(
        "d, lengths, exact",
        [
            # d=2 polls a uniform pair; server i wins against the 4 - i longer ones.
            (2, [0, 1, 2, 3, 4], [0.4, 0.3, 0.2, 0.1, 0.0]),
            # The one empty queue is chosen exactly when it is polled: 2/100.
            (2, [0] + [3] * 99, [0.02] + [0.98 / 99] * 99),
            # Server 1 wins when polled (3/4); server 2 only in the triple {0, 2, 3}.
            (3, [3, 0, 1, 2], [0.0, 0.75, 0.25, 0.0]),
            # d = N polls everyone; the tie between servers 1 and 2 is a fair coin.
            (4, [2, 0, 0, 1], [0.0, 0.5, 0.5, 0.0]),
        ],
        ids=["d2-distinct", "d2-one-empty-of-100", "d3-of-4", "d4-tie"],
    )
    def test_selection_law_is_exact(self, d, lengths, exact):
        calls = 20_000
        policy = PowerOfD(d)
        view = make_view(lengths)
        rng = np.random.default_rng(9)
        counts = np.bincount(
            [policy.select_server(view, rng) for _ in range(calls)], minlength=len(lengths)
        )
        exact = np.asarray(exact)
        spread = 4.0 * np.sqrt(calls * exact * (1.0 - exact))
        assert np.all(np.abs(counts - calls * exact) <= spread), counts

    def test_polls_follow_the_generator_and_the_server_count(self):
        # One policy fed views of two sizes and two generators in turn must
        # never answer with an index drawn for the other size ...
        policy = PowerOfD(3)
        views = [make_view([5, 4, 3, 2, 1, 1, 0]), make_view([1, 0, 2])]
        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        for call in range(40):
            view = views[call % 2]
            server = policy.select_server(view, rngs[(call // 2) % 2])
            assert isinstance(server, int)
            assert 0 <= server < view.num_servers
        # ... and polls with a new generator come from that generator alone,
        # not from the block the previous one left half spent.
        view = make_view([1, 0, 0])
        rng, twin, fresh = np.random.default_rng(3), np.random.default_rng(3), PowerOfD(3)
        assert [policy.select_server(view, rng) for _ in range(50)] == [
            fresh.select_server(view, twin) for _ in range(50)
        ]

    def test_reset_replays_the_same_choices_for_the_same_seed(self):
        # 10,000 calls end inside a block; without reset() the rewound
        # generator would be met by that block's stale rows.
        policy = PowerOfD(2)
        view = make_view([1, 0, 1, 0, 2, 1, 0, 3])
        rng = np.random.default_rng(5)
        start = rng.bit_generator.state
        first = [policy.select_server(view, rng) for _ in range(10_000)]
        policy.reset()
        rng.bit_generator.state = start
        assert [policy.select_server(view, rng) for _ in range(10_000)] == first

    @staticmethod
    def walk_every_row(rng, num_servers, d):
        """The partial Fisher-Yates walk on every row of a block (the reference)."""
        polls = rng.integers(np.arange(d), num_servers, size=(-(-POLL_BLOCK_INDICES // d), d)).tolist()
        for row in polls:
            moved = {}
            for k, j in enumerate(row):
                row[k] = moved.get(j, j)
                moved[j] = moved.get(k, k)
        return polls

    @pytest.mark.parametrize("num_servers", [1, 2, 3, 5, 10, 100, 1000])
    def test_block_equals_the_walk_on_every_row(self, num_servers):
        # Only rows that repeat a draw are walked; the rest are their own
        # poll tuples. Every tuple must keep its entries.
        for d in sorted({1, 2, 3, 5, num_servers} & set(range(1, num_servers + 1))):
            for seed in range(4):
                policy = PowerOfD(d)
                policy._draw_block(np.random.default_rng(seed), num_servers)
                expected = self.walk_every_row(np.random.default_rng(seed), num_servers, d)
                assert policy._polls == expected, (num_servers, d, seed)
                for row in policy._polls:
                    assert len(set(row)) == d

    def test_block_where_every_row_repeats(self):
        # At d = N = 1000 every row of the block repeats a draw, so the
        # whole block takes the walk.
        rng = np.random.default_rng(11)
        draws = rng.integers(np.arange(1000), 1000, size=(-(-POLL_BLOCK_INDICES // 1000), 1000))
        ordered = np.sort(draws, axis=1)
        assert (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).all()
        policy = PowerOfD(1000)
        policy._draw_block(np.random.default_rng(11), 1000)
        assert policy._polls == self.walk_every_row(np.random.default_rng(11), 1000, 1000)


class TestJoinShortestQueue:
    def test_selects_global_minimum(self, rng):
        policy = JoinShortestQueue()
        assert policy.select_server(make_view([4, 2, 3]), rng) == 1

    def test_ties_broken_among_minima(self, rng):
        policy = JoinShortestQueue()
        chosen = {policy.select_server(make_view([1, 0, 0]), rng) for _ in range(100)}
        assert chosen == {1, 2}


class TestUniformRandom:
    def test_all_servers_reachable(self, rng):
        policy = UniformRandom()
        chosen = {policy.select_server(make_view([9, 0, 3]), rng) for _ in range(200)}
        assert chosen == {0, 1, 2}

    def test_zero_feedback(self):
        assert UniformRandom().feedback_messages_per_job == 0


class TestRoundRobin:
    def test_cycles_in_order(self, rng):
        policy = RoundRobin()
        view = make_view([0, 0, 0])
        sequence = [policy.select_server(view, rng) for _ in range(6)]
        assert sequence == [0, 1, 2, 0, 1, 2]

    def test_reset_restarts_cycle(self, rng):
        policy = RoundRobin()
        view = make_view([0, 0])
        policy.select_server(view, rng)
        policy.reset()
        assert policy.select_server(view, rng) == 0


class TestJoinIdleQueue:
    def test_prefers_idle_servers(self, rng):
        policy = JoinIdleQueue()
        view = make_view([3, 0, 2])
        for _ in range(20):
            assert policy.select_server(view, rng) == 1

    def test_falls_back_to_random_when_none_idle(self, rng):
        policy = JoinIdleQueue()
        chosen = {policy.select_server(make_view([1, 2, 3]), rng) for _ in range(200)}
        assert chosen == {0, 1, 2}


class TestLeastWorkLeft:
    def test_uses_work_when_available(self, rng):
        policy = LeastWorkLeft()
        view = make_view([1, 1, 1], work=[5.0, 0.5, 3.0])
        assert policy.select_server(view, rng) == 1

    def test_falls_back_to_queue_lengths(self, rng):
        policy = LeastWorkLeft()
        assert policy.select_server(make_view([4, 1, 2]), rng) == 1

    def test_respects_d_subsampling(self, rng):
        policy = LeastWorkLeft(1)
        chosen = {policy.select_server(make_view([1, 1, 1], work=[1.0, 2.0, 3.0]), rng) for _ in range(200)}
        assert chosen == {0, 1, 2}
