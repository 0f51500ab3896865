"""RetryPolicy: duck-typed retryability and seeded deterministic backoff."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosError
from repro.cluster import ShardBusyError, ShardCrashedError
from repro.service import DeadlineExceededError, RetryPolicy


def test_retryable_is_duck_typed_on_the_error():
    policy = RetryPolicy()
    assert policy.retryable(ShardBusyError(shard=0, retry_after=0.05))
    assert policy.retryable(ShardCrashedError(shard=1, retry_after=0.05))
    assert policy.retryable(DeadlineExceededError("late", remaining=-0.1))
    assert policy.retryable(ChaosError("injected"))
    assert not policy.retryable(ValueError("bad input"))
    assert not policy.retryable(RuntimeError("generic"))
    # A terminally-down cluster is explicitly NOT worth retrying.
    terminal = ShardCrashedError(shard=1, retry_after=0.05, terminal=True)
    assert not policy.retryable(terminal)


def test_backoff_is_deterministic_per_seed_and_key():
    policy = RetryPolicy(seed=3)
    again = RetryPolicy(seed=3)
    series = [policy.backoff(i, key=("lane", 4)) for i in range(5)]
    assert series == [again.backoff(i, key=("lane", 4)) for i in range(5)]
    # A different seed (or key) jitters differently.
    other_seed = [RetryPolicy(seed=4).backoff(i, key=("lane", 4)) for i in range(5)]
    other_key = [policy.backoff(i, key=("lane", 5)) for i in range(5)]
    assert series != other_seed
    assert series != other_key


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(
        base_backoff=0.01, factor=2.0, max_backoff=0.05, jitter=0.0, seed=0
    )
    assert policy.backoff(0) == pytest.approx(0.01)
    assert policy.backoff(1) == pytest.approx(0.02)
    assert policy.backoff(2) == pytest.approx(0.04)
    assert policy.backoff(3) == pytest.approx(0.05)  # capped
    assert policy.backoff(10) == pytest.approx(0.05)


def test_jitter_only_shortens_within_its_fraction():
    policy = RetryPolicy(
        base_backoff=0.1, factor=1.0, max_backoff=1.0, jitter=0.5, seed=9
    )
    for attempt in range(20):
        delay = policy.backoff(attempt, key=("x",))
        assert 0.05 <= delay <= 0.1


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff=-0.01)
    with pytest.raises(ValueError):
        RetryPolicy(factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
