import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from cpes import numerics, scoring
from cpes.store import SyntheticConfig, generate_synthetic

# Frozen synthetic-store settings shared by tests and the acceptance suite.
# Noise scales were tuned once against oracle runs and are fixed here;
# see also the calibration constants in test_acceptance.py.
SWEEP_TRAIN_CFG = SyntheticConfig(
    class_count=20,
    records_per_class=30,
    dim=32,
    patches=16,
    signal_patches=4,
    signal_noise=0.2,
    distractor_pool_size=8,
    distractor_noise=0.3,
    seed=101,
)
SWEEP_EVAL_CFG = SyntheticConfig(
    class_count=5,
    records_per_class=30,
    dim=32,
    patches=16,
    signal_patches=4,
    signal_noise=0.2,
    distractor_pool_size=8,
    distractor_noise=0.3,
    seed=999,
)


def raises_exactly(error, message: str):
    """pytest.raises of ``error`` whose message is exactly ``message``."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.fixture(scope="session")
def small_store():
    """5 classes x 10 records, mild noise; the golden-value reference store."""
    return generate_synthetic(
        SyntheticConfig(5, 10, 32, 16, 4, 0.1, 8, 0.1, seed=7)
    )


@pytest.fixture(scope="session")
def easy_train_store():
    """Low signal noise: learning signal must be unmistakable."""
    return generate_synthetic(
        SyntheticConfig(10, 25, 32, 16, 4, 0.05, 8, 0.3, seed=41)
    )


@pytest.fixture(scope="session")
def easy_eval_store():
    return generate_synthetic(
        SyntheticConfig(5, 25, 32, 16, 4, 0.05, 8, 0.3, seed=42)
    )


@pytest.fixture(scope="session")
def sweep_train_store():
    return generate_synthetic(SWEEP_TRAIN_CFG)


@pytest.fixture(scope="session")
def sweep_eval_store():
    return generate_synthetic(SWEEP_EVAL_CFG)


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that keeps every future it hands out."""

    def __init__(self, workers: int, prefix: str):
        super().__init__(workers, thread_name_prefix=prefix)
        self.prefix = prefix
        self.futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.futures.append(future)
        return future

    def started(self) -> bool:
        """Whether any of the pool's threads has started."""
        return any(t.name.startswith(self.prefix) for t in threading.enumerate())


@pytest.fixture
def score_threads(monkeypatch):
    """Call with a count to score tensors and check finiteness on that many
    threads, whatever the cores: the calling thread and a RecordingPool of
    its own, returned, and shut down after the test."""
    pools = []

    def force(count: int) -> RecordingPool:
        pool = RecordingPool(max(count - 1, 1), f"test-score-{len(pools)}")
        pools.append(pool)
        monkeypatch.setattr(numerics, "_THREADS", count)
        monkeypatch.setattr(numerics, "_pool", lambda: pool)
        return pool

    yield force
    for pool in pools:
        pool.shutdown(wait=True)


def fail_score_blocks(monkeypatch, on: str) -> None:
    """Make the score tensor's block products raise MemoryError on the pool's
    workers or on the calling thread (``on``). A worker's share sleeps
    first, so a share still running when the runner's finish() raises would show."""
    matmuls = scoring._matmuls

    def failing(*args):
        worker = threading.current_thread() is not threading.main_thread()
        if worker:
            time.sleep(0.05)
        if worker == (on == "worker"):
            raise MemoryError
        matmuls(*args)

    monkeypatch.setattr(scoring, "_matmuls", failing)
