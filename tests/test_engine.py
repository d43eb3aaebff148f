"""The batched episode engine against the per-record, per-query oracle
path in oracles.py: equal per-task accuracies and score tensors,
probabilities and gradients within 1e-12, and a store read whose float64
view equals a record-at-a-time read. The train and evaluate loops, which
write into per-call buffers, against the per-episode oracle path: equal
checkpoint bytes, training logs and per-task accuracies."""

import functools
import io
import json
import sys
import threading
import time

import numpy as np
import pytest

import cpes.harness
from cpes import scoring
from cpes.episodes import plan_episodes, sample_episode
from cpes.errors import InfeasibleConfig
from cpes.harness import (
    _TRAIN_STREAM,
    RunConfig,
    _episodes,
    evaluate,
    head_input_dim,
    init_head,
    train,
)
from cpes.scoring import (
    MlpHead,
    OptimizerConfig,
    save_head,
    start_scores,
)
from cpes.selection import DistanceKind, representation_blocks, representation_table
from cpes.store import read_store, write_store
from oracles import (
    episode_representations,
    episode_scores,
    evaluate_per_query,
    loss_and_grads,
    mean_query_grads,
    per_episode_evaluate,
    per_episode_train,
    query_class_probabilities,
    read_records,
    record,
    score_matrix,
    split_state,
)
from conftest import fail_score_blocks
from test_episodes import store_of_sizes
from test_store import random_store

TOLERANCE = 1e-12
GRID = [(m, k, kind) for m in (0, 1, 4, 16) for k in (1, 3, 5) for kind in DistanceKind]


def grid_id(point) -> str:
    m, k, kind = point
    return f"m{m}-k{k}-{kind.value}"


@pytest.mark.parametrize("m,k_shot,kind", GRID, ids=[grid_id(p) for p in GRID])
class TestEngineMatchesPerQueryPath:
    def test_per_task_accuracies_equal(self, small_store, m, k_shot, kind):
        cfg = RunConfig(
            n_way=5, k_shot=k_shot, queries_per_class=3, m=m, distance=kind,
            epochs=1, episodes_per_epoch=5, eval_tasks=8, hidden_dim=8, base_seed=m + k_shot,
        )
        head, _ = train(small_store, cfg)
        report = evaluate(head, small_store, cfg)
        assert report.per_task_accuracy == evaluate_per_query(head, small_store, cfg)

    def test_scores_probabilities_and_gradients(self, small_store, m, k_shot, kind):
        head = MlpHead.initialize(head_input_dim(m), 8, split_state(m + k_shot, 31))
        reps = representation_table(small_store, m, kind)
        for task in range(3):
            episode = sample_episode(plan_episodes(small_store, 5, k_shot, 3, [task], 23), 0)
            scores = episode_scores(small_store, reps, episode, m, kind)
            _, grads, probs = loss_and_grads(head, scores, episode.query_labels)

            protos, queries = episode_representations(small_store, episode, m, kind)
            expected_scores = np.stack([[score_matrix(q, p) for p in protos] for q in queries])
            assert np.array_equal(scores, expected_scores)
            expected = np.stack([query_class_probabilities(head, q, protos) for q in queries])
            assert np.max(np.abs(probs - expected)) <= TOLERANCE

            # relative to the largest gradient entry: db2 sums terms of size
            # ~1 to ~0, so its own magnitude is rounding noise
            reference = mean_query_grads(head, queries, protos, episode.query_labels)
            pairs = [
                (grads.w1, reference.w1), (grads.b1, reference.b1),
                (grads.w2, reference.w2), (grads.b2, reference.b2),
            ]
            scale = max(np.max(np.abs(want)) for _, want in pairs)
            error = max(np.max(np.abs(np.subtract(got, want))) for got, want in pairs)
            assert error <= TOLERANCE * scale


@pytest.mark.parametrize("seed", range(5))
def test_upcast_arrays_equal_per_record_read(small_store, seed):
    store = small_store if seed == 0 else random_store(seed)
    buf = io.BytesIO()
    write_store(store, buf)
    data = buf.getvalue()
    back = read_store(io.BytesIO(data))
    expected = read_records(data)
    class_embeddings, patch_embeddings = back.embeddings(np.arange(len(back)))
    assert class_embeddings.dtype == patch_embeddings.dtype == np.float64
    assert len(expected) == len(back)
    for row, rec in enumerate(expected):
        assert np.array_equal(class_embeddings[row], rec.class_embedding)
        assert np.array_equal(patch_embeddings[row], rec.patch_embeddings)
        got = record(back, row)
        assert (got.record_id, got.label) == (rec.record_id, rec.label)
        assert np.array_equal(got.patch_embeddings, rec.patch_embeddings)


def head_bytes(head) -> bytes:
    buf = io.BytesIO()
    save_head(head, buf)
    return buf.getvalue()


def assert_loops_equal_per_episode_path(store, cfg) -> None:
    """train's checkpoint bytes and log, and evaluate's per-task accuracies
    of that head, equal the per-episode path's."""
    head, log = train(store, cfg)
    expected_head, expected_log = per_episode_train(store, cfg)
    assert head_bytes(head) == head_bytes(expected_head)
    assert json.dumps(log) == json.dumps(expected_log)
    assert evaluate(head, store, cfg).per_task_accuracy == per_episode_evaluate(head, store, cfg)


BUFFER_GRID = [(m, k, kind) for m in (0, 1, 4, 16) for k in (1, 3) for kind in DistanceKind]


class TestBufferedLoopsMatchPerEpisodePath:
    @pytest.mark.parametrize("m,k_shot,kind", BUFFER_GRID, ids=[grid_id(p) for p in BUFFER_GRID])
    def test_grid(self, small_store, m, k_shot, kind):
        cfg = RunConfig(
            n_way=5, k_shot=k_shot, queries_per_class=3, m=m, distance=kind, epochs=2,
            episodes_per_epoch=4, eval_tasks=6, hidden_dim=8, base_seed=m + 2 * k_shot,
        )
        assert_loops_equal_per_episode_path(small_store, cfg)

    def test_classes_of_unequal_size(self):
        store = store_of_sizes([5, 6, 7, 9, 10, 11, 12])
        for k_shot in (1, 2):
            cfg = RunConfig(n_way=4, k_shot=k_shot, queries_per_class=3, m=2, epochs=2,
                            episodes_per_epoch=5, eval_tasks=12, hidden_dim=6, base_seed=9)
            assert_loops_equal_per_episode_path(store, cfg)

    def test_chunks_of_eval_and_train(self, monkeypatch):
        """Both loops run over three planned chunks (pools of 200 records
        leave room for 63 tasks a chunk): the per-chunk class scores, softmax
        and accuracies equal the per-task ones, across the chunk boundaries."""
        chunks = []

        def plan(*args):
            chunks.append(len(args[4]))
            return plan_episodes(*args)

        monkeypatch.setattr(cpes.harness, "plan_episodes", plan)
        store = store_of_sizes([200] * 5)
        cfg = RunConfig(n_way=5, k_shot=1, queries_per_class=3, m=2, epochs=2,
                        episodes_per_epoch=65, eval_tasks=130, hidden_dim=6, base_seed=4)
        assert_loops_equal_per_episode_path(store, cfg)
        assert chunks == [63, 63, 4] * 2

    def test_two_calls_in_a_row(self, small_store):
        """No state carries over from one call's buffers to the next: each
        of two calls on one store equals the per-episode path."""
        first = RunConfig(n_way=5, k_shot=3, queries_per_class=2, m=4, epochs=1,
                          episodes_per_epoch=6, eval_tasks=5, hidden_dim=8, base_seed=1)
        second = RunConfig(n_way=3, k_shot=1, queries_per_class=4, m=4, epochs=1,
                           episodes_per_epoch=6, eval_tasks=5, hidden_dim=8, base_seed=2)
        for cfg in (first, second, first):
            assert_loops_equal_per_episode_path(small_store, cfg)

    @pytest.mark.parametrize(
        "optimizer",
        [OptimizerConfig(learning_rate=1e12), OptimizerConfig(weight_decay=1e12),
         OptimizerConfig(learning_rate=1e300, weight_decay=0.0)],
    )
    def test_overflow_stops_at_the_same_step(self, small_store, optimizer):
        cfg = RunConfig(n_way=5, k_shot=1, queries_per_class=3, m=4, epochs=1,
                        episodes_per_epoch=40, hidden_dim=8, optimizer=optimizer)
        with pytest.raises(InfeasibleConfig) as expected:
            per_episode_train(small_store, cfg)
        step = str(expected.value).removeprefix("overflow at step ")
        with pytest.raises(InfeasibleConfig, match=rf"overflow the head at step {step}: learning_rate"):
            train(small_store, cfg)


@functools.cache
def pipeline_store():
    """Five classes of 200 records, D = 64 and M = 16: at m = M an episode of
    5 x 15 queries is 75 x 1024 table values, more than one block, and a
    chunk holds 60 tasks (59 at K = 3)."""
    return store_of_sizes([200] * 5, dim=64, patches=16)


def pipeline_cfg(k_shot: int = 1, episodes: int = 61, **changes) -> RunConfig:
    return RunConfig(n_way=5, k_shot=k_shot, queries_per_class=15, m=16, epochs=1,
                     episodes_per_epoch=episodes, eval_tasks=episodes, hidden_dim=8,
                     base_seed=k_shot, **changes)


def count_chunks(monkeypatch) -> list[int]:
    """The task count of each chunk the harness plans from now on."""
    chunks = []

    def plan(*args):
        chunks.append(len(args[4]))
        return plan_episodes(*args)

    monkeypatch.setattr(cpes.harness, "plan_episodes", plan)
    return chunks


def slow_workers(monkeypatch) -> None:
    """Make each share of the score tensor's block products on a pool worker
    sleep first, so a share still running when its caller raises would show."""
    matmuls = scoring._matmuls

    def slow(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        matmuls(*args)

    monkeypatch.setattr(scoring, "_matmuls", slow)


def data_addresses(store, cfg, m: int, count: int) -> list[int]:
    """The address of each score tensor _episodes yields for tasks 0..count-1."""
    runs = _episodes(store, cfg, m, cfg.base_seed, count)
    return [scores.__array_interface__["data"][0] for _, run in runs for _, scores in run]


class TestEpisodePipeline:
    """Where start_scores shares an episode's blocks out among threads,
    _episodes starts the next episode's blocks on the pool before it yields
    this one, into a second buffer."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("k_shot", [1, 3])
    def test_bytes_equal_per_episode_path(self, monkeypatch, score_threads, threads, k_shot):
        """61 multi-block episodes over two chunks, in train and evaluate:
        checkpoint and log bytes and per-task accuracies are the per-episode
        path's, whichever thread scores each block."""
        chunks = count_chunks(monkeypatch)
        pool = score_threads(threads)
        assert_loops_equal_per_episode_path(pipeline_store(), pipeline_cfg(k_shot))
        first = 60 if k_shot == 1 else 59
        assert chunks == [first, 61 - first] * 2
        # the two loops start each tensor a class of 15 queries at a time, one
        # block on two or three threads, and the pool gets a share of each;
        # their oracles share each whole tensor, of 3 blocks on two threads or
        # of 4 on three, with the pool's threads
        assert len(pool.futures) == 2 * 61 * (5 * min(threads - 1, 1) + threads - 1)

    def test_more_threads_than_cores_switching_often(self, score_threads):
        """Five threads, switched every microsecond: each block is scored
        once, into the buffer of its own episode, so the bytes still equal
        the per-episode path's."""
        pool = score_threads(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_loops_equal_per_episode_path(pipeline_store(), pipeline_cfg(3, episodes=12))
        finally:
            sys.setswitchinterval(interval)
        assert pool.futures and all(future.done() for future in pool.futures)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_second_buffer_only_where_the_pool_scores(self, score_threads, threads):
        """Multi-block tensors alternate between two buffers on two threads,
        and share one buffer, starting no thread, on one."""
        pool = score_threads(threads)
        addresses = data_addresses(pipeline_store(), pipeline_cfg(), 16, 6)
        assert len(set(addresses)) == threads
        assert addresses == addresses[:2] * 3
        # a share of each class of each episode
        assert len(pool.futures) == (threads - 1) * 5 * 6 and pool.started() == (threads > 1)

    def test_an_overflow_waits_for_the_pending_episode(self, monkeypatch, score_threads):
        """train stops at the overflowing step 2 while the pool scores step
        3; once train has raised, no share is running. Each step's tensor is
        started a class at a time, a share for each of its 5 classes."""
        pool = score_threads(2)
        slow_workers(monkeypatch)
        cfg = pipeline_cfg(episodes=10,
                           optimizer=OptimizerConfig(learning_rate=1e300, weight_decay=0.0))
        with pytest.raises(InfeasibleConfig, match="at step 2:"):
            train(pipeline_store(), cfg)
        assert len(pool.futures) == 3 * 5 and all(future.done() for future in pool.futures)

    @pytest.mark.parametrize("loop", ["train", "evaluate"])
    def test_a_failing_worker_waits_for_the_pending_episode(self, monkeypatch, score_threads, loop):
        """The first episode's worker raises while the second's is started:
        the loop raises it once the shares of both, one a class, have finished."""
        pool = score_threads(2)
        fail_score_blocks(monkeypatch, "worker")
        store, cfg = pipeline_store(), pipeline_cfg(episodes=10)
        with pytest.raises(MemoryError):
            if loop == "train":
                train(store, cfg)
            else:
                evaluate(init_head(cfg, 16), store, cfg)
        assert len(pool.futures) == 2 * 5 and all(future.done() for future in pool.futures)

    def test_a_failing_table_block_waits_for_the_pieces_started(self, monkeypatch, score_threads):
        """The chunk's second block of rows raises once episode 0's first
        three classes are on the pool: train raises it once their shares,
        which sleep first, have finished."""
        pool = score_threads(2)
        slow_workers(monkeypatch)

        def blocks(*args):
            yield next(representation_blocks(*args))
            raise MemoryError

        monkeypatch.setattr(cpes.harness, "representation_blocks", blocks)
        with pytest.raises(MemoryError):
            train(pipeline_store(), pipeline_cfg(episodes=10))
        assert len(pool.futures) == 3 and all(future.done() for future in pool.futures)

    def test_the_pool_scores_while_the_caller_selects(self, monkeypatch, score_threads):
        """On two threads, the chunk's rows are selected a block of 64
        records at a time, in the order its episodes read them: once the
        first block holds episode 0's 5 supports and its first 59 queries,
        its first three classes are shared out to the pool before the
        caller selects the next block, and long before the chunk's last."""
        pool = score_threads(2)
        submitted = []  # the pool's share count as each block of rows is selected

        def blocks(*args):
            fills = representation_blocks(*args)
            while True:
                before, block = len(pool.futures), next(fills, None)
                if block is None:
                    return
                submitted.append(before)
                yield block

        monkeypatch.setattr(cpes.harness, "representation_blocks", blocks)
        for _, run in _episodes(pipeline_store(), pipeline_cfg(), 16, 0, 60):
            for _ in run:
                pass
        assert submitted[:2] == [0, 3] and len(submitted) > 2


def spy_on_builds(monkeypatch) -> list:
    """The store rows of each representation_blocks call of the harness, in
    the order it builds them, or None where it reads record slices."""
    built = []

    def blocks(store, m, kind, rows, out):
        built.append(None if rows is None else rows.tolist())
        return representation_blocks(store, m, kind, rows, out)

    monkeypatch.setattr(cpes.harness, "representation_blocks", blocks)
    return built


def read_order(reads: np.ndarray) -> list[int]:
    """The distinct store rows of ``reads`` in the order first read."""
    return list(dict.fromkeys(reads.ravel().tolist()))


class TestGatheredTable:
    """The representation table holds only the rows a run's chunks gather,
    each built once; every row an episode reads from it is the full
    table's row of its store row."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k_shot", [1, 3])
    def test_rows_equal_the_full_table(self, monkeypatch, score_threads, threads, k_shot):
        """130 tasks over chunks of 60, 60 and 10 (59, 59 and 12 at K = 3) on
        1000 records: each chunk builds, in one representation_blocks call,
        only the rows it adds, each once; in store order on one thread, in the
        order its tasks first read them on two. Each piece's queries (an
        episode on one thread, a class on two) and its prototypes are the
        full table's rows, or the K-record means of its supports, when it is
        started."""
        chunks = count_chunks(monkeypatch)
        score_threads(threads)
        store, cfg = pipeline_store(), pipeline_cfg(k_shot)
        full = representation_table(store, 16, cfg.distance)
        _, supports, queries = plan_episodes(store, 5, k_shot, 15, range(130), 4)
        piece = 75 if threads == 1 else 15
        built, ready = spy_on_builds(monkeypatch), []

        def start(table, rows, protos, out, threads):
            task, at = divmod(len(ready), 75 // piece)
            means = full[supports[task, :, 0]] if k_shot == 1 else representation_table(
                store, 16, cfg.distance, supports[task])
            ready.append(np.array_equal(table[rows], full[queries[task, piece * at:][:piece]])
                         and np.array_equal(protos, means))
            return start_scores(table, rows, protos, out, threads)

        monkeypatch.setattr(cpes.harness, "start_scores", start)
        for _, run in _episodes(store, cfg, 16, 4, 130):
            for _ in run:
                pass
        assert chunks == ([60, 60, 10] if k_shot == 1 else [59, 59, 12])
        assert len(ready) == 75 // piece * 130 and all(ready)
        reads = queries if k_shot > 1 else np.hstack([supports[..., 0], queries])
        seen = set()
        for rows, tasks in zip(built, np.split(reads, np.cumsum(chunks)[:-1]), strict=True):
            adds = [row for row in read_order(tasks) if row not in seen]
            assert rows == (sorted(adds) if threads == 1 else adds)
            seen.update(rows)
        assert built[1] and not built[2]  # the third chunk reads no new row

    def test_a_chunk_that_gathers_every_row_builds_the_whole_table(self, monkeypatch, small_store):
        """One thread: the first chunk builds the whole table, by record
        slices, in one representation_blocks call, and the later chunk's
        call builds no row."""
        chunks, calls = count_chunks(monkeypatch), spy_on_builds(monkeypatch)
        cfg = RunConfig(n_way=5, k_shot=1, queries_per_class=3, m=4, eval_tasks=1000, hidden_dim=8)
        head = init_head(cfg, 4)
        report = evaluate(head, small_store, cfg)
        assert chunks == [819, 181] and calls == [None, []]
        assert report.per_task_accuracy == per_episode_evaluate(head, small_store, cfg)

    def test_a_chunk_that_adds_no_row_does_not_copy_the_table(self, monkeypatch, small_store):
        """The chunk after one that built the whole table appends no row to
        it, so the harness concatenates nothing."""
        chunks, joined, concatenate = count_chunks(monkeypatch), [], np.concatenate

        def spy(arrays, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "cpes.harness":
                joined.append([len(a) for a in arrays])
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", spy)
        cfg = RunConfig(n_way=5, k_shot=1, queries_per_class=3, m=4, eval_tasks=1000, hidden_dim=8)
        evaluate(init_head(cfg, 4), small_store, cfg)
        assert chunks == [819, 181] and joined == []

    @pytest.mark.parametrize("k_shot", [1, 3])
    def test_a_shared_tensor_chunk_that_gathers_every_row(self, monkeypatch, score_threads,
                                                          k_shot):
        """On two threads, a chunk that reads every one of 100 records builds
        them in the order its tasks first read them, not by record slices,
        and the bytes equal the per-episode path's."""
        chunks = count_chunks(monkeypatch)
        score_threads(2)
        store = store_of_sizes([20] * 5, dim=64, patches=16)
        cfg = pipeline_cfg(k_shot, episodes=12)
        built = spy_on_builds(monkeypatch)
        assert_loops_equal_per_episode_path(store, cfg)
        assert chunks == [12, 12]  # train's, then evaluate's
        seeds = (split_state(cfg.base_seed, _TRAIN_STREAM), cfg.base_seed)
        for tasks, phase in zip(built, seeds, strict=True):
            _, supports, queries = plan_episodes(store, 5, k_shot, 15, range(12), phase)
            reads = queries if k_shot > 1 else np.hstack([supports[..., 0], queries])
            assert tasks == read_order(reads) and len(tasks) == len(store)
