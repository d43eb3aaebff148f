import io
import math
import struct
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cpes import scoring
from cpes.episodes import plan_episodes, sample_episode
from cpes.errors import InfeasibleConfig, StoreFormatError
from cpes.harness import RunConfig, _episodes, evaluate, head_input_dim, train
from cpes.numerics import BLOCK_VALUES, unit_rows
from cpes.scoring import (
    Gradients,
    MlpHead,
    OptimizerConfig,
    ScheduleKind,
    group_size,
    head_forward,
    load_head,
    optimizer_step,
    save_head,
)
from cpes.selection import DistanceKind, representation_table
import oracles
from oracles import (
    MASK64,
    add_grads,
    class_probabilities,
    episode_representations,
    episode_scores,
    grads_of,
    head_of,
    loss_and_grads,
    moment,
    outputs,
    per_tensor_head,
    per_tensor_optimizer_step,
    scalar_rng,
    scale_grads,
    score_tensor,
    serial_score_tensor,
    split_state,
    zero_grads,
)
from conftest import fail_score_blocks, raises_exactly
from test_episodes import store_of_sizes
from test_selection import OVER_BUDGET, SHORT_LAST_BLOCK, random_store

# each store shape's prototypes, as rows of support records (N, 3): one
# prototype keeps the over-budget store's score tensor of 1040 x 1040
# matrices at 26 MB
THREADED_CASES = {
    "short": (SHORT_LAST_BLOCK, [[0, 2, 4], [1, 3, 5]]),
    "over": (OVER_BUDGET, [[1, 0, 2]]),
}


def rep(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64)


def score_matrix(query: np.ndarray, proto: np.ndarray) -> np.ndarray:
    """The package's score tensor of one query against one prototype."""
    return score_tensor(unit_rows(query)[np.newaxis], [0], unit_rows(proto)[np.newaxis])[0, 0]


def class_scores(head: MlpHead, scores) -> np.ndarray:
    """The head's class score of each score matrix (..., r, r), flattened."""
    _, hidden = head_forward(head, scores)
    return hidden @ head.w2 + head.b2


def random_head(input_dim, hidden, seed=0) -> MlpHead:
    return MlpHead.initialize(input_dim, hidden, split_state(seed, 1000))


class TestInitialize:
    @pytest.mark.parametrize(
        "input_dim,hidden,state",
        [(1, 1, 0), (4, 3, MASK64), (9, 8, split_state(0, 2)), (256, 5, 12345), (16, 2, -1),
         (16384, 5, MASK64)],  # two blocks: the short last one holds the W2 boundary
    )
    def test_equals_scalar_draws(self, input_dim, hidden, state):
        """The parameters, in W1, b1, W2, b2 order, are the stream's words
        after ``state``: each word's top 53 bits times 2**-53, then times 2
        minus 1, the first H*I + H scaled by 1/sqrt(I) and the last H + 1 by
        1/sqrt(H), bit for bit; a state below 0 is taken modulo 2**64. The
        moments are zero."""
        head = MlpHead.initialize(input_dim, hidden, state)
        scales = [1.0 / math.sqrt(input_dim)] * (hidden * input_dim + hidden)
        scales += [1.0 / math.sqrt(hidden)] * (hidden + 1)
        expected = [((x >> 11) * 2.0**-53 * 2 - 1) * c for x, c in zip(outputs(state), scales)]
        assert head.flat.tolist() == expected
        assert not head.state[1:].any() and head.step == 0


class TestScoreMatrix:
    def test_identical_rows_diagonal_one(self):
        r = rep([[1.0, 2.0], [3.0, -1.0]])
        s = score_matrix(r, r)
        np.testing.assert_allclose(np.diag(s), [1.0, 1.0], atol=1e-12)

    def test_orthogonal_rows_zero(self):
        q = rep([[1.0, 0.0]])
        p = rep([[0.0, 1.0]])
        np.testing.assert_allclose(score_matrix(q, p), [[0.0]], atol=1e-15)

    def test_sign_flip_invariance(self):
        rng = scalar_rng(20, 0)
        q = rep(rng.normals(8).reshape(2, 4))
        p = rep(rng.normals(12).reshape(3, 4))
        np.testing.assert_array_equal(
            score_matrix(q, p), score_matrix(-q, p)
        )

    def test_transpose_symmetry(self):
        rng = scalar_rng(21, 0)
        q = rep(rng.normals(8).reshape(2, 4))
        p = rep(rng.normals(12).reshape(3, 4))
        np.testing.assert_array_equal(score_matrix(q, p), score_matrix(p, q).T)

    def test_entries_in_unit_interval_fuzz(self):
        rng = scalar_rng(22, 0)
        for _ in range(2000):
            q = rep(rng.normals(6).reshape(2, 3))
            p = rep(rng.normals(6).reshape(2, 3))
            s = score_matrix(q, p)
            assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)


class TestMlpForward:
    def test_bias_passthrough(self):
        head = head_of(np.zeros((2, 4)), np.zeros(2), np.zeros(2), 0.7)
        assert class_scores(head, [np.eye(2)])[0] == pytest.approx(0.7)

    def test_hand_computed_forward(self):
        # oracle: relu(0.5*1 + 0.5*0 + 0.5*0 + 0.5*1) * 1 + 0 = 1.0
        head = head_of(np.full((1, 4), 0.5), np.zeros(1), np.ones(1), 0.0)
        assert class_scores(head, [np.eye(2)])[0] == pytest.approx(1.0)

    def test_dead_rectifier_returns_output_bias(self):
        head = head_of(np.ones((3, 4)), np.full(3, -100.0), np.ones(3), 0.25)
        assert class_scores(head, [np.eye(2) * 0.5])[0] == pytest.approx(0.25)


def finite_difference_grads(head, scores, targets, step=1e-6):
    """Central-difference oracle over every head parameter, of the mean
    loss over an episode's queries."""

    def loss_at():
        losses, _, _ = loss_and_grads(head, scores, targets)
        return float(np.mean(losses))

    out = zero_grads(head)
    for arr, grad in ((head.w1, out.w1), (head.b1, out.b1), (head.w2, out.w2)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss_at()
            arr[idx] = orig - step
            down = loss_at()
            arr[idx] = orig
            grad[idx] = (up - down) / (2 * step)
    orig = head.b2
    head.b2 = orig + step
    up = loss_at()
    head.b2 = orig - step
    down = loss_at()
    head.b2 = orig
    out.b2 = (up - down) / (2 * step)
    return out


def assert_grads_close(analytic: Gradients, numeric: Gradients, rel=1e-5, tiny=1e-8):
    for a, n in (
        (analytic.w1, numeric.w1),
        (analytic.b1, numeric.b1),
        (analytic.w2, numeric.w2),
        (np.array([analytic.b2]), np.array([numeric.b2])),
    ):
        diff = np.abs(a - n)
        denom = np.abs(n)
        # relative tolerance where the reference is meaningful, absolute
        # tolerance where it is below finite-difference resolution
        ok = (diff <= tiny) | (
            (denom >= 1e-6) & (diff <= rel * np.maximum(denom, 1e-300))
        )
        assert np.all(ok), f"max diff {diff.max()}, max rel {(diff / np.maximum(denom, 1e-300)).max()}"


def episode_fixture(store, m, seed, task):
    """Score tensor and target of the first query of a 3-way 1-shot episode."""
    cfg = RunConfig(n_way=3, k_shot=1, queries_per_class=1, m=m, base_seed=seed)
    episode = sample_episode(plan_episodes(store, 3, 1, 1, [task], seed), 0)
    reps = representation_table(store, m, cfg.distance)
    scores = episode_scores(store, reps, episode, m, cfg.distance)
    return scores[:1], episode.query_labels[:1]


class TestEpisodeLossAndGrads:
    def test_uniform_scores_give_ln_n(self):
        head = head_of(np.zeros((2, 4)), np.zeros(2), np.zeros(2), 0.0)
        protos = np.stack([np.eye(2) * (i + 1) for i in range(5)])
        losses, grads, probs = loss_and_grads(
            head, score_tensor(np.eye(2)[np.newaxis], [0], unit_rows(protos)), np.array([2])
        )
        assert losses[0] == pytest.approx(math.log(5))
        np.testing.assert_allclose(probs[0], np.full(5, 0.2), atol=1e-12)

    def test_zero_w2_zero_w1_grad(self):
        head = random_head(4, 3, seed=5)
        head.w2[:] = 0.0
        protos = np.stack([[[1.0, 0.0], [0.0, 1.0]] for _ in range(3)])
        query = np.array([[[1.0, 1.0], [1.0, -1.0]]])
        scores = score_tensor(unit_rows(query), [0], unit_rows(protos))
        _, grads, _ = loss_and_grads(head, scores, np.array([0]))
        np.testing.assert_array_equal(grads.w1, np.zeros_like(grads.w1))
        np.testing.assert_array_equal(grads.b1, np.zeros_like(grads.b1))

    def test_finite_difference_agreement(self, small_store):
        for trial in range(5):
            m = (2, 4)[trial % 2]
            scores, targets = episode_fixture(small_store, m, seed=trial, task=trial)
            head = random_head(m * m, 8, seed=trial)
            _, analytic, _ = loss_and_grads(head, scores, targets)
            numeric = finite_difference_grads(head, scores, targets)
            assert_grads_close(analytic, numeric)


class TestClassProbabilities:
    @pytest.mark.parametrize("k_shot", [1, 3])
    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_bit_equal_to_episode_loss_and_grads(self, small_store, m, k_shot):
        """The forward-only path must give exactly the probabilities of the
        training path, so evaluation results cannot depend on which runs."""
        head = random_head(head_input_dim(m), 8, seed=m + k_shot)
        reps = representation_table(small_store, m, DistanceKind.COS)
        for task in range(4):
            episode = sample_episode(plan_episodes(small_store, 5, k_shot, 2, [task], 17), 0)
            scores = episode_scores(small_store, reps, episode, m, DistanceKind.COS)
            _, _, probs = loss_and_grads(head, scores, episode.query_labels)
            assert np.array_equal(class_probabilities(head, scores), probs)


class TestBlockedScoreTensor:
    """The score tensor gathers a block of queries at a time from the table
    and writes each block's squared cosines into one output array. Each query of
    the short-last-block store at m = M is 16 x 32 values: 128 a block."""

    @pytest.mark.parametrize("k_shot", [1, 3])
    def test_equals_one_shot_matmul(self, k_shot):
        store = random_store(*SHORT_LAST_BLOCK, seed=18)
        m, kind = store.patches_m, DistanceKind.COS
        reps = representation_table(store, m, kind)
        episode = sample_episode(plan_episodes(store, 2, k_shot, 140, [0], 19), 0)
        assert len(episode.query_rows) * m * store.dim_d > 2 * BLOCK_VALUES  # three blocks
        if k_shot == 1:
            protos = reps[episode.support_rows[:, 0]]
        else:
            oracle_protos, _ = episode_representations(store, episode, m, kind)
            protos = unit_rows(np.stack([proto.rows for proto in oracle_protos]))
        one_shot = np.matmul(reps[episode.query_rows][:, np.newaxis], protos.transpose(0, 2, 1))
        expected = np.minimum(np.square(one_shot), 1.0)
        assert np.array_equal(episode_scores(store, reps, episode, m, kind), expected)

    def test_allocates_the_output_and_one_block(self):
        """A gather of all 300 queries would be 1.2 MB; one block is 512 KiB."""
        store = random_store(*SHORT_LAST_BLOCK, seed=18)
        reps = representation_table(store, store.patches_m, DistanceKind.COS)
        rows, protos = np.arange(len(store)), reps[:5]
        tracemalloc.start()
        try:
            scores = score_tensor(reps, rows, protos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reps[rows].nbytes > 2 * 8 * BLOCK_VALUES
        assert peak - scores.nbytes <= 8 * BLOCK_VALUES + 16 * 1024  # and bookkeeping

    def test_two_threads_gather_one_block_between_them(self, score_threads):
        """The bound above with the tensor scored on two threads, whatever the
        cores: each thread gathers half a block at a time."""
        pool = score_threads(2)
        store = random_store(*SHORT_LAST_BLOCK, seed=18)
        reps = representation_table(store, store.patches_m, DistanceKind.COS)
        rows, protos = np.arange(len(store)), reps[:5]
        tracemalloc.start()
        try:
            scores = score_tensor(reps, rows, protos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.futures
        assert peak - scores.nbytes <= 8 * BLOCK_VALUES + 16 * 1024  # and bookkeeping

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("k_shot", [1, 3])
    @pytest.mark.parametrize("shape", ["short", "over"])
    def test_threads_equal_the_serial_loop(self, score_threads, shape, k_shot, threads):
        """Bit for bit, whichever thread takes a block: the short-last-block
        store's 300 queries, and the over-budget store's 3 (a block each),
        against prototypes of K rows of the table or K-shot means."""
        pool = score_threads(threads)
        store_shape, supports = THREADED_CASES[shape]
        store = random_store(*store_shape, seed=18)
        m, kind = store.patches_m, DistanceKind.COS
        reps = representation_table(store, m, kind)
        supports = np.array(supports)[:, :k_shot]
        if k_shot == 1:
            protos = reps[supports[:, 0]]
        else:
            protos = representation_table(store, m, kind, supports)
        rows = np.arange(len(store))[::-1]
        expected = serial_score_tensor(reps, rows, protos)
        assert np.array_equal(score_tensor(reps, rows, protos), expected)
        assert len(pool.futures) == threads - 1

    def test_a_late_worker_leaves_its_blocks_to_the_caller(self, score_threads, monkeypatch):
        """Blocks are taken, not dealt: a worker that starts only once the
        calling thread is done finds no block left, and the tensor is whole."""
        pool = score_threads(2)
        matmuls, caller_done, taken = scoring._matmuls, threading.Event(), {}

        def late(*args):
            *head, blocks = args
            worker = threading.current_thread() is not threading.main_thread()
            if worker:
                caller_done.wait(timeout=10)
            mine = taken.setdefault(worker, [])
            matmuls(*head, (mine.append(block) or block for block in blocks))
            if not worker:
                caller_done.set()

        monkeypatch.setattr(scoring, "_matmuls", late)
        store = random_store(*SHORT_LAST_BLOCK, seed=18)
        reps = representation_table(store, store.patches_m, DistanceKind.COS)
        rows, protos = np.arange(len(store)), reps[:5]
        scores = score_tensor(reps, rows, protos)
        assert len(pool.futures) == 1 and taken[True] == [] and len(taken[False]) > 1
        assert np.array_equal(scores, serial_score_tensor(reps, rows, protos))

    @pytest.mark.parametrize("k_shot", [1, 3])
    def test_train_and_evaluate_bytes_do_not_depend_on_threads(self, score_threads, k_shot):
        """At m = M, an episode of 2 x 70 queries is 140 x 512 table values:
        two blocks on one thread; on two it is started a class at a time, two
        blocks of 70 queries and a share for the pool each."""
        store = random_store(*SHORT_LAST_BLOCK, seed=18)
        cfg = RunConfig(n_way=2, k_shot=k_shot, queries_per_class=70, m=store.patches_m,
                        epochs=1, episodes_per_epoch=3, eval_tasks=3, hidden_dim=8)
        outputs = []
        for threads in (1, 2):
            pool = score_threads(threads)
            head, log = train(store, cfg)
            checkpoint = io.BytesIO()
            save_head(head, checkpoint)
            outputs.append((checkpoint.getvalue(), log, evaluate(head, store, cfg).to_json()))
            # a share for each of the 2 classes of each of 6 episodes
            assert len(pool.futures) == (threads - 1) * 2 * 6
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("on", ["worker", "caller"])
    def test_a_failing_block_reaches_the_caller(self, score_threads, monkeypatch, on):
        """The exception of a block's product, on a worker or on the calling
        thread, is finish_scores', raised once every share has finished."""
        pool = score_threads(3)
        fail_score_blocks(monkeypatch, on)
        store = random_store(*SHORT_LAST_BLOCK, seed=18)
        reps = representation_table(store, store.patches_m, DistanceKind.COS)
        with pytest.raises(MemoryError):
            score_tensor(reps, np.arange(len(store)), reps[:2])
        assert len(pool.futures) == 2 and all(future.done() for future in pool.futures)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_one_block_episodes_start_no_thread(self, score_threads, sweep_eval_store, threads):
        """A sweep-store episode at m = 4 is 75 x 128 table values, within
        one block: train and evaluate start no pool thread, even on 8 cores,
        where a thread's part of a block (8192 values) holds 64 queries."""
        pool = score_threads(threads)
        cfg = RunConfig(m=4, epochs=1, episodes_per_epoch=2, eval_tasks=2)
        head, _ = train(sweep_eval_store, cfg)
        evaluate(head, sweep_eval_store, cfg)
        # one buffer: each tensor is written where the one before it was
        runs = _episodes(sweep_eval_store, cfg, 4, 0, 3)
        addresses = {scores.__array_interface__["data"][0] for _, run in runs for _, scores in run}
        assert len(addresses) == 1
        assert not pool.futures and not pool.started()


class TestMeanPrototypes:
    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    def test_equal_the_record_path_a_class_at_a_time(self, kind):
        """Each K = 3 prototype equals the oracle's fused unit rows of the
        mean record, and one class's sums and temporaries are held at a
        time: less than five (M, D) arrays beside the (N, m, D) output."""
        store = store_of_sizes([3] * 5, dim=64, patches=256)
        supports = np.arange(15).reshape(5, 3)
        tracemalloc.start()
        try:
            protos = representation_table(store, 64, kind, supports)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        episode = SimpleNamespace(support_rows=supports, query_rows=[])
        expected, _ = episode_representations(store, episode, 64, kind)
        assert np.array_equal(protos, unit_rows(np.stack([proto.rows for proto in expected])))
        assert peak - protos.nbytes < 5 * 8 * store.patches_m * store.dim_d


class TestOptimizer:
    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 after one step => param moves by ~lr
        head = head_of(np.ones((1, 1)), np.zeros(1), np.zeros(1), 0.0)
        grads = grads_of(np.ones((1, 1)), np.zeros(1), np.zeros(1), 0.0)
        cfg = OptimizerConfig(
            learning_rate=0.1, weight_decay=0.0, schedule=ScheduleKind.CONSTANT
        )
        optimizer_step(head, grads, cfg)
        assert head.w1[0, 0] == pytest.approx(0.9, abs=1e-6)
        assert head.step == 1

    def test_zero_gradient_no_motion(self):
        head = random_head(4, 3, seed=8)
        w1 = head.w1.copy()
        b2 = head.b2
        cfg = OptimizerConfig(weight_decay=0.0, schedule=ScheduleKind.CONSTANT)
        optimizer_step(head, zero_grads(head), cfg)
        np.testing.assert_array_equal(head.w1, w1)
        assert head.b2 == b2

    @pytest.mark.parametrize("schedule", list(ScheduleKind))
    def test_flat_update_equals_per_tensor_oracle(self, schedule):
        """One update over the whole state gives the per-tensor update's
        parameters and moments bit for bit, over 20 steps of random
        gradients. The oracle's scalar b2 copy takes (1 - beta2) * g**2 where
        the array update takes (1 - beta2) * g * g, which can round one ulp
        apart, so b2's second moment and b2 itself get a float64 tolerance."""
        head = random_head(9, 5, seed=21)
        ref = per_tensor_head(head)
        cfg = OptimizerConfig(weight_decay=0.1, schedule=schedule, total_steps=20)
        rng = scalar_rng(21, 7)
        for _ in range(20):
            grads = Gradients(head.hidden_dim, rng.normals(head.flat.size))
            optimizer_step(head, grads, cfg)
            per_tensor_optimizer_step(ref, grads, cfg)
            assert head.step == ref.step
            for flat, group in zip(head.state, (ref, ref.moment1, ref.moment2)):
                expected = grads_of(group.w1, group.b1, group.w2, group.b2).flat
                np.testing.assert_array_equal(flat[:-1], expected[:-1])
                assert flat[-1] == pytest.approx(expected[-1], rel=64 * np.finfo(float).eps)
            assert moment(head, 1).b2 == ref.moment1.b2

    def test_blocked_update_equals_whole_state_oracle(self):
        """P = 64 x 2050 + 1 = 131201 values, two blocks and one more value:
        updated a block at a time, the state is the oracle's update of the
        whole state, bit for bit, over 5 steps; the step's temporaries are
        two blocks, not two (P,) arrays."""
        head = random_head(2048, 64, seed=22)
        assert 2 * BLOCK_VALUES < head.flat.size
        ref = MlpHead(head.input_dim, head.hidden_dim, head.state.copy(), head.step)
        cfg = OptimizerConfig(weight_decay=0.1, total_steps=5)
        rng = scalar_rng(22, 7)
        for _ in range(5):
            grads = Gradients(head.hidden_dim, rng.normals(head.flat.size))
            tracemalloc.start()
            try:
                optimizer_step(head, grads, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            oracles.optimizer_step(ref, grads, cfg)
            assert np.array_equal(head.state, ref.state) and head.step == ref.step
            assert peak <= 2 * 8 * BLOCK_VALUES + 16 * 1024  # and bookkeeping

    def test_cosine_schedule_endpoints(self):
        cfg = OptimizerConfig(
            learning_rate=1e-3, lr_floor=1e-6, schedule=ScheduleKind.COSINE, total_steps=100
        )
        assert cfg.lr_at(0) == pytest.approx(1e-3)
        assert cfg.lr_at(100) == 1e-6
        assert cfg.lr_at(50) == pytest.approx((1e-3 + 1e-6) / 2)

    def test_cosine_floor_above_rate_rejected(self):
        """Above learning_rate, the floor would make the cosine rate climb."""
        with pytest.raises(InfeasibleConfig, match="lr_floor 0.01 must be <= learning_rate 0.001"):
            OptimizerConfig(learning_rate=1e-3, lr_floor=1e-2).check_schedule()
        OptimizerConfig(learning_rate=1e-3, lr_floor=1e-3).check_schedule()
        OptimizerConfig(lr_floor=1e-2, schedule=ScheduleKind.CONSTANT).check_schedule()

    def test_weight_decay_shrinks_params(self):
        head = head_of(np.ones((1, 1)), np.zeros(1), np.zeros(1), 0.0)
        cfg = OptimizerConfig(
            learning_rate=0.1, weight_decay=0.5, schedule=ScheduleKind.CONSTANT
        )
        optimizer_step(head, zero_grads(head), cfg)
        assert head.w1[0, 0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_loss_decreases_on_fixed_batch(self, easy_train_store):
        m = 4
        batch = [episode_fixture(easy_train_store, m, seed=3, task=t) for t in range(4)]
        head = random_head(m * m, 16, seed=3)
        cfg = OptimizerConfig(schedule=ScheduleKind.CONSTANT, weight_decay=0.0)
        losses = []
        for _ in range(50):
            total = zero_grads(head)
            loss_sum = 0.0
            for scores, targets in batch:
                loss, grads, _ = loss_and_grads(head, scores, targets)
                loss_sum += loss[0]
                add_grads(total, grads)
            losses.append(loss_sum / len(batch))
            optimizer_step(head, scale_grads(total, 1 / len(batch)), cfg)
        increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert increases <= 5
        assert losses[-1] < losses[0]


class TestCheckpoint:
    def test_round_trip_exact(self):
        head = random_head(9, 5, seed=13)
        # give the moments some content
        grads = grads_of(
            np.ones_like(head.w1) * 0.3,
            np.ones_like(head.b1) * -0.2,
            np.ones_like(head.w2) * 0.1,
            0.05,
        )
        optimizer_step(head, grads, OptimizerConfig())
        buf = io.BytesIO()
        save_head(head, buf)
        buf.seek(0)
        back = load_head(buf)
        assert back.input_dim == head.input_dim
        assert back.hidden_dim == head.hidden_dim
        assert back.step == head.step
        np.testing.assert_array_equal(back.w1, head.w1)
        np.testing.assert_array_equal(back.b1, head.b1)
        np.testing.assert_array_equal(back.w2, head.w2)
        assert back.b2 == head.b2
        np.testing.assert_array_equal(moment(back, 1).w1, moment(head, 1).w1)
        np.testing.assert_array_equal(moment(back, 2).w1, moment(head, 2).w1)
        assert moment(back, 1).b2 == moment(head, 1).b2

    def test_round_trip_fuzz(self):
        for seed in range(30):
            rng = scalar_rng(seed, 55)
            head = MlpHead.initialize(1 + rng.randint(20), 1 + rng.randint(10), rng.state)
            a, b = io.BytesIO(), io.BytesIO()
            save_head(head, a)
            save_head(load_head(io.BytesIO(a.getvalue())), b)
            assert a.getvalue() == b.getvalue()

    def test_bad_magic(self):
        with raises_exactly(StoreFormatError, "expected b'CPEH', found b'NOPE'"):
            load_head(io.BytesIO(b"NOPE" + b"\x00" * 32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["W1", "b2", "moment2 W2"])
    def test_non_finite_value_rejected(self, value, where):
        head = random_head(4, 2, seed=1)
        if where == "W1":
            head.w1[1, 3] = value
        elif where == "b2":
            head.b2 = value
        else:
            moment(head, 2).w2[0] = value
        buf = io.BytesIO()
        save_head(head, buf)
        message = "checkpoint contains NaN/Inf parameters or moments"
        with raises_exactly(StoreFormatError, message):
            load_head(io.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize("input_dim,hidden", [(16, 0), (0, 8), (0, 0)])
    def test_empty_head_names_only_its_zero_fields(self, input_dim, hidden):
        """A header with no inputs or no hidden units is rejected by a message
        that names each zero field, and no field that is valid."""
        body = bytes(8 * 3 * group_size(input_dim, hidden) + 8)
        data = b"CPEH" + struct.pack("<HII", 1, input_dim, hidden) + body
        with pytest.raises(StoreFormatError) as info:
            load_head(io.BytesIO(data))
        for name, size in (("input_dim", input_dim), ("hidden_dim", hidden)):
            assert (name in str(info.value)) == (size == 0)
            assert (f"{name} 0" in str(info.value)) == (size == 0)

    def test_blocked_load_peak_and_exact_copy(self):
        """A head of six blocks of state values (P = 131201) loads with a traced
        peak under its state and one block, filled and checked a block at a
        time, and save -> load -> save writes the same bytes."""
        head = random_head(2048, 64, seed=23)
        assert head.state.size > 5 * BLOCK_VALUES
        grads = Gradients(head.hidden_dim, scalar_rng(23, 7).normals(head.flat.size))
        optimizer_step(head, grads, OptimizerConfig())  # gives the moments content
        buf = io.BytesIO()
        save_head(head, buf)
        data = buf.getvalue()
        tracemalloc.start()
        try:
            back = load_head(SimpleNamespace(read=lambda: data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < back.state.nbytes + 8 * BLOCK_VALUES
        again = io.BytesIO()
        save_head(back, again)
        assert again.getvalue() == data

    def test_trailing_bytes_rejected(self):
        buf = io.BytesIO()
        save_head(random_head(4, 2, seed=1), buf)
        with raises_exactly(StoreFormatError, "1 bytes after the end of the file's body"):
            load_head(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_truncated(self):
        head = random_head(4, 2, seed=1)
        buf = io.BytesIO()
        save_head(head, buf)
        message = "unexpected end of file while reading parameters"
        with raises_exactly(StoreFormatError, message):
            load_head(io.BytesIO(buf.getvalue()[:-4]))
