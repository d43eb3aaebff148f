import io
import math

import numpy as np
import pytest

from cpes.episodes import EpisodeSpec, sample_episode
from cpes.errors import DimensionMismatch, NonFiniteGradient
from cpes.harness import RunConfig, episode_scores, head_input_dim
from cpes.numerics import rng_split
from cpes.scoring import (
    Gradients,
    MlpHead,
    OptimizerConfig,
    ScheduleKind,
    class_probabilities,
    episode_loss_and_grads,
    head_forward,
    load_head,
    optimizer_step,
    save_head,
    score_tensor,
)
from cpes.selection import DistanceKind, selection_table
from oracles import (
    add_grads,
    grads_of,
    head_of,
    moment,
    per_tensor_head,
    per_tensor_optimizer_step,
    scale_grads,
    zero_grads,
)


def rep(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64)


def score_matrix(query: np.ndarray, proto: np.ndarray) -> np.ndarray:
    """The package's score tensor of one query against one prototype."""
    return score_tensor(query[np.newaxis], proto[np.newaxis])[0, 0]


def random_head(input_dim, hidden, seed=0) -> MlpHead:
    return MlpHead.initialize(input_dim, hidden, rng_split(seed, 1000))


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
        rng = rng_split(20, 0)
        q = rep(rng.normals(8).reshape(2, 4))
        p = rep(rng.normals(12).reshape(3, 4))
        np.testing.assert_array_equal(
            score_matrix(q, p), score_matrix(-q, p)
        )

    def test_transpose_symmetry(self):
        rng = rng_split(21, 0)
        q = rep(rng.normals(8).reshape(2, 4))
        p = rep(rng.normals(12).reshape(3, 4))
        np.testing.assert_array_equal(score_matrix(q, p), score_matrix(p, q).T)

    def test_entries_in_unit_interval_fuzz(self):
        rng = rng_split(22, 0)
        for _ in range(2000):
            q = rep(rng.normals(6).reshape(2, 3))
            p = rep(rng.normals(6).reshape(2, 3))
            s = score_matrix(q, p)
            assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score_matrix(rep([[1.0, 0.0]]), rep([[1.0, 0.0, 0.0]]))


class TestMlpForward:
    def test_bias_passthrough(self):
        head = head_of(np.zeros((2, 4)), np.zeros(2), np.zeros(2), 0.7)
        assert head_forward(head, [np.eye(2)])[3][0] == pytest.approx(0.7)

    def test_hand_computed_forward(self):
        # oracle: relu(0.5*1 + 0.5*0 + 0.5*0 + 0.5*1) * 1 + 0 = 1.0
        head = head_of(np.full((1, 4), 0.5), np.zeros(1), np.ones(1), 0.0)
        assert head_forward(head, [np.eye(2)])[3][0] == pytest.approx(1.0)

    def test_dead_rectifier_returns_output_bias(self):
        head = head_of(np.ones((3, 4)), np.full(3, -100.0), np.ones(3), 0.25)
        assert head_forward(head, [np.eye(2) * 0.5])[3][0] == pytest.approx(0.25)

    def test_shape_check(self):
        head = random_head(9, 4)
        with pytest.raises(DimensionMismatch):
            head_forward(head, [np.eye(2)])


def finite_difference_grads(head, scores, targets, step=1e-6):
    """Central-difference oracle over every head parameter, of the mean
    loss over an episode's queries."""

    def loss_at():
        losses, _, _ = episode_loss_and_grads(head, scores, targets)
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
    spec = EpisodeSpec(3, 1, 1, task, seed)
    episode = sample_episode(store, spec)
    table = selection_table(store, m, cfg.distance)
    scores = episode_scores(store, table, episode, cfg.distance)
    return scores[:1], episode.query_labels[:1]


class TestEpisodeLossAndGrads:
    def test_uniform_scores_give_ln_n(self):
        head = head_of(np.zeros((2, 4)), np.zeros(2), np.zeros(2), 0.0)
        protos = np.stack([np.eye(2) * (i + 1) for i in range(5)])
        losses, grads, probs = episode_loss_and_grads(
            head, score_tensor(np.eye(2)[np.newaxis], protos), np.array([2])
        )
        assert losses[0] == pytest.approx(math.log(5))
        np.testing.assert_allclose(probs[0], np.full(5, 0.2), atol=1e-12)

    def test_zero_w2_zero_w1_grad(self):
        head = random_head(4, 3, seed=5)
        head.w2[:] = 0.0
        protos = np.stack([[[1.0, 0.0], [0.0, 1.0]] for _ in range(3)])
        query = np.array([[[1.0, 1.0], [1.0, -1.0]]])
        _, grads, _ = episode_loss_and_grads(head, score_tensor(query, protos), np.array([0]))
        np.testing.assert_array_equal(grads.w1, np.zeros_like(grads.w1))
        np.testing.assert_array_equal(grads.b1, np.zeros_like(grads.b1))

    def test_finite_difference_agreement(self, small_store):
        for trial in range(5):
            m = (2, 4)[trial % 2]
            scores, targets = episode_fixture(small_store, m, seed=trial, task=trial)
            head = random_head(m * m, 8, seed=trial)
            _, analytic, _ = episode_loss_and_grads(head, scores, targets)
            numeric = finite_difference_grads(head, scores, targets)
            assert_grads_close(analytic, numeric)


class TestClassProbabilities:
    @pytest.mark.parametrize("k_shot", [1, 3])
    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_bit_equal_to_episode_loss_and_grads(self, small_store, m, k_shot):
        """The forward-only path must give exactly the probabilities of the
        training path, so evaluation results cannot depend on which runs."""
        head = random_head(head_input_dim(m), 8, seed=m + k_shot)
        table = selection_table(small_store, m, DistanceKind.COS)
        for task in range(4):
            episode = sample_episode(small_store, EpisodeSpec(5, k_shot, 2, task, 17))
            scores = episode_scores(small_store, table, episode, DistanceKind.COS)
            _, _, probs = episode_loss_and_grads(head, scores, episode.query_labels)
            assert np.array_equal(class_probabilities(head, scores), probs)


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
        rng = rng_split(21, 7)
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

    def test_cosine_schedule_endpoints(self):
        cfg = OptimizerConfig(
            learning_rate=1e-3, lr_floor=1e-6, schedule=ScheduleKind.COSINE, total_steps=100
        )
        assert cfg.lr_at(0) == pytest.approx(1e-3)
        assert cfg.lr_at(100) == 1e-6
        assert cfg.lr_at(50) == pytest.approx((1e-3 + 1e-6) / 2)

    def test_non_finite_gradient_rejected(self):
        head = random_head(4, 3, seed=9)
        grads = zero_grads(head)
        grads.w1[0, 0] = np.nan
        with pytest.raises(NonFiniteGradient):
            optimizer_step(head, grads, OptimizerConfig())

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
                loss, grads, _ = episode_loss_and_grads(head, scores, targets)
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
            rng = rng_split(seed, 55)
            head = MlpHead.initialize(1 + rng.randint(20), 1 + rng.randint(10), rng)
            a, b = io.BytesIO(), io.BytesIO()
            save_head(head, a)
            save_head(load_head(io.BytesIO(a.getvalue())), b)
            assert a.getvalue() == b.getvalue()

    def test_bad_magic(self):
        from cpes.errors import BadMagic

        with pytest.raises(BadMagic):
            load_head(io.BytesIO(b"NOPE" + b"\x00" * 32))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["W1", "b2", "moment2 W2"])
    def test_non_finite_value_rejected(self, value, where):
        from cpes.errors import NonFiniteValue

        head = random_head(4, 2, seed=1)
        if where == "W1":
            head.w1[1, 3] = value
        elif where == "b2":
            head.b2 = value
        else:
            moment(head, 2).w2[0] = value
        buf = io.BytesIO()
        save_head(head, buf)
        with pytest.raises(NonFiniteValue):
            load_head(io.BytesIO(buf.getvalue()))

    def test_trailing_bytes_rejected(self):
        from cpes.errors import TrailingBytes

        buf = io.BytesIO()
        save_head(random_head(4, 2, seed=1), buf)
        with pytest.raises(TrailingBytes):
            load_head(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_truncated(self):
        from cpes.errors import TruncatedFile

        head = random_head(4, 2, seed=1)
        buf = io.BytesIO()
        save_head(head, buf)
        with pytest.raises(TruncatedFile):
            load_head(io.BytesIO(buf.getvalue()[:-4]))
