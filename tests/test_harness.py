import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpes.errors import InfeasibleConfig
from cpes.harness import (
    RunConfig,
    evaluate,
    export_masks,
    init_head,
    mean_and_ci95,
    resolve_m,
    sweep,
    train,
)
from cpes.scoring import OptimizerConfig, save_head
from cpes.selection import DistanceKind, select_top, similarity_sequence
from conftest import raises_exactly
from oracles import (
    EmbeddingRecord,
    fused,
    head_of,
    record,
    records,
    score_matrix,
    store_from_records,
)
from test_selection import random_store


def quick_cfg(**kw) -> RunConfig:
    base = dict(
        n_way=5,
        k_shot=1,
        queries_per_class=3,
        m=4,
        epochs=1,
        episodes_per_epoch=10,
        eval_tasks=30,
        base_seed=0,
        hidden_dim=16,
    )
    base.update(kw)
    return RunConfig(**base)


class TestTrain:
    def test_zero_epochs_identity(self, easy_train_store):
        cfg = quick_cfg(epochs=0)
        head, log = train(easy_train_store, cfg)
        fresh = init_head(cfg, 4)
        np.testing.assert_array_equal(head.w1, fresh.w1)
        assert head.step == 0
        assert log == []

    def test_trained_head_exposes_parameter_views(self, easy_train_store):
        """w1, b1 and w2 are arrays and b2 a float, all read from the state."""
        head, _ = train(easy_train_store, quick_cfg())
        assert [a.shape for a in (head.w1, head.b1, head.w2)] == [(16, 16), (16,), (16,)]
        assert all(np.shares_memory(a, head.state) for a in (head.w1, head.b1, head.w2))
        assert type(head.b2) is float and head.b2 == head.state[0, -1]

    def test_deterministic_checkpoints_and_logs(self, easy_train_store):
        cfg = quick_cfg()
        h1, l1 = train(easy_train_store, cfg)
        h2, l2 = train(easy_train_store, cfg)
        a, b = io.BytesIO(), io.BytesIO()
        save_head(h1, a)
        save_head(h2, b)
        assert a.getvalue() == b.getvalue()
        assert json.dumps(l1) == json.dumps(l2)

    def test_one_score_tensor_alive_at_a_time(self):
        """Training and evaluation each hold one episode's score tensor while
        the next is built, not two: on a store whose 3.3 MB score tensors
        outweigh everything else a run allocates, the traced peak stays under
        one and a half of them."""
        store = random_store(60, 64, 4, seed=20)  # two classes of 30 records
        cfg = quick_cfg(n_way=2, queries_per_class=25, m=64, episodes_per_epoch=3,
                        eval_tasks=3, hidden_dim=1)
        tensor_bytes = 8 * 2 * 25 * 2 * 64 * 64
        for run in (lambda: train(store, cfg), lambda: evaluate(init_head(cfg, 64), store, cfg)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * tensor_bytes

    def test_learning_signal_on_easy_store(self, easy_train_store):
        cfg = quick_cfg(epochs=3, episodes_per_epoch=20)
        _, log = train(easy_train_store, cfg)
        assert log[-1]["mean_accuracy"] > log[0]["mean_accuracy"]
        assert log[-1]["mean_loss"] < log[0]["mean_loss"]


class TestEvaluate:
    def test_uninformative_labels_give_chance(self, easy_eval_store):
        # round-robin relabeling decouples labels from content, so no head
        # can beat 1-in-5 chance
        recs = [
            EmbeddingRecord(r.record_id, i % 5, r.class_embedding, r.patch_embeddings)
            for i, r in enumerate(records(easy_eval_store))
        ]
        scrambled = store_from_records(
            easy_eval_store.dim_d, easy_eval_store.patches_m, 5, recs
        )
        cfg = quick_cfg(eval_tasks=200, queries_per_class=5)
        report = evaluate(init_head(cfg, 4), scrambled, cfg)
        assert abs(report.mean_accuracy - 0.2) <= 3 * max(report.ci95_half_width, 1e-9)

    def test_single_task_zero_ci(self, easy_eval_store):
        cfg = quick_cfg(eval_tasks=1)
        report = evaluate(init_head(cfg, 4), easy_eval_store, cfg)
        assert report.ci95_half_width == 0.0

    def test_hand_checked_ci(self):
        mean, ci = mean_and_ci95([0.6, 1.0])
        assert mean == pytest.approx(0.8)
        assert ci == pytest.approx(1.96 * np.std([0.6, 1.0], ddof=1) / np.sqrt(2))
        assert ci == pytest.approx(0.39195, abs=1e-4)

    def test_report_recomputable(self, easy_eval_store):
        cfg = quick_cfg(eval_tasks=25)
        report = evaluate(init_head(cfg, 4), easy_eval_store, cfg)
        mean, ci = mean_and_ci95(report.per_task_accuracy)
        assert report.mean_accuracy == mean
        assert report.ci95_half_width == ci

    def test_class_score_ties_go_to_class_0(self, sweep_eval_store):
        """Ties on class scores are the rule: with m = 0 the head sees one
        cosine c in [-1, 1] and scores relu(2**-30 c) + 2**30, which rounds
        to 2**30 for every class, so every query picks class 0 and every
        task's accuracy is exactly 1/N. Without b2 the scores differ, and
        the same head is far above chance."""
        cfg = quick_cfg(m=0, queries_per_class=15, eval_tasks=20, hidden_dim=1)
        tied = evaluate(head_of([[2.0**-30]], [0.0], [1.0], 2.0**30), sweep_eval_store, cfg)
        assert tied.per_task_accuracy == [1 / cfg.n_way] * cfg.eval_tasks
        untied = evaluate(head_of([[2.0**-30]], [0.0], [1.0], 0.0), sweep_eval_store, cfg)
        assert untied.mean_accuracy > 0.7

    def test_head_shape_mismatch(self, easy_eval_store):
        cfg = quick_cfg(m=8)
        with raises_exactly(InfeasibleConfig, "head input dim 16 does not match m=8 (expected 64)"):
            evaluate(init_head(quick_cfg(m=4), 4), easy_eval_store, cfg)

    def test_json_round_trip(self, easy_eval_store):
        cfg = quick_cfg(eval_tasks=5)
        report = evaluate(init_head(cfg, 4), easy_eval_store, cfg)
        data = json.loads(report.to_json())
        assert data["task_count"] == 5
        assert data["mean_accuracy"] == report.mean_accuracy
        assert "wall_time" not in data  # reruns must be byte-identical


class TestSweeps:
    def test_sweep_m_matches_plain_run(self, easy_train_store, easy_eval_store):
        cfg = quick_cfg(eval_tasks=10)
        result = sweep(easy_train_store, easy_eval_store, cfg, "m", [4])
        head, _ = train(easy_train_store, cfg)
        plain = evaluate(head, easy_eval_store, cfg)
        assert result.points[0][1].per_task_accuracy == plain.per_task_accuracy

    def test_an_axis_that_is_not_a_field_is_rejected(self, small_store):
        with raises_exactly(InfeasibleConfig, "cannot sweep 'bogus': not a RunConfig field"):
            sweep(small_store, small_store, quick_cfg(), "bogus", [1])

    def test_sweep_m_zero_and_full(self, easy_train_store, easy_eval_store):
        cfg = quick_cfg(eval_tasks=5, episodes_per_epoch=3)
        result = sweep(easy_train_store, easy_eval_store, cfg, "m", [0, 16])
        assert [p[0] for p in result.points] == [0, 16]
        for _, report in result.points:
            assert 0.0 <= report.mean_accuracy <= 1.0

    def test_sweep_distance_all_kinds(self, easy_train_store, easy_eval_store):
        cfg = quick_cfg(eval_tasks=5, episodes_per_epoch=3)
        result = sweep(
            easy_train_store, easy_eval_store, cfg, "distance", list(DistanceKind)
        )
        assert [p[0] for p in result.points] == ["cos", "dot", "abs", "sqr"]
        parsed = json.loads(result.to_json())
        assert len(parsed["points"]) == 4
        assert result.table().count("\n") == 4

    def test_cos_vs_dot_disagree_on_nonuniform_norms(self, small_store):
        # scale patches unevenly so norm matters for DOT but not COS
        disagreements = 0
        for rec in records(small_store):
            scaled = rec.patch_embeddings * np.linspace(
                0.2, 3.0, small_store.patches_m
            ).reshape(-1, 1)
            mod = EmbeddingRecord(rec.record_id, rec.label, rec.class_embedding, scaled)
            embeddings = mod.class_embedding, mod.patch_embeddings
            cos_idx = select_top(similarity_sequence(*embeddings, DistanceKind.COS), 4).tolist()
            dot_idx = select_top(similarity_sequence(*embeddings, DistanceKind.DOT), 4).tolist()
            disagreements += cos_idx != dot_idx
        assert disagreements > 0


class TestResolveM:
    def test_synthetic_defaults_to_signal_count(self, small_store):
        assert resolve_m(small_store, quick_cfg(m=None)) == 4

    def test_plain_store_default_caps_at_96(self):
        store = store_from_records(4, 196, 0, [])
        assert resolve_m(store, quick_cfg(m=None)) == 96
        small = store_from_records(4, 10, 0, [])
        assert resolve_m(small, quick_cfg(m=None)) == 10

    def test_unequal_planted_counts_need_m(self):
        recs = [EmbeddingRecord(i, 0, np.ones(2), np.ones((3, 2))) for i in range(2)]
        store = store_from_records(2, 3, 1, recs, [(0,), (0, 2)])
        with pytest.raises(InfeasibleConfig, match=r"plant \[1, 2\] signal patches; pass --m"):
            resolve_m(store, quick_cfg(m=None))
        assert resolve_m(store, quick_cfg(m=2)) == 2

    def test_m_too_large_rejected(self, small_store):
        for m in (17, -1):
            with raises_exactly(InfeasibleConfig, f"m must be in [0, 16], got {m}"):
                resolve_m(small_store, quick_cfg(m=m))


class TestEnumSettings:
    """A distance or schedule that is not a member of its enum, such as its
    value string, is refused by train and evaluate alike, before any work."""

    @pytest.mark.parametrize("call", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(distance="abs"), "distance must be one of cos, dot, abs, sqr, got 'abs'"),
            (dict(optimizer=OptimizerConfig(schedule="constant")),
             "schedule must be one of constant, cosine, got 'constant'"),
        ],
        ids=["distance", "schedule"],
    )
    def test_a_non_member_is_rejected(self, small_store, call, setting, message):
        cfg, head = quick_cfg(**setting), init_head(quick_cfg(), 4)
        with raises_exactly(InfeasibleConfig, message):
            train(small_store, cfg) if call == "train" else evaluate(head, small_store, cfg)


class TestSettingTypes:
    """An int field (and m, which may also be None) that holds a float, a
    string or a bool, or a float field that holds a string or a bool, is
    refused by train and evaluate alike, before any work; numpy numbers
    are numbers."""

    @pytest.mark.parametrize("call", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(epochs=1.5), "epochs must be an integer, got 1.5"),
            (dict(hidden_dim=8.0), "hidden_dim must be an integer, got 8.0"),
            (dict(n_way="5"), "n_way must be an integer, got '5'"),
            (dict(m=4.0), "m must be an integer, got 4.0"),
            (dict(k_shot=True), "k_shot must be an integer, got True"),
            (dict(optimizer=OptimizerConfig(learning_rate="0.1")),
             "learning_rate must be a real number, got '0.1'"),
            (dict(optimizer=OptimizerConfig(weight_decay=False)),
             "weight_decay must be a real number, got False"),
        ],
        ids=["epochs", "hidden_dim", "n_way", "m", "k_shot", "learning_rate", "weight_decay"],
    )
    def test_a_wrong_type_is_rejected(self, small_store, call, setting, message):
        cfg, head = quick_cfg(**setting), init_head(quick_cfg(), 4)
        with raises_exactly(InfeasibleConfig, message):
            train(small_store, cfg) if call == "train" else evaluate(head, small_store, cfg)

    def test_numpy_numbers_are_numbers(self, small_store):
        cfg = quick_cfg(n_way=np.int64(5), m=np.int32(4), eval_tasks=np.int64(3),
                        optimizer=OptimizerConfig(learning_rate=np.float32(1e-3)))
        head = init_head(quick_cfg(), 4)
        assert evaluate(head, small_store, cfg).per_task_accuracy == evaluate(
            head, small_store, quick_cfg(eval_tasks=3)
        ).per_task_accuracy


class TestOptimizerBounds:
    """beta1 and beta2 in [0, 1) and eps finite and above 0, which only the
    Python API sets, are refused by train before any work, naming the field:
    each value here trained without complaint, trained to a head of NaN, or
    failed as an overflow that named the learning rate."""

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("beta1", math.nan, "beta1 must be >= 0 and < 1, got nan"),
            ("beta2", math.nan, "beta2 must be >= 0 and < 1, got nan"),
            ("beta1", 1.0, "beta1 must be >= 0 and < 1, got 1.0"),
            ("beta2", 1.0, "beta2 must be >= 0 and < 1, got 1.0"),
            ("beta1", -3.0, "beta1 must be >= 0 and < 1, got -3.0"),
            ("eps", 0.0, "eps must be finite and > 0, got 0.0"),
            ("eps", -1.0, "eps must be finite and > 0, got -1.0"),
            ("eps", math.inf, "eps must be finite and > 0, got inf"),
        ],
    )
    def test_out_of_bounds_rejected(self, small_store, name, value, message):
        cfg = quick_cfg(optimizer=OptimizerConfig(**{name: value}))
        with raises_exactly(InfeasibleConfig, message):
            train(small_store, cfg)

    def test_the_least_betas_train(self, small_store):
        head, log = train(small_store, quick_cfg(optimizer=OptimizerConfig(beta1=0, beta2=0.0)))
        assert np.isfinite(head.state).all() and math.isfinite(log[0]["mean_loss"])


class TestExportMasks:
    def test_full_and_empty_masks(self, small_store, tmp_path):
        paths = export_masks(small_store, quick_cfg(m=16), [0], tmp_path / "full")
        pgm = [p for p in paths if p.endswith(".pgm")][0]
        body = Path(pgm).read_text().splitlines()[3:]
        assert all(tok == "255" for line in body for tok in line.split())

        paths = export_masks(small_store, quick_cfg(m=0), [0], tmp_path / "empty")
        pgm = [p for p in paths if p.endswith(".pgm")][0]
        body = Path(pgm).read_text().splitlines()[3:]
        assert all(tok == "0" for line in body for tok in line.split())

    def test_mask_overlaps_ground_truth(self, small_store, tmp_path):
        # sigma_s = 0.1: selection should mostly hit planted signal cells
        paths = export_masks(
            small_store, quick_cfg(m=4), small_store.record_ids[:20].tolist(),
            tmp_path / "gt",
        )
        hits = total = 0
        for p in paths:
            if not p.endswith(".json"):
                continue
            data = json.loads(Path(p).read_text())
            planted = small_store.planted[data["record_id"]]
            hits += int(planted[data["indices"]].sum())
            total += int(planted.sum())
        assert hits / total >= 0.5  # frozen: 2x chance (4/16)

    def test_unknown_record(self, small_store, tmp_path):
        with raises_exactly(InfeasibleConfig, "record_id 10000 not in store"):
            export_masks(small_store, quick_cfg(), [10_000], tmp_path)

    def test_numpy_ids_write_the_bytes_of_ints(self, small_store, tmp_path):
        cfg = quick_cfg()
        numpy_ids = list(small_store.record_ids[:2]) + [np.int8(1), np.int64(2)]
        paths = export_masks(small_store, cfg, numpy_ids, tmp_path / "numpy")
        plain = export_masks(small_store, cfg, [0, 1, 2], tmp_path / "int")
        assert [Path(p).name for p in paths] == [Path(p).name for p in plain]
        assert [Path(p).read_bytes() for p in paths] == [Path(p).read_bytes() for p in plain]

    @pytest.mark.parametrize("bad", [True, np.bool_(False), 1.0, np.float64(1.0), "1", None])
    def test_a_non_integer_id_is_rejected_writing_nothing(self, small_store, tmp_path, bad):
        with raises_exactly(InfeasibleConfig, f"record_id must be an integer, got {bad!r}"):
            export_masks(small_store, quick_cfg(), [0, bad], tmp_path / "masks")
        assert not (tmp_path / "masks").exists()


class TestEndToEndOrderInvariance:
    def test_query_score_invariant_to_patch_storage_order(self, small_store):
        from test_scoring import class_scores

        cfg = quick_cfg()
        head = init_head(cfg, 4)
        proto = fused(record(small_store, 0), 4, DistanceKind.COS)
        query_rec = record(small_store, 7)
        perm = list(reversed(range(small_store.patches_m)))
        permuted = EmbeddingRecord(
            query_rec.record_id,
            query_rec.label,
            query_rec.class_embedding,
            query_rec.patch_embeddings[perm],
        )
        a = class_scores(head, [score_matrix(fused(query_rec, 4, DistanceKind.COS), proto)])[0]
        b = class_scores(head, [score_matrix(fused(permuted, 4, DistanceKind.COS), proto)])[0]
        assert a == pytest.approx(b, abs=1e-12)
