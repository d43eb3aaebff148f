import io
import json
from pathlib import Path

import numpy as np
import pytest

from cpes.errors import UnknownRecord
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
from cpes.scoring import save_head
from cpes.selection import DistanceKind, select_top, similarity_sequence
from oracles import EmbeddingRecord, fused, record, records, score_matrix, store_from_records


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

    def test_head_shape_mismatch(self, easy_eval_store):
        cfg = quick_cfg(m=8)
        with pytest.raises(ValueError):
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

    def test_m_too_large_rejected(self, small_store):
        with pytest.raises(ValueError):
            resolve_m(small_store, quick_cfg(m=17))


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
            gt = set(small_store.ground_truth[data["record_id"]])
            hits += len(set(data["indices"]) & gt)
            total += len(gt)
        assert hits / total >= 0.5  # frozen: 2x chance (4/16)

    def test_unknown_record(self, small_store, tmp_path):
        with pytest.raises(UnknownRecord):
            export_masks(small_store, quick_cfg(), [10_000], tmp_path)


class TestEndToEndOrderInvariance:
    def test_query_score_invariant_to_patch_storage_order(self, small_store):
        from cpes.scoring import head_forward

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
        a = head_forward(head, [score_matrix(fused(query_rec, 4, DistanceKind.COS), proto)])[3][0]
        b = head_forward(head, [score_matrix(fused(permuted, 4, DistanceKind.COS), proto)])[3][0]
        assert a == pytest.approx(b, abs=1e-12)
