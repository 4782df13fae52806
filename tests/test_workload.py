import pytest

from vlmsim.workload import (
    MicrobatchPlan,
    SequenceLengthModel,
    StepWorkload,
    TrainingStage,
    plan_step_microbatches,
    sample_lengths,
    stage_by_name,
    stage_catalog,
    trainable_param_count,
)


class TestStageCatalog:
    def test_order_budgets_and_masks(self):
        stages = stage_catalog()
        assert [s.name for s in stages] == [
            "cross-modal-alignment",
            "general-knowledge-injection",
            "domain-enhancement",
            "instruction-tuning",
        ]
        assert [s.token_budget for s in stages] == [
            100_000_000_000,
            2_660_000_000_000,
            320_000_000_000,
            1_000_000_000,
        ]
        assert stages[0].trainable == frozenset({"adapter"})
        for stage in stages[1:]:
            assert stage.trainable == frozenset({"vision", "adapter", "lm"})

    def test_lookup_by_name(self):
        assert stage_by_name("domain-enhancement").token_budget == 320_000_000_000
        with pytest.raises(KeyError):
            stage_by_name("warmup")

    def test_trainable_param_counts(self, catalog, full_stage):
        align = stage_by_name("cross-modal-alignment")
        model = catalog["8B"]
        assert trainable_param_count(model, align) == 33_562_624
        assert trainable_param_count(model, full_stage) == 8_806_625_280

    def test_bad_stage_construction(self):
        lengths = SequenceLengthModel.fixed(4096)
        with pytest.raises(ValueError):
            TrainingStage(
                name="x",
                token_budget=1,
                trainable=frozenset({"lora"}),
                seq_len_model=lengths,
            )


class TestSequenceLengths:
    def test_fixed_model(self):
        model = SequenceLengthModel.fixed(4096)
        assert sample_lengths(model, seed=1, n=5) == [4096] * 5
        assert sample_lengths(model, seed=1, n=0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceLengthModel.fixed(0)
        with pytest.raises(ValueError):
            SequenceLengthModel.fixed(100, cap=50)
        with pytest.raises(ValueError):
            SequenceLengthModel(kind="uniform", value=10)
        with pytest.raises(ValueError):
            SequenceLengthModel.lognormal(mean=8.0, sigma=-1.0)

    def test_lognormal_deterministic_and_capped(self):
        model = SequenceLengthModel.lognormal(mean=8.0, sigma=0.7, cap=4096)
        a = sample_lengths(model, seed=42, n=1000)
        b = sample_lengths(model, seed=42, n=1000)
        assert a == b
        assert all(1 <= x <= 4096 for x in a)
        assert sample_lengths(model, seed=43, n=1000) != a
        # mean=8 puts the median near e^8 ~ 2981
        mid = sorted(a)[500]
        assert 2000 < mid < 4096

    def test_cap_actually_binds(self):
        loose = SequenceLengthModel.lognormal(mean=8.0, sigma=0.7, cap=32768)
        tight = SequenceLengthModel.lognormal(mean=8.0, sigma=0.7, cap=2048)
        raw = sample_lengths(loose, seed=7, n=500)
        capped = sample_lengths(tight, seed=7, n=500)
        assert max(raw) > 2048
        assert max(capped) == 2048


class TestStepPlanning:
    def test_exact_microbatch_count_and_budget(self):
        stage_model = SequenceLengthModel.lognormal(mean=6.0, sigma=0.8, cap=2048)
        workload = StepWorkload(microbatch_token_budget=4096)
        plan = plan_step_microbatches(stage_model, workload, microbatches=16, seed=3)
        assert len(plan.batches) == 16
        for batch in plan.batches:
            assert batch
            assert len(batch) * max(batch) <= 4096

    def test_deterministic_in_seed(self):
        stage_model = SequenceLengthModel.lognormal(mean=6.0, sigma=0.8, cap=2048)
        workload = StepWorkload(microbatch_token_budget=4096)
        a = plan_step_microbatches(stage_model, workload, microbatches=8, seed=11)
        b = plan_step_microbatches(stage_model, workload, microbatches=8, seed=11)
        c = plan_step_microbatches(stage_model, workload, microbatches=8, seed=12)
        assert a.batches == b.batches
        assert a.batches != c.batches

    def test_workload_model_overrides_stage_model(self):
        stage_model = SequenceLengthModel.lognormal(mean=6.0, sigma=0.8)
        workload = StepWorkload(
            microbatch_token_budget=4096,
            seq_len_model=SequenceLengthModel.fixed(4096),
        )
        plan = plan_step_microbatches(stage_model, workload, microbatches=4, seed=0)
        assert plan.batches == [[4096]] * 4

    def test_draws_truncate_to_budget(self):
        stage_model = SequenceLengthModel.fixed(8192)
        workload = StepWorkload(microbatch_token_budget=1024)
        plan = plan_step_microbatches(stage_model, workload, microbatches=3, seed=0)
        assert plan.batches == [[1024]] * 3

    def test_negative_seed_is_refused_for_both_kinds(self):
        workload = StepWorkload(microbatch_token_budget=4096)
        for stage_model in (SequenceLengthModel.fixed(1024),
                            SequenceLengthModel.lognormal(mean=6.0, sigma=0.8)):
            with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
                plan_step_microbatches(stage_model, workload, 4, seed=-1)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            MicrobatchPlan(batches=[[]], token_budget_per_batch=10)
        with pytest.raises(ValueError):
            MicrobatchPlan(batches=[[6, 6]], token_budget_per_batch=10)
        with pytest.raises(ValueError):
            StepWorkload(microbatch_token_budget=0)
