"""Integration tests for the runner, client, results and report."""

import pytest

from repro.coconut import BenchmarkConfig, BenchmarkRunner, ResultStore
from repro.coconut.report import heatmap, metrics_table, transactions_table, unit_summary
from repro.coconut.results import UnitResult
from repro.faults import FaultPlan
from repro.stream.accumulator import PhaseAccumulator


@pytest.fixture(scope="module")
def fabric_result():
    config = BenchmarkConfig(
        system="fabric", iel="KeyValue", rate_limit=100, scale=0.02,
        repetitions=2, seed=11,
    )
    return BenchmarkRunner().run(config)


class TestRunner:
    def test_unit_runs_both_phases(self, fabric_result):
        assert set(fabric_result.phases) == {"Set", "Get"}

    def test_metrics_are_plausible(self, fabric_result):
        set_phase = fabric_result.phase("Set")
        assert set_phase.mtps.mean > 0
        assert set_phase.mfls.mean > 0
        assert set_phase.received.mean > 0
        assert set_phase.received.mean <= set_phase.expected.mean

    def test_repetition_count(self, fabric_result):
        assert len(fabric_result.phase("Set").repetitions) == 2

    def test_duration_within_listen_window(self, fabric_result):
        # D = t_lrtx - t_fstx can't exceed the listen window.
        config_listen = 330.0 * 0.02
        for rep in fabric_result.phase("Set").repetitions:
            assert rep.duration <= config_listen + 1e-6

    def test_expected_matches_offered_load(self, fabric_result):
        # 4 clients x 100/s x 6 s send window.
        set_phase = fabric_result.phase("Set")
        assert set_phase.expected.mean == pytest.approx(4 * 100 * 6.0, rel=0.05)

    def test_repetitions_are_reproducible(self):
        config = BenchmarkConfig(
            system="bitshares", iel="DoNothing", rate_limit=100, scale=0.02,
            repetitions=1, seed=21, params={"block_interval": 1.0},
        )
        first = BenchmarkRunner().run(config)
        second = BenchmarkRunner().run(config)
        assert first.phase("DoNothing").mtps.mean == second.phase("DoNothing").mtps.mean

    def test_progress_callback_invoked(self):
        lines = []
        config = BenchmarkConfig(
            system="quorum", iel="DoNothing", rate_limit=50, scale=0.02,
            repetitions=1, seed=3,
        )
        BenchmarkRunner(progress=lines.append).run(config)
        assert any("repetition" in line for line in lines)


class TestRunnerStateLeaks:
    """A reused runner must not carry one unit's state into the next."""

    @staticmethod
    def faulted_config():
        config = BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=5, scale=0.1,
            repetitions=1, seed=31,
        )
        send = config.scaled_send
        plan = FaultPlan()
        plan.kill_leader(at=0.25 * send)
        plan.restart("leader", at=0.5 * send)
        config.fault_plan = plan
        return config

    @staticmethod
    def healthy_config():
        return BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=5, scale=0.02,
            repetitions=1, seed=32,
        )

    def test_healthy_run_clears_stale_resilience(self):
        runner = BenchmarkRunner(keep_last_rig=False)
        runner.run(self.faulted_config())
        assert runner.last_resilience  # the faulted unit did report
        runner.run(self.healthy_config())
        assert runner.last_resilience == {}

    def test_run_many_drops_rigs_and_restores_flag(self):
        runner = BenchmarkRunner()  # keep_last_rig defaults to True
        runner.run_many([self.healthy_config()])
        assert runner.last_rig is None
        assert runner.keep_last_rig is True
        runner.run(self.healthy_config())
        assert runner.last_rig is not None


class TestMergeOnce:
    def test_a_fault_touched_phase_merges_its_accumulators_once(self, monkeypatch):
        # The metrics and the resilience report come from one merge, so
        # the retain path copies the phase's latencies once, not twice.
        merges = []
        merged = PhaseAccumulator.merged.__func__

        def counting(cls, accumulators, phase):
            merges.append(phase)
            return merged(cls, accumulators, phase)

        monkeypatch.setattr(PhaseAccumulator, "merged", classmethod(counting))
        runner = BenchmarkRunner(keep_last_rig=False)
        result = runner.run(TestRunnerStateLeaks.faulted_config())
        assert merges == ["DoNothing"]
        metrics = result.phase("DoNothing").repetitions[0]
        assert runner.last_resilience["DoNothing"].to_dict() == metrics.resilience


class TestResultStore:
    def test_round_trip(self, fabric_result, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(fabric_result)
        assert path.exists()
        loaded = store.load(fabric_result.label)
        assert loaded.label == fabric_result.label
        assert loaded.phase("Set").mtps.mean == pytest.approx(
            fabric_result.phase("Set").mtps.mean
        )
        assert store.labels() == [path.stem]

    def test_runner_persists_when_given_store(self, tmp_path):
        store = ResultStore(tmp_path)
        config = BenchmarkConfig(
            system="fabric", iel="DoNothing", rate_limit=50, scale=0.02,
            repetitions=1, seed=5,
        )
        result = BenchmarkRunner(store=store).run(config)
        assert store.labels() == [store.path_for(result.label).stem]

    def test_distinct_labels_get_distinct_paths(self, tmp_path):
        # Sanitisation alone would map both to rate_100.json and the
        # second save would silently overwrite the first.
        store = ResultStore(tmp_path)
        assert store.path_for("rate:100") != store.path_for("rate_100")

    def test_safe_labels_keep_pretty_names(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.path_for("fabric-DoNothing-rl200").stem == "fabric-DoNothing-rl200"

    def test_unsafe_label_round_trips(self, fabric_result, tmp_path):
        store = ResultStore(tmp_path)
        relabelled = UnitResult.from_dict(fabric_result.to_dict())
        relabelled.label = "fabric:KeyValue rl=100"
        store.save(relabelled)
        assert store.load("fabric:KeyValue rl=100").label == "fabric:KeyValue rl=100"


class TestReport:
    def test_metrics_table_renders(self, fabric_result):
        table = metrics_table([("RL=400", fabric_result.phase("Set"))])
        assert "MTPS" in table and "95% CI" in table and "RL=400" in table

    def test_transactions_table_renders(self, fabric_result):
        table = transactions_table([("RL=400", fabric_result.phase("Set"))])
        assert "Received NoT" in table and "Expected NoT" in table

    def test_unit_summary_mentions_phases(self, fabric_result):
        text = unit_summary(fabric_result)
        assert "Set" in text and "Get" in text

    def test_heatmap_marks_failures(self, fabric_result):
        grid = heatmap(
            {("Set", "Fabric"): fabric_result.phase("Set")},
            row_labels=["Set", "Get"],
            column_labels=["Fabric", "Quorum"],
        )
        assert "MTPS=" in grid
        assert "FAIL" in grid  # the missing cells
