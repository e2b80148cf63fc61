"""End-to-end tests of the experiment drivers (one per paper table/figure).

Each test runs the experiment (with reduced parameters where the default
would be slow) and asserts the *qualitative claims of the paper* on the
structured results -- who wins, in which region, by roughly which kind of
factor -- rather than exact numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablation_mechanisms,
    area_overhead,
    avg_performance,
    bound_validation,
    fig2a_packet_size,
    fig2b_placement,
    table1_weights,
    table2_wctt,
    table3_eembc,
)
from repro.experiments.runner import run_experiment
from repro.geometry import Coord
from repro.manycore.cache import CacheConfig
from repro.workloads.eembc import autobench_suite
from repro.workloads.pathplanning import PathPlanningConfig, plan_path

#: A fast 3DPP workload shared by the Figure 2 experiment tests.
FAST_PLANNER = PathPlanningConfig(
    dimensions=(12, 12, 4),
    num_threads=16,
    cycles_per_cell_update=300,
    cycles_per_neighbour_check=80,
    cache=CacheConfig(size_bytes=4 * 1024),
    sweeps_per_phase=4,
)


@pytest.fixture(scope="module")
def fast_workload():
    return plan_path(FAST_PLANNER).workload


class TestTable1:
    def test_reproduces_paper_weights(self):
        rows = {(r.in_port, r.out_port): r for r in table1_weights.run()}
        pme_x = rows[("X+", "PME")]
        pme_y = rows[("Y+", "PME")]
        # Regular round-robin: 0.5 each; WaW: 1/3 vs 2/3 (the paper's Table I).
        assert pme_x.round_robin == pytest.approx(0.5)
        assert pme_y.round_robin == pytest.approx(0.5)
        assert pme_x.waw == pytest.approx(1 / 3)
        assert pme_y.waw == pytest.approx(2 / 3)
        assert rows[("PME", "X-")].waw == pytest.approx(1.0)
        assert rows[("PME", "Y-")].waw == pytest.approx(0.5)

    def test_report_renders(self):
        text = table1_weights.report()
        assert "Table I" in text and "PME" in text


class TestTable2:
    def test_scaling_claims(self):
        rows = table2_wctt.run(sizes=(2, 3, 4, 5))
        regular_max = [r.regular.maximum for r in rows]
        waw_max = [r.waw_wap.maximum for r in rows]
        regular_min = [r.regular.minimum for r in rows]
        # Regular max explodes (factor > 4 per size step beyond the smallest).
        assert regular_max[2] > 4 * regular_max[1]
        assert regular_max[3] > 4 * regular_max[2]
        # WaW+WaP max grows slowly (never more than ~2.5x per step).
        for a, b in zip(waw_max, waw_max[1:]):
            assert b < 2.6 * a
        # Regular minimum is flat once the mesh is at least 3x3.
        assert regular_min[1] == regular_min[2] == regular_min[3]
        # At the largest size tested here the proposal wins by a wide margin.
        assert rows[-1].improvement_at_max > 10

    def test_report_includes_paper_reference(self):
        text = table2_wctt.report(table2_wctt.run(sizes=(2, 3)))
        assert "Paper values" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        # A 6x6 mesh and a 4-benchmark subset keep the test quick while
        # preserving the near/far structure of the grid.
        suite = [p for p in autobench_suite() if p.name in ("a2time", "cacheb", "matrix", "rspeed")]
        return table3_eembc.run(mesh_size=6, benchmarks=suite)

    def test_only_near_memory_cores_get_worse(self, result):
        worse = result.cores_worse_than_regular()
        assert 0 < len(worse) < len(result.cores) / 3
        assert all(core.manhattan(Coord(0, 0)) <= 3 for core in worse)

    def test_worst_slowdown_is_moderate(self, result):
        assert result.worst_slowdown() < 2.5

    def test_far_cores_improve_by_orders_of_magnitude(self, result):
        far_corner = Coord(result.mesh_width - 1, result.mesh_height - 1)
        assert result.normalized[far_corner] < 0.05

    def test_per_benchmark_ratios_recorded(self, result):
        assert set(result.per_benchmark) == {"a2time", "cacheb", "matrix", "rspeed"}

    def test_report_renders_grid(self, result):
        text = table3_eembc.report(result)
        assert "Table III" in text and "y\\x" in text


class TestFig2a:
    def test_waw_wap_wins_and_gap_grows_with_packet_size(self, fast_workload):
        points = fig2a_packet_size.run(workload=fast_workload, packet_sizes=(1, 4, 8))
        assert all(p.improvement > 1.0 for p in points)
        by_label = {p.label: p for p in points}
        # The WaW+WaP estimate is independent of the maximum packet size.
        assert by_label["L1"].waw_wap_wcet == by_label["L4"].waw_wap_wcet == by_label["L8"].waw_wap_wcet
        # The regular design degrades as L grows (L4 -> L8).
        assert by_label["L8"].regular_wcet > by_label["L4"].regular_wcet
        assert by_label["L8"].improvement > by_label["L4"].improvement

    def test_report_renders(self, fast_workload):
        text = fig2a_packet_size.report(fig2a_packet_size.run(workload=fast_workload))
        assert "Figure 2(a)" in text


class TestFig2b:
    def test_placement_sensitivity_claims(self, fast_workload):
        points = fig2b_placement.run(workload=fast_workload)
        assert {p.placement for p in points} == {"P0", "P1", "P2", "P3"}
        # The proposal wins for every placement.
        assert all(p.improvement > 1.0 for p in points)
        spread = fig2b_placement.variability(points)
        # Placement is a first-order factor for the regular design...
        assert spread["regular wNoC max/min across placements"] > 5.0
        # ...and nearly irrelevant for WaW+WaP.
        assert spread["WaW+WaP max/min across placements"] < 1.5

    def test_report_renders(self, fast_workload):
        text = fig2b_placement.report(fig2b_placement.run(workload=fast_workload))
        assert "Figure 2(b)" in text


class TestAveragePerformance:
    def test_slowdown_is_small(self):
        points = avg_performance.run(
            mesh_size=3, profile_scale=0.001, parallel_threads=4,
            parallel_phases=2, parallel_loads_per_phase=20,
            parallel_compute_per_phase=1_000,
        )
        assert len(points) == 2
        for point in points:
            # The paper reports < 1 %; allow a conservative margin for the
            # small simulated configurations used in tests.
            assert abs(point.slowdown_percent) < 6.0

    def test_report_renders(self):
        points = avg_performance.run(
            mesh_size=3, profile_scale=0.0005, parallel_threads=4,
            parallel_phases=1, parallel_loads_per_phase=10,
            parallel_compute_per_phase=500,
        )
        assert "Average performance" in avg_performance.report(points)


class TestAreaOverhead:
    def test_under_five_percent_for_evaluated_system(self):
        points = area_overhead.run()
        evaluated = points[0]
        assert evaluated.overhead_percent < 5.0
        assert evaluated.overhead_percent > 0.0

    def test_report_renders(self):
        assert "< 5 %" in area_overhead.report() or "5 %" in area_overhead.report()


class TestAblation:
    def test_each_mechanism_contributes(self):
        rows = {r.variant: r for r in ablation_mechanisms.run(mesh_size=6)}
        regular = next(v for k, v in rows.items() if k.startswith("regular (L=4, merging"))
        wap_only = next(v for k, v in rows.items() if k.startswith("WaP only"))
        waw_only = next(v for k, v in rows.items() if k.startswith("WaW only"))
        combined = next(v for k, v in rows.items() if k.startswith("WaW + WaP"))
        # Each mechanism alone improves the worst case; together they are best.
        assert wap_only.maximum < regular.maximum
        assert waw_only.maximum < regular.maximum
        assert combined.maximum <= min(wap_only.maximum, waw_only.maximum)

    def test_any_direction_policy_is_more_pessimistic(self):
        rows = {r.variant: r for r in ablation_mechanisms.run(mesh_size=5)}
        merging = next(v for k, v in rows.items() if "merging" in k)
        any_dir = next(v for k, v in rows.items() if "any-direction" in k)
        assert any_dir.maximum >= merging.maximum


class TestBoundValidationExperiment:
    def test_all_flows_safe(self):
        rows = bound_validation.run(mesh_sizes=(3,), congestion_cycles=500)
        assert rows
        assert all(r.safe for r in rows)
        assert {r.design for r in rows} == {"regular", "WaW+WaP"}

    def test_report_renders(self):
        rows = bound_validation.run(mesh_sizes=(3,), congestion_cycles=300)
        assert "Bound validation" in bound_validation.report(rows)


class TestRunner:
    def test_runner_exports_no_experiment_table(self):
        from repro.experiments import runner

        assert runner.__all__ == ["main", "run_experiment"]
        assert not hasattr(runner, "EXPERIMENTS")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table42")

    def test_quick_experiment_runs(self):
        text = run_experiment("table1", quick=True)
        assert "Table I" in text

    def test_cli_list_option(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "table2" in captured.out

    def test_cli_rejects_unknown_experiment(self):
        from repro.experiments.runner import main

        assert main(["bogus"]) == 2
