"""Tests for the Sec. 7 design-space exploration."""

import pytest

from repro.design import (
    SEC7_AXES,
    DesignPoint,
    DSEEvaluation,
    DSESpace,
    enumerate_design_space,
    evaluate_points,
    generate_structure,
    pareto_frontier_3d,
    select_lowest_power,
)
from repro.design.dse import _dominates
from repro.design.space import TARGET_MACS
from repro.eval import sec7_design_space

#: The (power, area) plane Sec. 7 keeps its frontier on.
POWER_AREA = ("power_mw", "area_mm2")

SEC7 = DSESpace(SEC7_AXES)


class TestDesignPoint:
    def test_notation(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        assert p.notation == "8x4x4_8x8"

    def test_hardware_macs_time_unrolled(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        assert p.hardware_macs == 2048

    def test_hardware_macs_dot_product(self):
        p = DesignPoint(tpe_a=4, tpe_c=4, rows=4, cols=8,
                        time_unrolled=False)
        assert p.hardware_macs == 2048

    def test_clock_derate_for_large_tpe(self):
        paper = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        big = DesignPoint(tpe_a=16, tpe_c=16, rows=2, cols=4)
        assert paper.clock_ghz == 1.0
        assert big.clock_ghz < 1.0
        assert not big.meets_throughput

    def test_paper_point_meets_throughput(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        assert p.peak_tops == pytest.approx(4.096, rel=1e-6)
        assert p.meets_throughput


class TestEnumeration:
    def test_all_points_hit_mac_budget(self):
        points = list(enumerate_design_space())
        assert points
        assert all(p.hardware_macs == TARGET_MACS for p in points)
        assert all(p.meets_throughput for p in points)

    def test_paper_point_in_space(self):
        notations = {p.notation for p in enumerate_design_space()}
        assert "8x4x4_8x8" in notations

    def test_dot_product_space(self):
        points = list(enumerate_design_space(time_unrolled=False))
        assert all(p.hardware_macs == TARGET_MACS for p in points)
        assert "4x4x4_4x8" in {p.notation for p in points}


class TestEvaluationAndSelection:
    @pytest.fixture(scope="class")
    def evaluations(self):
        assert [p.design for p in SEC7.points] == list(
            enumerate_design_space())
        return list(evaluate_points(SEC7.points, jobs=1).values())

    def test_paper_tpe_shape_wins(self, evaluations):
        """Sec. 7: the sweep selects the time-unrolled 8x4x4 TPE (the
        paper's grid is 8x8; 4x16 evaluates within a fraction of a
        percent — see EXPERIMENTS.md)."""
        best = select_lowest_power(evaluations)
        design = SEC7[best.uid].design
        assert (design.tpe_a, design.tpe_c) == (8, 4)
        assert design.time_unrolled

    def test_paper_grid_close_to_best(self, evaluations):
        """The paper's exact 8x8 grid lands within ~10% of our model's
        best 8x4x4 grid (4x16): the gap is the AB-vs-WB per-access cost
        asymmetry acting on tile reuse, see EXPERIMENTS.md."""
        best = select_lowest_power(evaluations)
        paper = next(e for e in evaluations
                     if e.notation == "8x4x4_8x8")
        assert paper.energy_uj <= best.energy_uj * 1.12

    def test_tpe_beats_scalar_like_points(self, evaluations):
        """Bigger TPEs increase reuse: small-TPE points burn more power."""
        best = select_lowest_power(evaluations)
        small = [e for e in evaluations
                 if SEC7[e.uid].design.tpe_a * SEC7[e.uid].design.tpe_c
                 <= 2]
        if small:
            assert min(e.power_mw for e in small) > best.power_mw

    def test_frontier_is_nondominated(self, evaluations):
        def plane(e):
            return (e.power_mw, e.area_mm2)

        frontier = pareto_frontier_3d(evaluations, objectives=POWER_AREA)
        assert frontier
        for a in frontier:
            assert not any(_dominates(plane(b), plane(a))
                           for b in evaluations)

    def test_selection_respects_area_budget(self, evaluations):
        with pytest.raises(ValueError):
            select_lowest_power(evaluations, area_budget_mm2=0.1)


class TestSec7Pin:
    #: ``sec7_design_space(top=38)`` rows (all 38 feasible points) as
    #: the separate ``evaluate_point`` / 2-D ``pareto_frontier`` path
    #: produced them before Sec. 7 moved onto the DSE evaluator.
    ROWS = [
        ["8x4x4_4x16", 389.4, 3.7, 87.9, "yes", "<-- selected"],
        ["4x4x8_8x8", 390.6, 3.72, 88.2, "no", ""],
        ["4x4x4_8x16", 393.1, 3.73, 88.8, "no", ""],
        ["8x4x4_8x8", 399.4, 3.7, 90.2, "no", ""],
        ["4x4x8_16x4", 400.6, 3.72, 90.5, "no", ""],
        ["4x4x4_16x8", 403.1, 3.73, 91.0, "no", ""],
        ["2x4x8_16x8", 405.5, 3.76, 91.6, "no", ""],
        ["2x4x4_16x16", 407.9, 3.77, 92.1, "no", ""],
        ["4x4x2_8x32", 407.8, 3.74, 92.2, "no", ""],
        ["8x4x2_8x16", 414.2, 3.72, 93.6, "no", ""],
        ["4x4x2_16x16", 417.9, 3.74, 94.4, "no", ""],
        ["2x4x4_32x8", 417.8, 3.77, 94.4, "no", ""],
        ["2x4x2_16x32", 422.7, 3.78, 95.5, "no", ""],
        ["2x4x2_32x16", 432.7, 3.78, 97.8, "no", ""],
        ["4x4x8_4x16", 448.6, 3.72, 101.3, "no", ""],
        ["2x4x8_8x16", 463.4, 3.76, 104.7, "no", ""],
        ["1x4x8_32x8", 464.8, 3.84, 105.0, "no", ""],
        ["2x4x4_8x32", 465.8, 3.77, 105.2, "no", ""],
        ["1x4x4_32x16", 467.3, 3.85, 105.6, "no", ""],
        ["8x4x1_8x32", 473.6, 3.75, 107.0, "no", ""],
        ["4x4x1_16x32", 477.3, 3.77, 107.8, "no", ""],
        ["1x4x2_32x32", 482.0, 3.87, 109.0, "no", ""],
        ["2x4x1_16x64", 481.9, 3.82, 109.0, "no", ""],
        ["8x4x4_16x4", 475.1, 3.7, 109.5, "no", ""],
        ["2x4x1_32x32", 492.0, 3.82, 111.2, "no", ""],
        ["1x4x2_64x16", 491.9, 3.87, 111.2, "no", ""],
        ["8x4x2_16x8", 489.7, 3.72, 112.9, "no", ""],
        ["4x4x2_32x8", 493.3, 3.74, 113.7, "no", ""],
        ["1x4x8_16x16", 522.9, 3.84, 118.1, "no", ""],
        ["1x4x4_16x32", 525.2, 3.85, 118.7, "no", ""],
        ["1x4x2_16x64", 539.8, 3.87, 122.1, "no", ""],
        ["1x4x1_32x64", 541.2, 3.9, 122.4, "no", ""],
        ["1x4x1_64x32", 551.2, 3.9, 124.7, "no", ""],
        ["8x4x1_16x16", 547.9, 3.75, 126.3, "no", ""],
        ["4x4x1_32x16", 551.5, 3.77, 127.2, "no", ""],
        ["2x4x1_64x16", 566.1, 3.82, 130.6, "no", ""],
        ["1x4x8_8x32", 677.7, 3.84, 153.1, "no", ""],
        ["8x4x1_32x8", 716.8, 3.75, 171.9, "no", ""],
    ]

    def test_rows_pinned(self):
        result = sec7_design_space(top=38)
        assert result.rows == self.ROWS
        assert "38 feasible points" in result.notes[0]
        assert "grid 4x16" in result.notes[0]


class TestRtlGen:
    def test_structure_contains_hierarchy(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        text = generate_structure(p)
        assert "8x4x4_8x8" in text
        assert "64x tpe" in text
        assert "32x dp1m4" in text
        assert "total hardware MACs: 2048" in text
        assert "dap_array" in text

    def test_dot_product_unit_name(self):
        p = DesignPoint(tpe_a=4, tpe_c=4, rows=4, cols=8,
                        time_unrolled=False)
        text = generate_structure(p)
        assert "dp4m8" in text
        assert "macs=4" in text

    def test_deterministic(self):
        p = DesignPoint(tpe_a=2, tpe_c=2, rows=16, cols=16)
        assert generate_structure(p) == generate_structure(p)


def _ppa(tag: int, power: float, area: float, energy: float = 1.0,
         cycles: int = 100) -> DSEEvaluation:
    """Synthetic evaluation with a unique uid per ``tag`` (the tiebreak
    key) — lets selection properties be tested on exact objective
    values instead of whatever the cost model produces."""
    return DSEEvaluation(
        uid=f"p{tag:02d}", notation=f"1x4x1_1x{tag}", time_unrolled=True,
        weight_nnz=4, a_nnz=4, sram_mb=2.5, dram_gbps=None, tech="16nm",
        power_mw=float(power), area_mm2=float(area), cycles=cycles,
        energy_uj=float(energy))


class TestSelectionRule:
    """The Sec. 7 rule is lowest *power* within the area budget — the
    ISSUE-7 fix (it previously minimized energy, a different ordering
    whenever designs trade runtime against draw)."""

    def test_minimizes_power_not_energy(self):
        # Lower draw but longer runtime => more energy. The paper's
        # rule picks it anyway.
        frugal = _ppa(1, power=100.0, area=2.0, energy=500.0)
        hasty = _ppa(2, power=400.0, area=2.0, energy=50.0)
        assert select_lowest_power([hasty, frugal]) == frugal

    def test_area_budget_excludes_lower_power_designs(self):
        small = _ppa(1, power=300.0, area=1.0)
        big = _ppa(2, power=100.0, area=10.0)
        assert select_lowest_power([small, big]) == big
        assert select_lowest_power([small, big],
                                   area_budget_mm2=5.0) == small

    def test_power_ties_break_toward_smaller_die(self):
        lean = _ppa(1, power=100.0, area=1.0)
        bulky = _ppa(2, power=100.0, area=2.0)
        assert select_lowest_power([bulky, lean]) == lean

    def test_selection_is_enumeration_order_independent(self):
        evals = [_ppa(i, power=100.0 + (i % 3), area=2.0 + (i % 2))
                 for i in range(8)]
        picks = {select_lowest_power(list(reversed(evals))),
                 select_lowest_power(evals),
                 select_lowest_power(sorted(evals,
                                            key=lambda p: p.area_mm2))}
        assert len(picks) == 1
