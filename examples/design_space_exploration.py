"""Reproduce the Sec. 7 methodology: sweep AxBxC_MxN, pick a design.

Enumerates every TPE configuration meeting the 4 TOPS peak constraint
(the DSE engine restricted to the paper's axes), evaluates PPA on the
reference workload, extracts the area-vs-power Pareto frontier, selects
the lowest-power point, and emits the structural netlist the paper's
RTL generator would hand to the EDA flow.

Run:  python examples/design_space_exploration.py
"""

from repro.design import (
    SEC7_AXES,
    DSESpace,
    evaluate_points,
    generate_structure,
    pareto_frontier_3d,
    select_lowest_power,
)


def main() -> None:
    space = DSESpace(SEC7_AXES)
    print(f"{len(space)} feasible time-unrolled design points at "
          f"4 TOPS peak (2048 MACs)")
    evaluations = list(evaluate_points(space.points, jobs=1).values())
    frontier = pareto_frontier_3d(evaluations,
                                  objectives=("power_mw", "area_mm2"))
    print(f"\narea-vs-power frontier ({len(frontier)} points):")
    print(f"{'design':<14} {'power mW':>9} {'area mm2':>9} {'energy uJ':>10}")
    for e in frontier:
        print(f"{e.notation:<14} {e.power_mw:>9.1f} "
              f"{e.area_mm2:>9.2f} {e.energy_uj:>10.1f}")

    best = select_lowest_power(evaluations)
    paper = next(e for e in evaluations if e.notation == "8x4x4_8x8")
    print(f"\nselected: {best.notation} "
          f"({best.power_mw:.0f} mW, {best.area_mm2:.2f} mm2)")
    print(f"paper's 8x4x4_8x8: {paper.power_mw:.0f} mW, "
          f"{paper.area_mm2:.2f} mm2 "
          f"({paper.energy_uj / best.energy_uj - 1:+.1%} energy vs best)")

    print("\nstructural netlist of the paper's design point:")
    print(generate_structure(space[paper.uid].design))


if __name__ == "__main__":
    main()
