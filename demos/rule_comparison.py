#!/usr/bin/env python3
"""How much does optimal allocation buy over intuitive splitting rules?

The bundled city scenario protects two hotspots (louvre, eiffel) with one
central resource (campaign) and two local ones (cameras, billboards) under a
budget of 30. Practitioners often split a fraction gamma centrally and the
rest equally (CLE) or proportionally to attractiveness (CELP). This script
prints both against the closed-form optimum, then tunes gamma for each rule.
"""

import sys

from choicealloc import (
    best_gamma,
    kkt_residual,
    paris_scenario,
    rule_comparison_table,
    solve_closed_form,
)

scenario = paris_scenario()

print("Closed-form optimum versus CLE/CELP at gamma in {0.25, 0.5, 0.75}:\n")
table = rule_comparison_table(scenario)
table.to_csv(sys.stdout)

report = solve_closed_form(scenario)
print(f"\nOptimal overall hit probability: {100 * report.evaluation.overall:.2f}%")
print(f"Stationarity certificate: every dB/dx equals {report.multiplier:.6e} "
      f"(kkt residual, the largest relative deviation: "
      f"{kkt_residual(scenario, report.allocation):.1e})")

# A poorly chosen gamma is what ruins the simple rules; tuned over the grid
# {0.01, ..., 0.99} both land on the point nearest beta_central / beta_sum.
print("\nTuned gamma per rule:")
for rule in ("cle", "celp"):
    gamma, evaluation = best_gamma(scenario, rule)
    print(f"  {rule.upper():4s}: gamma* = {gamma:.2f}, overall = {100 * evaluation.overall:.3f}%")
