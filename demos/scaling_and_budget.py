#!/usr/bin/env python3
"""Special events: all locations get more attractive. What changes, what doesn't?

Scaling every attractiveness by k (think of a festival day) leaves the block
structure of the optimum untouched: the central total, the local total, and
each local resource's total stay fixed, only the split across locations tilts
toward the hotter location. The hit probability, however, grows quickly, and
holding it at the quiet-day level requires a budget that grows exponentially
in k.
"""

import sys

from choicealloc import (
    attractiveness_scaling_table,
    budget_for_target,
    paris_scenario,
    solve_closed_form,
)

factors = (1.0, 1.1, 1.2, 1.3, 1.4)

print("Optimal allocations as attractiveness scales by k:\n")
table = attractiveness_scaling_table(factors)
table.to_csv(sys.stdout)

# The quiet-day optimum achieves ~0.92%; find the budget that restores it.
baseline = solve_closed_form(paris_scenario()).evaluation.overall
print(f"\nBudget needed to keep the overall probability at {100 * baseline:.2f}%:")
for k in factors:
    required = budget_for_target(paris_scenario(k), baseline)
    print(f"  k = {k:.1f}: budget = {required:6.2f}  (was 30)")
