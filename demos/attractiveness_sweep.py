#!/usr/bin/env python3
"""When do simple rules stop working? Sweep the asymmetry between locations.

Holding everything else fixed, the two locations' attractiveness pair (a1, a2)
moves from (1, 9) to (9, 1) with a1 + a2 = 10. For every pair the heuristics
get their best possible gamma from the default grid, so what remains is the
structural gap: equal or proportional local splits cannot reproduce the
optimal softmax split when locations differ a lot.
"""

import sys

from choicealloc import DEFAULT_ALPHA_PAIRS, attractiveness_sweep

table = attractiveness_sweep(DEFAULT_ALPHA_PAIRS)
table.to_csv(sys.stdout)

symmetric = table.row("5.0")
extreme = table.row("1.0")
print(f"\nAt a1 = a2 = 5 the tuned rules are near-optimal "
      f"({symmetric['cle%']:.3f}% vs {symmetric['optimal%']:.3f}% optimal).")
print(f"At a1 = 1, a2 = 9 they are roughly 7x worse "
      f"({extreme['celp%']:.2f}% / {extreme['cle%']:.2f}% vs {extreme['optimal%']:.2f}%), "
      f"and CELP no longer beats CLE.")
