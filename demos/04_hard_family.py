"""The structured hard family: high connectivity, high out-degree, yet the
k terminal pairs cannot be linked disjointly.

The construction threads k disjoint tracks through a ladder whose
inter-rung arcs all point backward, so crossing the ladder costs one vertex
per rung.  A large regular reservoir, three shifted tiers behind the track
tails, and a pair of gate vertices (bypass and outlet) push the whole
tournament's connectivity above 2k+1 while each start still reaches only
the interior half that starves its ladder budget.

This script builds the reference instance (k=42, n=1764) and computes:
the 13 wiring rules, one orientation check each, and 5 extra checks;
the k+1 disjoint escape paths; exact cuts for 8 sampled pairs; and the
rule that names one flipped rung arc.  That the instance is not 42-linked
is not computed here: it follows from the paper's proof, given the rules.
"""

from semilink import (build_counterexample, sampled_connectivity_check,
                      verify_construction_rules, verify_property_two)

k, n = 42, 1764
d, layout = build_counterexample(k, n)
print(f"built: {d.n} vertices, {d.arc_count} arcs, "
      f"min out-degree {d.min_out_degree()}")

report = verify_construction_rules(d, layout)
print("wiring rules:", "all pass" if report.all_passed else report.failed())

# The reservoir keeps everything connected: k+1 disjoint escape paths
# from the reservoir to the targets and the outlet, off the grid.
escapes = verify_property_two(d, layout)
print(f"escape paths: {len(escapes)} disjoint, lengths",
      sorted({p.length for p in escapes}))

# Exact cuts for a few sampled pairs: never below 2k+1 = 85.
sample = sampled_connectivity_check(d, target=2 * k + 1, pairs=8, seed=1)
print("sampled pair cuts:", sample.values, "min:", sample.min_observed)

# Flip one arc inside the first rung: the owning rule names the fault.
u, v = int(layout.rung(1)[0]), int(layout.rung(1)[1])
mutant = d.with_flipped_arc(u, v)
bad = verify_construction_rules(mutant, layout).by_name("rung_order")
print("after flipping one rung arc:", bad.witness.describe())
