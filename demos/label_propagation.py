"""
Harmonic label propagation and outlier down-weighting on the graph
==================================================================

Target samples take the affinity-weighted average of their neighbors'
label distributions; targets lean on sources and on each other.  The
closed-form solve is exactly the limit of repeating that averaging, and
down-weighting a class zeroes its columns so no target can inherit it.
"""

import numpy as np

from partialda.alignment import ClassWeights
from partialda.graph import CrossDomainGraph, build_graph, propagate, reweight_graph

# 1. A tiny hand-made graph: two targets that each see one source clearly
#    but also lean on each other.
g = CrossDomainGraph(
    w_ts=np.array([[0.5, 0.0], [0.0, 0.5]]),
    w_tt=np.array([[0.0, 0.5], [0.5, 0.0]]),
    sigma=0.1,
)
y_s = np.eye(2)  # source sample 0 is class 0, sample 1 is class 1

p = propagate(g, y_s)
print("closed-form propagation:")
print(p)

# 2. The same numbers emerge from literally repeating the averaging step.
f = np.zeros((2, 2))
for _ in range(60):
    f = g.w_ts @ y_s + g.w_tt @ f
print("\nafter 60 averaging sweeps:")
print(f.T)
print(f"max difference: {np.abs(p - f.T).max():.2e}")

# 3. On real features the graph comes from cosine affinities.  Class 1
#    exists only on the source side here, and every target still gives it
#    some probability mass.
rng = np.random.default_rng(11)
centers = np.array([[10.0, 0.0], [0.0, 10.0]])
x_s = centers[:, [0, 0, 1, 1]] + rng.normal(0, 1.0, (2, 4))
y = np.zeros((4, 2))
y[[0, 1], 0] = 1.0
y[[2, 3], 1] = 1.0
x_t = centers[:, [0, 0, 0]] + rng.normal(0, 1.0, (2, 3))  # only class 0

g = build_graph(x_s, x_t, sigma=0.5)
p_before = propagate(g, y)
print("\nsoft labels before down-weighting (rows = classes):")
print(np.round(p_before, 3))

# 4. Down-weighting class 1 zeroes its source columns; after the rows are
#    renormalized, its leaked probability mass vanishes entirely.
weights = ClassWeights(weights=np.array([1.0, 0.0]), mask=np.array([1.0, 0.0]))
g_masked, n_dead = reweight_graph(g, weights, np.array([0, 0, 1, 1]))
p_after = propagate(g_masked, y)
print("\nsoft labels after masking class 1:")
print(np.round(p_after, 3))
print(f"rows with no mass left (repaired): {n_dead}")
print(f"class-1 mass before: {p_before[1].sum():.4f}   after: {p_after[1].sum():.4f}")
