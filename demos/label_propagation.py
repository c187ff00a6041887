"""
Harmonic label propagation and outlier down-weighting on the graph
==================================================================

Target samples take the affinity-weighted average of their neighbors'
label distributions; targets lean on sources and on each other.  The
closed-form solve is exactly the limit of repeating that averaging, and
down-weighting a class zeroes its columns so no target can inherit it.
"""

import numpy as np

from partialda.graph import propagate_labels

# 1. A tiny graph: sources s0, s1 and targets t0, t1 at 35 degree steps on
#    a circle (s0, t0, t1, s1).  At sigma = 0.02 only neighbors connect, so
#    each target sees one source clearly but also leans on the other target.
angles = np.deg2rad([0.0, 35.0, 70.0, 105.0])
points = np.vstack([np.cos(angles), np.sin(angles)])
z_s, z_t = points[:, [0, 3]], points[:, [1, 2]]
sigma = 0.02
y_s = np.eye(2)  # source sample 0 is class 0, sample 1 is class 1

p, _ = propagate_labels(z_s, z_t, sigma, y_s)
print("closed-form propagation:")
print(p)

# 2. The same numbers emerge from literally repeating the averaging step on
#    the graph, written out here: Gaussian affinities of the cosine
#    distances, no self loops, rows normalized over sources and targets.
def affinities(a, b):
    cos = (a / np.linalg.norm(a, axis=0)).T @ (b / np.linalg.norm(b, axis=0))
    return np.exp(-((1.0 - cos) / sigma) ** 2)


w_ts = affinities(z_t, z_s)
w_tt = affinities(z_t, z_t)
np.fill_diagonal(w_tt, 0.0)
rows = w_ts.sum(axis=1) + w_tt.sum(axis=1)
w_ts, w_tt = w_ts / rows[:, None], w_tt / rows[:, None]
print("\nW_ts (targets x sources) and W_tt (targets x targets):")
print(np.round(w_ts, 3))
print(np.round(w_tt, 3))

f = np.zeros((2, 2))
for _ in range(60):
    f = w_ts @ y_s + w_tt @ f
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

p_before, _ = propagate_labels(x_s, x_t, 0.5, y)
print("\nsoft labels before down-weighting (rows = classes):")
print(np.round(p_before, 3))

# 4. Down-weighting class 1 zeroes its source columns; after the rows are
#    renormalized, its leaked probability mass vanishes entirely.  The graph
#    takes the class weights the adaptation loop puts on the alignment loss,
#    and each source sample carries its class's; a weight of 0 masks a class.
weights = np.array([1.0, 0.0])
print(f"\nclass weights: {weights}, so source samples weigh {y @ weights}")
p_after, n_dead = propagate_labels(x_s, x_t, 0.5, y, weights)
print("\nsoft labels after masking class 1:")
print(np.round(p_after, 3))
print(f"rows with no mass left (repaired): {n_dead}")
print(f"class-1 mass before: {p_before[1].sum():.4f}   after: {p_after[1].sum():.4f}")
