"""
Alignment matrices are quadratic losses in disguise
===================================================

The projection step minimizes three geometric losses at once: the gap
between the weighted source mean and the target mean, the distance of each
target to its soft mixture of source class centers, and the spread of all
samples around their class indicators.  Each loss has a closed quadratic
form tr(Aᵀ X M Xᵀ A) for a suitable matrix M built from labels and weights
alone.  This script evaluates both sides of that identity, then shows that
the solver's dim x dim matrix X M Xᵀ can be formed from the factors of the
three terms without building the (n_s + n_t)-square M at all.
"""

import numpy as np

from partialda import AdaptationConfig
from partialda.oracles import build_center_operators, build_m0, build_mc, build_mp, combine
from partialda.subspace import _scatter_factors, gram_matrix

rng = np.random.default_rng(5)

# A small two-domain instance: 3 classes, 6 source and 4 target samples.
d, n_s, n_t, c = 5, 6, 4, 3
x_s = rng.standard_normal((d, n_s))
x_t = rng.standard_normal((d, n_t))
labels = np.array([0, 1, 2, 0, 1, 2])
y_s = np.zeros((n_s, c))
y_s[np.arange(n_s), labels] = 1.0
p = rng.random((c, n_t))
p /= p.sum(axis=0)  # soft target labels, one distribution per column
weights = np.array([1.0, 1.0, 0.2])  # class 2 down-weighted
omega = y_s @ weights  # each source sample carries its class's weight
x = np.hstack([x_s, x_t])
a = rng.standard_normal((d, 2))  # any projection works for the identity


def quad(m):
    return float(np.trace(a.T @ x @ m @ x.T @ a))


# 1. Mean discrepancy: distance between weighted class means of the domains.
m0 = build_m0(omega, n_t)
gap = a.T @ (x_s @ omega / omega.sum() - x_t.mean(axis=1))
print(f"mean-gap loss     direct={float(gap @ gap):.6f}  via M0={quad(m0):.6f}")

# 2. Center reconstruction: each target against its soft mix of source
#    class means.
mp = build_mp(build_center_operators(y_s, p))
means = np.column_stack(
    [x_s[:, y_s[:, k] == 1].mean(axis=1) for k in range(c)]
)
recon = float(np.sum((a.T @ (x_t - means @ p)) ** 2))
print(f"center loss       direct={recon:.6f}  via Mp={quad(mp):.6f}")

# 3. Cluster compactness: residual of all samples outside the span of their
#    class indicators.
mc = build_mc(y_s, p)
yy = np.vstack([y_s, p.T])
q, _ = np.linalg.qr(yy)
resid = float(np.sum((a.T @ (x - (x @ q) @ q.T)) ** 2))
print(f"cluster loss      direct={resid:.6f}  via Mc={quad(mc):.6f}")

# 4. The solver consumes one combined loss; weights steer the trade-off.
#    It only ever needs the d x d scatter X M Xᵀ, which the loop forms from
#    the factors of the three terms instead of the 10 x 10 matrix M.
m_all = combine(m0, mp, mc, alpha_p=1.0, alpha_c=1.0)
print(f"combined loss     sum   ={quad(m0) + quad(mp) + quad(mc):.6f}  "
      f"via M ={quad(m_all):.6f}")
# The loop works on data whitened once per run, W = L⁻¹ X for the Cholesky
# factor L of the constraint side.  The centred whitened data carry a
# data-only part, alpha_c Wc Wcᵀ + alpha_p Wc_t Wc_tᵀ; the soft labels and
# class weights enter through the small factors U (d x (3C + 3)) and N.
# The loop keeps only the whitened targets and class sums, so Wc is
# rebuilt here from L⁻¹, whose transpose is the upper triangle of the
# buffer it shares with the cached pencil, and the centred data.
config = AdaptationConfig(alpha_p=1.0, alpha_c=1.0, k=2)
data = gram_matrix(x_s, y_s, x_t, config)
u, n = _scatter_factors(data, weights, p)
l_inv = np.triu(data.shared).T
wc = l_inv @ (x - x.mean(axis=1, keepdims=True))
wc_t = wc[:, n_s:]
whitened = config.alpha_c * wc @ wc.T + config.alpha_p * wc_t @ wc_t.T + u @ n @ u.T
scatter = np.linalg.solve(l_inv, np.linalg.solve(l_inv, whitened).T)  # L (.) Lᵀ
dense = x @ m_all @ x.T
gap = np.linalg.norm(scatter - dense) / np.linalg.norm(dense)
print(f"factored scatter  X M Xᵀ ({d}x{d}) from factors, relative gap to dense={gap:.1e}  "
      f"loss={float(np.trace(a.T @ scatter @ a)):.6f}")
