"""Brute-force oracles for the test suite.

Most of this is written with explicit Python loops and scalar math,
independent of the package's vectorized code paths, so tests can compare
two genuinely different routes to the same quantity. The ``*_chain``
functions are the exception: they are the per-op autodiff chains that the
package's fused tape nodes replaced, kept as references. On arrays they run
the numpy operations of the fused forwards in the same order, so the two
must agree bit for bit. ``gaussian_gram_chain`` is the one chain that
agrees only up to rounding: the package builds the Gram from another
arithmetic route (one matmul of augmented rows). ``kmeans_loop`` is the
plain Lloyd loop that ``gdu.heuristics.kmeans`` replaced, kept as its
bit-exact reference.
"""

import math

import numpy as np

from gdu import autodiff as ad
from gdu.heuristics import _MAX_LLOYD_ITER, ClusteringResult, _kmeans_pp_init
from gdu.kernel import squared_distances


def kernel_value(x, y, sigma):
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x, y))
    return math.exp(-d2 / (2.0 * sigma**2))


def kme_inner_brute(points_a, points_b, sigma):
    total = 0.0
    for a in points_a:
        for b in points_b:
            total += kernel_value(a, b, sigma)
    return total / (len(points_a) * len(points_b))


def mmd_sq_brute(points_a, points_b, sigma):
    return (
        kme_inner_brute(points_a, points_a, sigma)
        - 2.0 * kme_inner_brute(points_a, points_b, sigma)
        + kme_inner_brute(points_b, points_b, sigma)
    )


def omega_ols_brute(X, beta, bases, sigma):
    """Literal RKHS-norm expansion of the reconstruction error."""
    b = len(X)
    total = 0.0
    for i in range(b):
        xi = [X[i]]
        term = kme_inner_brute(xi, xi, sigma)
        for j, basis in enumerate(bases):
            term -= 2.0 * beta[i][j] * kme_inner_brute(xi, basis, sigma)
        for j, basis_j in enumerate(bases):
            for l, basis_l in enumerate(bases):
                term += (
                    beta[i][j]
                    * beta[i][l]
                    * kme_inner_brute(basis_j, basis_l, sigma)
                )
        total += term
    return total / b


def mlp_forward_brute(x, weights, biases, nonlinearity):
    """Loop-based MLP forward pass; nonlinearity between layers only."""
    out = [float(v) for v in x]
    for layer_idx, (w, b) in enumerate(zip(weights, biases)):
        nxt = []
        for col in range(len(b)):
            acc = float(b[col])
            for row in range(len(out)):
                acc += out[row] * float(w[row][col])
            nxt.append(acc)
        if layer_idx < len(weights) - 1:
            if nonlinearity == "relu":
                nxt = [max(v, 0.0) for v in nxt]
            elif nonlinearity == "tanh":
                nxt = [math.tanh(v) for v in nxt]
        out = nxt
    return np.array(out)


def fd_gradient(fn, arrays, step=1e-5):
    """Central finite differences of ``fn()`` w.r.t. each array in ``arrays``.

    ``fn`` must read the arrays in place (they are perturbed and restored).
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = fn()
            arr[idx] = orig - step
            f_minus = fn()
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * step)
            it.iternext()
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Worst relative disagreement over coordinates with non-tiny gradients."""
    worst = 0.0
    for name in analytic:
        a = np.asarray(analytic[name]).ravel()
        n = np.asarray(numeric[name]).ravel()
        for av, nv in zip(a, n):
            scale = max(abs(av), abs(nv))
            if scale <= floor:
                continue
            worst = max(worst, abs(av - nv) / scale)
    return worst


def dominating_witness_quadratic(risks, idx):
    """All-pairs dominance scan: index of a hypothesis dominating ``idx``.

    ``g`` dominates ``f`` iff risks are <= everywhere and < somewhere.
    Returns None when ``idx`` is Pareto-optimal.
    """
    risks = np.asarray(risks, dtype=float)
    target = risks[idx]
    for g in range(risks.shape[0]):
        if g == idx:
            continue
        if np.all(risks[g] <= target) and np.any(risks[g] < target):
            return g
    return None


# Basis Gram matrices routinely have near-tied leading eigenvalues, where
# power iteration converges slowly; the cap and threshold are sized so the
# estimate agrees with a dense eigensolver to well below 1e-8 on M <= 10.
_SRIP_MAX_ITER = 20_000
_SRIP_REL_TOL = 1e-13


def srip_power_iteration(A):
    """Spectral norm of a symmetric matrix by power iteration.

    Iterates simultaneously from deterministic starts (normalized all-ones
    plus every coordinate axis, since the all-ones vector can be orthogonal
    to the dominant eigenvector) and returns the largest estimate
    ``||A u||``, which is robust to sign-symmetric spectra where the
    iterate itself oscillates. Stops when every start's estimate has
    stabilized to relative changes below 1e-13, or after 20,000 iterations.
    """
    A = np.asarray(A, dtype=np.float64)
    m = A.shape[0]
    U = np.concatenate([np.full((m, 1), 1.0 / np.sqrt(m)), np.eye(m)], axis=1)
    estimates = np.linalg.norm(A @ U, axis=0)
    for _ in range(_SRIP_MAX_ITER):
        V = A @ U
        norms = np.linalg.norm(V, axis=0)
        alive = norms > 0.0
        if not alive.any():
            break
        U = np.where(alive, V / np.where(alive, norms, 1.0), U)
        new_estimates = np.linalg.norm(A @ U, axis=0)
        done = np.abs(new_estimates - estimates) <= _SRIP_REL_TOL * np.maximum(
            new_estimates, 1e-300
        )
        estimates = new_estimates
        if done.all():
            break
    return float(estimates.max())


# -- op chains replaced by fused tape nodes ------------------------------------


def gaussian_gram_chain(X, Y, sigma):
    """Gaussian Gram from explicit squared distances, one full-size array per op."""
    return np.exp(squared_distances(X, Y) / (-2.0 * sigma**2))


def cross_entropy_chain(logits, labels):
    """Mean cross-entropy of (b, C) logits rows, one op per tape node."""
    labels = np.asarray(labels, dtype=np.int64)
    b = ad.value_of(logits).shape[0]
    z = logits - ad.detach(ad.amax(logits, axis=1, keepdims=True))
    lse = ad.log(ad.summation(ad.exp(z), axis=1))
    picked = z[np.arange(b), labels]
    return ad.mean(lse - picked)


def kernel_softmax_chain(scores, kappa):
    """Row-wise softmax of ``kappa * scores`` with max-subtraction."""
    z = scores * kappa
    z = z - ad.detach(ad.amax(z, axis=1, keepdims=True))
    e = ad.exp(z)
    return e / ad.summation(e, axis=1, keepdims=True)


def similarity_chain(a, norms, mode):
    """CS or MMD similarity scores between unit-norm feature maps and each basis."""
    if mode == "CS":
        return a / ad.sqrt(ad.reshape(norms, (1, -1)))
    return -(1.0 - 2.0 * a + ad.reshape(norms, (1, -1)))


def gate_chain(a, norms, mode, kappa):
    """Gating rows from embedding inner products (see ``_gate_from_inners``)."""
    if mode == "PROJECTION":
        return a / ad.reshape(norms, (1, -1))
    return kernel_softmax_chain(similarity_chain(a, norms, mode), kappa)


def ensemble_chain(X, weights, bias, beta, activation):
    """Gate-weighted sum of the machines' outputs (see ``forward_batch``)."""
    e, m, c = ad.value_of(weights).shape
    b = ad.value_of(X).shape[0]
    out = X @ ad.reshape(weights, (e, -1)) + ad.reshape(bias, (-1,))
    if activation == "tanh":
        out = ad.tanh(out)
    out = ad.reshape(out, (b, m, c))
    return ad.summation(ad.reshape(beta, (b, m, 1)) * out, axis=1)


# -- loops replaced by vectorized code -----------------------------------------


def kmeans_loop(X, k, seed, check_monotone=False, trace=None):
    """Lloyd's loop with k-means++ seeding, one mask and one mean per cluster.

    The bit-exact reference for ``gdu.heuristics.kmeans``: for the same
    arguments both return the same assignments, centroids and inertia bit
    for bit, after the same number of iterations. A ``trace`` dict receives
    ``iterations`` (loop passes, the last one included), ``converged``
    (whether the assignments reached a fixpoint) and ``reseeds`` (empty
    clusters re-seeded from the farthest point).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n rows, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, rng)
    assignments = np.full(n, -1)
    last_inertia = np.inf
    iterations, converged, reseeds = 0, False, 0
    for _ in range(_MAX_LLOYD_ITER):
        iterations += 1
        d2 = squared_distances(X, centroids)
        new_assignments = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), new_assignments].sum())
        if check_monotone:
            assert inertia <= last_inertia + 1e-9, "inertia increased"
        last_inertia = inertia
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        for j in range(k):
            members = X[assignments == j]
            if len(members) == 0:
                farthest = int(np.argmax(d2[np.arange(n), assignments]))
                centroids[j] = X[farthest]
                assignments[farthest] = j
                reseeds += 1
            else:
                centroids[j] = members.mean(axis=0)
    d2 = squared_distances(X, centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    if trace is not None:
        trace.update(iterations=iterations, converged=converged, reseeds=reseeds)
    return ClusteringResult(assignments, centroids, inertia)
