"""Brute-force oracles for the test suite.

Most of this is written with explicit Python loops and scalar math,
independent of the package's vectorized code paths, so tests can compare
two genuinely different routes to the same quantity. The ``*_chain``
functions are the exception: they are the per-op autodiff chains that the
package's fused tape nodes replaced, kept as references, from the loss, the
gate and the ensemble to the extractor (``mlp_chain``) and the regularizers
(``ols_chain``, ``l1_chain``, ``orth_chain``). They are built from the
generic reverse-mode ops (``add``, ``mul``, ``summation``, ``amax``,
``spectral_norm_sym``, ...), which live here since no package code needs
them: ``gdu.autodiff`` keeps only the tape. On arrays the chains run the
numpy operations of the fused forwards in the same order, so the two must
agree bit for bit. ``gaussian_gram_chain`` is the one chain that
agrees only up to rounding: the package builds the Gram from another
arithmetic route (one matmul of augmented rows). ``kmeans_loop`` is the
plain Lloyd loop that ``gdu.heuristics.kmeans`` replaced, kept as its
bit-exact reference, over ``kmeans_pp_init``, the one-shot k-means++
seeding that the package's growing seeding replaced. It writes out the
distances as ``kmeans`` lays them out, ``(||x||^2 + ||c||^2) - 2 C X^T``
in (k, n) over a contiguous copy of X^T, not as
``squared_distances(X, C)``: the BLAS rounds the two layouts of the
product differently on some shapes, and the contiguous (k, n) one is the
fast one. ``row_block_pairs`` is the median heuristic's pair loop, the
exact reference of ``gdu.kernel._upper_squared_distances``.
``train_loop`` is the training loop that made its state fresh on every
step, kept as the bit-exact reference of
``gdu.training.train``. ``three_node_gradients`` builds the objective with
a separate kernel node for the gate's inner products, the basis norms and
the basis Gram (``block_means_node`` and ``diagonal_block_means_node``,
the package's tensor paths before one ``gdu.kernel._kernel_statistics``
node gave a step all three). It is the exact reference of a step that
does not read the basis Gram, and one within rounding of a step that
does. ``bayes_accuracy_loop`` scores the Bayes classifier row by row in
scalar math.
"""

import math

import numpy as np

from gdu.autodiff import Tensor, is_tensor, value_of
from gdu.heuristics import _MAX_LLOYD_ITER, ClusteringResult, _distances_to
from gdu.kernel import (
    _augmented,
    _check_feature_dims,
    _gaussian_gram,
    _rows,
    squared_distances,
)
from gdu.layer import UNIFORM, _gate_from_inners, forward_batch
from gdu.regularization import _add_regularizers, _reads_basis_gram
from gdu.training import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    NonFiniteGradientError,
    TraceRow,
    TrainingDivergedError,
    TrainTrace,
    _build_objective,
    _epoch_metrics,
    _graph_model,
    _pack_parameters,
    _trained_part,
    accuracy,
    cross_entropy_mean,
    fe_forward,
)


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


# -- the generic reverse-mode ops -------------------------------------------------
#
# The per-op library that the package's fused nodes replaced. Each function
# takes arrays, scalars or ``gdu.autodiff.Tensor`` operands; with no tensor
# among them it evaluates eagerly and returns numpy values, otherwise it
# records one tape node whose backward is the op's own derivative. Binary
# ops broadcast, and ``_unbroadcast`` sums a gradient back to its operand's
# shape.


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` to ``shape`` by summing broadcast axes."""
    g = np.asarray(g)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, da, db):
    a_t, b_t = is_tensor(a), is_tensor(b)
    av, bv = value_of(a), value_of(b)
    if not a_t and not b_t:
        return fwd(av, bv)

    def bw(g):
        if a_t:
            a._accumulate(_unbroadcast(da(g, av, bv), av.shape))
        if b_t:
            b._accumulate(_unbroadcast(db(g, av, bv), bv.shape))

    return Tensor(fwd(av, bv), tuple(t for t in (a, b) if is_tensor(t)), bw)


def _unary(a, fwd, da):
    if not is_tensor(a):
        return fwd(value_of(a))
    out_data = fwd(a.data)
    return Tensor(out_data, (a,), lambda g: a._accumulate(da(g, a.data, out_data)))


def add(a, b):
    return _binary(a, b, lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g)


def sub(a, b):
    return _binary(a, b, lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g)


def mul(a, b):
    return _binary(a, b, lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a)


def div(a, b):
    return _binary(
        a, b, lambda a, b: a / b, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)
    )


def neg(a):
    return _unary(a, lambda a: -a, lambda g, a, out: -g)


def matmul(a, b):
    """Matrix product of 1-D or 2-D operands."""
    a_t, b_t = is_tensor(a), is_tensor(b)
    av, bv = value_of(a), value_of(b)
    if not a_t and not b_t:
        return av @ bv

    # A 1-D operand contributes an outer product; for a dot product ``g`` is
    # 0-d and the outer product reduces to ``g * v``.
    def bw(g):
        if a_t:
            a._accumulate(g @ bv.T if bv.ndim == 2 else np.multiply.outer(g, bv))
        if b_t:
            b._accumulate(av.T @ g if av.ndim == 2 else np.multiply.outer(av, g))

    return Tensor(av @ bv, tuple(t for t in (a, b) if is_tensor(t)), bw)


def exp(x):
    return _unary(x, np.exp, lambda g, a, out: g * out)


def log(x):
    return _unary(x, np.log, lambda g, a, out: g / a)


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, a, out: g * 0.5 / out)


def tanh(x):
    return _unary(x, np.tanh, lambda g, a, out: g * (1.0 - out * out))


def relu(x):
    return _unary(x, lambda a: np.maximum(a, 0.0), lambda g, a, out: g * (a > 0.0))


def absolute(x):
    return _unary(x, np.abs, lambda g, a, out: g * np.sign(a))


def maximum(a, b):
    """Elementwise maximum; the gradient splits evenly on exact ties."""

    def da(g, av, bv):
        return g * np.where(av > bv, 1.0, np.where(av == bv, 0.5, 0.0))

    def db(g, av, bv):
        return g * np.where(bv > av, 1.0, np.where(av == bv, 0.5, 0.0))

    return _binary(a, b, np.maximum, da, db)


def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, in_shape)


def summation(x, axis=None, keepdims=False):
    out = np.sum(value_of(x), axis=axis, keepdims=keepdims)
    if not is_tensor(x):
        return out
    return Tensor(
        out, (x,), lambda g: x._accumulate(_expand_reduced(g, x.data.shape, axis, keepdims))
    )


def mean(x, axis=None, keepdims=False):
    shape = value_of(x).shape
    count = math.prod(shape) if axis is None else shape[axis]
    return div(summation(x, axis=axis, keepdims=keepdims), float(count))


def amax(x, axis=None, keepdims=False):
    """Maximum reduction; the gradient splits evenly across tied maxima."""
    out_data = np.max(value_of(x), axis=axis, keepdims=keepdims)
    if not is_tensor(x):
        return out_data

    def bw(g):
        full_max = _expand_reduced(out_data, x.data.shape, axis, keepdims)
        mask = (x.data == full_max).astype(np.float64)
        counts = _expand_reduced(
            np.sum(mask, axis=axis, keepdims=keepdims), x.data.shape, axis, keepdims
        )
        x._accumulate(_expand_reduced(g, x.data.shape, axis, keepdims) * mask / counts)

    return Tensor(out_data, (x,), bw)


def reshape(x, shape):
    if not is_tensor(x):
        return np.reshape(value_of(x), shape)
    return Tensor(x.data.reshape(shape), (x,), lambda g: x._accumulate(g.reshape(x.data.shape)))


def detach(x):
    return Tensor(x.data) if is_tensor(x) else x


def spectral_norm_sym(x):
    """Largest absolute eigenvalue of a symmetric matrix, from ``eigh``.

    The gradient is ``sign(lambda*) u u^T`` for the dominant eigenpair,
    exact whenever the dominant eigenvalue is simple.
    """
    eigvals, eigvecs = np.linalg.eigh(value_of(x))
    i = int(np.argmax(np.abs(eigvals)))
    val = abs(float(eigvals[i]))
    if not is_tensor(x):
        return val
    u = eigvecs[:, i]
    sign = 1.0 if eigvals[i] >= 0 else -1.0
    return Tensor(val, (x,), lambda g: x._accumulate(g * sign * np.outer(u, u)))


def row_block_pairs(X, block_rows):
    """The squared distances of the pairs ``i < j`` of X's rows, row by row.

    Row i of the block ``lo:hi`` it falls in takes its pairs from
    ``squared_distances(X[lo:hi], X[lo:])``: the row-block products of
    ``gdu.kernel._upper_squared_distances``, in row-major order.
    """
    pairs = []
    for lo in range(0, len(X), block_rows):
        block = squared_distances(X[lo : lo + block_rows], X[lo:])
        for r, row in enumerate(block):
            pairs.extend(row[r + 1 :])
    return np.array(pairs)


# -- op chains replaced by fused tape nodes ------------------------------------


def gaussian_gram_chain(X, Y, sigma):
    """Gaussian Gram from explicit squared distances, one full-size array per op."""
    return np.exp(squared_distances(X, Y) / (-2.0 * sigma**2))


def cross_entropy_chain(logits, labels):
    """Mean cross-entropy of (b, C) logits rows (arrays), one op per step."""
    labels = np.asarray(labels, dtype=np.int64)
    z = sub(logits, amax(logits, axis=1, keepdims=True))
    lse = log(summation(exp(z), axis=1))
    return mean(sub(lse, z[np.arange(len(z)), labels]))


def kernel_softmax_chain(scores, kappa):
    """Row-wise softmax of ``kappa * scores`` with max-subtraction."""
    z = mul(scores, kappa)
    z = sub(z, detach(amax(z, axis=1, keepdims=True)))
    e = exp(z)
    return div(e, summation(e, axis=1, keepdims=True))


def similarity_chain(a, norms, mode):
    """CS or MMD similarity scores between unit-norm feature maps and each basis."""
    if mode == "CS":
        return div(a, sqrt(reshape(norms, (1, -1))))
    return neg(add(sub(1.0, mul(2.0, a)), reshape(norms, (1, -1))))


def gate_chain(a, norms, mode, kappa):
    """Gating rows from embedding inner products (see ``_gate_from_inners``)."""
    if mode == "PROJECTION":
        return div(a, reshape(norms, (1, -1)))
    return kernel_softmax_chain(similarity_chain(a, norms, mode), kappa)


def ensemble_chain(X, weights, bias, beta):
    """Gate-weighted sum of the machines' outputs (see ``forward_batch``)."""
    e, m, c = value_of(weights).shape
    b = value_of(X).shape[0]
    out = reshape(add(matmul(X, reshape(weights, (e, -1))), reshape(bias, (-1,))), (b, m, c))
    return summation(mul(reshape(beta, (b, m, 1)), out), axis=1)


def mlp_chain(X, weights, biases, nonlinearity):
    """Extractor forward, three nodes per hidden layer (see ``fe_forward``)."""
    out = X
    for i, (w, b) in enumerate(zip(weights, biases)):
        out = add(matmul(out, w), b)
        if i < len(weights) - 1:
            out = relu(out) if nonlinearity == "relu" else tanh(out)
    return out


def ols_chain(a, k_bases, beta):
    """Reconstruction error from embedding inner products (see ``omega_ols``)."""
    cross = mean(summation(mul(beta, a), axis=1))
    quad = mean(summation(mul(matmul(beta, k_bases), beta), axis=1))
    raw = add(sub(1.0, mul(2.0, cross)), quad)
    return maximum(raw, 0.0) if value_of(raw) < 0.0 else raw


def l1_chain(beta):
    """Batch-mean L1 norm of the gating coefficients (see ``omega_l1``)."""
    return mean(summation(absolute(beta), axis=1))


def orth_chain(K):
    """SRIP on a basis Gram matrix (see ``omega_orth``)."""
    return spectral_norm_sym(sub(K, np.eye(value_of(K).shape[0])))


# -- loops replaced by vectorized code -----------------------------------------


def kmeans_pp_init(XT, xx, k, rng):
    """k-means++ seeding of k centroids from X^T and the rows' squared norms.

    The one-shot seeding that ``gdu.heuristics`` replaced with one that
    grows on demand, kept as its bit-exact reference: the first k centroids
    of the growing seeding of a seed are this seeding's, from
    ``np.random.default_rng(seed)``. ``XT`` is the contiguous (e, n)
    transpose of X. Each row's D^2 to a new centroid is one
    ``_distances_to`` pass on (1, n) buffers.
    """
    n = XT.shape[1]
    centroids = np.empty((k, len(XT)))
    centroids[0] = XT[:, rng.integers(n)]
    twice_g, d2 = np.empty((1, n)), np.empty((1, n))
    closest = _distances_to(XT, xx, centroids[:1], twice_g, np.empty((1, n)))[0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[i] = XT[:, rng.integers(n)]
            continue
        centroids[i] = XT[:, rng.choice(n, p=closest / total)]
        _distances_to(XT, xx, centroids[i : i + 1], twice_g, d2)
        np.minimum(closest, d2[0], out=closest)
    return centroids


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
    xx = np.sum(X * X, axis=-1)
    XT = np.ascontiguousarray(X.T)

    def distances(C):
        # squared_distances(X, C), computed in kmeans's (k, n) layout: see the module text.
        return np.maximum((xx + np.sum(C * C, axis=-1)[:, None]) - 2.0 * (C @ XT), 0.0).T

    centroids = kmeans_pp_init(XT, xx, k, rng)
    assignments = np.full(n, -1)
    last_inertia = np.inf
    iterations, converged, reseeds = 0, False, 0
    for _ in range(_MAX_LLOYD_ITER):
        iterations += 1
        d2 = distances(centroids)
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
    d2 = distances(centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    if trace is not None:
        trace.update(iterations=iterations, converged=converged, reseeds=reseeds)
    return ClusteringResult(assignments, centroids, inertia)


def train_loop(data, config, model):
    """The training loop with fresh state on every step.

    Each step makes new tape leaves (``_graph_model``), concatenates the
    leaves' gradients into a new vector and runs Adam's update out of
    place. Everything else is ``gdu.training.train``'s: the same batches,
    epoch metrics, early stopping and snapshot. For the same arguments both
    return the same parameters and trace bit for bit.
    """
    part, train_x, val_x = _trained_part(
        model, config.mode, np.asarray(data.train_x, dtype=np.float64), data.val_x
    )
    params = _pack_parameters(part)
    m, v, t = np.zeros_like(params), np.zeros_like(params), 0
    rng = np.random.default_rng(config.seed)
    n = len(train_x)
    train_y = np.asarray(data.train_y, dtype=np.int64)
    trace = TrainTrace()
    best_val, best_snapshot, stale_epochs = -math.inf, None, 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            graph, leaves = _graph_model(part)
            obj = _build_objective(graph, train_x[idx], train_y[idx], config.reg)
            if not np.isfinite(float(obj.data)):
                raise TrainingDivergedError(epoch)
            obj.backward()
            blocks = [leaf.grad for leaf in leaves.values()]
            grad = np.concatenate([np.ravel(g) for g in blocks])
            if not np.all(np.isfinite(grad)):
                name = next(k for k, g in zip(leaves, blocks) if not np.all(np.isfinite(g)))
                raise NonFiniteGradientError(
                    f"non-finite gradient in block {name!r} at epoch {epoch}"
                )
            t += 1
            m = _ADAM_BETA1 * m + (1 - _ADAM_BETA1) * grad
            v = _ADAM_BETA2 * v + (1 - _ADAM_BETA2) * grad * grad
            m_hat = m / (1 - _ADAM_BETA1**t)
            v_hat = v / (1 - _ADAM_BETA2**t)
            params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

        feats_train = np.asarray(fe_forward(train_x, part.fe))
        ce, ols, orth, l1, srip = _epoch_metrics(part, feats_train, train_y)
        if not np.isfinite(ce):
            raise TrainingDivergedError(epoch)
        val_acc = accuracy(part, val_x, data.val_y)
        trace.append(TraceRow(epoch, ce, val_acc, srip, ols, orth, l1))
        if val_acc > best_val:
            best_val, best_snapshot, stale_epochs = val_acc, params.copy(), 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break
    if best_snapshot is not None:
        params[...] = best_snapshot
    return model, trace


def block_means_node(X, Y, cfg, n_x, n_y):
    """The tape node of ``gdu.kernel.gram_block_means`` before it took arrays only.

    Block means of ``gram(X, Y)`` over runs of ``n_x`` rows of X and
    ``n_y`` rows of Y, as that function reduces them. A tensor on either
    side, or one tensor on both, gets the closed-form backward: the small
    gradient ``g``, scaled by ``1 / (n_x n_y sigma^2)``, expanded over the
    blocks to ``W = G * E(g)``, then ``W [Y | 1]`` for X and ``W^T [X | 1]``
    for Y.
    """
    Xs, Ys = _rows(X), _rows(Y)
    _check_feature_dims("X", Xs.shape[-1], "Y", Ys.shape[-1])
    Xv, Yv = Xs.reshape(-1, Xs.shape[-1]), Ys.reshape(-1, Ys.shape[-1])
    G = _gaussian_gram(Xv, Yv, cfg.sigma)
    rows_x, rows_y = G.shape
    p, q = rows_x // n_x, rows_y // n_y
    blocks = G.reshape(p, n_x, q, n_y)
    x_t, y_t = is_tensor(X), is_tensor(Y)
    if n_x == n_y == 1:
        K = G.copy() if x_t or y_t else G
    else:
        K = blocks.sum(axis=3) / n_y if n_y > 1 else blocks[..., 0]
        K = K.sum(axis=1) / n_x if n_x > 1 else K[:, 0]
    if not x_t and not y_t:
        return K
    scale = 1.0 / (n_x * n_y * cfg.sigma**2)

    def bw(g):
        W = (blocks * (g * scale)[:, None, :, None]).reshape(rows_x, rows_y)
        if x_t:
            WY = W @ _augmented(Yv, 1.0)
            X._accumulate((WY[:, :-1] - WY[:, -1:] * Xv).reshape(Xs.shape))
        if y_t:
            WX = W.T @ _augmented(Xv, 1.0)
            Y._accumulate((WX[:, :-1] - WX[:, -1:] * Yv).reshape(Ys.shape))

    return Tensor(K, tuple(t for t in (X, Y) if is_tensor(t)), bw)


def diagonal_block_means_node(X, cfg, n):
    """The tape node that gave the basis norms before ``gdu.kernel._kernel_statistics``.

    Means of the diagonal (n, n) blocks of ``gram(X, X)``, from one batched
    matmul over those blocks only. A tensor's backward is ``S_p [X_p | 1]``
    per block, with ``S_p = 2 g_p G_p / (n^2 sigma^2)``.
    """
    Xs = _rows(X)
    rows, e = math.prod(Xs.shape[:-1]), Xs.shape[-1]
    Xb = Xs.reshape(rows // n, n, e)
    G = _gaussian_gram(Xb, Xb, cfg.sigma)
    K = G.reshape(rows // n, n * n).sum(axis=1) / float(n * n)
    if not is_tensor(X):
        return K
    scale = 2.0 / (n * n * cfg.sigma**2)

    def bw(g):
        S = G * (g * scale)[:, None, None]
        SX = S @ _augmented(Xb, 1.0)
        X._accumulate((SX[..., :-1] - SX[..., -1:] * Xb).reshape(Xs.shape))

    return Tensor(K, (X,), bw)


def three_node_gradients(batch, model, reg, train_mode):
    """``gdu.training.gradients`` with one kernel node per statistic.

    The gate reads ``block_means_node(feats, V, 1, N)`` and
    ``diagonal_block_means_node(V, N)``, and a step whose regularizers read
    the basis Gram builds it as ``block_means_node(V, V, N, N)``, a third
    node with its own Gram. Everything else is the package's. Returns the
    leaves' gradients by name.
    """
    X, y = batch
    part, X = _trained_part(model, train_mode, np.asarray(X, dtype=np.float64))
    graph, leaves = _graph_model(part)
    layer = graph.layer
    feats = fe_forward(X, graph.fe)
    a = k_bases = None
    if layer.mode == UNIFORM:
        beta = np.full((len(X), layer.num_bases), 1.0 / layer.num_bases)
    else:
        V, n, cfg = layer.bases, layer.basis_size, layer.kernel
        a = block_means_node(feats, V, cfg, 1, n)
        beta = _gate_from_inners(a, diagonal_block_means_node(V, cfg, n), layer.mode, layer.kappa)
    if _reads_basis_gram(layer.mode, reg):
        k_bases = block_means_node(V, V, cfg, n, n)
    logits = forward_batch(feats, layer, beta=beta)
    obj = _add_regularizers(cross_entropy_mean(logits, y), a, beta, k_bases, reg)
    obj.backward()
    return {name: leaf.grad for name, leaf in leaves.items()}


def bayes_accuracy_loop(benchmark, sample, alpha):
    """``gdu.datagen.bayes_accuracy``, one row, class and component at a time."""
    elem = benchmark.elementary
    correct = 0
    for x, label in zip(sample.x, sample.y):
        scores = []
        for c in range(elem.n_classes):
            terms = []
            for j in range(elem.n_components):
                if alpha[j] == 0.0:
                    continue
                # Unit variance in every coordinate, and a 1/C class prior.
                log_density = 0.0
                for d in range(elem.input_dim):
                    diff = float(x[d]) - float(elem.class_means[j, c, d])
                    log_density -= 0.5 * (diff * diff + math.log(2.0 * math.pi))
                terms.append(math.log(alpha[j]) + math.log(1.0 / elem.n_classes) + log_density)
            top = max(terms)
            scores.append(top + math.log(sum(math.exp(t - top) for t in terms)))
        correct += scores.index(max(scores)) == label
    return correct / len(sample.y)
