"""Rigid-body equilibrium under contact forces.

The object's acceleration under n frictional point contacts is bilinear in
the normal forces F and the friction coefficients gamma, delta in [-1, 1]:

    accel = N F + mu B (gamma o F) + mu T (delta o F) + g6

where accel stacks (a, alpha), g6 stacks (g, 0), and N, B, T are 6 x n
matrices whose top blocks are scaled by 1/m and bottom blocks by 1/I.  Each
contact presses along the inward direction -n_i, so column i of N is
[-n_i / m; -((p_i - com) x n_i) / I]; B and T are built from the tangent
frame directions b_i, t_i with positive sign, matching the friction force
mu F_i (gamma_i b_i + delta_i t_i).

Stability energy is the minimum of ||accel||^2 over the friction box, a
convex box-constrained quadratic program.  A differentiable relaxation
bounds each acceleration row independently and penalizes rows whose
attainable interval excludes zero.

Both QPs, this one and the force-existence fit, return one record,
``QPResult``: the energy, the forces (fixed for this one, solved for the
fit), gamma, delta, the acceleration and the active-set loop's
``errors.Stop``.  Each logs one debug line formatted from that stop and
raises SolverError, its message formatted from it, unless its reason is
'gap'.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, Stop, is_finite, is_number
from .hand import _cross
from .scene import (_FLOAT_MAX, GRAVITY, ObjectModel, _freeze,
                    _pivot_tangents, check_forces, check_unit_normals)

DEFAULT_MU = 1.0
QP_TOL = 1e-8
QP_MAX_ITER = 10_000
_EPS = np.finfo(float).eps
# Bound on mu times the largest friction column entry times the total
# force.  A friction acceleration row is at most twice that, so the squares
# of six such rows sum to at most 0.375 of the float range.
_FRICTION_MAX = float(np.sqrt(_FLOAT_MAX)) / 8
# Bound on each gravity component: the squares of three sum to a finite float
_GRAVITY_MAX = float(np.sqrt(_FLOAT_MAX / 4))

_log = logging.getLogger("grasp_eq")
# a child of grasp_eq, so the keypoint search's one record per search on
# grasp_eq itself is not interleaved with one record per QP it solves
_stability_log = logging.getLogger("grasp_eq.stability")


@dataclass(frozen=True, eq=False)
class EquilibriumSystem:
    """Assembled acceleration model for a fixed set of contacts.

    n_mat columns hold the inward force directions (-n_i), so the
    acceleration identity reads literally
    accel == n_mat @ F + mu * b_mat @ (gamma * F) + mu * t_mat @ (delta * F) + gravity6.
    """

    n_mat: np.ndarray
    b_mat: np.ndarray
    t_mat: np.ndarray
    gravity6: np.ndarray
    mu: float
    forces: np.ndarray

    @property
    def n_contacts(self):
        return self.forces.shape[0]

    def acceleration(self, gamma, delta, forces=None):
        """Evaluate the bilinear acceleration map at (gamma, delta)."""
        f = self.forces if forces is None else np.asarray(forces, dtype=float)
        return (self.n_mat @ f
                + self.mu * (self.b_mat @ (np.asarray(gamma) * f))
                + self.mu * (self.t_mat @ (np.asarray(delta) * f))
                + self.gravity6)

    def take(self, cols):
        """The system of the contacts ``cols`` alone.

        The columns are C-ordered copies: a plain ``a[:, cols]`` comes out
        Fortran-ordered, and the QP's products would then round differently
        from a system assembled over those contacts directly.
        """
        parts = [a.take(cols, axis=-1) for a in
                 (self.n_mat, self.b_mat, self.t_mat, self.forces)]
        for a in parts:
            a.flags.writeable = False
        n_mat, b_mat, t_mat, forces = parts
        return EquilibriumSystem(n_mat, b_mat, t_mat, self.gravity6, self.mu,
                                 forces)


@dataclass(frozen=True, eq=False)
class QPResult:
    """Minimizer of either QP: energy == ||accel||^2 at forces, gamma, delta."""

    energy: float
    forces: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    accel: np.ndarray
    stop: Stop


def assemble(obj: ObjectModel, points, normals, forces,
             mu: float = DEFAULT_MU, gravity=GRAVITY, bases=None) -> EquilibriumSystem:
    """Build the 6 x n acceleration matrices for a contact set.

    ``bases`` may supply explicit tangent frames as a (b, t) pair of (n, 3)
    arrays; by default frames come from the deterministic pivot rule.  With
    a degenerate inertia (all points at the com) the angular rows are zero.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float)).reshape(-1, 3)
    n = points.shape[0]
    normals = np.asarray(normals, dtype=float).reshape(n, 3) if n else np.zeros((0, 3))
    # a copy: the system freezes its forces, the caller's stay writeable
    forces = np.atleast_1d(np.array(forces, dtype=float))
    if forces.shape != (n,):
        raise ValueError(f"expected {n} forces, got shape {forces.shape}")
    check_forces(forces)
    if not (is_number(mu) and is_finite(mu) and mu >= 0):
        raise ValueError(f"friction coefficient mu must be a finite number "
                         f">= 0, got {mu!r}")
    gravity = np.asarray(gravity, dtype=float)
    # the largest component's size, nan for a nan component or a wrong shape
    size = float(np.abs(gravity).max()) if gravity.shape == (3,) else np.nan
    if not is_finite(size):
        raise ValueError("gravity must be a finite 3-vector")
    if size > _GRAVITY_MAX:
        raise ValueError("gravity must be small enough that its squares sum "
                         "to a finite number")
    # N, B and T as one block, written in place
    mats = np.zeros((3, 6, n))
    if n:
        check_unit_normals(normals)
        if bases is None:
            b_dirs, t_dirs = _pivot_tangents(normals)
        else:
            b_dirs, t_dirs = (np.asarray(a, dtype=float).reshape(n, 3) for a in bases)
        dirs = np.array((normals, b_dirs, t_dirs))
        inv_inertia = 1.0 / obj.inertia if obj.inertia > 0 else 0.0
        np.divide(dirs, obj.mass, out=mats[:, :3].transpose(0, 2, 1))
        np.multiply(_cross(points - obj.com, dirs), inv_inertia,
                    out=mats[:, 3:].transpose(0, 2, 1))
        # negated after the fact: crossing with -normals would flip the
        # sign of exactly-cancelling zeros
        np.negative(mats[0], out=mats[0])
    n_mat, b_mat, t_mat = _freeze(mats)
    gravity6 = _freeze(np.concatenate([gravity, np.zeros(3)]))
    return EquilibriumSystem(n_mat, b_mat, t_mat, gravity6, float(mu),
                             _freeze(forces))


def assemble_from_contact_state(obj: ObjectModel, state, mu: float = DEFAULT_MU,
                                gravity=GRAVITY):
    """System over the state's force-carrying points, using object normals.

    Returns (system, indices of the contact points).  Zero-force points
    contribute nothing to the acceleration, so dropping them is exact.
    """
    idx = np.flatnonzero(state.contact_mask)
    sys = assemble(obj, obj.points[idx], obj.normals[idx], state.force[idx],
                   mu=mu, gravity=gravity)
    return sys, idx


def _solve_box(mat, const, tol, max_iter):
    """Minimize ||mat @ x + const||^2 over the box [-1, 1]^k.

    Bounded-variable least squares (Stark & Parker 1995), a primal
    active-set method.  From x = 0 with every coordinate free, the inner
    loop takes the minimum-norm least-squares step on the free coordinates
    and steps back into the box, fixing the coordinates it meets at their
    bounds; the minimum-norm step stays defined when the free columns are
    rank deficient.  At each free-set minimum the bound coordinate with the
    largest KKT violation is freed.  Returns (x, Stop): x once the duality
    gap, the only certificate, falls below ``tol`` ('gap'); else the best
    finite x, or the start if none, after ``max_iter`` outer iterations
    ('cap') or at once on a non-finite objective, which no step undoes
    ('nonfinite').

    The step is not clipped into the box: a coordinate the step does not
    block ends inside it, rounding included.  Heading for bound b = +-1
    from x, its ratio fl(fl(b - x) / step) exceeds alpha, so alpha * step
    and its rounding lie between 0 and fl(b - x); x + fl(b - x) overshoots
    b by at most 2^-53, half the float spacing past |b| = 1, so the sum
    rounds to a value between x and b.  A blocked coordinate is set to its
    bound.

    The free set is an ascending index array, so the free columns keep
    their order; the residual is recomputed only where x moves.
    """
    k = mat.shape[1]
    x = np.zeros(k)
    free = np.arange(k)
    best_x, best_f, best_gap = x, np.inf, np.inf
    steps = 0
    r = mat @ x + const
    for outer in range(1, max_iter + 1):
        while free.size:
            steps += 1
            step, *_ = np.linalg.lstsq(mat.take(free, axis=1), -r, rcond=None)
            xf = x.take(free)
            # distance to the bound the step heads for, over the step; a
            # coordinate that does not move is never blocked
            ratio = np.divide(np.copysign(1.0, step) - xf, step,
                              out=np.full(free.size, np.inf),
                              where=step != 0.0)
            # min(1.0, nan) is 1.0: a step holding a nan (from an
            # overflowing lstsq) is taken whole
            alpha = min(1.0, float(ratio.min()))
            if alpha == 1.0:
                x[free] = xf + step
                r = mat @ x + const
                break
            # a step that overflows (columns near the underflow limit) has
            # ratio 0, and 0 * inf is nan; at alpha = 0 only the blocked
            # coordinates move, to their bounds below
            if alpha > 0.0:
                x[free] = xf + alpha * step
            blocked = ratio <= alpha
            x[free[blocked]] = np.sign(step[blocked])
            free = free[~blocked]
            r = mat @ x + const
        f = float(r @ r)
        if not math.isfinite(f):
            return (best_x if best_f < np.inf else np.zeros(k),
                    Stop("nonfinite", outer, steps, best_gap))
        g = 2.0 * (mat.T @ r)
        # linear minimization over the box is -sum |g|; f >= 0 everywhere,
        # so f itself bounds the suboptimality as well
        gap = min(float(g @ x + np.abs(g).sum()), f)
        if f < best_f:
            best_x, best_f, best_gap = x.copy(), f, gap
        # with no coordinates x is the minimizer, whatever tol is
        if gap < tol or not k:
            return x, Stop("gap", outer, steps, gap)
        # a coordinate held at x_i = +-1 violates KKT when x_i * g_i > 0
        violation = x * g
        violation[free] = 0.0
        worst = int(violation.argmax())
        if violation[worst] > 0.0:
            free = np.sort(np.append(free, worst))
    return best_x, Stop("cap", max_iter, steps, best_gap)


# edge k of the linearized friction pyramid is the force direction
# (1, s_b, s_t) in (normal, b, t) with s = _EDGE_SIGNS[k]
_EDGE_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _free_mean(values, free):
    """Mean of ``values`` over each contact's free edges (the last axis)."""
    count = np.maximum(free.sum(axis=1, keepdims=True), 1)
    return (values * free).sum(axis=-1, keepdims=True) / count


def _solve_pyramid(mat, const, lam, cap, tol, max_iter):
    """Minimize ||mat @ lam + const||^2 over lam >= 0, sum(lam[i]) <= cap.

    ``lam`` is an (n, 4) feasible start, one row of edge weights per
    contact.  Non-negative least squares by the primal active-set method of
    Lawson & Hanson (1974), extended with one sum cap per contact.  The
    inner loop takes the minimum-norm least-squares step on the free edges,
    where a capped contact's free edges move with zero sum (their columns
    are centred), and steps back into the feasible set, dropping the edges
    that reach zero and capping the contacts that reach ``cap``.  At each
    face minimum the edge or cap with the largest KKT violation is freed.
    Returns (lam, Stop) with the reasons of ``_solve_box``; on 'cap' or
    'nonfinite' lam is the best finite iterate, or the start if there is
    none.

    ``tol`` is scaled by max(1, floor / QP_TOL), where floor is the gap's
    rounding at lam: one ulp of lam or of const moves the gradient g by up
    to 2 eps |mat|^T (|mat| lam + |const|), and the gap weighs each
    contact's g by up to its edge sum plus the cap.  On a light object
    (large 1/m and 1/I columns) that floor passes QP_TOL, and no float lam
    certifies QP_TOL itself.
    """
    n = lam.shape[0]
    cols = mat.reshape(6, n, 4)
    abs_mat, abs_const = np.abs(mat), np.abs(const)
    free = np.ones((n, 4), dtype=bool)
    capped = np.zeros(n, dtype=bool)
    best_lam, best_f, best_gap = lam, np.inf, np.inf
    steps = 0
    for outer in range(1, max_iter + 1):
        while free.any():
            steps += 1
            r = mat @ lam.ravel() + const
            # with no contact capped both centrings are identities
            any_capped = capped.any()
            face = (np.where(capped[:, None], cols - _free_mean(cols, free), cols)
                    if any_capped else cols)
            step = np.zeros((n, 4))
            step[free], *_ = np.linalg.lstsq(face[:, free], -r, rcond=None)
            if any_capped:
                step -= np.where(capped[:, None] & free,
                                 _free_mean(step, free), 0.0)
            rise = step.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                to_zero = np.where(free & (step < 0.0), lam / -step, np.inf)
                to_cap = np.where(~capped & (rise > 0.0),
                                  (cap - lam.sum(axis=1)) / rise, np.inf)
            alpha = min(1.0, float(to_zero.min()), float(to_cap.min()))
            lam = np.maximum(lam + alpha * step, 0.0)
            if alpha == 1.0:
                break
            hit = to_zero <= alpha
            lam[hit] = 0.0
            free &= ~hit
            capped |= to_cap <= alpha
        r = mat @ lam.ravel() + const
        f = float(r @ r)
        if not math.isfinite(f):
            return best_lam, Stop("nonfinite", outer, steps, best_gap)
        g = 2.0 * (mat.T @ r).reshape(n, 4)
        # linear minimization puts each contact's whole cap on its steepest
        # edge when that edge descends; f >= 0 everywhere, so f itself
        # bounds the suboptimality as well
        gap = min(float((g * lam).sum() - cap * np.minimum(g.min(axis=1), 0.0).sum()), f)
        if f < best_f:
            best_lam, best_f, best_gap = lam.copy(), f, gap
        noise = 2.0 * _EPS * (abs_mat.T @ (abs_mat @ lam.ravel() + abs_const))
        floor = float((noise.reshape(n, 4).max(axis=1)
                       * (cap + lam.sum(axis=1))).sum())
        # with no contacts lam is the minimizer, whatever tol is
        if gap < tol * max(1.0, floor / QP_TOL) or not n:
            return lam, Stop("gap", outer, steps, gap)
        # a capped contact's free edges share one gradient `level` at a face
        # minimum: a zero edge violates KKT when its gradient is below the
        # level, a cap when the level is positive (shrinking the sum helps)
        level = np.where(capped[:, None], _free_mean(g, free), 0.0)
        violation = np.concatenate([np.where(free, -np.inf, level - g).ravel(),
                                    np.where(capped, level[:, 0], -np.inf)])
        worst = int(np.argmax(violation))
        if violation[worst] > 0.0:
            if worst < 4 * n:
                free.flat[worst] = True
            else:
                capped[worst - 4 * n] = False
    return best_lam, Stop("cap", max_iter, steps, best_gap)


def _check_friction(sys, total_force):
    """Raise ValueError naming mu unless mu times the largest friction
    column entry times ``total_force`` is within _FRICTION_MAX (computed in
    Python floats, which overflow to inf without a numpy error)."""
    column = max(float(np.abs(sys.b_mat).max(initial=0.0)),
                 float(np.abs(sys.t_mat).max(initial=0.0)))
    if not sys.mu * column * total_force <= _FRICTION_MAX:
        raise ValueError(f"friction coefficient mu {sys.mu!r} is too large "
                         f"for this object and a total force of "
                         f"{total_force:.3g}: the friction accelerations "
                         f"would pass {_FRICTION_MAX:.3g}")


def stability_energy(sys: EquilibriumSystem, tol: float = QP_TOL,
                     max_iter: int = QP_MAX_ITER) -> QPResult:
    """Minimize ||accel||^2 over gamma, delta in [-1, 1]^n at ``sys.forces``.

    The result's ``forces`` are those fixed forces.  The objective is a
    convex quadratic over a box, solved exactly by an active-set method, so
    the returned energy is the global minimum within solver tolerance: the
    duality gap, which bounds energy - minimum, is below ``tol`` times
    max(1, 1e-4 E0), E0 being the energy at zero friction (relative to E0
    once E0 passes 1e4).  Raises SolverError (carrying the best iterate)
    unless the stop's reason is 'gap', the gap falling below that within
    ``max_iter`` active-set iterations.
    """
    n = sys.n_contacts
    _check_friction(sys, float(sys.forces.sum()))
    const = sys.n_mat @ sys.forces + sys.gravity6
    scaled = sys.mu * sys.forces
    mat = np.concatenate([sys.b_mat * scaled, sys.t_mat * scaled], axis=1)
    # past E0 = 1e4, floats cannot certify an absolute gap of QP_TOL
    tol = tol * max(1.0, 1e-4 * float(const @ const))
    x, stop = _solve_box(mat, const, tol, max_iter)
    accel = mat @ x + const
    # x is the solver's own array; gamma and delta are read-only views of it
    x.flags.writeable = accel.flags.writeable = False
    result = QPResult(float(accel @ accel), sys.forces, x[:n], x[n:], accel,
                      stop)
    _stability_log.debug("stability: %d contacts, %s", n, stop)
    if stop.reason != "gap":
        raise SolverError(f"stability QP not certified below tol {tol:.1e}: "
                          f"{stop}", result)
    return result


def _interval_bounds(sys: EquilibriumSystem, forces):
    """Per-row lower/upper bounds of the attainable acceleration.

    ``forces`` is (n,) or (n, K); the bounds have one column per force
    column.
    """
    fric = sys.mu * (np.abs(sys.b_mat) + np.abs(sys.t_mat))
    g6 = sys.gravity6 if np.ndim(forces) == 1 else sys.gravity6[:, None]
    lower = (sys.n_mat - fric) @ forces + g6
    upper = (sys.n_mat + fric) @ forces + g6
    return lower, upper, fric


def energy_lower_bounds(sys: EquilibriumSystem, forces):
    """Lower bound on the stability energy at each force column.

    Every friction choice keeps acceleration row r within the attainable
    interval [lower_r, upper_r] of ``_interval_bounds``, so the minimum of
    ||accel||^2 is at least sum_r dist(0, [lower_r, upper_r])^2.
    ``forces`` is (n,) or (n, K); returns a scalar or K bounds.
    """
    lower, upper, _ = _interval_bounds(sys, forces)
    return (np.maximum(lower, 0.0) ** 2 + np.minimum(upper, 0.0) ** 2).sum(axis=0)


def stability_loss(sys: EquilibriumSystem) -> float:
    """Differentiable relaxation: penalty for rows whose interval excludes 0.

    With F_fric = mu |B| + mu |T| (elementwise), returns
    1' max{(N - F_fric) F + g6, 0} - 1' min{(N + F_fric) F + g6, 0}.
    Always >= 0; zero stability energy implies zero loss.  It is the masked
    loss at force map F and likelihood 1.
    """
    return stability_loss_masked(sys, sys.forces, np.ones(sys.n_contacts))


def _check_masked_args(sys, force_map, likelihood):
    force_map = np.asarray(force_map, dtype=float)
    likelihood = np.asarray(likelihood, dtype=float)
    n = sys.n_contacts
    if force_map.shape != (n,) or likelihood.shape != (n,):
        raise ValueError(f"expected two length-{n} arrays, got {force_map.shape} and {likelihood.shape}")
    if np.any(force_map < 0) or np.any(likelihood < 0) or np.any(likelihood > 1):
        raise ValueError("force map must be >= 0 and likelihood within [0, 1]")
    return force_map, likelihood


def stability_loss_masked(sys: EquilibriumSystem, force_map, likelihood) -> float:
    """stability_loss with F replaced by force_map o likelihood."""
    force_map, likelihood = _check_masked_args(sys, force_map, likelihood)
    lower, upper, _ = _interval_bounds(sys, force_map * likelihood)
    return float(np.maximum(lower, 0.0).sum() - np.minimum(upper, 0.0).sum())


def loss_gradient(sys: EquilibriumSystem, force_map, likelihood) -> np.ndarray:
    """Analytic subgradient of stability_loss_masked w.r.t. the force map.

    At a hinge kink the active-side (one-sided) derivative is returned:
    a row counts as active when its bound has reached zero.
    """
    force_map, likelihood = _check_masked_args(sys, force_map, likelihood)
    if sys.n_contacts == 0:
        return np.zeros(0)
    lower, upper, fric = _interval_bounds(sys, force_map * likelihood)
    low_active = lower >= 0.0
    up_active = upper <= 0.0
    grad_eff = ((sys.n_mat - fric).T @ low_active.astype(float)
                - (sys.n_mat + fric).T @ up_active.astype(float))
    return grad_eff * likelihood


def solve_force_existence(obj: ObjectModel, points, normals,
                          mu: float = DEFAULT_MU, gravity=GRAVITY,
                          f_max: float = 20.0, tol: float = QP_TOL,
                          max_iter: int = QP_MAX_ITER) -> QPResult:
    """Minimize ||accel||^2 over forces and friction jointly.

    Per contact, the admissible (F, gamma F, delta F) with 0 <= F <= f_max
    and |gamma|, |delta| <= 1 form the cone over the four friction-pyramid
    edges (1, +-1, +-1), so the problem is a non-negative least-squares fit
    of edge weights with each contact's weights summing to at most f_max.
    It is solved exactly by an active-set method started from the interior
    point that shares the object's weight evenly over the contacts.  Like
    stability_energy, ``tol`` bounds the duality gap and SolverError
    (carrying the best iterate) is raised unless the stop's reason is
    'gap'.  Used to test whether admissible
    forces exist that hold the object still.
    """
    if not np.isfinite(f_max) or f_max < 0:
        raise ValueError("f_max must be finite and non-negative")
    points = np.atleast_2d(np.asarray(points, dtype=float)).reshape(-1, 3)
    n = points.shape[0]
    sys = assemble(obj, points, normals, np.zeros(n), mu=mu, gravity=gravity)
    _check_friction(sys, n * float(f_max))
    gravity6 = sys.gravity6
    mat = (sys.n_mat[:, :, None]
           + mu * sys.b_mat[:, :, None] * _EDGE_SIGNS[:, 0]
           + mu * sys.t_mat[:, :, None] * _EDGE_SIGNS[:, 1]).reshape(6, 4 * n)
    # the minimizer is not unique; from lam = 0 the solver lands on sparse
    # vertices, from this interior point it keeps force on most contacts
    share = min(obj.mass * float(np.linalg.norm(gravity6)) / max(n, 1), f_max)
    lam, stop = _solve_pyramid(mat, gravity6, np.full((n, 4), share / 4.0),
                               f_max, tol, max_iter)
    u = lam.sum(axis=1)
    safe = np.where(u > 0, u, 1.0)
    gamma, delta = np.clip((lam @ _EDGE_SIGNS) / safe[:, None], -1.0, 1.0).T
    accel = mat @ lam.ravel() + gravity6
    result = QPResult(
        energy=float(accel @ accel), forces=_freeze(u), gamma=_freeze(gamma),
        delta=_freeze(delta), accel=_freeze(accel), stop=stop)
    _log.debug("force existence: %d contacts, %s", n, stop)
    if stop.reason != "gap":
        raise SolverError(f"force-existence QP not certified below tol "
                          f"{tol:.1e}: {stop}", result)
    return result
