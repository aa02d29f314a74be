"""The lean paths of the keypoint search and of stage III against their
plain forms, bit for bit.

Each reference below is the plain form of a function the keypoint search
runs on every candidate: the box QP loop over a boolean free set, the
sub-system built through ``dataclasses.replace``, the stability energy
that freezes each output, and the search loop with its bounds written
out.  The lean forms must return the same bits, ties and solve order
included.  Clustering is pinned against one aggregate call per cluster
in test_keypoints.py.

The second half does the same for what stage III runs on every trial and
at every accepted point: the kinematics and its jacobian, the surface and
certified nearest-sample queries, the four loss terms and their
derivatives, the term glue and the descent loop with its clipped step.
"""

import contextlib
import dataclasses
import functools
import itertools
import logging
import math
import struct
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from grasp_eq import hand, keypoints, optimizer, scene
from grasp_eq.equilibrium import (QP_MAX_ITER, QP_TOL, QPResult,
                                  _check_friction, _solve_box, assemble,
                                  energy_lower_bounds, solve_force_existence,
                                  stability_energy)
from grasp_eq.errors import SolverError, Stop
from grasp_eq.optimizer import (TERMS, OptimizationConfig, OptimizationTrace,
                                contact_loss, kp_loss, penetration_loss,
                                pose_terms)
from grasp_eq.scene import (CONTACT_RADIUS, ObjectModel, _freeze,
                            nearest_surface)
from grasp_eq.synth import SyntheticScene, generate_scene

from conftest import energy_matrices, random_contacts, sphere_object
from test_keypoints import held_reps


def bits(value):
    """The bytes of a float or an array, so -0.0 and nan compare exactly."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return struct.pack("<d", value)


def reference_box(mat, const, tol, max_iter):
    """The box QP loop over a boolean free set, re-masked on every step."""
    k = mat.shape[1]
    start = np.zeros(k)
    x = start.copy()
    free = np.ones(k, dtype=bool)
    best_x, best_f, best_gap = start, np.inf, np.inf
    steps = 0
    for outer in range(1, max_iter + 1):
        while free.any():
            steps += 1
            r = mat @ x + const
            step, *_ = np.linalg.lstsq(mat[:, free], -r, rcond=None)
            xf = x[free]
            ratio = np.divide(np.copysign(1.0, step) - xf, step,
                              out=np.full(len(step), np.inf),
                              where=step != 0.0)
            alpha = min(1.0, float(ratio.min()))
            if alpha > 0.0:
                x[free] = xf + alpha * step
            if alpha == 1.0:
                break
            blocked = ratio <= alpha
            hit = np.flatnonzero(free)[blocked]
            x[hit] = np.sign(step[blocked])
            free[hit] = False
        r = mat @ x + const
        f = float(r @ r)
        if not np.isfinite(f):
            return best_x, Stop("nonfinite", outer, steps, best_gap)
        g = 2.0 * (mat.T @ r)
        gap = min(float(g @ x + np.abs(g).sum()), f)
        if f < best_f:
            best_x, best_f, best_gap = x.copy(), f, gap
        if gap < tol or not k:
            return x, Stop("gap", outer, steps, gap)
        violation = np.where(free, 0.0, x * g)
        worst = int(np.argmax(violation))
        if violation[worst] > 0.0:
            free[worst] = True
    return best_x, Stop("cap", max_iter, steps, best_gap)


def reference_take(sys, cols):
    return replace(sys, n_mat=_freeze(sys.n_mat.take(cols, axis=1)),
                   b_mat=_freeze(sys.b_mat.take(cols, axis=1)),
                   t_mat=_freeze(sys.t_mat.take(cols, axis=1)),
                   forces=_freeze(sys.forces.take(cols)))


def reference_stability_energy(sys, tol=QP_TOL, max_iter=QP_MAX_ITER):
    """The result with each output frozen on its own, solved by
    reference_box."""
    n = sys.n_contacts
    _check_friction(sys, float(sys.forces.sum()))
    const = sys.n_mat @ sys.forces + sys.gravity6
    scaled = sys.mu * sys.forces
    mat = np.concatenate([sys.b_mat * scaled, sys.t_mat * scaled], axis=1)
    tol = tol * max(1.0, 1e-4 * float(const @ const))
    x, stop = reference_box(mat, const, tol, max_iter)
    accel = mat @ x + const
    return QPResult(energy=float(accel @ accel), forces=sys.forces,
                    gamma=_freeze(x[:n]), delta=_freeze(x[n:]),
                    accel=_freeze(accel), stop=stop)


def reference_candidate_bounds(sys, candidates):
    members = np.zeros((sys.n_contacts, len(candidates)))
    members[candidates, np.arange(len(candidates))[:, None]] = 1.0
    return energy_lower_bounds(sys, sys.forces[:, None] * members)


def reference_dual_bounds(sys, candidates, y):
    norm = np.linalg.norm(y)
    if norm == 0.0:
        return np.zeros(len(candidates))
    y = y / norm
    scaled = sys.mu * sys.forces
    terms = ((y @ sys.n_mat) * sys.forces - np.abs(y @ sys.b_mat) * scaled
             - np.abs(y @ sys.t_mat) * scaled)
    beta = terms[candidates].sum(axis=1) + y @ sys.gravity6
    return np.maximum(beta, 0.0) ** 2


def reference_least_energy(sys, candidates, solve, bounds):
    """The search as a plain loop, from the candidates' first ``bounds``:
    (best, energy, the solved candidates' accelerations in solve order
    keyed by candidate, its debug line)."""
    candidates = np.asarray(candidates)
    count = len(candidates)
    lower = bounds - QP_TOL / 4
    energies = np.full(count, np.inf)
    solved = np.zeros(count, dtype=bool)
    least, best, best_energy = np.inf, count, np.inf
    order = {}
    while True:
        deciding = lower + QP_TOL < best_energy
        deciding[:best] |= lower[:best] <= least + QP_TOL
        pending = np.flatnonzero(deciding & ~solved)
        if not pending.size:
            break
        j = int(pending[np.argmin(lower[pending])])
        try:
            res = solve(reference_take(sys, candidates[j]))
        except SolverError as err:
            res = err.result
        order[j] = res.accel
        energies[j], solved[j] = res.energy, True
        if not solved.all():
            np.maximum(lower, reference_dual_bounds(sys, candidates, res.accel)
                       - QP_TOL / 4, out=lower)
        least = energies.min()
        best = int(np.argmax(solved & (energies <= least + QP_TOL)))
        best_energy = energies[best]
    line = (f"stability search: {count} candidates, {solved.sum()} solved, "
            f"{count - solved.sum()} skipped, best energy {best_energy:.3e}")
    return best, best_energy, order, line


@contextlib.contextmanager
def search_lines(name="grasp_eq"):
    """The messages the logger ``name`` itself records meanwhile, at debug
    level."""
    lines = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: (lines.append(record.getMessage())
                                   if record.name == name else None)
    logger = logging.getLogger(name)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def drawn_system(seed, n, mu, zero_share, repeats, held):
    """A system over n random contacts on a sphere, or over the held
    set's clusters (energy 0 up to rounding), some forces zeroed and
    ``repeats`` contacts repeated as equal columns."""
    rng = np.random.default_rng(seed)
    obj = sphere_object(seed=seed % 1000)
    if held:
        reps = list(held_reps().values())
        points = np.array([c.center for c in reps])
        normals = np.array([c.normal for c in reps])
        forces = np.array([c.force for c in reps])
        n = len(reps)
    else:
        points, normals, forces = random_contacts(rng, obj, n)
    forces[rng.uniform(size=n) < zero_share] = 0.0
    pick = np.concatenate([np.arange(n), rng.integers(0, n, repeats)])
    rng.shuffle(pick)
    return rng, obj, assemble(obj, points[pick], normals[pick], forces[pick],
                              mu=mu)


SYSTEMS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7),
               mu=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.5),
               zero_share=st.sampled_from([0.0, 0.4, 1.0]),
               repeats=st.integers(0, 3), held=st.booleans())


def raises(solve):
    try:
        solve()
    except SolverError:
        return True
    return False


@functools.cache
def uncertified_draws():
    """(drawn_system arguments, max_iter 1) on which both QPs raise: the
    stability QP on the drawn system and the force-existence QP on the
    contacts drawn next on its object.  Of the 600 systems with 3 to 5
    contacts scanned here about 2% qualify, so random draws seldom do."""
    draws = []
    for n, seed in itertools.product((3, 4, 5), range(200)):
        system = dict(seed=seed, n=n, mu=1.0, zero_share=0.0, repeats=1,
                      held=False)
        rng, obj, drawn = drawn_system(**system)
        points, normals, _ = random_contacts(rng, obj, n)
        if (raises(lambda: stability_energy(drawn, max_iter=1))
                and raises(lambda: solve_force_existence(
                    obj, points, normals, mu=1.0, max_iter=1))):
            draws.append((system, 1))
    return draws


# random systems at every budget, or one of uncertified_draws
DRAWS = (st.tuples(st.fixed_dictionaries(SYSTEMS),
                   st.sampled_from([1, 2, QP_MAX_ITER]))
         | st.deferred(lambda: st.sampled_from(uncertified_draws())))


@contextlib.contextmanager
def counted_raises():
    """How often this module's stability_energy and solve_force_existence
    raise SolverError meanwhile, by name."""
    uncertified_draws()  # its scan's raises are not counted
    raised = {"stability_energy": 0, "solve_force_existence": 0}

    def counted(name, solve):
        def wrapper(*args, **kwargs):
            try:
                return solve(*args, **kwargs)
            except SolverError:
                raised[name] += 1
                raise
        return wrapper

    with mock.patch.dict(globals(), {name: counted(name, globals()[name])
                                     for name in raised}):
        yield raised


def tiny_column_systems():
    """400 box QPs (mat, const, max_iter) with 2 to 6 columns scaled 1e-290
    to 1e-310 and a budget of 1 or 3."""
    rng = np.random.default_rng(27)
    for _ in range(400):
        k = int(rng.integers(2, 7))
        mat = (rng.normal(size=(6, k))
               * 10.0 ** -rng.uniform(290, 310, size=(1, k)))
        const = rng.normal(size=6) * 10.0 ** rng.uniform(-5, 5)
        yield mat, const, int(rng.choice([1, 3]))


class TestBoxLoop:
    def test_overflowing_and_nan_steps_match_the_masked_loop(self):
        """Columns near the underflow limit make the least-squares step
        overflow (ratio 0, alpha 0) or turn nan (min(1.0, nan) is 1.0, a
        whole step, and a nan objective); both loops take the same path to
        the same bits."""
        met = {"inf": 0, "nan": 0}
        lstsq = np.linalg.lstsq

        def counted(a, b, rcond=None):
            out = lstsq(a, b, rcond=rcond)
            step = out[0]
            if np.isnan(step).any():
                met["nan"] += 1
            elif np.isinf(step).any():
                met["inf"] += 1
            return out

        with (mock.patch.object(np.linalg, "lstsq", counted),
              np.errstate(all="ignore")):
            for mat, const, max_iter in tiny_column_systems():
                got_x, got = _solve_box(mat, const, QP_TOL, max_iter)
                want_x, want = reference_box(mat, const, QP_TOL, max_iter)
                assert bits(got_x) == bits(want_x)
                assert bits(got.final) == bits(want.final)
                assert ((got.reason, got.iterations, got.evaluations)
                        == (want.reason, want.iterations, want.evaluations))
        assert met["nan"] >= 5 and met["inf"] >= 20

    def test_nan_step_stops_at_once(self):
        """A nan step makes every later iterate nan.  At the full budget
        the loop stops on 'nonfinite' in the outer iteration that took it,
        returning the best finite x (here the start), instead of running
        every iteration and returning its nan working array."""
        nonfinite = 0
        with np.errstate(all="ignore"):
            for mat, const, _ in tiny_column_systems():
                x, stop = _solve_box(mat, const, QP_TOL, QP_MAX_ITER)
                assert stop.iterations <= 2 and np.isfinite(x).all()
                if stop.reason == "nonfinite":
                    nonfinite += 1
                    assert not x.any() and stop.final == np.inf
        assert nonfinite >= 10


class TestCandidatePath:
    def test_take_and_stability_energy_match_their_plain_forms(self):
        with counted_raises() as raised:
            self.take_and_stability_energy_match()
        assert raised["stability_energy"] >= 10

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=120)
    @given(draw=DRAWS)
    def take_and_stability_energy_match(self, draw):
        system, max_iter = draw
        rng, _, sys = drawn_system(**system)
        size = sys.n_contacts
        for k in sorted({1, min(3, size), size}):
            cols = np.sort(rng.choice(size, k, replace=False))
            sub, ref = sys.take(cols), reference_take(sys, cols)
            for name in ("n_mat", "b_mat", "t_mat", "gravity6", "forces"):
                got, want = getattr(sub, name), getattr(ref, name)
                assert bits(got) == bits(want)
                assert got.flags.c_contiguous and not got.flags.writeable
            assert (sub.mu, type(sub)) == (ref.mu, type(ref))
            want = reference_stability_energy(ref, max_iter=max_iter)
            try:
                got = stability_energy(sub, max_iter=max_iter)
            except SolverError as err:
                got = err.result
                assert want.stop.reason != "gap"
            else:
                assert want.stop.reason == "gap"
            assert bits(got.energy) == bits(want.energy)
            assert bits(got.stop.final) == bits(want.stop.final)
            for name in ("forces", "gamma", "delta", "accel"):
                array = getattr(got, name)
                assert bits(array) == bits(getattr(want, name))
                assert not array.flags.writeable
            assert ((got.stop.evaluations, got.stop.iterations,
                     got.stop.reason)
                    == (want.stop.evaluations, want.stop.iterations,
                        want.stop.reason))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=120)
    @given(**SYSTEMS, k=st.integers(1, 4), grid=st.booleans(),
           offset=st.sampled_from([0.0, 1.0, 1e9]))
    def test_least_energy_matches_its_plain_form(self, seed, n, mu,
                                                 zero_share, repeats, held,
                                                 k, grid, offset):
        """Same answer, same solves in the same order, same debug line.
        With ``grid`` the energies are set on a QP_TOL / 2 grid above
        ``offset``, keyed by the sub-system, so equal candidates tie and
        others sit exactly QP_TOL / 2 and QP_TOL apart, and the first
        bounds are 0, half or all of them, so bounds meet the band edges
        too; the accelerations, and so the dual bounds, stay the
        solver's."""
        rng, _, sys = drawn_system(seed, n, mu, zero_share, repeats, held)
        candidates = np.array(list(itertools.combinations(
            range(sys.n_contacts), min(k, sys.n_contacts))))
        table = {}

        def key(sub):
            return sub.forces.tobytes(), sub.n_mat.tobytes()

        def solve(sub):
            try:
                res = stability_energy(sub)
            except SolverError as err:
                res = err.result
            return replace(res, energy=table[key(sub)]) if grid else res

        bounds = reference_candidate_bounds(sys, candidates)
        if grid:
            for cols in candidates:
                table.setdefault(key(reference_take(sys, cols)), offset
                                 + int(rng.integers(0, 7)) * (QP_TOL / 2))
            bounds = np.array([table[key(reference_take(sys, cols))]
                               for cols in candidates]) * rng.choice(
                [0.0, 0.5, 1.0], len(candidates))
        want = reference_least_energy(sys, candidates, solve, bounds.copy())
        order = []

        def recorded(sub):
            order.append(sub)
            return solve(sub)

        with (mock.patch.object(keypoints, "stability_energy", recorded),
              mock.patch.object(keypoints, "_candidate_bounds",
                                lambda sys, candidates: bounds.copy()),
              search_lines() as lines):
            best, energy = keypoints._least_energy(sys, candidates)
        assert (best, bits(float(energy))) == (want[0], bits(float(want[1])))
        assert [(sub.forces.tobytes(), sub.n_mat.tobytes()) for sub in order] == [
            (sub.forces.tobytes(), sub.n_mat.tobytes()) for sub in
            (reference_take(sys, candidates[j]) for j in want[2])]
        assert lines == [want[3]]
        assert bits(keypoints._candidate_bounds(sys, candidates)) == bits(
            reference_candidate_bounds(sys, candidates))
        for y in [np.zeros(6), *want[2].values()]:
            assert bits(keypoints._dual_bounds(sys, candidates, y)) == bits(
                reference_dual_bounds(sys, candidates, y))


class TestSolverErrorContract:
    def test_raises_exactly_when_the_gap_does_not_certify(self):
        """Both QPs return their result when its stop's reason is 'gap'
        and otherwise raise SolverError; the error carries that stop in
        its result, and the debug line and the message are formatted from
        it."""
        with counted_raises() as raised:
            self.raises_exactly_when_the_gap_does_not_certify()
        assert min(raised.values()) >= 10

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=120)
    @given(draw=DRAWS)
    def raises_exactly_when_the_gap_does_not_certify(self, draw):
        system, max_iter = draw
        n, mu = system["n"], system["mu"]
        rng, obj, sys = drawn_system(**system)
        points, normals, _ = random_contacts(rng, obj, n)
        _, const = energy_matrices(sys)
        stability_tol = QP_TOL * max(1.0, 1e-4 * float(const @ const))
        for logger, line, message, solve in (
                ("grasp_eq.stability", f"stability: {sys.n_contacts} contacts",
                 f"stability QP not certified below tol {stability_tol:.1e}",
                 lambda: stability_energy(sys, max_iter=max_iter)),
                ("grasp_eq", f"force existence: {n} contacts",
                 f"force-existence QP not certified below tol {QP_TOL:.1e}",
                 lambda: solve_force_existence(obj, points, normals, mu=mu,
                                               max_iter=max_iter))):
            with search_lines(logger) as lines:
                try:
                    result = solve()
                except SolverError as err:
                    assert err.result.stop.reason != "gap"
                    assert str(err) == f"{message}: {err.result.stop}"
                    result = err.result
                else:
                    assert result.stop.reason == "gap"
            assert lines == [f"{line}, {result.stop}"]
            assert result.stop.iterations <= max_iter


# ---------------------------------------------------------------------------
# stage III: the kinematics, the nearest queries, the loss terms, the term
# glue and the descent loop in their plain forms


def plain_rotation_matrix(omega):
    omega = np.asarray(omega, dtype=float)
    theta = np.sqrt(omega.dot(omega))
    k = hand._skew(omega)
    if theta < 1e-12:
        return hand._EYE3 + k + 0.5 * (k @ k)
    k /= theta
    return hand._EYE3 + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def plain_fk_with_jacobians(vec):
    """The frames summed out of place, the wrist row concatenated, and the
    angle entries written through fancy indexing into a zeroed jacobian."""
    vec = np.asarray(vec, dtype=float)
    s = vec[26]
    q = vec[6:26].reshape(5, 4, 1, 1)
    frames = (hand._EYE3 + np.sin(q) * hand._ANGLE_SKEW
              + (1.0 - np.cos(q)) * hand._ANGLE_SKEW_SQ)
    frames[:, 1] = frames[:, 0] @ frames[:, 1]
    frames[:, 2] = frames[:, 1] @ frames[:, 2]
    frames[:, 3] = frames[:, 2] @ frames[:, 3]
    bones = (frames[:, 1:] @ (hand._BONES * s)[..., None])[..., 0]
    joints = np.cumsum(np.concatenate([hand._BASES[:, None] * s, bones],
                                      axis=1), axis=1)
    r_glob = plain_rotation_matrix(vec[:3])
    rotated = (np.concatenate([np.zeros((1, 3)), joints.reshape(20, 3)])
               @ r_glob.T)
    world = rotated + vec[3:6]
    geometry = hand.HandGeometry(
        joints=world, part_centers=hand._CENTER_WEIGHTS @ world,
        samples=hand._SAMPLE_WEIGHTS @ world)

    def jacobian():
        jac = np.zeros((hand.N_JOINTS, 3, hand.N_PARAMS))
        jac[:, :, 0:3] = hand._rotation_point_jacobian(vec[:3], r_glob,
                                                       rotated)
        jac[:, :, 3:6] = hand._EYE3
        axes = (frames @ hand._ANGLE_AXES[..., None])[..., 0]
        pivots = joints[:, [0, 0, 1, 2]]
        arms = joints[:, None, 1:] - pivots[:, :, None]
        d_local = hand._cross(axes[:, :, None], arms) * hand._DOWNSTREAM
        jac[hand._ANGLE_ROWS, :, hand._ANGLE_COLS] = d_local @ r_glob.T
        jac[:, :, 26] = rotated / vec[26]
        return jac

    return geometry, jacobian


def plain_nearest_site(points, sites):
    d_sq = cdist(points, sites, "sqeuclidean")
    idx = np.argmin(d_sq, axis=1)
    return np.sqrt(d_sq[np.arange(idx.size), idx]), idx


def plain_nearest_surface(obj, queries):
    d, idx = obj.kdtree.query(queries)
    sd = np.einsum("ij,ij->i", queries - obj.points[idx], obj.normals[idx])
    return d, idx, sd


def plain_flat():
    return np.zeros(hand.N_PARAMS), np.zeros((hand.N_PARAMS, hand.N_PARAMS))


def plain_penetration_loss(geometry, obj):
    _, idx, sd = plain_nearest_surface(obj, geometry.samples)
    active = sd < 0
    depth = -sd[active]

    def derivatives(joint_jac, sample_jac):
        if depth.size == 0:
            return plain_flat()
        rows = np.einsum("sd,sdp->sp", obj.normals[idx[active]],
                         sample_jac[active])
        irls = 1.0 / np.maximum(depth, optimizer.PENETRATION_IRLS_FLOOR)
        return -rows.sum(axis=0), rows.T @ (irls[:, None] * rows)

    return float(depth.sum()), derivatives


class PlainNearestSite:
    """CertifiedNearestSite with a slice for the first query's rows and
    the scan's minima read through two-index fancy gathers."""

    def __init__(self, points):
        self.points = points
        self.columns = np.ascontiguousarray(points.T)
        self.queried = self.rescanned = 0
        self._accepted = self._last = self._pending = None

    def __call__(self, sites):
        self.bracket(sites)
        return self.scan()

    def bracket(self, sites):
        sites = np.array(sites, dtype=float)
        n = self.points.shape[0]
        if self._accepted is None:
            dist, lower = np.full(n, np.inf), np.zeros(n)
            owner = np.empty(n, dtype=np.intp)
            rows = slice(None)
        else:
            ref_sites, owner, ref_lower = self._accepted
            step = sites - ref_sites
            shift = np.sqrt(np.max(np.einsum("ij,ij->i", step, step)))
            sq = self.columns - sites.T.take(owner, axis=1)
            sq *= sq
            dist = sq[0] + sq[1]
            dist += sq[2]
            np.sqrt(dist, out=dist)
            lower = ref_lower - (1.0 + scene._CERTIFY_MARGIN) * shift
            rows = np.flatnonzero(~(dist < lower))
        self.queried += n
        self._pending = (sites, dist, owner, lower, rows)
        return dist, rows, lower

    def scan(self):
        sites, dist, owner, lower, rows = self._pending
        self._pending = None
        d_sq = cdist(self.points[rows], sites, "sqeuclidean")
        idx = np.argmin(d_sq, axis=1)
        scanned = np.arange(idx.size)
        dist[rows] = np.sqrt(d_sq[scanned, idx])
        owner = owner.copy()
        owner[rows] = idx
        d_sq[scanned, idx] = np.inf
        lower[rows] = np.sqrt(d_sq[scanned, np.argmin(d_sq, axis=1)])
        self.rescanned += idx.size
        self._last = (sites, owner, lower)
        return dist, owner

    def accept(self):
        if self._last is not None:
            sites, owner, lower = self._last
            self._accepted = (sites, owner,
                              (1.0 - scene._CERTIFY_MARGIN) * lower)


def plain_contact_loss(geometry, obj, target, nearest=None, exceeds=None):
    """The bound and the value through np.mean; without ``nearest``, the
    query is one plain_nearest_site scan, whose answer a fresh
    CertifiedNearestSite must equal."""
    if nearest is None:
        d, owners = plain_nearest_site(obj.points, geometry.samples)
        columns = obj.points.T
    else:
        d, _, lower = nearest.bracket(geometry.samples)
        if exceeds is not None:
            bound = float(np.mean(optimizer._residual_floor(d, lower,
                                                             target)))
            if exceeds(bound):
                return bound, None
        d, owners = nearest.scan()
        columns = nearest.columns
    resid = CONTACT_RADIUS / np.maximum(d, CONTACT_RADIUS) - target

    def derivatives(joint_jac, sample_jac):
        active = (d > CONTACT_RADIUS) & (resid != 0)
        if not active.any():
            return plain_flat()
        dist = np.where(active, d, np.inf)
        slope = -CONTACT_RADIUS / dist ** 2
        coef = np.sign(resid) * slope / obj.n_points
        unit = geometry.samples.T.take(owners, axis=1) - columns
        unit /= dist
        irls = slope ** 2 / (np.maximum(np.abs(resid),
                                        optimizer.CONTACT_IRLS_FLOOR)
                             * obj.n_points)
        cols = np.empty((12, d.size))
        np.multiply(coef, unit, out=cols[:3])
        np.multiply((irls * unit)[:, None], unit,
                    out=cols[3:].reshape(3, 3, -1))
        per_sample = np.empty((hand.N_SAMPLES, 12))
        for j, col in enumerate(cols):
            per_sample[:, j] = np.bincount(owners, col, hand.N_SAMPLES)
        blocks = per_sample[:, 3:].reshape(-1, 3, 3)
        flat_jac = sample_jac.reshape(-1, hand.N_PARAMS)
        return (np.einsum("sd,sdp->p", per_sample[:, :3], sample_jac),
                flat_jac.T @ (blocks @ sample_jac).reshape(-1,
                                                           hand.N_PARAMS))

    return float(np.mean(np.abs(resid))), derivatives


def plain_kp_loss(geometry, keypoints):
    parts = np.asarray(keypoints.parts, dtype=int)
    diff = geometry.part_centers[parts - 1] - keypoints.targets

    def derivatives(joint_jac, sample_jac):
        jac = hand.center_jacobians(joint_jac, keypoints.parts)
        rows = jac.reshape(-1, hand.N_PARAMS)
        return 2.0 * np.einsum("kd,kdp->p", diff, jac), 2.0 * rows.T @ rows

    return float(np.sum(diff * diff)), derivatives


def plain_reg_loss(pose_vec):
    angles = pose_vec[6:26]
    ds = pose_vec[26] - 1.0
    value = float(angles @ angles + ds * ds)
    grad = np.zeros(hand.N_PARAMS)
    grad[6:26] = 2.0 * angles
    grad[26] = 2.0 * ds
    return value, grad


def plain_objective(weights, terms):
    return sum(w * t for w, t in zip(weights, terms))


def plain_pose_terms(vec, keypoints, obj, target, weights, nearest=None,
                     ceiling=None):
    """The terms keyed by name in a dict, the regularizer's gradient built
    with its value."""
    geometry, jacobian = plain_fk_with_jacobians(vec)
    weight = dict(zip(TERMS, weights))
    terms = dict.fromkeys(TERMS, (0.0, lambda *_: plain_flat()))
    if keypoints is not None and weight["kp"] > 0:
        terms["kp"] = plain_kp_loss(geometry, keypoints)
    if weight["penetration"] > 0:
        terms["penetration"] = plain_penetration_loss(geometry, obj)
    if weight["reg"] > 0:
        reg_value, reg_grad = plain_reg_loss(vec)
        terms["reg"] = (reg_value,
                        lambda *_: (reg_grad, optimizer._REG_CURVATURE))

    def exceeds(bound):
        bounded = {**terms, "contact": (bound, None)}
        return plain_objective(weights,
                               [v for v, _ in bounded.values()]) > ceiling

    if weight["contact"] > 0:
        terms["contact"] = plain_contact_loss(
            geometry, obj, target, nearest,
            None if ceiling is None else exceeds)
    values = tuple(value for value, _ in terms.values())
    if terms["contact"][1] is None:
        return values, None

    def derivatives():
        jac = jacobian()
        sample_jac = (hand.sample_jacobians(jac) if weight["contact"] > 0
                      or weight["penetration"] > 0 else None)
        pairs = [partial(jac, sample_jac) for _, partial in terms.values()]
        return tuple(zip(*pairs))

    return values, derivatives


def plain_lm_stage(stage, vec0, lock_scale, keypoints, obj, target, weights,
                   config, trace):
    """The descent loop with np.clip and np.isfinite on each trial; returns
    (x, its debug line)."""
    lo, hi = hand.parameter_bounds(lock_scale)
    max_iters = (config.max_iters_stage2 if stage == 2
                 else config.max_iters_stage3)
    free = lo < hi
    eye = np.eye(np.count_nonzero(free))
    if free.all():
        free = slice(None)
    nearest = None if obj is None else PlainNearestSite(obj.points)

    def evaluate(vec, ceiling=None):
        terms, derivatives = plain_pose_terms(vec, keypoints, obj, target,
                                              weights, nearest, ceiling)
        return plain_objective(weights, terms), terms, derivatives

    def accept():
        if nearest is not None:
            nearest.accept()

    x = np.clip(np.asarray(vec0, dtype=float), lo, hi)
    f, terms, derivatives = evaluate(x)
    accept()
    evals, done, drop, reason, damping = 1, 0, math.nan, "cap", None
    bounded = 0
    trace.append(stage, 0, f, terms)
    while done < max_iters:
        if f == 0.0:
            reason = "tol"
            break
        damping = (optimizer._LM_DAMPING_START if damping is None
                   else damping / optimizer._LM_DAMPING_FACTOR)
        grads, curvatures = derivatives()
        rhs = -plain_objective(weights, grads)[free]
        normal = plain_objective(weights, curvatures)[free][:, free]
        diag_max = normal.diagonal().max() or 1.0
        while damping <= optimizer._LM_DAMPING_MAX:
            x_new = x.copy()
            x_new[free] += np.linalg.solve(normal + damping * diag_max * eye,
                                           rhs)
            np.clip(x_new, lo, hi, out=x_new)
            f_new, terms, derivatives = evaluate(x_new, f)
            evals += 1
            bounded += derivatives is None
            if np.isfinite(f_new) and f_new <= f:
                break
            damping *= optimizer._LM_DAMPING_FACTOR
        else:
            reason = "backtrack"
            break
        accept()
        done, drop, x, f = done + 1, f - f_new, x_new, f_new
        trace.append(stage, done, f, terms)
        if drop < config.convergence_tol:
            reason = "tol"
            break
    trace.stops[stage] = stop = Stop(reason, done, evals, drop)
    rows = (0, 0) if nearest is None else (nearest.rescanned, nearest.queried)
    return x, (f"stage {stage}: {stop}, {bounded} trials rejected on the "
               f"bound, {rows[0]}/{rows[1]} contact rows rescanned")


SHAPE_DIMS = {"sphere": (0.05,), "box": (0.09, 0.09, 0.09),
              "cylinder": (0.04, 0.11), "plate": (0.12, 0.12, 0.012)}


def drawn_pose(rng, kind):
    """A pose vector inside parameter_bounds(): 'random', 'limits' (every
    angle and the scale at a bound) or 'still' (no global rotation, or one
    below the rotation's small-angle cutoff)."""
    lo, hi = hand.parameter_bounds()
    vec = np.empty(hand.N_PARAMS)
    vec[:3] = rng.uniform(-np.pi, np.pi, 3)
    vec[3:6] = rng.normal(scale=0.05, size=3)
    vec[6:] = rng.uniform(lo[6:], hi[6:])
    if kind == "limits":
        vec[6:] = np.where(rng.random(21) < 0.5, lo[6:], hi[6:])
    elif kind == "still":
        vec[:3] = rng.choice([0.0, 1e-13]) * rng.normal(size=3)
    return vec


def drawn_scene(seed, shape, count, kind):
    """(object, pose vector, target likelihoods, rng): a synthesized
    object with the hand posed against it, one object point moved onto a
    hand sample (distance 0, signed distance 0) and a few within
    CONTACT_RADIUS of others, and targets holding 0, 1 and the likelihood
    the pose induces, which makes those residuals 0."""
    rng = np.random.default_rng(seed)
    obj = generate_scene(SyntheticScene(shape, SHAPE_DIMS[shape], count,
                                        seed=seed % 1000))
    vec = drawn_pose(rng, kind)
    samples = hand.fk_with_jacobians(vec)[0].samples
    vec[3:6] += (obj.points[rng.integers(count)]
                 - samples[rng.integers(hand.N_SAMPLES)]
                 + rng.normal(scale=0.01, size=3))
    samples = hand.fk_with_jacobians(vec)[0].samples
    points = obj.points.copy()
    moved = rng.choice(count, 4, replace=False)
    owners = rng.choice(hand.N_SAMPLES, 4, replace=False)
    offset = rng.normal(size=(3, 3))
    offset *= (rng.uniform(0.1, 1.0, (3, 1)) * CONTACT_RADIUS
               / np.linalg.norm(offset, axis=1, keepdims=True))
    points[moved] = samples[owners]
    points[moved[1:]] += offset
    obj = ObjectModel(points=points, normals=obj.normals)
    d, _ = plain_nearest_site(obj.points, samples)
    target = rng.uniform(size=count)
    pick = rng.random(count)
    target[pick < 0.2] = 0.0
    target[pick > 0.9] = 1.0
    exact = (pick > 0.3) & (pick < 0.4)
    target[exact] = (CONTACT_RADIUS / np.maximum(d, CONTACT_RADIUS))[exact]
    return obj, vec, target, rng


SCENES = dict(seed=st.integers(0, 2 ** 32 - 1),
              shape=st.sampled_from(sorted(SHAPE_DIMS)),
              count=st.sampled_from([64, 256]),
              kind=st.sampled_from(["random", "limits", "still"]))


def assert_same_derivatives(got, want):
    for g, w in zip(got, want):
        assert bits(np.asarray(g)) == bits(np.asarray(w))


def moved_vec(rng, vec, move):
    """A trial pose near ``vec``: unmoved, moved a little, or moved so far
    that no row of a certified query keeps its owner."""
    vec = vec.copy()
    if move == "small":
        vec += rng.normal(scale=1e-3, size=hand.N_PARAMS)
    elif move == "far":
        vec[3:6] += 1.0
    return np.clip(vec, *hand.parameter_bounds())


class TestStageThreePaths:
    """Each lean stage-III function against its plain form above, bit for
    bit, over drawn poses and scenes.  ``met`` counts the cases each test
    is there for, so that the draws cannot drift away from them."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["random", "limits", "still"]))
    def test_kinematics_match_their_plain_form(self, seed, kind):
        vec = drawn_pose(np.random.default_rng(seed), kind)
        geometry, jacobian = hand.fk_with_jacobians(vec)
        want, want_jacobian = plain_fk_with_jacobians(vec)
        for name in ("joints", "part_centers", "samples"):
            assert bits(getattr(geometry, name)) == bits(getattr(want, name))
        assert bits(jacobian()) == bits(want_jacobian())
        assert bits(hand.rotation_matrix(vec[:3])) == bits(
            plain_rotation_matrix(vec[:3]))

    def test_scene_terms_match_their_plain_forms(self):
        met = dict.fromkeys(["on the surface", "at the clamp", "limits",
                             "every row rescanned", "bounded"], 0)
        self.scene_terms_match(met)
        assert min(met.values()) >= 10, met

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(**SCENES, move=st.sampled_from(["none", "small", "far"]),
           accept=st.booleans())
    def scene_terms_match(self, met, seed, shape, count, kind, move, accept):
        obj, vec, target, rng = drawn_scene(seed, shape, count, kind)
        geometry, jacobian = hand.fk_with_jacobians(vec)
        jac = jacobian()
        sample_jac = hand.sample_jacobians(jac)
        got, want = (nearest_surface(obj, geometry.samples),
                     plain_nearest_surface(obj, geometry.samples))
        for g, w in zip(got, want):
            assert bits(g) == bits(w)
        met["on the surface"] += bool(np.any(got[2] == 0.0))
        met["limits"] += kind == "limits"
        for loss, plain in ((penetration_loss, plain_penetration_loss),
                            (kp_loss, plain_kp_loss)):
            args = ((geometry, obj) if loss is penetration_loss else
                    (geometry, SimpleNamespace(
                        parts=(4, 7, 10), targets=obj.points[:3] * 1.2)))
            (value, derivatives), (ref_value, ref_derivatives) = (
                loss(*args), plain(*args))
            assert bits(value) == bits(ref_value)
            assert_same_derivatives(derivatives(jac, sample_jac),
                                    ref_derivatives(jac, sample_jac))
        # a fresh query, which scans every row, against one
        # plain_nearest_site scan; then a certified query at a trial pose
        # against the first query's answer (accepted or not), its bound
        # recorded
        (value, derivatives), (ref_value, ref_derivatives) = (
            contact_loss(geometry, obj, target,
                         scene.CertifiedNearestSite(obj.points)),
            plain_contact_loss(geometry, obj, target))
        assert bits(value) == bits(ref_value)
        assert_same_derivatives(derivatives(jac, sample_jac),
                                ref_derivatives(jac, sample_jac))
        met["at the clamp"] += bool(np.any(
            plain_nearest_site(obj.points, geometry.samples)[0]
            <= CONTACT_RADIUS))
        nearest = scene.CertifiedNearestSite(obj.points)
        plain = PlainNearestSite(obj.points)
        for query in (nearest, plain):
            query(geometry.samples)
            if accept:
                query.accept()
        trial, trial_jacobian = hand.fk_with_jacobians(
            moved_vec(rng, vec, move))
        trial_jac = trial_jacobian()
        trial_sample_jac = hand.sample_jacobians(trial_jac)
        ceiling = rng.choice([np.inf, -np.inf, value])
        bounds = []

        def exceeds(bound):
            bounds.append(bound)
            return bound > ceiling

        (value, derivatives), (ref_value, ref_derivatives) = (
            contact_loss(trial, obj, target, nearest, exceeds),
            plain_contact_loss(trial, obj, target, plain, exceeds))
        assert bits(value) == bits(ref_value)
        assert len(bounds) == 2 and bits(bounds[0]) == bits(bounds[1])
        assert (derivatives is None) == (ref_derivatives is None)
        if derivatives is None:
            met["bounded"] += 1
        else:
            assert_same_derivatives(
                derivatives(trial_jac, trial_sample_jac),
                ref_derivatives(trial_jac, trial_sample_jac))
            met["every row rescanned"] += (accept and nearest.rescanned
                                           == 2 * obj.n_points)
        assert ((nearest.queried, nearest.rescanned)
                == (plain.queried, plain.rescanned))

    def test_certified_queries_match_their_plain_form(self):
        met = {"every row rescanned": 0, "some rows certified": 0}
        self.certified_queries_match(met)
        assert min(met.values()) >= 20, met

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(**SCENES, moves=st.lists(st.tuples(
        st.sampled_from(["none", "small", "far"]), st.booleans()),
        min_size=1, max_size=6))
    def certified_queries_match(self, met, seed, shape, count, kind, moves):
        obj, vec, _, rng = drawn_scene(seed, shape, count, kind)
        nearest = scene.CertifiedNearestSite(obj.points)
        plain = PlainNearestSite(obj.points)
        accepted = vec
        for move, accept in [("none", True), *moves]:
            trial = moved_vec(rng, accepted, move)
            sites = hand.fk_with_jacobians(trial)[0].samples
            got, want = nearest.bracket(sites), plain.bracket(sites)
            rows = np.arange(obj.n_points)[want[1]]
            assert bits(got[1]) == bits(rows)
            for g, w in zip(got[::2], want[::2]):
                assert bits(g) == bits(w)
            for g, w in zip(nearest.scan(), plain.scan()):
                assert bits(g) == bits(w)
            if plain._accepted is not None:
                met["every row rescanned"] += rows.size == obj.n_points
                met["some rows certified"] += rows.size < obj.n_points
            if accept:
                nearest.accept()
                plain.accept()
                accepted = trial
        assert ((nearest.queried, nearest.rescanned)
                == (plain.queried, plain.rescanned))

    def test_pose_terms_and_descent_match_their_plain_forms(self):
        met = {"stage 2": 0, "stage 3": 0, "bounded": 0, "limits": 0}
        self.descent_matches(met)
        assert min(met.values()) >= 10, met

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(**SCENES, stage=st.sampled_from([2, 3]),
           budget=st.integers(1, 6), keypoint_free=st.booleans())
    def descent_matches(self, met, seed, shape, count, kind, stage, budget,
                        keypoint_free):
        obj, vec, target, _ = drawn_scene(seed, shape, count, kind)
        kps = (None if keypoint_free and stage == 3 else SimpleNamespace(
            parts=(4, 7, 10), targets=obj.points[:3] * 1.2))
        config = OptimizationConfig(max_iters_stage2=budget,
                                    max_iters_stage3=budget)
        if stage == 2:
            args = (vec, vec[26], kps, None, None,
                    tuple(float(name == "kp") for name in TERMS))
        else:
            args = (vec, None, kps, obj, target,
                    (config.w_kp, config.w_c, config.w_pene, config.w_reg))
        # pose_terms at the start, every term weighed, and bounded below
        # the start's objective
        for ceiling in (None, -np.inf):
            got = pose_terms(vec, kps, obj, target, (1.0,) * 4,
                             scene.CertifiedNearestSite(obj.points), ceiling)
            want = plain_pose_terms(vec, kps, obj, target, (1.0,) * 4,
                                    PlainNearestSite(obj.points), ceiling)
            assert bits(np.array(got[0])) == bits(np.array(want[0]))
            assert (got[1] is None) == (want[1] is None)
            if got[1] is not None:
                for g, w in zip(got[1](), want[1]()):
                    assert_same_derivatives(g, w)
        trace, ref_trace = OptimizationTrace(), OptimizationTrace()
        with search_lines() as lines:
            x = optimizer._lm_stage(stage, *args, config, trace)
        want_x, line = plain_lm_stage(stage, *args, config, ref_trace)
        assert bits(x) == bits(want_x)
        assert lines == [line]
        assert [dataclasses.astuple(r) for r in trace.records] == [
            dataclasses.astuple(r) for r in ref_trace.records]
        stop, ref_stop = trace.stops[stage], ref_trace.stops[stage]
        assert ((stop.reason, stop.iterations, stop.evaluations)
                == (ref_stop.reason, ref_stop.iterations,
                    ref_stop.evaluations))
        assert bits(stop.final) == bits(ref_stop.final)
        met[f"stage {stage}"] += 1
        met["bounded"] += " 0 trials rejected" not in line
        met["limits"] += kind == "limits"
