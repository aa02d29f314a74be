"""The keypoint search's lean paths against their plain forms, bit for bit.

Each reference below is the plain form of a function the keypoint search
runs on every candidate: the box QP loop over a boolean free set, the
sub-system built through ``dataclasses.replace``, the stability energy
that freezes each output, and the search loop with its bounds written
out.  The lean forms must return the same bits, ties and solve order
included.  Clustering is pinned against one aggregate call per cluster
in test_keypoints.py.
"""

import contextlib
import functools
import itertools
import logging
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp_eq import keypoints
from grasp_eq.equilibrium import (QP_MAX_ITER, QP_TOL, StabilityResult,
                                  _check_friction, _solve_box, assemble,
                                  energy_lower_bounds, solve_force_existence,
                                  stability_energy)
from grasp_eq.errors import SolverError, Stop
from grasp_eq.scene import _freeze

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
    return StabilityResult(energy=float(accel @ accel), gamma=_freeze(x[:n]),
                           delta=_freeze(x[n:]), accel=_freeze(accel),
                           stop=stop)


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
            for name in ("gamma", "delta", "accel"):
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
