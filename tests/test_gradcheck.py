"""The finite-difference routine behind the gradient check."""

import numpy as np
import pytest

from grasp_eq import gradcheck
from grasp_eq.gradcheck import _fd_check, run_gradcheck
from grasp_eq.optimizer import TERMS


class TestFdCheck:
    def test_probe_straddling_a_kink_is_unchecked(self):
        h = 1e-6
        # forward slope 1, backward -1/2: the central difference reads 1/4
        assert _fd_check(np.abs, np.array([h / 4]), np.eye(1),
                         np.ones(1), h) == (False, 0.0)

    def test_only_the_kinked_probe_is_skipped(self):
        h = 1e-6
        checked, err = _fd_check(lambda x: abs(x[0]) + x[1] ** 2,
                                 np.array([h / 4, 0.3]), np.eye(2),
                                 np.array([1.0, 0.6]), h)
        assert checked and err < 1e-6

    def test_smooth_function_is_checked(self):
        def fun(x):
            return np.array([np.sin(x[0]) * x[1], np.exp(x[1]) + x[2] ** 3])

        def grads(x):
            return np.array([[np.cos(x[0]) * x[1], np.sin(x[0]), 0.0],
                             [0.0, np.exp(x[1]), 3 * x[2] ** 2]])

        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, size=3)
        directions = np.vstack([np.eye(3), rng.normal(size=(4, 3))])
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        checked, err = _fd_check(fun, x, directions, grads(x), 1e-6)
        assert checked and err < 1e-6


def _scaled_pose_term(index):
    """pose_terms with the gradient of TERMS[index] scaled by 1.01."""
    real = gradcheck.pose_terms

    def pose_terms(*args, **kwargs):
        values, derivatives = real(*args, **kwargs)

        def scaled():
            grads, curvatures = derivatives()
            grads = list(grads)
            grads[index] = 1.01 * np.asarray(grads[index])
            return tuple(grads), curvatures
        return values, scaled
    return pose_terms


class TestRunGradcheck:
    """A 1% error in any one gradient fails the verb's default run, so the
    kink test does not skip every point.  Five points would not do: at
    seed 0 none of the first five poses sinks a hand sample into the
    object, so the penetration term and its gradient are 0 at each."""

    def test_passes_on_the_analytic_gradients(self):
        report = run_gradcheck()
        assert report["passed"]
        assert report["loss_gradient"]["checked"] == 20
        assert report["pose_gradients"]["checked"] == 20

    @pytest.mark.parametrize("term", TERMS)
    def test_one_percent_error_in_a_pose_term_fails(self, term, monkeypatch):
        monkeypatch.setattr(gradcheck, "pose_terms",
                            _scaled_pose_term(TERMS.index(term)))
        report = run_gradcheck()
        assert not report["passed"]
        assert report["pose_gradients"]["max_rel_err"] > gradcheck.REL_TOL

    def test_one_percent_error_in_the_loss_gradient_fails(self, monkeypatch):
        real = gradcheck.loss_gradient
        monkeypatch.setattr(gradcheck, "loss_gradient",
                            lambda *args: 1.01 * real(*args))
        report = run_gradcheck()
        assert not report["passed"]
        assert report["loss_gradient"]["max_rel_err"] > gradcheck.REL_TOL
