import numpy as np
import pytest
from numpy.testing import assert_allclose

from grasp_eq.force_codec import (MAX_BINS, build_binning, decode, encode,
                                  spread_force)

from conftest import sphere_object


@pytest.fixture
def binning():
    return build_binning(10, 0.0, 1.0)


class TestBinning:
    def test_default_edges(self, binning):
        assert binning.edges[0] == 0.0
        assert binning.edges[1] == pytest.approx(np.exp(-3.0))
        assert binning.edges[5] == pytest.approx(1.0)
        assert binning.edges[9] == pytest.approx(np.exp(3.0))
        assert np.isinf(binning.edges[10])
        assert np.all(np.diff(binning.edges[:-1]) > 0)

    def test_three_bins(self):
        b = build_binning(3, 0.7, 0.4)
        assert_allclose(b.edges[:3], [0.0, np.exp(0.7 - 1.2), np.exp(0.7 + 1.2)])
        assert np.isinf(b.edges[3])

    def test_invalid_counts(self):
        with pytest.raises(ValueError, match="bin count s must be at least 3"):
            build_binning(2)
        with pytest.raises(ValueError, match="sigma_log must be finite and positive"):
            build_binning(10, 0.0, 0.0)

    def test_bin_count_is_capped_before_allocation(self):
        assert build_binning(MAX_BINS).centers.shape == (MAX_BINS,)
        for s in (MAX_BINS + 1, 10 ** 9, 1e300):
            with pytest.raises(ValueError, match="at most"):
                build_binning(s)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_parameters(self, value):
        with pytest.raises(ValueError, match="bin count s must be a whole "
                                             "number"):
            build_binning(value)
        with pytest.raises(ValueError, match="mu_log must be finite"):
            build_binning(10, value, 1.0)
        with pytest.raises(ValueError, match="sigma_log must be finite"):
            build_binning(10, 0.0, value)

    def test_top_center_must_be_a_float(self):
        log_max = np.log(np.finfo(float).max)
        for s in (3, 10, MAX_BINS):
            # the top center's log is mu_log + 3 sigma_log (s - 1) / (s - 2)
            mu_log = log_max - 3.0 * (s - 1) / (s - 2) - 1e-9
            with np.errstate(over="raise"):
                top = build_binning(s, mu_log, 1.0).centers[-1]
            assert np.isfinite(top) and top > 1e300
            with pytest.raises(ValueError, match="float range"):
                build_binning(s, mu_log + 1e-6, 1.0)
        with pytest.raises(ValueError, match="float range"):
            build_binning(10, 0.0, 1e308)


class TestEncode:
    def test_zero_force(self, binning):
        v = encode(0.0, binning)
        assert v[0] == 1.0 and v.sum() == 1.0

    def test_unit_force(self, binning):
        assert np.argmax(encode(1.0, binning)) == 5

    def test_huge_force_lands_last(self, binning):
        assert np.argmax(encode(1000.0, binning)) == 9

    def test_rejects_bad_force(self, binning):
        with pytest.raises(ValueError, match="force must be finite and non-negative"):
            encode(-0.1, binning)
        with pytest.raises(ValueError, match="force must be finite and non-negative"):
            encode(np.inf, binning)

    def test_partition(self, binning):
        rng = np.random.default_rng(0)
        for force in rng.uniform(0.0, 50.0, size=500):
            v = encode(force, binning)
            assert v.sum() == 1.0
            i = int(np.argmax(v))
            assert binning.edges[i] <= force < binning.edges[i + 1]


class TestDecode:
    def test_one_hot_returns_center(self, binning):
        # log-space midpoint of [1, e^0.75)
        assert decode(encode(1.0, binning), binning) == pytest.approx(np.exp(0.375), rel=1e-12)

    def test_zero_roundtrip_exact(self, binning):
        assert decode(encode(0.0, binning), binning) == 0.0

    def test_uniform_scores_give_mean_center(self, binning):
        assert decode(np.ones(10), binning) == pytest.approx(binning.centers.mean())

    def test_roundtrip_lands_in_bin(self, binning):
        value = decode(encode(0.5, binning), binning)
        assert np.exp(-0.75) <= value < 1.0

    def test_shift_invariance(self, binning):
        rng = np.random.default_rng(1)
        v = rng.normal(size=10)
        assert decode(v + 3.7, binning) == pytest.approx(decode(v, binning), rel=1e-9)

    def test_continuity(self, binning):
        rng = np.random.default_rng(2)
        v = rng.normal(size=10)
        base = decode(v, binning)
        assert decode(v + 1e-9, binning) == pytest.approx(base, rel=1e-6)

    def test_errors(self, binning):
        with pytest.raises(ValueError, match="temperature must be positive"):
            decode(np.ones(10), binning, temperature=0.0)
        with pytest.raises(ValueError, match="expected 10 scores"):
            decode(np.ones(9), binning)

    def test_roundtrip_log_error_bound(self, binning):
        rng = np.random.default_rng(5)
        bound = 3.0 * binning.sigma_log / (binning.s - 2) + 1e-9
        lo, hi = np.log(binning.edges[1]), np.log(binning.edges[9])
        for force in np.exp(rng.uniform(lo, hi, size=300)):
            err = abs(np.log(decode(encode(force, binning), binning)) - np.log(force))
            assert err <= bound


class TestSpreadForce:
    def test_single_label(self):
        obj = sphere_object(count=64)
        mask = np.zeros(64, dtype=bool)
        mask[:4] = True
        forces, warnings = spread_force([(obj.points[0], 2.0)], obj, mask)
        assert warnings == 0
        assert_allclose(forces[:4], 0.5)
        assert forces[4:].sum() == 0.0

    def test_two_disjoint_labels(self):
        from grasp_eq.scene import ObjectModel
        pts = np.array([[0.05, 0.0, 0.0], [-0.05, 0.0, 0.0],
                        [-0.05, 0.004, 0.0], [-0.05, -0.004, 0.0]])
        normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        obj = ObjectModel(points=pts, normals=normals, com=np.zeros(3))
        mask = np.ones(4, dtype=bool)
        labels = [(pts[0], 1.0), (np.array([-0.05, 0.0, 0.0]), 1.0)]
        forces, warnings = spread_force(labels, obj, mask)
        assert warnings == 0
        assert forces[0] == pytest.approx(1.0)
        assert_allclose(forces[1:], 1.0 / 3.0)

    def test_labels_at_one_position_go_to_the_first(self):
        obj = sphere_object(count=64)
        mask = np.zeros(64, dtype=bool)
        mask[::3] = True
        labels = [(obj.points[5], 2.0), (obj.points[5].copy(), 7.0)]
        forces, warnings = spread_force(labels, obj, mask)
        # the tie goes to the lower label index; the second label's
        # affinity set is empty, which counts as a warning
        assert warnings == 1
        assert_allclose(forces[mask], 2.0 / mask.sum())
        assert forces[~mask].sum() == 0.0

    def test_no_valid_points(self):
        obj = sphere_object(count=32)
        forces, warnings = spread_force([(obj.points[0], 1.0)], obj,
                                        np.zeros(32, dtype=bool))
        assert warnings == 1
        assert np.all(forces == 0.0)

    def test_conserves_total(self):
        rng = np.random.default_rng(9)
        obj = sphere_object(count=128)
        mask = rng.uniform(size=128) < 0.4
        labels = [(obj.points[i], float(rng.uniform(0, 5))) for i in (0, 40, 90)]
        forces, warnings = spread_force(labels, obj, mask)
        total = sum(f for _, f in labels)
        if warnings == 0 and mask.any():
            assert forces.sum() == pytest.approx(total, abs=1e-9)
