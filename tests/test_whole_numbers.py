"""Every count, seed, budget and label goes through errors.whole_number.

A value that is not a whole number, or lies outside its range, raises a
ValueError whose message starts with the field's name; an integral float
gives the result of its int.
"""

import json
import math
import pickle

import numpy as np
import pytest

from grasp_eq import io as io_mod
from grasp_eq.batch import batch_report, build_batch
from grasp_eq.errors import whole_number
from grasp_eq.force_codec import MAX_BINS, build_binning
from grasp_eq.gradcheck import run_gradcheck
from grasp_eq.keypoints import check_keypoint_settings
from grasp_eq.optimizer import OptimizationConfig
from grasp_eq.synth import (MAX_SAMPLE_COUNT, SyntheticScene,
                            generate_contacts, generate_scene)

TINY = OptimizationConfig(max_iters_stage2=5, max_iters_stage3=5)
INT = np.iinfo(int)


def _sphere(sample_count=256, seed=0):
    return generate_scene(SyntheticScene("sphere", (0.05,), sample_count,
                                         seed))


def _batch_rows(threads):
    rows = batch_report(build_batch(1, ["sphere"], 0, 256), TINY,
                        threads=threads)
    return [(r.index, r.status, r.residual_after) for r in rows]


def _part_labels(label, tmp_path):
    path = tmp_path / "contacts.json"
    path.write_text(json.dumps({"likelihood": [1.0, 0.0],
                                "part_label": [label, 0],
                                "force": [1.0, 0.0]}))
    return io_mod.load_contacts(path)


# id: (name, low, high, a valid value, call(value, tmp_path))
ENTRIES = {
    "scene seed": ("seed", 0, None, 3,
                   lambda v, _: _sphere(seed=v)),
    "contact seed": ("seed", 0, None, 3,
                     lambda v, _: generate_contacts(_sphere(), "tripod",
                                                    seed=v)),
    "batch seed": ("seed", 0, None, 3,
                   lambda v, _: build_batch(2, ["sphere"], v)),
    "gradcheck seed": ("seed", 0, None, 3,
                       lambda v, _: run_gradcheck(count=1, seed=v)),
    "sample_count": ("sample_count", 16, MAX_SAMPLE_COUNT, 256,
                     lambda v, _: _sphere(sample_count=v)),
    "batch sample_count": ("sample_count", 16, MAX_SAMPLE_COUNT, 256,
                           lambda v, _: build_batch(2, ["sphere"], 0, v)),
    "scene count": ("count", 1, None, 2,
                    lambda v, _: build_batch(v, ["sphere"], 0)),
    "threads": ("threads", 1, None, 1, lambda v, _: _batch_rows(v)),
    "gradcheck count": ("count", 1, None, 1,
                        lambda v, _: run_gradcheck(count=v)),
    "n_patches": ("n_patches", 1, 15, 4,
                  lambda v, _: generate_contacts(_sphere(), "random", seed=2,
                                                 n_patches=v)),
    "n_kp": ("n_kp", 1, None, 3,
             lambda v, _: check_keypoint_settings(n_kp=v)),
    "bin count": ("bin count s", 3, MAX_BINS, 5,
                  lambda v, _: build_binning(v)),
    "stage 2 budget": ("max_iters_stage2", 1, None, 5,
                       lambda v, _: OptimizationConfig(max_iters_stage2=v)),
    "stage 3 budget": ("max_iters_stage3", 1, None, 5,
                       lambda v, _: OptimizationConfig(max_iters_stage3=v)),
    "part label": ("contact part_label", int(INT.min), int(INT.max), 2,
                   _part_labels),
}


def _bad_values(low, high):
    values = [2.5, True, math.nan, math.inf, "3", low - 1]
    return values if high is None else [*values, high + 1]


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, low, high, _, _) in ENTRIES.items()
    for value in _bad_values(low, high)], ids=repr)
def test_a_bad_count_is_refused_by_name(entry, value, tmp_path):
    name, _, _, _, call = ENTRIES[entry]
    with pytest.raises(ValueError) as info:
        call(value, tmp_path)
    assert str(info.value).startswith(f"{name} ")


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_integral_float_is_its_int(entry, tmp_path):
    _, _, _, valid, call = ENTRIES[entry]
    # pickles hold the types and the bits, so a float left in fails
    assert (pickle.dumps(call(float(valid), tmp_path))
            == pickle.dumps(call(valid, tmp_path)))


def test_batch_csvs_are_the_same_for_integral_floats(tmp_path):
    def summary(out, **given):
        config = OptimizationConfig(
            max_iters_stage2=given["budget"], max_iters_stage3=given["budget"])
        scenes = build_batch(2, ["sphere"], seed=given["seed"],
                             sample_count=given["sample_count"])
        batch_report(scenes, config, out_dir=out, threads=given["threads"],
                     n_kp=given["n_kp"])
        return [(out / name).read_bytes()
                for name in ("summary.csv", "penetration_curve.csv")]

    ints = summary(tmp_path / "ints", seed=3, sample_count=256, budget=5,
                   threads=1, n_kp=3)
    floats = summary(tmp_path / "floats", seed=3.0, sample_count=256.0,
                     budget=5.0, threads=1.0, n_kp=3.0)
    assert floats == ints
    assert b"ok=2/2" in ints[0]


class TestWholeNumber:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_returns_an_int(self, value):
        result = whole_number(value, "k", 0)
        assert result == 3 and type(result) is int

    def test_takes_a_whole_number_past_the_float_range(self):
        assert whole_number(10 ** 400, "k", 0) == 10 ** 400
        with pytest.raises(ValueError, match=r"^k must be at most 5, got "):
            whole_number(10 ** 400, "k", 0, 5)

    @pytest.mark.parametrize("value, form", [
        (2.5, "a whole number"), (False, "a whole number"),
        (np.bool_(True), "a whole number"), (None, "a whole number"),
        (-math.inf, "a whole number"), (0, "at least 1"),
        (11.0, "at most 10")])
    def test_refuses_in_one_of_three_forms(self, value, form):
        with pytest.raises(ValueError) as info:
            whole_number(value, "k", 1, 10)
        assert str(info.value) == f"k must be {form}, got {value!r}"

    def test_the_bounds_are_inclusive(self):
        assert whole_number(1, "k", 1, 10) == 1
        assert whole_number(10, "k", 1, 10) == 10
