"""Command-line interface.

Verbs: analyze, keypoints, optimize, synth, encode-force, decode-force,
gradcheck, batch.  Exit codes: 0 success, 1 usage error, 2 input validation
failure, 3 solver non-convergence.  A batch writes its reports even when
scenes fail, then exits 3 if every failure is a solver error, else 2.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import sys

import numpy as np

from . import batch as batch_mod
from . import io as io_mod
from .equilibrium import (DEFAULT_MU, assemble_from_contact_state,
                          stability_energy, stability_loss,
                          stability_loss_masked)
from .errors import GraspEqError, SolverError
from .force_codec import DEFAULT_TEMPERATURE, build_binning, decode, encode
from .keypoints import (DEFAULT_CLUSTER_RADIUS, DEFAULT_KEYPOINT_OFFSET,
                        DEFAULT_N_KEYPOINTS, find_keypoints)
from .optimizer import OptimizationConfig, run_pipeline
from .scene import GRAVITY

USAGE_EXIT = 1
INPUT_EXIT = 2
SOLVER_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


# The config file's schema: each top-level setting with its default, and
# the keys of the two blocks.  A binning value left out takes
# build_binning's default; "optimizer" holds OptimizationConfig's fields.
_SCHEMA = {"mu": DEFAULT_MU, "gravity": GRAVITY, "n_kp": DEFAULT_N_KEYPOINTS,
           "cluster_radius": DEFAULT_CLUSTER_RADIUS,
           "offset": DEFAULT_KEYPOINT_OFFSET,
           "binning": ("s", "mu_log", "sigma_log", "temperature"),
           "optimizer": tuple(f.name for f in
                              dataclasses.fields(OptimizationConfig))}


def _declared(data, keys, where):
    """``data``, if it is a JSON object whose keys are all in ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must hold a JSON object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ValueError(f"{where} has undeclared key {key!r}")
    return data


def _settings(args, scene_file=None):
    """Each setting from its flag, else the config file, else the mapping
    ``scene_file`` (a scene file's gravity), else its default.  Raises
    ValueError naming a config key outside _SCHEMA or of the wrong type."""
    path = getattr(args, "config", None)
    cfg = _declared(io_mod.load_json(path) if path else {}, _SCHEMA,
                    "config file")
    binning, optimizer = (_declared(cfg.pop(name, {}), _SCHEMA[name],
                                    f"config {name}")
                          for name in ("binning", "optimizer"))
    binning = {key: io_mod.json_number(value, f"binning {key}")
               for key, value in binning.items()}
    cfg = {key: io_mod.json_array(value, key, shape=(3,)) if key == "gravity"
           else io_mod.json_number(value, "friction coefficient mu"
                                   if key == "mu" else key)
           for key, value in cfg.items()}
    flags = {key: value for key, value in vars(args).items()
             if value is not None}
    if "gravity" in flags:
        parts = args.gravity.split(",")
        if len(parts) != 3:
            raise ValueError("--gravity expects 3 comma-separated values")
        flags["gravity"] = np.array([float(p) for p in parts])
    if "bins" in flags:
        binning["s"] = flags["bins"]
    temperature = binning.pop("temperature", DEFAULT_TEMPERATURE)
    s = collections.ChainMap(flags, cfg, scene_file or {}, _SCHEMA)
    # grouped as the flags are, each group a set of keyword arguments
    return {"physics": {"mu": s["mu"], "gravity": s["gravity"]},
            "keypoint": {"cluster_radius": s["cluster_radius"],
                         "n_kp": s["n_kp"], "target_offset": s["offset"]},
            "binning": build_binning(**binning),
            "temperature": flags.get("temperature", temperature),
            "optimizer": OptimizationConfig(**optimizer)}


def _emit(payload, path=None):
    if path:
        io_mod.dump_json(path, payload)
    else:
        print(json.dumps(io_mod.to_jsonable(payload), indent=2))


def _cmd_synth(args):
    from .synth import SyntheticScene, generate_contacts, generate_scene

    physics = _settings(args)["physics"]
    dims = tuple(float(d) for d in args.dims.split(","))
    spec = SyntheticScene(shape=args.shape, dimensions=dims,
                          sample_count=args.samples, seed=args.seed)
    obj = generate_scene(spec)
    # generated before either file is written, so a failure writes neither
    contacts = (generate_contacts(obj, args.style, seed=args.seed, **physics)
                if args.contacts_out else None)
    io_mod.save_scene(args.scene_out, obj, gravity=physics["gravity"])
    if contacts is not None:
        io_mod.save_contacts(args.contacts_out, contacts)
    return 0


def _scene_inputs(args):
    """(obj, contacts, settings); one contact entry per scene point."""
    obj, file_gravity = io_mod.load_scene(args.scene)
    contacts = io_mod.load_contacts(args.contacts)
    if contacts.n_points != obj.n_points:
        raise ValueError(f"contact file {args.contacts} has {contacts.n_points}"
                         f" points, scene file {args.scene} {obj.n_points}")
    return obj, contacts, _settings(args, {"gravity": file_gravity})


def _cmd_analyze(args):
    obj, contacts, settings = _scene_inputs(args)
    sys_sub, idx = assemble_from_contact_state(obj, contacts,
                                               **settings["physics"])
    result = stability_energy(sys_sub)
    payload = {
        "energy": result.energy,
        "accel": result.accel,
        "gamma": result.gamma,
        "delta": result.delta,
        "contact_indices": idx,
        "loss": stability_loss(sys_sub),
        "loss_masked": stability_loss_masked(
            sys_sub, contacts.force[idx], contacts.likelihood[idx]),
    }
    _emit(payload, args.output)
    return 0


def _cmd_keypoints(args):
    obj, contacts, settings = _scene_inputs(args)
    kps = find_keypoints(obj, contacts, **settings["physics"],
                         **settings["keypoint"])
    _emit(io_mod.keypoints_payload(kps), args.output)
    return 0


def _cmd_optimize(args):
    obj, contacts, settings = _scene_inputs(args)
    result = run_pipeline(obj, contacts, settings["optimizer"],
                          **settings["physics"], **settings["keypoint"])
    os.makedirs(args.out_dir, exist_ok=True)
    io_mod.save_pose(os.path.join(args.out_dir, "pose.json"), result.pose_stage3)
    io_mod.save_keypoints(os.path.join(args.out_dir, "keypoints.json"),
                          result.keypoints)
    io_mod.save_trace(os.path.join(args.out_dir, "trace.csv"), result.trace)
    evaluation = {
        **{name: {"residual": report.residual,
                  "contacts": report.contact_count,
                  "max_penetration": report.max_penetration}
           for name, report in (("before", result.report_before),
                                ("after", result.report_after))},
        "keypoint_energy": result.keypoints.energy,
        "registration_residual": result.registration.residual,
        "stops": {str(stage): stop.as_json("last_drop")
                  for stage, stop in sorted(result.trace.stops.items())},
        "seconds": result.seconds,
    }
    io_mod.dump_json(os.path.join(args.out_dir, "evaluation.json"), evaluation)
    return 0


def _load_values(args):
    if args.value is not None:
        return [float(args.value)]
    data = io_mod.load_json(args.input)
    return [io_mod.json_number(v, "force value")
            for v in (data if isinstance(data, list) else [data])]


def _cmd_encode_force(args):
    binning = _settings(args)["binning"]
    vectors = [encode(v, binning) for v in _load_values(args)]
    payload = vectors[0] if args.value is not None else vectors
    _emit(payload, args.output)
    return 0


def _cmd_decode_force(args):
    settings = _settings(args)
    binning, temperature = settings["binning"], settings["temperature"]
    data = io_mod.load_json(args.input) if args.input else json.loads(args.scores)
    arr = io_mod.json_array(data, "score")
    if arr.ndim == 2:
        payload = [decode(row, binning, temperature) for row in arr]
    else:  # decode refuses any shape but (bins,)
        payload = decode(arr, binning, temperature)
    _emit(payload, args.output)
    return 0


def _cmd_gradcheck(args):
    from .gradcheck import run_gradcheck

    report = run_gradcheck(count=args.count, seed=args.seed)
    _emit(report, args.output)
    return 0 if report["passed"] else SOLVER_EXIT


def _cmd_batch(args):
    settings = _settings(args)
    scenes = batch_mod.build_batch(args.count, args.shapes.split(","),
                                   args.seed, sample_count=args.samples)
    rows = batch_mod.batch_report(
        scenes, settings["optimizer"], **settings["physics"],
        **settings["keypoint"], out_dir=args.out_dir, threads=args.threads)
    failures = [r for r in rows if r.status != "ok"]
    print(f"batch: {len(rows) - len(failures)}/{len(rows)} scenes ok, "
          f"reports in {args.out_dir}")
    for row in failures:
        print(f"scene {row.index}: {row.status}", file=sys.stderr)
    if not failures:
        return 0
    if all(issubclass(r.error, SolverError) for r in failures):
        return SOLVER_EXIT
    return INPUT_EXIT


def build_parser() -> _Parser:
    parser = _Parser(prog="grasp-eq",
                     description="Force-aware grasp stability toolkit")
    # each verb takes only the shared flags it reads
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="random seed")
    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--gravity", help="gravity as x,y,z")
    physics.add_argument("--mu", type=float, help="friction coefficient")
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--scene", required=True)
    scene.add_argument("--contacts", required=True)
    keypoint = argparse.ArgumentParser(add_help=False)
    keypoint.add_argument("--n-kp", type=int)
    keypoint.add_argument("--cluster-radius", type=float)
    keypoint.add_argument("--offset", type=float)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[config, seed, physics],
                       help="generate a synthetic scene and contact state")
    p.add_argument("--shape", required=True,
                   choices=("sphere", "box", "cylinder", "plate"))
    p.add_argument("--dims", required=True, help="comma-separated dimensions")
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--style", default="tripod",
                   choices=("tripod", "pinch", "wrap", "random"))
    p.add_argument("--scene-out", required=True)
    p.add_argument("--contacts-out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", parents=[config, physics, scene, output],
                       help="stability energy and loss of a contact state")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("keypoints",
                       parents=[config, physics, scene, keypoint, output],
                       help="select stability-optimal contact keypoints")
    p.set_defaults(func=_cmd_keypoints)

    p = sub.add_parser("optimize", parents=[config, physics, scene, keypoint],
                       help="run the three-stage pose optimization")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("encode-force", parents=[config, output],
                       help="one-hot encode force values")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--value", type=float)
    g.add_argument("--input", help="JSON file with a list of forces")
    p.add_argument("--bins", type=int)
    p.set_defaults(func=_cmd_encode_force)

    p = sub.add_parser("decode-force", parents=[config, output],
                       help="soft-argmax decode force score vectors")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--scores", help="JSON array of bin scores")
    g.add_argument("--input", help="JSON file with scores")
    p.add_argument("--bins", type=int)
    p.add_argument("--temperature", type=float)
    p.set_defaults(func=_cmd_decode_force)

    p = sub.add_parser("gradcheck", parents=[seed, output],
                       help="verify analytic gradients against finite differences")
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("batch", parents=[config, seed, physics],
                       help="run the pipeline over a batch of synthetic scenes")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--shapes", default="sphere,box,cylinder,plate")
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int,
                   help="most processes that run scenes, this one "
                        "included, which forks the rest (default: the CPUs "
                        "this process may run on; 1 runs serially)")
    p.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a verb's magnitudes all come from its inputs, so an overflow or
        # an invalid value is an input out of range, not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return SOLVER_EXIT
    except (GraspEqError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return INPUT_EXIT
    except FloatingPointError as err:
        print(f"input error: an input is out of range ({err})",
              file=sys.stderr)
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
