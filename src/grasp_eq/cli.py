"""Command-line interface.

Verbs: analyze, keypoints, optimize, synth, encode-force, decode-force,
gradcheck, batch.  Exit codes: 0 success, 1 usage error, 2 input validation
failure, 3 solver non-convergence.  A batch writes its reports even when
scenes fail, then exits 3 if every failure is a solver error, else 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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


def _parse_floats(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} expects {count} comma-separated values")
    return tuple(float(p) for p in parts)


def _load_config(path):
    if path is None:
        return {}
    cfg = io_mod.load_json(path)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _opt_config(cfg):
    try:
        return OptimizationConfig(**cfg.get("optimizer", {}))
    except TypeError as err:  # unknown or non-mapping settings
        raise ValueError(f"optimizer config: {err}") from None


def _resolve(args, cfg, key, default):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _gravity(args, cfg, file_gravity=None):
    if args.gravity is not None:
        return np.array(_parse_floats(args.gravity, 3, "--gravity"))
    if "gravity" in cfg:
        return io_mod.json_array(cfg["gravity"], "gravity", shape=(3,))
    if file_gravity is not None:
        return np.asarray(file_gravity, dtype=float)
    return np.array(GRAVITY)


def _binning(args, cfg):
    block = cfg.get("binning", {})
    if not isinstance(block, dict):
        raise ValueError(f"binning config must be a JSON object, got {block!r}")
    s = (args.bins if args.bins is not None
         else io_mod.json_number(block.get("s", 10), "binning s"))
    mu_log = io_mod.json_number(block.get("mu_log", 0.0), "mu_log")
    sigma_log = io_mod.json_number(block.get("sigma_log", 1.0), "sigma_log")
    temperature = io_mod.json_number(
        block.get("temperature", DEFAULT_TEMPERATURE), "temperature")
    return build_binning(s, mu_log, sigma_log), temperature


def _emit(payload, path=None):
    if path:
        io_mod.dump_json(path, payload)
    else:
        print(json.dumps(io_mod.to_jsonable(payload), indent=2))


def _cmd_synth(args, cfg):
    from .synth import SyntheticScene, generate_contacts, generate_scene

    dims = tuple(float(d) for d in args.dims.split(","))
    spec = SyntheticScene(shape=args.shape, dimensions=dims,
                          sample_count=args.samples, seed=args.seed)
    obj = generate_scene(spec)
    gravity = _gravity(args, cfg)
    mu = _resolve(args, cfg, "mu", DEFAULT_MU)
    io_mod.save_scene(args.scene_out, obj, gravity=gravity)
    if args.contacts_out:
        contacts = generate_contacts(obj, args.style, seed=args.seed, mu=mu,
                                     gravity=gravity)
        io_mod.save_contacts(args.contacts_out, contacts)
    return 0


def _scene_inputs(args, cfg):
    """(obj, contacts, gravity, mu); one contact entry per scene point."""
    obj, file_gravity = io_mod.load_scene(args.scene)
    contacts = io_mod.load_contacts(args.contacts)
    if contacts.n_points != obj.n_points:
        raise ValueError(f"contact file {args.contacts} has {contacts.n_points}"
                         f" points, scene file {args.scene} {obj.n_points}")
    return (obj, contacts, _gravity(args, cfg, file_gravity),
            _resolve(args, cfg, "mu", DEFAULT_MU))


def _cmd_analyze(args, cfg):
    obj, contacts, gravity, mu = _scene_inputs(args, cfg)
    sys_sub, idx = assemble_from_contact_state(obj, contacts, mu=mu,
                                               gravity=gravity)
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


def _keypoint_options(args, cfg):
    """Keyword arguments of the keypoint chain from flags, config, defaults."""
    return {
        "cluster_radius": _resolve(args, cfg, "cluster_radius",
                                   DEFAULT_CLUSTER_RADIUS),
        "n_kp": _resolve(args, cfg, "n_kp", DEFAULT_N_KEYPOINTS),
        "target_offset": _resolve(args, cfg, "offset", DEFAULT_KEYPOINT_OFFSET),
    }


def _cmd_keypoints(args, cfg):
    obj, contacts, gravity, mu = _scene_inputs(args, cfg)
    kps = find_keypoints(obj, contacts, mu=mu, gravity=gravity,
                         **_keypoint_options(args, cfg))
    _emit(io_mod.keypoints_payload(kps), args.output)
    return 0


def _cmd_optimize(args, cfg):
    obj, contacts, gravity, mu = _scene_inputs(args, cfg)
    result = run_pipeline(obj, contacts, _opt_config(cfg), mu=mu,
                          gravity=gravity, **_keypoint_options(args, cfg))
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
        # last_drop is nan for a stage that accepted no step; null keeps
        # the file strict JSON
        "stops": {str(stage): {**dataclasses.asdict(stop),
                               "last_drop": None if math.isnan(stop.last_drop)
                               else stop.last_drop}
                  for stage, stop in sorted(result.trace.stops.items())},
    }
    io_mod.dump_json(os.path.join(args.out_dir, "evaluation.json"), evaluation)
    return 0


def _load_values(args):
    if args.value is not None:
        return [float(args.value)]
    data = io_mod.load_json(args.input)
    return [io_mod.json_number(v, "force value")
            for v in (data if isinstance(data, list) else [data])]


def _cmd_encode_force(args, cfg):
    binning, _ = _binning(args, cfg)
    vectors = [encode(v, binning) for v in _load_values(args)]
    payload = vectors[0] if args.value is not None else vectors
    _emit(payload, args.output)
    return 0


def _cmd_decode_force(args, cfg):
    binning, temperature = _binning(args, cfg)
    if args.temperature is not None:
        temperature = args.temperature
    data = io_mod.load_json(args.input) if args.input else json.loads(args.scores)
    arr = io_mod.json_array(data, "score")
    if arr.ndim == 2:
        payload = [decode(row, binning, temperature) for row in arr]
    else:  # decode refuses any shape but (bins,)
        payload = decode(arr, binning, temperature)
    _emit(payload, args.output)
    return 0


def _cmd_gradcheck(args, cfg):
    from .gradcheck import run_gradcheck

    report = run_gradcheck(count=args.count, seed=args.seed)
    _emit(report, args.output)
    return 0 if report["passed"] else SOLVER_EXIT


def _cmd_batch(args, cfg):
    shapes = args.shapes.split(",")
    config = _opt_config(cfg)
    gravity = _gravity(args, cfg)
    mu = _resolve(args, cfg, "mu", DEFAULT_MU)
    scenes = batch_mod.build_batch(args.count, shapes, args.seed,
                                   sample_count=args.samples)
    rows = batch_mod.batch_report(scenes, config, mu=mu, gravity=gravity,
                                  out_dir=args.out_dir, threads=args.threads)
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
            cfg = _load_config(getattr(args, "config", None))
            return args.func(args, cfg)
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
