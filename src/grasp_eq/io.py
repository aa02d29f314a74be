"""JSON/CSV serialization with exact float round-trips and atomic writes.

Floats are emitted with Python's shortest-exact repr, so writing and
re-reading any artifact reproduces the in-memory values bit for bit.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import is_number
from .hand import HandPose
from .keypoints import KeypointSet
from .scene import GRAVITY, ContactState, ObjectModel


def to_jsonable(value):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def atomic_write_text(path, text):
    """Write via a temp file in the same directory, then rename.

    The temp file is created with mode 0o666 less the umask, as ``open()``
    creates files (``mkstemp`` would fix it at 0o600, which the rename
    keeps), without reading the process-wide umask, which means setting it.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path, payload):
    atomic_write_text(path, json.dumps(to_jsonable(payload), indent=2) + "\n")


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def json_number(value, field):
    """``value`` as a float, if it is a number; JSON ``true``, ``false``,
    strings and ``null`` are not."""
    if not is_number(value):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def json_vector(value, count, field):
    """``value`` as a float array, if it is a list of ``count`` numbers."""
    if not isinstance(value, list) or len(value) != count:
        raise ValueError(f"{field} must be a list of {count} numbers, "
                         f"got {value!r}")
    return np.array([json_number(v, field) for v in value])


def save_scene(path, obj: ObjectModel, gravity=GRAVITY):
    dump_json(path, {
        "points": obj.points,
        "normals": obj.normals,
        "com": obj.com,
        "mass": obj.mass,
        "gravity": np.asarray(gravity, dtype=float),
    })


def load_scene(path):
    """Returns (ObjectModel, gravity)."""
    data = load_json(path)
    for key in ("points", "normals", "com"):
        if key not in data:
            raise ValueError(f"scene file {path} is missing {key!r}")
    obj = ObjectModel(points=np.array(data["points"], dtype=float),
                      normals=np.array(data["normals"], dtype=float),
                      com=np.array(data["com"], dtype=float),
                      mass=json_number(data.get("mass", 1.0), "scene mass"))
    if "gravity" not in data:
        return obj, np.array(GRAVITY)
    return obj, json_vector(data["gravity"], 3, "scene gravity")


def save_contacts(path, state: ContactState):
    dump_json(path, {
        "likelihood": state.likelihood,
        "part_label": state.part_label,
        "force": state.force,
    })


def load_contacts(path) -> ContactState:
    data = load_json(path)
    for key in ("likelihood", "part_label", "force"):
        if key not in data:
            raise ValueError(f"contact file {path} is missing {key!r}")
    return ContactState(likelihood=np.array(data["likelihood"], dtype=float),
                        part_label=np.array(data["part_label"], dtype=int),
                        force=np.array(data["force"], dtype=float))


def save_pose(path, pose: HandPose):
    dump_json(path, {
        "rot": pose.rotation,
        "trans": pose.translation,
        "angles": pose.angles,
        "scale": pose.scale,
    })


def load_pose(path) -> HandPose:
    data = load_json(path)
    return HandPose(rotation=np.array(data["rot"], dtype=float),
                    translation=np.array(data["trans"], dtype=float),
                    angles=np.array(data["angles"], dtype=float),
                    scale=float(data.get("scale", 1.0)))


def keypoints_payload(kps: KeypointSet):
    return {
        "parts": list(kps.parts),
        "centers": kps.centers,
        "forces": kps.forces,
        "normals": kps.normals,
        "targets": kps.targets,
        "energy": kps.energy,
    }


def save_keypoints(path, kps: KeypointSet):
    dump_json(path, keypoints_payload(kps))


def load_keypoints(path) -> KeypointSet:
    data = load_json(path)
    return KeypointSet(parts=tuple(int(p) for p in data["parts"]),
                       centers=np.array(data["centers"], dtype=float),
                       forces=np.array(data["forces"], dtype=float),
                       normals=np.array(data["normals"], dtype=float),
                       targets=np.array(data["targets"], dtype=float),
                       energy=float(data["energy"]))


def format_cell(value):
    """Canonical CSV cell: shortest-exact repr for floats."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(c) for c in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def trace_rows(trace):
    rows = []
    for rec in trace.records:
        rows.append([rec.stage, rec.iteration, rec.total, rec.kp, rec.contact,
                     rec.penetration, rec.reg])
    return rows


def save_trace(path, trace):
    write_csv(path, ["stage", "iteration", "total", "kp", "contact",
                     "penetration", "reg"], trace_rows(trace))
