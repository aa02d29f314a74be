"""JSON/CSV serialization with exact float round-trips and atomic writes.

Floats are emitted with Python's shortest-exact repr, so writing and
re-reading any artifact reproduces the in-memory values bit for bit.
Loaders read every numeric field as the JSON numbers it holds: a boolean,
a string, NaN, an infinity, a fractional id or a misshapen array is
refused, not converted.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, fields

import numpy as np

from .errors import is_finite, is_number, whole_number
from .hand import HandPose
from .keypoints import KeypointSet
from .optimizer import TraceRecord
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


def parsed(parse, text, source):
    """``parse(text)``, with ``source``, the file or flag ``text`` came
    from, named in front of any ValueError's message."""
    try:
        return parse(text)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from None


def load_json(path):
    with open(path, "rb") as handle:
        return parsed(json.loads, handle.read(), path)


def json_number(value, field):
    """``value`` as a float, if it is a finite number; JSON ``true``,
    ``false``, strings, ``null``, NaN and the infinities are not."""
    if not (is_number(value) and is_finite(value)):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def json_array(value, field, dtype=float, shape=None):
    """``value`` as an array, if every entry of its nested lists is a
    finite number (a whole number that ``dtype`` holds, for an integer
    ``dtype``) and, when ``shape`` is given, the array has that shape."""
    nested = np.asarray(value, dtype=object)
    entries = nested.ravel().tolist()
    for entry in entries:
        if not is_number(entry):
            raise ValueError(f"{field} must hold only numbers, got {entry!r}")
        if not is_finite(entry):
            raise ValueError(f"{field} must hold only finite numbers, "
                             f"got {entry!r}")
    if np.issubdtype(dtype, np.integer):
        bounds = np.iinfo(dtype)
        entries = [whole_number(entry, f"{field} entry", int(bounds.min),
                                int(bounds.max)) for entry in entries]
    array = np.array(entries, dtype=dtype).reshape(nested.shape)
    if shape is not None and array.shape != shape:
        raise ValueError(f"{field} must have shape {shape}, "
                         f"got {array.shape}")
    return array


def _require(data, keys, path):
    """Raise ValueError unless ``data`` is a JSON object holding ``keys``,
    naming the first key missing."""
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{path} is missing {key!r}")


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
    _require(data, ("points", "normals", "com"), f"scene file {path}")
    obj = ObjectModel(points=json_array(data["points"], "scene points"),
                      normals=json_array(data["normals"], "scene normals"),
                      com=json_array(data["com"], "scene com"),
                      mass=json_number(data.get("mass", 1.0), "scene mass"))
    if "gravity" not in data:
        return obj, np.array(GRAVITY)
    return obj, json_array(data["gravity"], "scene gravity", shape=(3,))


def save_contacts(path, state: ContactState):
    dump_json(path, {
        "likelihood": state.likelihood,
        "part_label": state.part_label,
        "force": state.force,
    })


def load_contacts(path) -> ContactState:
    data = load_json(path)
    _require(data, ("likelihood", "part_label", "force"),
             f"contact file {path}")
    return ContactState(
        likelihood=json_array(data["likelihood"], "contact likelihood"),
        part_label=json_array(data["part_label"], "contact part_label",
                              dtype=int),
        force=json_array(data["force"], "contact force"))


def save_pose(path, pose: HandPose):
    dump_json(path, {
        "rot": pose.rotation,
        "trans": pose.translation,
        "angles": pose.angles,
        "scale": pose.scale,
    })


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


def format_cell(value):
    """Canonical CSV cell: shortest-exact repr for floats."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(c) for c in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_trace(path, trace):
    """trace.csv: one row per TraceRecord, one column per field."""
    write_csv(path, [f.name for f in fields(TraceRecord)],
              [astuple(record) for record in trace.records])
