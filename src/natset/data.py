"""Trajectory recordings: CSV ingestion, task filtering, per-time slices.

A recording is a set of per-actor tracks sampled at a fixed frame rate.
Filtering keeps the tracks that perform one specific task: start inside a
start region, end inside an end region, and actually move.  Kept tracks
are re-indexed so t = 0 is the first frame inside the start region, which
puts every track in the same task phase before hulls are built.
"""

import csv
import json
import logging
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .dynamics import POSITIONS, positive
from .geometry import (
    COORD_BOUND,
    INSIDE_TOL,
    ConvexPolygon,
    _freeze,
    quickhull,
    signed_violations,
    to_halfspaces,
)

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = (
    "trackId",
    "frame",
    "xCenter",
    "yCenter",
    "xVelocity",
    "yVelocity",
    "xAcceleration",
    "yAcceleration",
    "heading",
)

# the CSV column behind each Trajectory.data column (p_x, v_x, p_y, v_y,
# a_x, a_y, heading): position and velocity interleave per axis as in the
# dynamics state
_DATA_COLUMNS = ("xCenter", "xVelocity", "yCenter", "yVelocity", "xAcceleration",
                 "yAcceleration", "heading")

# defaults: inD's frame rate (Hz) and a task's speed floor (m/s)
FRAME_RATE = 25.0
MIN_SPEED = 0.5

# Largest |xVelocity| or |yVelocity| a recorded sample may have, in m/s:
# far beyond any road user, and the largest power of ten at which a speed
# set in one frame of the demo or benchmark candidates still projects to
# within 1e-8 m of the hulls (the projection's rounding grows with speed).
SPEED_BOUND = 1e7
# each bounded column, its bound and unit, in the order `_scan` checks them
_BOUNDS = (("xCenter", COORD_BOUND, "m"), ("yCenter", COORD_BOUND, "m"),
           ("xVelocity", SPEED_BOUND, "m/s"), ("yVelocity", SPEED_BOUND, "m/s"))


def _within_bounds(states):
    """Whether (T, 4) states or (T, 7) Trajectory.data rows, T >= 1, are finite
    with every position within COORD_BOUND and every velocity within SPEED_BOUND."""
    return (np.isfinite(states).all() and np.abs(states[:, POSITIONS]).max() <= COORD_BOUND
            and np.abs(states[:, 1:4:2]).max() <= SPEED_BOUND)


# a recorded frame and a hull's support are integers within this range
_INT64 = np.iinfo(np.int64)


class ParseError(ValueError):
    """Malformed recording file: bad header, non-numeric field, bad frame."""


class GapError(ValueError):
    """An actor's frame numbers are not contiguous."""


class EmptyTask(ValueError):
    """No trajectory satisfies the task predicate."""


@dataclass(frozen=True)
class RawActorState:
    """One recorded sample: position (m), velocity (m/s), acceleration
    (m/s^2), heading (rad)."""

    position: tuple
    velocity: tuple
    acceleration: tuple
    heading: float

    def __post_init__(self):
        pos = (float(self.position[0]), float(self.position[1]))
        vel = (float(self.velocity[0]), float(self.velocity[1]))
        acc = (float(self.acceleration[0]), float(self.acceleration[1]))
        head = float(self.heading)
        values = (*pos, *vel, *acc, head)
        if not all(np.isfinite(v) for v in values):
            raise ValueError("actor state contains non-finite entries")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "acceleration", acc)
        object.__setattr__(self, "heading", head)


class Trajectory:
    """Time-ordered states of one actor, sampled at frame_rate Hz, held in
    `data`: a read-only (T, 7) array, T >= 1, of p_x, v_x, p_y, v_y, a_x,
    a_y, heading.  `states` is such an array (copied unless no one can
    write it, see `geometry._freeze`) or RawActorStates."""

    def __init__(self, actor_id, frame_rate, states):
        if not isinstance(states, np.ndarray):
            states = [(s.position[0], s.velocity[0], s.position[1], s.velocity[1],
                       *s.acceleration, s.heading) for s in states]
        data = _freeze(states)
        if len(data) < 1:
            raise ValueError(f"trajectory {actor_id!r} has no states")
        if data.ndim != 2 or data.shape[1] != len(_DATA_COLUMNS):
            raise ValueError(f"trajectory {actor_id!r}: states must be a (T, 7) array")
        if not np.isfinite(data).all():
            raise ValueError("actor state contains non-finite entries")
        positive("frame_rate", frame_rate)
        self.actor_id = actor_id
        self.frame_rate = frame_rate
        self.data = data

    def __len__(self):
        return self.data.shape[0]

    @property
    def horizon(self):
        """Index of the last state (number of steps)."""
        return len(self) - 1

    @property
    def dt(self):
        return 1.0 / self.frame_rate

    @property
    def positions(self):
        """(T, 2) view of the (p_x, p_y) columns."""
        return self.data[:, POSITIONS]

    @property
    def speeds(self):
        return np.hypot(self.data[:, 1], self.data[:, 3])

    @property
    def dyn_states(self):
        """(H+1, 4) view of the (p_x, v_x, p_y, v_y) columns."""
        return self.data[:, :4]

    @cached_property
    def states(self):
        """The samples as RawActorState values, built on first use."""
        return tuple(
            RawActorState((px, py), (vx, vy), (ax, ay), heading)
            for px, vx, py, vy, ax, ay, heading in self.data.tolist()
        )


@dataclass(frozen=True)
class Region:
    polygon: ConvexPolygon

    @cached_property
    def halfspaces(self):
        return to_halfspaces(self.polygon)


@dataclass(frozen=True)
class Task:
    start: Region
    end: Region
    min_speed: float

    def __post_init__(self):
        if not math.isfinite(self.min_speed):
            raise ValueError(f"min_speed must be finite, got {self.min_speed}")


@dataclass(frozen=True)
class TaskDataset:
    trajectories: tuple
    task: Task

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        if not self.trajectories:
            raise EmptyTask("dataset has no trajectories")

    def __len__(self):
        return len(self.trajectories)

    @property
    def max_horizon(self):
        return max(tr.horizon for tr in self.trajectories)

    @cached_property
    def _padded(self):
        """(m, H+1, 2) positions, NaN past each track's end, and horizons."""
        horizons = np.array([tr.horizon for tr in self.trajectories])
        out = np.full((len(horizons), horizons.max() + 1, 2), np.nan)
        for row, tr in zip(out, self.trajectories):
            row[: len(tr)] = tr.positions
        out.setflags(write=False)
        horizons.setflags(write=False)
        return out, horizons


# a tracks record as `_fast` reads it: the trackId as text of any length,
# the frame, and the _DATA_COLUMNS
_RECORD = np.dtype([("trackId", object), ("frame", np.int64),
                    ("data", float, (len(_DATA_COLUMNS),))])


def _line_lengths(path):
    """The length in bytes of each line of a file, without its end, where
    lines end as csv.reader ends them, at "\r", "\n" or "\r\n"; a "\r\n"
    adds an empty line between its two characters.  The file is read in
    blocks, so no copy of it is held."""
    ends, size = [[-1]], 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            raw = np.frombuffer(block, np.uint8)
            at = np.flatnonzero(raw < 14)
            ends.append(size + at[(raw[at] == 10) | (raw[at] == 13)])
            size += len(raw)
    return np.diff(np.concatenate([*ends, [size]])) - 1


def _fast(path, where):
    """The columns `_scan` reads from a tracks file whose header is its
    first line, read by one np.loadtxt pass, or None where loadtxt might
    read them otherwise or they break a rule of `_scan`: when the file has
    no data rows, when a line is longer than the csv module's field limit,
    when a record spans lines, when loadtxt raises, or when a trackId is
    empty, a frame negative or a value out of its bounds."""
    lengths = _line_lengths(path)
    rows = np.count_nonzero(lengths) - 1  # blank lines hold no record, the header one
    if rows < 1 or lengths.max() > csv.field_size_limit():
        return None
    columns = [where[name] for name in ("trackId", "frame", *_DATA_COLUMNS)]
    try:
        table = np.loadtxt(path, _RECORD, delimiter=",", skiprows=1, usecols=columns,
                           comments=None, quotechar='"', encoding="utf-8-sig", ndmin=1)
    except ValueError:
        return None
    ids, frames, states = table["trackId"], table["frame"], table["data"]
    if len(table) != rows or "" in set(ids) or frames.min() < 0 or not _within_bounds(states):
        return None
    return ids, frames, states


def _scan(path, where):
    """Read the file row by row with the csv module: its trackIds, int64
    frames and (n, 7) _DATA_COLUMNS, or the ParseError naming its first
    malformed record by its row and, if the csv module cannot read it,
    the line it begins on."""
    ids, frames, states = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, row_num, line = csv.reader(fh), 0, 1  # rows read; the next record's line
        try:
            for row in reader:
                line, row_num = reader.line_num + 1, row_num + bool(row)
                if not row or row_num == 1:
                    continue
                at = f"{path}: row {row_num}"
                # a short row reads None past its end, as csv.DictReader fills it
                cell = {name: row[i] if i < len(row) else None for name, i in where.items()}
                if not cell["trackId"]:
                    raise ParseError(f"{at}: empty trackId")
                try:
                    frame = int(cell["frame"])
                except (TypeError, ValueError):
                    raise ParseError(f"{at}: frame is not an integer: {cell['frame']!r}") from None
                if not 0 <= frame <= _INT64.max:
                    raise ParseError(f"{at}: negative frame {frame}" if frame < 0 else
                                     f"{at}: frame is beyond int64: {cell['frame']!r}")
                values = {}
                for name in REQUIRED_COLUMNS[2:]:
                    try:
                        values[name] = float(cell[name])
                    except (TypeError, ValueError):
                        raise ParseError(f"{at}: column {name!r} is not numeric: "
                                         f"{cell[name]!r}") from None
                for name, value in values.items():
                    if not math.isfinite(value):
                        raise ParseError(f"{at}: column {name!r} is not finite: {cell[name]!r}")
                for name, bound, unit in _BOUNDS:
                    if abs(values[name]) > bound:
                        raise ParseError(f"{at}: column {name!r} of trackId {cell['trackId']!r}"
                                         f" is beyond {bound:g} {unit}: {cell[name]!r}")
                ids.append(cell["trackId"])
                frames.append(frame)
                states.extend(values[name] for name in _DATA_COLUMNS)
        except csv.Error as exc:
            raise ParseError(f"{path}: row {row_num + 1}: line {line}: {exc}") from None
    return ids, np.array(frames, np.int64), np.array(states).reshape(-1, len(_DATA_COLUMNS))


def _not_utf8(path):
    """Where a file first fails to decode as UTF-8: a text reader's error
    names a position in its decoder's chunk, a whole-file decode the byte
    offset in the file, whose line is then counted."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}: line {line}: {exc}"
    return f"{path}: not UTF-8"  # the file changed while it was read


def load_trajectories(path, frame_rate=FRAME_RATE):
    """Read a tracks CSV into one Trajectory per actor.

    The file must carry at least the REQUIRED_COLUMNS header names; extra
    columns (as in full inD tracks exports) are ignored.  Frames for each
    actor must form a contiguous range once sorted, every position must
    lie within COORD_BOUND and every velocity component within SPEED_BOUND.
    `_fast` reads the file with one np.loadtxt pass; where it cannot vouch
    for that read, `_scan` reads it row by row, as the csv module does, and
    names the first bad record.
    """
    positive("frame_rate", frame_rate)
    where = {}  # column name -> index
    try:
        # a byte-order mark is not part of the first column's name
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, expected a CSV header")
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise ParseError(f"{path}: header is missing columns {missing}")
            # a repeated column name reads its last copy, as csv.DictReader does
            where = {name: i for i, name in enumerate(header) if name in REQUIRED_COLUMNS}
            columns = _fast(path, where) if reader.line_num == 1 else None
        ids, frames, states = columns or _scan(path, where)
    except UnicodeDecodeError:
        raise ParseError(_not_utf8(path)) from None
    except csv.Error:  # e.g. a quote that runs the header past the csv module's limit
        _scan(path, where)
        raise ParseError(f"{path}: the file changed while it was read") from None
    if not len(frames):
        return []

    def sort_key(actor):
        try:
            return (0, int(actor), actor)
        except ValueError:
            return (1, 0, actor)

    codes = {a: i for i, a in enumerate(dict.fromkeys(ids))}  # in order of first appearance
    code = np.fromiter(map(codes.__getitem__, ids), np.int64, len(frames))
    actors = sorted(codes, key=sort_key)
    rank = np.argsort([codes[a] for a in actors])[code]  # each row's actor's place
    order = np.lexsort((frames, rank))
    rank, frames, states = rank[order], frames[order], states[order]
    states.setflags(write=False)
    bad = np.flatnonzero((rank[1:] == rank[:-1]) & (np.diff(frames) != 1))
    if bad.size:  # rows as _scan numbers them; a stable sort keeps a repeat's in file order
        i = bad[0]
        rows = f"{path}: rows {order[i] + 2} and {order[i + 1] + 2}: actor {actors[rank[i]]}"
        if frames[i + 1] == frames[i]:
            raise ParseError(f"{rows}: duplicate frame {frames[i]}")
        raise GapError(f"{rows}: missing frame {frames[i] + 1}")
    bounds = np.searchsorted(rank, np.arange(len(actors) + 1))
    return [Trajectory(actor, frame_rate, states[bounds[k] : bounds[k + 1]])
            for k, actor in enumerate(actors)]


def filter_task(trajectories, start, end, min_speed=MIN_SPEED):
    """Keep the trajectories performing the task between two Regions.

    A trajectory survives when some frame lies inside the start region,
    its final frame lies inside the end region, and its maximum speed from
    the start-region entry onward reaches min_speed.  Survivors are
    trimmed so t = 0 is the entry frame; applying the filter again is a
    no-op.  Both regions are tested by `geometry.margins` within
    INSIDE_TOL, the end region on the final position alone.
    """
    task = Task(start, end, float(min_speed))
    kept = []
    for tr in trajectories:
        inside = np.flatnonzero(signed_violations(start.halfspaces, tr.positions) <= INSIDE_TOL)
        if not inside.size:
            continue
        first = int(inside[0])
        if len(tr) - first < 2:
            log.warning(
                "actor %s: only %d state(s) after start-region entry; dropped",
                tr.actor_id,
                len(tr) - first,
            )
            continue
        if signed_violations(end.halfspaces, tr.positions[-1])[0] > INSIDE_TOL:
            continue
        if tr.speeds[first:].max() < task.min_speed:
            continue
        kept.append(Trajectory(tr.actor_id, tr.frame_rate, tr.data[first:]))
    if not kept:
        raise EmptyTask("no trajectory satisfies the task predicate")
    return TaskDataset(tuple(kept), task)


def slice_at(dataset, t):
    """Read-only (n, 2) positions of the n trajectories still alive at time t."""
    if t < 0:
        raise ValueError("time index must be non-negative")
    positions, horizons = dataset._padded
    pts = positions[horizons >= t, t] if t < positions.shape[1] else np.zeros((0, 2))
    pts.setflags(write=False)
    return pts


def _typed(value, key, types=(int,), what="an integer"):
    if type(value) not in types:
        raise ValueError(f"{key} must be {what}, got {json.dumps(value)}")
    return value


def _float(value, key):
    """A JSON number as a float: a bool, a string or an integer beyond
    float range is a ValueError naming ``key``."""
    try:
        return float(_typed(value, key, (int, float), "a number"))
    except OverflowError:
        raise ValueError(f"{key} must be a number, got an integer beyond float range") from None


def _numbers(rows, tail):
    """The numbers in ``rows`` as one flat float array, or None unless every
    row is a JSON number (``tail`` is ``()``) or a list of ``tail[0]`` of
    them; a bool or a string is not a number."""
    try:
        if tail:
            if not set(map(len, rows)) <= {tail[0]}:
                return None
            rows = list(chain.from_iterable(rows))
        # a string, null, list or object here raises TypeError
        values = np.array(array("d", rows))
    except (TypeError, OverflowError):
        return None
    # a bool reads as 0 or 1, so only entries of those values can be one
    maybe = np.flatnonzero((values == 0.0) | (values == 1.0)).tolist()
    return None if any(type(rows[j]) is bool for j in maybe) else values


def _kind(value):
    """A JSON value as a message names it: an array or an object by its
    type, any other value by its text."""
    return {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)


def _json_object(path):
    """The JSON object that the UTF-8 file at ``path`` holds; a file that
    holds any other JSON value is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if type(doc) is not dict:
        raise ValueError(f"the file must hold a JSON object, got {_kind(doc)}")
    return doc


def load_task(path):
    """Read a task config JSON: regions, speed floor, frame rate.

    Every failure to parse it, the regions' hulls included, is a
    ParseError naming the file.  Every value must be a JSON number, as in
    a tube file: a bool or a string is not one.
    """
    try:
        cfg = _json_object(path)
        points = {key: _numbers(cfg[key], (2,)) for key in ("start_polygon", "end_polygon")}
        for key, pts in points.items():
            if pts is None:
                raise ValueError(
                    f"{key} must hold [x, y] pairs of numbers, got {json.dumps(cfg[key])}"
                )
            points[key] = pts.reshape(-1, 2)
        min_speed = _float(cfg.get("min_speed", MIN_SPEED), "min_speed")
        frame_rate = _float(cfg.get("frame_rate", FRAME_RATE), "frame_rate")
        positive("frame_rate", frame_rate)
        start, end = (Region(quickhull(pts)) for pts in points.values())
        Task(start, end, min_speed)  # the min_speed rule
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(f"{path}: bad task config: {exc}") from None
    return start, end, min_speed, frame_rate
