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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .dynamics import POSITIONS
from .geometry import INSIDE_TOL, ConvexPolygon, quickhull, signed_violations, to_halfspaces

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

# CSV rows converted per batch; bounds the rows held as strings at once
CHUNK_ROWS = 4096


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

    @property
    def speed(self):
        return float(np.hypot(self.velocity[0], self.velocity[1]))


class Trajectory:
    """Time-ordered states of one actor, sampled at frame_rate Hz, held in
    `data`: a read-only (T, 7) array, T >= 1, of p_x, v_x, p_y, v_y, a_x,
    a_y, heading.  `states` is such an array (copied unless read-only) or
    RawActorStates."""

    def __init__(self, actor_id, frame_rate, states):
        if not isinstance(states, np.ndarray):
            states = [(s.position[0], s.velocity[0], s.position[1], s.velocity[1],
                       *s.acceleration, s.heading) for s in states]
        data = np.asarray(states, dtype=float)
        if data is states and data.flags.writeable:
            data = data.copy()
        data.setflags(write=False)
        if len(data) < 1:
            raise ValueError(f"trajectory {actor_id!r} has no states")
        if data.ndim != 2 or data.shape[1] != len(_DATA_COLUMNS):
            raise ValueError(f"trajectory {actor_id!r}: states must be a (T, 7) array")
        if not np.isfinite(data).all():
            raise ValueError("actor state contains non-finite entries")
        if not (math.isfinite(frame_rate) and frame_rate > 0):
            raise ValueError(f"frame_rate must be finite and > 0, got {frame_rate}")
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


def _scan(rows, first_row, where):
    """Raise the ParseError naming the first malformed row of a batch."""
    for row_num, row in enumerate(rows, start=first_row):
        # a short row reads None past its end, as csv.DictReader fills it
        cell = {name: row[i] if i < len(row) else None for name, i in where.items()}
        if not cell["trackId"]:
            raise ParseError(f"row {row_num}: empty trackId")
        try:
            frame = int(cell["frame"])
        except (TypeError, ValueError):
            raise ParseError(f"row {row_num}: frame is not an integer: {cell['frame']!r}") from None
        if frame < 0:
            raise ParseError(f"row {row_num}: negative frame {frame}")
        values = {}
        for name in REQUIRED_COLUMNS[2:]:
            try:
                values[name] = float(cell[name])
            except (TypeError, ValueError):
                raise ParseError(f"row {row_num}: column {name!r} is not numeric: "
                                 f"{cell[name]!r}") from None
        for name, value in values.items():
            if not math.isfinite(value):
                raise ParseError(f"row {row_num}: column {name!r} is not finite: {cell[name]!r}")
    # every row is well formed, so the batch failed on a frame beyond 64 bits
    raise ParseError(f"rows {first_row}-{first_row + len(rows) - 1}: frame out of range")


def load_trajectories(path, frame_rate=25.0):
    """Read a tracks CSV into one Trajectory per actor.

    The file must carry at least the REQUIRED_COLUMNS header names; extra
    columns (as in full inD tracks exports) are ignored.  Frames for each
    actor must form a contiguous range once sorted.  Rows are converted by
    column in batches; a batch that fails a check is scanned row by row.
    """
    codes, parts = {}, []  # trackId -> order of first appearance; batches
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file, expected a CSV header")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ParseError(f"{path}: header is missing columns {missing}")
        # a repeated column name reads its last copy, as csv.DictReader does
        where = {name: i for i, name in enumerate(header) if name in REQUIRED_COLUMNS}
        rows = filter(None, reader)  # blank lines are skipped and not counted
        row_num = 2
        for batch in iter(lambda: list(islice(rows, CHUNK_ROWS)), []):
            n = len(batch)
            try:
                # zip stops at the shortest row, so a short row drops a column
                fields = list(zip(*batch))
                ids = fields[where["trackId"]]
                frames = np.fromiter(map(int, fields[where["frame"]]), np.int64, n)
                cells = chain.from_iterable(fields[where[c]] for c in _DATA_COLUMNS)
                states = np.fromiter(map(float, cells), float, 7 * n).reshape(7, n).T
                valid = "" not in ids and frames.min() >= 0 and np.isfinite(states).all()
            except (IndexError, ValueError, OverflowError):
                valid = False
            if not valid:
                _scan(batch, row_num, where)
            code = np.fromiter((codes.setdefault(a, len(codes)) for a in ids), np.int64, n)
            parts.append((code, frames, states))
            row_num += n
    if not parts:
        return []

    def sort_key(actor):
        try:
            return (0, int(actor), actor)
        except ValueError:
            return (1, 0, actor)

    actors = sorted(codes, key=sort_key)
    rank = np.empty(len(actors), dtype=np.int64)
    rank[[codes[a] for a in actors]] = np.arange(len(actors))
    code, frames, states = (np.concatenate(column) for column in zip(*parts))
    rank = rank[code]
    order = np.lexsort((frames, rank))
    rank, frames, states = rank[order], frames[order], states[order]
    states.setflags(write=False)
    bad = np.flatnonzero((rank[1:] == rank[:-1]) & (np.diff(frames) != 1))
    # actors sort before the first bad one build first, so their own errors win
    stop = rank[bad[0]] if bad.size else len(actors)
    bounds = np.searchsorted(rank, np.arange(stop + 1))
    out = [Trajectory(actor, frame_rate, states[bounds[k] : bounds[k + 1]])
           for k, actor in enumerate(actors[:stop])]
    if bad.size:
        prev, nxt = int(frames[bad[0]]), int(frames[bad[0] + 1])
        if nxt == prev:
            raise ParseError(f"actor {actors[stop]}: duplicate frame {nxt}")
        raise GapError(f"actor {actors[stop]}: missing frame {prev + 1}")
    return out


def filter_task(trajectories, start, end, min_speed=0.5):
    """Keep the trajectories performing the task between two Regions.

    A trajectory survives when some frame lies inside the start region,
    its final frame lies inside the end region, and its maximum speed from
    the start-region entry onward reaches min_speed.  Survivors are
    trimmed so t = 0 is the entry frame; applying the filter again is a
    no-op.  Both regions are tested by `geometry.margins` within
    INSIDE_TOL, the end region on the final position alone.
    """
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
        if tr.speeds[first:].max() < min_speed:
            continue
        kept.append(Trajectory(tr.actor_id, tr.frame_rate, tr.data[first:]))
    if not kept:
        raise EmptyTask("no trajectory satisfies the task predicate")
    return TaskDataset(tuple(kept), Task(start, end, float(min_speed)))


def slice_at(dataset, t):
    """Read-only (n, 2) positions of the n trajectories still alive at time t."""
    if t < 0:
        raise ValueError("time index must be non-negative")
    positions, horizons = dataset._padded
    pts = positions[horizons >= t, t] if t < positions.shape[1] else np.zeros((0, 2))
    pts.setflags(write=False)
    return pts


def load_task(path):
    """Read a task config JSON: regions, speed floor, frame rate.

    Every failure to parse it, the regions' hulls included, is a
    ParseError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        start_pts = np.array(cfg["start_polygon"], dtype=float)
        end_pts = np.array(cfg["end_polygon"], dtype=float)
        min_speed = float(cfg.get("min_speed", 0.5))
        frame_rate = float(cfg.get("frame_rate", 25.0))
        if not math.isfinite(min_speed):
            raise ValueError(f"min_speed must be finite, got {min_speed}")
        if not (math.isfinite(frame_rate) and frame_rate > 0):
            raise ValueError(f"frame_rate must be finite and > 0, got {frame_rate}")
        start = Region(quickhull(start_pts))
        end = Region(quickhull(end_pts))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad task config: {exc}") from None
    return start, end, min_speed, frame_rate
