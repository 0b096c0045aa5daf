"""Synthetic driving scenarios for exercising the full pipeline.

Two scene kinds, both sampled on a fixed step grid so every trajectory
spans the whole horizon:

* curved_road: constant-speed circular arcs through a radius band, with
  per-trajectory radius and speed draws plus Gaussian position noise.
  Speed spread fans the arcs out along the lane over time.
* straight_road_with_stop: one family cruises through, the other brakes
  to a stop, dwells, and pulls away again, which stretches the hulls
  along the lane far more than the curved scene does.

Velocities are forward differences of the emitted positions divided by
dt, so every generated trajectory is feasible for the double integrator
up to floating-point error.  All draws come from one seed.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    _DATA_COLUMNS,
    MIN_SPEED,
    REQUIRED_COLUMNS,
    SPEED_BOUND,
    Trajectory,
    _within_bounds,
)
from .dynamics import positive
from .geometry import COORD_BOUND
from .natset import MIN_SUPPORT, _write_json

# each kind's departures from ScenarioSpec's defaults; the stop scene runs longer
_KIND_DEFAULTS = {
    "curved_road": {},
    "straight_road_with_stop": {"horizon": 100, "dt": 0.1},
}
KINDS = tuple(_KIND_DEFAULTS)

# scene shape, shared by every spec: the curved lane's center and radius
# band and the straight lane's width (m), the speed band of both (m/s),
# and the per-axis position noise (m)
ARC_CENTER = (0.0, 0.0)
RADII = (19.0, 21.0)
LANE_WIDTH = 4.0
SPEED_RANGE = (5.0, 9.0)
NOISE_STD = 0.02


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    count: int = 40
    horizon: int = 60
    dt: float = 0.04
    seed: int = 7

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; pick one of {KINDS}")
        if self.count < MIN_SUPPORT:
            raise ValueError(f"count must be at least {MIN_SUPPORT} "
                             f"(hulls need {MIN_SUPPORT} points)")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 steps")
        positive("dt", self.dt)


def default_spec(kind, **overrides):
    """The spec of ``kind`` with its own defaults, then ``overrides``."""
    return ScenarioSpec(kind, **{**_KIND_DEFAULTS.get(kind, {}), **overrides})


def _derive_trajectory(actor_id, positions, dt):
    """Positions -> full states with forward-difference velocities; a dt
    that puts a state beyond the bounds that `load_trajectories` reads is a
    ValueError naming it, so callers run with numpy's overflow warnings off."""
    vel = np.diff(positions, axis=0) / dt
    vel = np.vstack([vel, vel[-1]])
    acc = np.diff(vel, axis=0) / dt
    acc = np.vstack([acc, acc[-1]])
    heading = np.arctan2(vel[:, 1], vel[:, 0])
    data = np.column_stack([positions[:, 0], vel[:, 0], positions[:, 1], vel[:, 1],
                            acc[:, 0], acc[:, 1], heading])
    if not _within_bounds(data):
        raise ValueError(f"dt={dt!r} puts a generated position beyond {COORD_BOUND:g} m "
                         f"or velocity beyond {SPEED_BOUND:g} m/s")
    return Trajectory(str(actor_id), 1.0 / dt, data)


# the reference start bearing of the curved lane (dimensionless choice)
_THETA0 = np.pi


def _arc_point(center, r, theta):
    return np.array([center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)])


def _sector_polygon(center, r_lo, r_hi, th_lo, th_hi, samples=24):
    thetas = np.linspace(th_lo, th_hi, samples)
    pts = [_arc_point(center, r_lo, th) for th in thetas]
    pts += [_arc_point(center, r_hi, th) for th in thetas]
    return [[float(x), float(y)] for x, y in pts]


def _curved_draws(spec, rng):
    """Each curved-scene trajectory's radius and speed, the rng's first draws."""
    return rng.uniform(*RADII, size=spec.count), rng.uniform(*SPEED_RANGE, size=spec.count)


def _curved_road(spec, rng):
    h = spec.horizon
    r_lo, r_hi = RADII
    radii, speeds = _curved_draws(spec, rng)
    noise = rng.normal(0.0, NOISE_STD, size=(spec.count, h + 1, 2))

    trajs = []
    for i in range(spec.count):
        omega = speeds[i] / radii[i]
        thetas = _THETA0 - omega * spec.dt * np.arange(h + 1)
        arc = np.stack(
            [
                ARC_CENTER[0] + radii[i] * np.cos(thetas),
                ARC_CENTER[1] + radii[i] * np.sin(thetas),
            ],
            axis=1,
        )
        trajs.append(_derive_trajectory(i, arc + noise[i], spec.dt))

    margin = 0.3
    w_lo, w_hi = (
        SPEED_RANGE[0] / r_hi,
        SPEED_RANGE[1] / r_lo,
    )
    start_poly = _sector_polygon(
        ARC_CENTER, r_lo - margin, r_hi + margin, _THETA0 - 0.02, _THETA0 + 0.02, 4
    )
    span = spec.dt * h
    end_poly = _sector_polygon(
        ARC_CENTER,
        r_lo - margin,
        r_hi + margin,
        _THETA0 - w_hi * span - 0.03,
        _THETA0 - w_lo * span + 0.03,
    )
    return trajs, start_poly, end_poly


def _stop_profile(h, cruise):
    """Per-step speeds for brake, dwell, pull away; length h."""
    t_cruise = max(1, int(0.25 * h))
    t_ramp = max(1, int(0.15 * h))
    t_dwell = max(1, int(0.30 * h))
    prof = [cruise] * t_cruise
    prof += list(np.linspace(cruise, 0.0, t_ramp, endpoint=False))
    prof += [0.0] * t_dwell
    prof += list(np.linspace(0.0, cruise, t_ramp, endpoint=False))
    prof += [cruise] * max(0, h - len(prof))
    return np.array(prof[:h])


def _straight_road_with_stop(spec, rng):
    h = spec.horizon
    half = LANE_WIDTH / 2.0
    x0 = rng.uniform(0.0, 1.0, size=spec.count)
    y0 = rng.uniform(-half / 2.0, half / 2.0, size=spec.count)
    speeds = rng.uniform(*SPEED_RANGE, size=spec.count)
    noise = rng.normal(0.0, NOISE_STD, size=(spec.count, h + 1, 2))

    passers = (spec.count + 1) // 2
    trajs = []
    ends = []
    for i in range(spec.count):
        if i < passers:
            prof = np.full(h, speeds[i])
        else:
            prof = _stop_profile(h, speeds[i])
        x = x0[i] + spec.dt * np.concatenate([[0.0], np.cumsum(prof)])
        pos = np.stack([x, np.full(h + 1, y0[i])], axis=1) + noise[i]
        ends.append(pos[-1, 0])
        trajs.append(_derive_trajectory(i, pos, spec.dt))

    band_lo, band_hi = -half - 0.5, half + 0.5
    start_poly = [[-0.5, band_lo], [1.5, band_lo], [1.5, band_hi], [-0.5, band_hi]]
    e_lo, e_hi = min(ends) - 0.5, max(ends) + 0.5
    end_poly = [[e_lo, band_lo], [e_hi, band_lo], [e_hi, band_hi], [e_lo, band_hi]]
    return trajs, start_poly, end_poly


def generate_scenario(spec):
    """Deterministic (trajectories, task config) for the given spec."""
    rng = np.random.default_rng(spec.seed)
    make = _curved_road if spec.kind == "curved_road" else _straight_road_with_stop
    with np.errstate(over="ignore", invalid="ignore"):
        trajs, start_poly, end_poly = make(spec, rng)
    task = {"start_polygon": start_poly, "end_polygon": end_poly,
            "min_speed": MIN_SPEED, "frame_rate": 1.0 / spec.dt}
    return trajs, task


def straight_candidate(spec):
    """Constant-velocity chord across the curved lane.

    Re-draws the same radius and rate samples the scenario uses and aims
    the chord at the median arc, so it starts on that arc.  Nothing keeps
    its start or its first step, which no control input can influence,
    inside the hulls that the recorded tracks span: on some scenes and
    horizons the first step misses the t=1 hull, and projection fails.
    Dynamically feasible by construction, but cuts inside the radius band
    near the apex.
    """
    if spec.kind != "curved_road":
        raise ValueError("the chord candidate only makes sense on curved_road")
    radii, speeds = _curved_draws(spec, np.random.default_rng(spec.seed))
    r_mid = float(np.median(radii))
    span = float(np.median(speeds / radii)) * spec.dt * spec.horizon
    with np.errstate(over="ignore", invalid="ignore"):
        a = _arc_point(ARC_CENTER, r_mid, _THETA0)
        b = _arc_point(ARC_CENTER, r_mid, _THETA0 - span)
        steps = np.arange(spec.horizon + 1)[:, None] / spec.horizon
        positions = a[None, :] * (1.0 - steps) + b[None, :] * steps
        return _derive_trajectory("candidate", positions, spec.dt)


# the Trajectory.data column behind each CSV column from xCenter on
_CSV_ORDER = [_DATA_COLUMNS.index(name) for name in REQUIRED_COLUMNS[2:]]


def write_tracks_csv(trajectories, path):
    """Emit the standard tracks schema; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for tr in trajectories:
            for frame, values in enumerate(tr.data[:, _CSV_ORDER].tolist()):
                writer.writerow([tr.actor_id, frame, *map(repr, values)])


def write_scenario(spec, out_dir):
    """Write tracks.csv and task.json (plus candidate.csv on curved_road),
    all generated before the directory is made."""
    trajs, task = generate_scenario(spec)
    candidate = straight_candidate(spec) if spec.kind == "curved_road" else None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"tracks": out / "tracks.csv", "task": out / "task.json"}
    write_tracks_csv(trajs, paths["tracks"])
    _write_json(task, paths["task"])
    if candidate is not None:
        paths["candidate"] = out / "candidate.csv"
        write_tracks_csv([candidate], paths["candidate"])
    return paths
