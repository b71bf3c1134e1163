"""Platoon trajectory records: CSV I/O, windowing, splits, synthetic data.

Canonical CSV schema (one row per vehicle per frame, LF line endings, floats
at 9 significant digits):

    platoon_id,vehicle_index,frame,position_m,speed_mps,length_m

Vehicle 0 is the leader; indices increase rearward. Positions are front
bumpers and increase in the travel direction. The gap of follower n is
``position[n-1] - length[n-1] - position[n]`` and must stay positive.
The sampling interval is ``DT`` = 0.1 s (``dynamics.DT``), a format
constant not stored in the file. A ``PlatoonRecord`` holds one platoon in the
same layout: leader-first (V, T) positions and speeds and (V,) lengths.
Window extraction and closed-loop replanning build model inputs with
``features``.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import idm
from .dynamics import DT

log = logging.getLogger(__name__)

CSV_FIELDS = ("platoon_id", "vehicle_index", "frame", "position_m",
              "speed_mps", "length_m")

# Follower IDM parameter ranges for the synthetic corpus.
SYNTH_IDM_RANGES = {
    "v0": (25.0, 35.0),
    "T": (1.0, 2.0),
    "s0": (1.5, 3.0),
    "a_max": (0.8, 1.5),
    "b": (1.0, 2.5),
}
SYNTH_LENGTH_RANGE = (4.2, 5.0)
SYNTH_NOISE_SIGMA = 0.1
SPEED_CAP = 40.0

PROFILE_KINDS = ("const_accel", "const_decel", "sinusoid", "piecewise")
PROFILE_MIX = {
    "const_accel": 0.25,
    "const_decel": 0.25,
    "sinusoid": 0.30,
    "piecewise": 0.20,
}


class DataError(Exception):
    pass


class DataFormatError(DataError):
    """Lexically malformed input file; message names file and line."""


class GenerationError(DataError):
    pass


@dataclass(frozen=True)
class PlatoonRecord:
    """One platoon sampled every ``DT`` seconds, leader first: ``positions``
    and ``speeds`` are (V, T), ``lengths`` is (V,)."""

    platoon_id: str
    positions: np.ndarray
    speeds: np.ndarray
    lengths: np.ndarray

    @property
    def duration(self) -> int:
        return self.positions.shape[1]

    @property
    def n_followers(self) -> int:
        return self.positions.shape[0] - 1

    def gaps(self) -> np.ndarray:
        """(n_followers, T) rear-bumper-to-front-bumper gaps."""
        pos = self.positions
        return pos[:-1] - self.lengths[:-1, None] - pos[1:]


def features(speeds: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """(..., N, T, 3) follower features [speed, gap, rel_speed] from
    leader-first speeds (..., N+1, T) and gaps (..., N, T); rel_speed is the
    speed ahead minus the follower's own."""
    return np.stack([speeds[..., 1:, :], gaps,
                     speeds[..., :-1, :] - speeds[..., 1:, :]], axis=-1)


def validate_record(record: PlatoonRecord) -> Optional[str]:
    """Return a diagnostic string if the record violates an invariant."""
    pid, pos, spd, lengths = (record.platoon_id, record.positions,
                              record.speeds, record.lengths)
    if pos.ndim != 2 or spd.shape != pos.shape or lengths.shape != pos.shape[:1]:
        return (f"platoon {pid}: positions {pos.shape}, speeds {spd.shape} "
                f"and lengths {lengths.shape} do not fit (V, T), (V, T), (V,)")
    if pos.shape[0] < 2:
        return f"platoon {pid}: needs a leader and at least one follower"
    if pos.shape[1] < 1:
        return f"platoon {pid}: empty series"
    for i in range(pos.shape[0]):
        if not lengths[i] > 0:
            return f"platoon {pid}: vehicle {i} non-positive length"
        if np.any(spd[i] < 0):
            frame = int(np.argmax(spd[i] < 0))
            return f"platoon {pid}: vehicle {i} negative speed at frame {frame}"
    gaps = record.gaps()
    bad = gaps <= 0
    if bad.any():
        n, frame = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return (f"platoon {pid}: non-positive gap at frame {frame} "
                f"between vehicle {n} and vehicle {n + 1}")
    return None


# -- CSV I/O -------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_trajectories(records: Sequence[PlatoonRecord], path) -> None:
    """Write records to one CSV file, rows sorted by (platoon, vehicle, frame)."""
    path = Path(path)
    lines = [",".join(CSV_FIELDS)]
    for rec in sorted(records, key=lambda r: r.platoon_id):
        for vi, (pos, spd) in enumerate(zip(rec.positions, rec.speeds)):
            length = _fmt(rec.lengths[vi])
            for frame in range(rec.duration):
                lines.append(f"{rec.platoon_id},{vi},{frame},{_fmt(pos[frame])},"
                             f"{_fmt(spd[frame])},{length}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# One CSV row as the bulk parse reads it; platoon ids stay str objects.
_ROW = np.dtype(list(zip(CSV_FIELDS, (object, np.int64, np.int64, float,
                                      float, float))))


def _parse_file(path: Path) -> np.ndarray:
    """The data rows of one CSV file, in file order, as a ``_ROW`` array.

    One ``np.loadtxt`` pass parses every row. Only when it fails, or finds a
    quote or a non-finite value, is the file scanned again row by row, to
    name the first bad line.
    """
    text = path.read_text(encoding="utf-8")
    if not text:
        raise DataFormatError(f"{path}: empty file")
    head, _, body = text.partition("\n")
    header = head.split(",") if head else []
    if tuple(header) != CSV_FIELDS:
        raise DataFormatError(f"{path}: bad header {header}")
    if not body.strip("\n"):
        return np.empty(0, _ROW)
    failure = "quoted cells are not supported"
    if '"' not in body:
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=_ROW, delimiter=",",
                              comments=None, ndmin=1)
        except ValueError as e:
            failure = str(e)
        else:
            if all(np.isfinite(rows[name]).all() for name in CSV_FIELDS[3:]):
                return rows
            failure = "non-finite value"
    raise _bad_line(path, body, failure)


def _bad_line(path: Path, body: str, failure: str) -> DataFormatError:
    """A DataFormatError naming the first line of ``body``, the text after
    the header, that the bulk parse rejects, else one quoting ``failure``.

    Blank lines are skipped. Every other line holds six unquoted cells:
    ``vehicle_index`` and ``frame`` are integers that fit int64, the rest
    finite decimals, all in ASCII with no underscores. A line that ``int``
    or ``float`` rejects gets their message.
    """
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 6:
            return DataFormatError(
                f"{path}:{lineno}: expected 6 columns, got {len(cells)}")
        if '"' in line:
            return DataFormatError(f"{path}:{lineno}: quoted cells are not supported")
        try:
            ints = [int(c) for c in cells[1:3]]
            floats = [float(c) for c in cells[3:]]
        except ValueError as e:
            return DataFormatError(f"{path}:{lineno}: {e}")
        if not all(map(math.isfinite, floats)):
            return DataFormatError(f"{path}:{lineno}: non-finite value")
        for name, cell in zip(CSV_FIELDS[1:], cells[1:]):
            if "_" in cell or not cell.strip().isascii():
                return DataFormatError(
                    f"{path}:{lineno}: {name} {cell!r} is not a plain decimal")
        if not all(-2 ** 63 <= i < 2 ** 63 for i in ints):
            return DataFormatError(f"{path}:{lineno}: integer out of int64 range")
    return DataFormatError(f"{path}: {failure}")


# Per-vehicle defects, in the order they are checked.
_DEFECTS = ("has duplicate frames", "has missing frames", "frame range differs",
            "length varies across frames")


def _assemble(ids: list, platoon, vehicle, frame, pos, spd, length) -> list:
    """One (platoon_id, diagnostic or None, record or None) per platoon, in
    the order of ``ids``.

    The arguments after ``ids`` are row columns in any order; ``platoon``
    indexes ``ids``. A platoon whose vehicle indices are not 0..V-1 is
    rejected, else the first of its vehicles with one of ``_DEFECTS`` names
    it (frame ranges are compared with vehicle 0's), else
    ``validate_record``'s diagnostic of the assembled record, if any.
    """
    order = np.lexsort((frame, vehicle, platoon))
    platoon, vehicle, frame, pos, spd, length = (
        column[order] for column in (platoon, vehicle, frame, pos, spd, length))
    # rows starts[k]:ends[k] are vehicle k; vehicles heads[p]:tails[p] are
    # platoon p, and lead[k] is vehicle k's platoon leader
    n = len(order)
    new_vehicle = np.ones(n, dtype=bool)
    new_vehicle[1:] = (platoon[1:] != platoon[:-1]) | (vehicle[1:] != vehicle[:-1])
    starts = np.flatnonzero(new_vehicle)
    ends = np.append(starts[1:], n)
    owner = platoon[starts]
    heads = np.flatnonzero(np.diff(owner, prepend=-1))
    tails = np.append(heads[1:], len(starts))
    lead = np.repeat(heads, tails - heads)
    first, last = frame[starts], frame[ends - 1]
    repeat = np.zeros(n, dtype=bool)
    repeat[1:] = (frame[1:] == frame[:-1]) & ~new_vehicle[1:]
    defects = np.stack([
        np.logical_or.reduceat(repeat, starts),
        last - first + 1 != ends - starts,
        (first != first[lead]) | (last != last[lead]),
        np.minimum.reduceat(length, starts) != np.maximum.reduceat(length, starts),
    ], axis=1)

    out = []
    for a, b in zip(heads, tails):
        pid = ids[owner[a]]
        indices = vehicle[starts[a:b]]
        broken = defects[a:b].any(axis=1)
        if indices[0] != 0 or indices[-1] != b - a - 1:
            out.append((pid, f"platoon {pid}: vehicle indices "
                             f"{indices.tolist()} not contiguous from 0", None))
        elif broken.any():
            vi = int(np.argmax(broken))
            what = _DEFECTS[int(np.argmax(defects[a + vi]))]
            out.append((pid, f"platoon {pid}: vehicle {vi} {what}", None))
        else:
            span = slice(starts[a], ends[b - 1])
            record = PlatoonRecord(pid, pos[span].reshape(b - a, -1),
                                   spd[span].reshape(b - a, -1),
                                   length[starts[a:b]])
            out.append((pid, validate_record(record), record))
    return out


def load_trajectories(path, rejects: Optional[list] = None) -> list:
    """Load platoon records from a CSV file or a directory of CSV files.

    Lexically malformed rows raise DataFormatError. Platoons violating
    structural or physical invariants are skipped; each skip appends
    (platoon_id, reason) to ``rejects`` (if given) and logs a warning.
    Records come in order of first appearance across the sorted files, and a
    platoon may span files.
    """
    path = Path(path)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise DataError(f"{path}: no CSV files found")
    numbers: dict = {}              # platoon id -> number, by first appearance
    parts = []
    for f in files:
        rows = _parse_file(f)
        ids, first, inverse = np.unique(rows["platoon_id"], return_index=True,
                                        return_inverse=True)
        for pid in ids[np.argsort(first)]:
            numbers.setdefault(pid, len(numbers))
        code = np.array([numbers[pid] for pid in ids], dtype=np.int64)
        # copies, so that no id string outlives the parse of its file
        parts.append((code[inverse],
                      *(rows[name].copy() for name in CSV_FIELDS[1:])))
    if not numbers:
        return []
    records = []
    for pid, reason, record in _assemble(list(numbers),
                                         *map(np.concatenate, zip(*parts))):
        if reason is not None:
            log.warning("rejected %s", reason)
            if rejects is not None:
                rejects.append((pid, reason))
            continue
        records.append(record)
    return records


# -- windowing -------------------------------------------------------------------

@dataclass(frozen=True)
class StateWindow:
    """History block plus the ground truth needed to score a prediction.

    ``history``: (N, P, 3) follower features [speed, gap, rel_speed] ending at
    the anchor frame t. ``lead_future``: (F,) leader speeds at t+1..t+F.
    ``targets``: (N, F, 2) follower [speed, gap] at t+1..t+F.
    """

    platoon_id: str
    anchor: int
    history: np.ndarray
    lead_future: np.ndarray
    targets: np.ndarray


def extract_windows(record: PlatoonRecord, history_len: int, horizon: int,
                    stride: int = 1) -> list:
    if history_len < 1 or horizon < 1 or stride < 1:
        raise ValueError("history_len, horizon, stride must be >= 1")
    P, F = history_len, horizon
    T = record.duration
    if T < P + F:
        return []
    feats = features(record.speeds, record.gaps())     # (N, T, 3)
    lead_speed = record.speeds[0]
    windows = []
    for start in range(0, T - (P + F) + 1, stride):
        anchor = start + P - 1
        future = slice(anchor + 1, anchor + 1 + F)
        windows.append(StateWindow(
            record.platoon_id, anchor,
            np.ascontiguousarray(feats[:, start:start + P, :]),
            lead_speed[future].copy(),
            np.ascontiguousarray(feats[:, future, :2])))
    return windows


def split_dataset(records: Sequence[PlatoonRecord], val_ratio: float,
                  seed: int):
    """Shuffle platoons with ``seed`` and split them into (train, val).

    val gets floor(val_ratio*M + 0.5) platoons (half-up) and train the rest,
    so every platoon lands in exactly one split.
    """
    if not 0.0 <= val_ratio <= 1.0:
        raise ValueError(f"val_ratio must be in [0, 1], got {val_ratio}")
    M = len(records)
    n_train = M - int(np.floor(val_ratio * M + 0.5))
    perm = np.random.default_rng(seed).permutation(M)
    return ([records[i] for i in perm[:n_train]],
            [records[i] for i in perm[n_train:]])


# -- synthetic generation ---------------------------------------------------------

@dataclass(frozen=True)
class LeadProfile:
    """Scripted leader speed profile.

    kind: one of PROFILE_KINDS. ``accel`` drives the constant-acceleration
    kinds; ``amp``/``period_s``/``phase`` the sinusoid; ``seed`` the piecewise
    random walk.
    """

    kind: str
    v_init: float
    accel: float = 0.0
    amp: float = 0.0
    period_s: float = 10.0
    phase: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown lead profile kind {self.kind!r}")
        if not 0.0 <= self.v_init <= SPEED_CAP:
            raise ValueError(f"v_init {self.v_init} outside [0, {SPEED_CAP}]")
        if self.kind == "sinusoid" and not 0.0 <= self.amp < self.v_init:
            raise ValueError("sinusoid amplitude must stay below v_init")


def lead_speed_series(profile: LeadProfile, frames: int) -> np.ndarray:
    t = np.arange(frames) * DT
    if profile.kind in ("const_accel", "const_decel"):
        return np.clip(profile.v_init + profile.accel * t, 0.0, SPEED_CAP)
    if profile.kind == "sinusoid":
        return profile.v_init + profile.amp * np.sin(
            2.0 * np.pi * t / profile.period_s + profile.phase)
    # piecewise: random speed targets joined by bounded-acceleration ramps
    rng = np.random.default_rng(profile.seed)
    v = np.empty(frames)
    v[0] = profile.v_init
    i = 1
    while i < frames:
        target = rng.uniform(8.0, 30.0)
        hold = int(rng.uniform(2.0, 5.0) / DT)
        ramp = rng.uniform(0.5, 1.5)
        while i < frames and abs(v[i - 1] - target) > ramp * DT:
            v[i] = v[i - 1] + np.sign(target - v[i - 1]) * ramp * DT
            i += 1
        for _ in range(hold):
            if i >= frames:
                break
            v[i] = target
            i += 1
    return np.clip(v, 0.0, SPEED_CAP)


def synthesize_platoon(platoon_id: str, profile: LeadProfile, params: list,
                       lengths, noise_sigma: float, noise_seed: int,
                       duration_steps: int) -> PlatoonRecord:
    """Integrate IDM followers behind the scripted leader; raises
    GenerationError if any gap collapses."""
    lead = lead_speed_series(profile, duration_steps)
    lengths = np.array(lengths, dtype=float)
    n = len(params) + 1
    if lengths.shape != (n,):
        raise ValueError(f"lengths must have shape {(n,)}")
    pos = np.zeros(n)
    spd = np.zeros(n)
    spd[0] = lead[0]
    for i, p in enumerate(params, start=1):
        v_eq = min(lead[0], 0.9 * p.v0)
        spd[i] = v_eq
        pos[i] = pos[i - 1] - lengths[i - 1] - idm.equilibrium_gap(v_eq, p)
    noise = None
    if noise_sigma > 0.0:
        noise = np.random.default_rng(noise_seed).normal(
            0.0, noise_sigma, (duration_steps - 1, len(params)))
    sim = idm.simulate_idm_platoon(lead, pos, spd, lengths, params, noise)
    if sim.collision_frame is not None:
        raise GenerationError(
            f"platoon {platoon_id}: gap collapsed at frame {sim.collision_frame}")
    return PlatoonRecord(platoon_id, sim.positions, sim.speeds, lengths)


def _sample_profile(rng: np.random.Generator) -> LeadProfile:
    kinds = sorted(PROFILE_MIX)
    probs = np.array([PROFILE_MIX[k] for k in kinds], dtype=float)
    probs = probs / probs.sum()
    kind = kinds[int(rng.choice(len(kinds), p=probs))]
    if kind == "const_accel":
        return LeadProfile(kind, v_init=rng.uniform(12.0, 25.0),
                           accel=rng.uniform(0.3, 1.2))
    if kind == "const_decel":
        return LeadProfile(kind, v_init=rng.uniform(20.0, 32.0),
                           accel=-rng.uniform(0.4, 1.5))
    if kind == "sinusoid":
        v = rng.uniform(15.0, 28.0)
        return LeadProfile(kind, v_init=v, amp=rng.uniform(1.0, 4.0),
                           period_s=rng.uniform(5.0, 15.0),
                           phase=rng.uniform(0.0, 2.0 * np.pi))
    return LeadProfile("piecewise", v_init=rng.uniform(10.0, 28.0),
                       seed=int(rng.integers(0, 2 ** 31)))


def _sample_idm_params(rng: np.random.Generator) -> idm.IdmParams:
    return idm.IdmParams(
        v0=rng.uniform(*SYNTH_IDM_RANGES["v0"]),
        T=rng.uniform(*SYNTH_IDM_RANGES["T"]),
        s0=rng.uniform(*SYNTH_IDM_RANGES["s0"]),
        a_max=rng.uniform(*SYNTH_IDM_RANGES["a_max"]),
        b=rng.uniform(*SYNTH_IDM_RANGES["b"]),
    )


def generate_synthetic_platoons(count: int, n_followers: int = 6,
                                duration_s: float = 15.0, seed: int = 0,
                                noise_sigma: float = SYNTH_NOISE_SIGMA) -> list:
    """Deterministic synthetic corpus: scripted leaders, noisy IDM followers.

    Each platoon draws from its own SeedSequence-spawned stream, so the output
    is reproducible for a given (count, seed) regardless of retry behavior.
    """
    if count < 1 or n_followers < 1:
        raise ValueError("count and n_followers must be >= 1")
    duration_steps = int(round(duration_s / DT))
    if duration_steps < 2:
        raise ValueError("duration too short")
    records = []
    children = np.random.SeedSequence(seed).spawn(count)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        pid = f"syn-{seed}-{i:04d}"
        for attempt in range(25):
            profile = _sample_profile(rng)
            params = [_sample_idm_params(rng) for _ in range(n_followers)]
            lengths = rng.uniform(*SYNTH_LENGTH_RANGE, n_followers + 1)
            noise_seed = int(rng.integers(0, 2 ** 31))
            try:
                records.append(synthesize_platoon(
                    pid, profile, params, lengths, noise_sigma, noise_seed,
                    duration_steps))
                break
            except GenerationError:
                continue
        else:
            raise GenerationError(f"platoon {pid}: no valid draw in 25 attempts")
    return records


def follower_observation(record: PlatoonRecord,
                         vehicle_index: int) -> idm.FollowerObservation:
    """Adapter: one follower (and its leader) for IDM calibration."""
    if not 1 <= vehicle_index <= record.n_followers:
        raise ValueError(f"vehicle_index {vehicle_index} is not a follower "
                         f"(1..{record.n_followers})")
    lead = vehicle_index - 1
    return idm.FollowerObservation(
        lead_positions=record.positions[lead],
        lead_speeds=record.speeds[lead],
        lead_length=record.lengths[lead],
        positions=record.positions[vehicle_index],
        speeds=record.speeds[vehicle_index])
