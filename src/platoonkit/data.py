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
``features``. ``extract_windows`` cuts the windows of a list of records and
returns them as one triple of arrays per follower count, with the window
index first: (W, N, P, 3) histories, (W, F) leader futures and (W, N, F, 2)
targets.
"""

from __future__ import annotations

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

# The text of every float in a CSV this package writes: 9 significant
# digits, the text ``format(x, ".9g")`` gives.
NUMBER = "%.9g"


def _fmt(x: float) -> str:
    return NUMBER % float(x)


def format_rows(template: str, *columns) -> str:
    """One line per row of ``columns`` (equal-length 1-D arrays), each line
    ``template`` filled with that row's cells: the template is repeated once
    per row and filled from one flat cell list by a single ``%``."""
    n, k = len(columns[0]), len(columns)
    cells = [None] * (n * k)
    for j, column in enumerate(columns):
        cells[j::k] = column.tolist()
    return (template * n) % tuple(cells)


def write_trajectories(records: Sequence[PlatoonRecord], path) -> None:
    """Write records to one CSV file, rows sorted by (platoon, vehicle, frame).
    Each vehicle's lines go to the file as one string, so the text of the
    whole file is never held at once."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_FIELDS) + "\n")
        for rec in sorted(records, key=lambda r: r.platoon_id):
            frames = np.arange(rec.duration)
            pid = rec.platoon_id.replace("%", "%%")
            for vi, (pos, spd) in enumerate(zip(rec.positions, rec.speeds)):
                template = (f"{pid},{vi},%d,{NUMBER},{NUMBER},"
                            f"{_fmt(rec.lengths[vi])}\n")
                f.write(format_rows(template, frames, pos, spd))


# One CSV row as the bulk parse reads it; platoon ids stay str objects.
_ROW = np.dtype(list(zip(CSV_FIELDS, (object, np.int64, np.int64, float,
                                      float, float))))


def _parse_file(path: Path) -> tuple:
    """The data rows of one CSV file, in file order, as ``(ids, first,
    inverse, columns)``: the file's distinct platoon ids, sorted, the row
    where each first appears, each row's index into ``ids``, and one array
    per column after ``platoon_id``.

    The file is streamed: its header line is read, then one ``np.loadtxt``
    pass parses the rest line by line, so its text is never held whole. The
    parsed rows and their per-row id strings are freed on return, so about
    one copy of each column is held at a time (a peak of about 3 times the
    file's bytes, where holding the text and its copies read about 8).
    Only when the parse fails, or finds a non-finite value or a quote in a
    platoon id (the one cell a quote gets through), is the text read, to
    name the first bad line.
    """
    try:
        with open(path, encoding="utf-8") as f:
            head = f.readline()
            if not head:
                raise DataFormatError(f"{path}: empty file")
            head = head.removesuffix("\n")
            header = head.split(",") if head else []
            if tuple(header) != CSV_FIELDS:
                raise DataFormatError(f"{path}: bad header {header}")
            body = f.tell()
            # np.loadtxt warns on input with no rows
            if all(line == "\n" for line in iter(f.readline, "")):
                rows = np.empty(0, _ROW)
            else:
                f.seek(body)
                rows = np.loadtxt(f, dtype=_ROW, delimiter=",", comments=None,
                                  ndmin=1)
    except ValueError as e:         # a UnicodeDecodeError among them
        failure = str(e)
    else:
        ids, first, inverse = np.unique(rows["platoon_id"], return_index=True,
                                        return_inverse=True)
        if any('"' in pid for pid in ids):
            failure = "quoted cells are not supported"
        elif not all(np.isfinite(rows[name]).all() for name in CSV_FIELDS[3:]):
            failure = "non-finite value"
        else:
            return ids, first, inverse, [rows[name].copy()
                                         for name in CSV_FIELDS[1:]]
    raise _bad_line(path, failure)


def _universal_newlines(text: str) -> str:
    """``text`` with each line ending translated to LF, as ``open`` reads."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _bad_line(path: Path, failure: str) -> DataFormatError:
    """A DataFormatError naming the first line of the file that is not
    UTF-8 or that the bulk parse rejects, else one quoting ``failure``.

    Blank lines after the header are skipped. Every other line holds six
    unquoted cells: ``vehicle_index`` and ``frame`` are integers that fit
    int64, the rest finite decimals, all in ASCII with no underscores. A
    line that ``int`` or ``float`` rejects gets their message.
    """
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        before = _universal_newlines(raw[:e.start].decode("utf-8"))
        lineno = before.count("\n") + 1
        return DataFormatError(f"{path}:{lineno}: {e}")
    body = _universal_newlines(text).partition("\n")[2]
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

    Each file is streamed into the parser (see ``_parse_file``), and about
    one copy of each column is held: a one-file corpus is assembled from its
    own columns, and the per-file columns of several are freed once joined,
    before they are sorted.
    """
    path = Path(path)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise DataError(f"{path}: no CSV files found")
    numbers: dict = {}              # platoon id -> number, by first appearance
    parts = []
    for f in files:
        ids, first, inverse, columns = _parse_file(f)
        for pid in ids[np.argsort(first)]:
            numbers.setdefault(pid, len(numbers))
        code = np.array([numbers[pid] for pid in ids], dtype=np.int64)
        parts.append((code[inverse], *columns))
    if not numbers:
        return []
    columns = (parts[0] if len(parts) == 1
               else [np.concatenate(part) for part in zip(*parts)])
    del parts
    records = []
    for pid, reason, record in _assemble(list(numbers), *columns):
        if reason is not None:
            log.warning("rejected %s", reason)
            if rejects is not None:
                rejects.append((pid, reason))
            continue
        records.append(record)
    return records


# -- windowing -------------------------------------------------------------------

def extract_windows(records: Sequence[PlatoonRecord], history_len: int,
                    horizon: int, stride: int = 1) -> list:
    """The windows of each record starting at frames 0, stride, 2*stride, ...,
    as one (history, lead_future, targets) triple per follower count N, in
    ascending N: (W, N, P, 3) follower features over P = ``history_len``
    frames, then (W, F) leader speeds and (W, N, F, 2) follower [speed, gap]
    over the F = ``horizon`` frames after them. Within a count, the records'
    windows follow in list order. A record shorter than P + F frames adds no
    window, so a count whose records are all that short has W = 0. A count's
    records are laid end to end, and each of its arrays is cut from them by
    one gather, which writes it in C order."""
    if history_len < 1 or horizon < 1 or stride < 1:
        raise ValueError("history_len, horizon, stride must be >= 1")
    P, F = history_len, horizon
    groups = {}
    for record in records:
        groups.setdefault(record.n_followers, []).append(record)
    out = []
    for n in sorted(groups):
        group = groups[n]
        speeds = np.concatenate([r.speeds for r in group], axis=1)  # (N+1, ΣT)
        feats = features(speeds, np.concatenate([r.gaps() for r in group],
                                                axis=1)).swapaxes(0, 1)
        ends = np.cumsum([r.duration for r in group])
        starts = np.concatenate([
            np.arange(end - r.duration, end - (P + F) + 1, stride)
            for r, end in zip(group, ends)])[:, None, None]       # (W, 1, 1)
        future = starts + P + np.arange(F)
        follower = np.arange(n)[:, None]
        out.append((feats[starts + np.arange(P), follower],
                    speeds[0][future[:, 0]], feats[future, follower, :2]))
    return out


def window_count(windows) -> int:
    """Number of windows in a list of ``extract_windows`` triples."""
    return sum(len(history) for history, _, _ in windows)


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
        # the ramp steps by ramp*DT toward the target until it is within one
        # step of it; cumsum adds the steps in sequence, as a per-frame loop
        # does, so run[k] is the speed after k steps, and n covers the
        # distance with steps to spare for the rounding of the sums
        n = min(frames - i, int(abs(v[i - 1] - target) / (ramp * DT)) + 2)
        run = np.full(n + 1, np.sign(target - v[i - 1]) * ramp * DT)
        run[0] = v[i - 1]
        run = np.cumsum(run)
        close = np.abs(run - target) <= ramp * DT
        steps = int(np.argmax(close)) if close.any() else n
        v[i:i + steps] = run[1:steps + 1]
        i += steps
        v[i:i + hold] = target
        i += hold
    return np.clip(v, 0.0, SPEED_CAP)


def synthesize_platoon(platoon_ids, profiles, params, lengths,
                       noise_sigma: float, noise_seeds,
                       duration_steps: int) -> list:
    """Integrate IDM followers behind scripted leaders, one platoon per row
    of one ``idm.simulate_idm_platoon`` call.

    Row b is platoon ``platoon_ids[b]``: leader ``profiles[b]``, followers
    ``params[b]`` (a list of IdmParams) starting at equilibrium behind it,
    ``lengths[b]`` leader first, and acceleration noise drawn from
    ``noise_seeds[b]``. Returns one PlatoonRecord per row, or None for a row
    whose gap collapsed.
    """
    lead = np.stack([lead_speed_series(p, duration_steps) for p in profiles])
    lengths = np.array(lengths, dtype=float)
    B, n = len(platoon_ids), len(params[0]) + 1
    if lengths.shape != (B, n):
        raise ValueError(f"lengths must have shape {(B, n)}")
    pos = np.zeros((B, n))
    spd = np.zeros((B, n))
    spd[:, 0] = lead[:, 0]
    for b, row in enumerate(params):
        for i, p in enumerate(row, start=1):
            v_eq = min(lead[b, 0], 0.9 * p.v0)
            spd[b, i] = v_eq
            pos[b, i] = (pos[b, i - 1] - lengths[b, i - 1]
                         - idm.equilibrium_gap(v_eq, p))
    noise = None
    if noise_sigma > 0.0:
        noise = np.empty((B, duration_steps - 1, n - 1))
        for row, seed in zip(noise, noise_seeds):
            row[...] = np.random.default_rng(seed).normal(0.0, noise_sigma,
                                                          row.shape)
    sims = idm.simulate_idm_platoon(lead, pos, spd, lengths, params, noise)
    return [None if sim.collision_frame is not None else
            PlatoonRecord(pid, sim.positions, sim.speeds, row_lengths)
            for pid, sim, row_lengths in zip(platoon_ids, sims, lengths)]


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


def _sample_attempt(rng: np.random.Generator, n_followers: int) -> tuple:
    """One attempt at a platoon from its stream, as the per-row arguments of
    ``synthesize_platoon``: (profile, follower params, lengths, noise seed).
    The genes are one (n_followers, 5) uniform draw, which gives the values
    of one scalar draw per gene, follower by follower."""
    profile = _sample_profile(rng)
    low, high = np.array([SYNTH_IDM_RANGES[name] for name in idm.GENE_NAMES]).T
    genes = rng.uniform(low, high, (n_followers, len(idm.GENE_NAMES)))
    params = [idm.IdmParams(*row) for row in genes.tolist()]
    lengths = rng.uniform(*SYNTH_LENGTH_RANGE, n_followers + 1)
    return profile, params, lengths, int(rng.integers(0, 2 ** 31))


# Follower-frames stepped at once by datagen: platoons are synthesized in
# blocks of at most this many (at least one platoon), so that each of the
# batch's state and noise arrays stays near 512 KB.
LOCKSTEP_CELLS = 1 << 16


def generate_synthetic_platoons(count: int, n_followers: int = 6,
                                duration_s: float = 15.0, seed: int = 0,
                                noise_sigma: float = SYNTH_NOISE_SIGMA) -> list:
    """Deterministic synthetic corpus: scripted leaders, noisy IDM followers.

    Platoon i draws every attempt from its own stream, child i of
    ``SeedSequence(seed)``, so it is the same for any ``count``. Platoons
    are synthesized in lockstep, in blocks of ``LOCKSTEP_CELLS``
    follower-frames: a block's first attempts are the rows of one
    ``synthesize_platoon`` call, and the rows whose gap collapsed draw their
    next attempt and are stepped together, up to 25 attempts each. A
    platoon's record does not depend on which platoons share its batch.
    """
    if count < 1 or n_followers < 1:
        raise ValueError("count and n_followers must be >= 1")
    duration_steps = int(round(duration_s / DT))
    if duration_steps < 2:
        raise ValueError("duration too short")
    block = max(1, LOCKSTEP_CELLS // (n_followers * duration_steps))
    children = np.random.SeedSequence(seed).spawn(count)
    records = []
    for start in range(0, count, block):
        pending = list(range(start, min(start + block, count)))
        rngs = {i: np.random.default_rng(children[i]) for i in pending}
        done = {}
        for _ in range(25):
            profiles, params, lengths, noise_seeds = zip(*[
                _sample_attempt(rngs[i], n_followers) for i in pending])
            got = synthesize_platoon(
                [f"syn-{seed}-{i:04d}" for i in pending], profiles, params,
                lengths, noise_sigma, noise_seeds, duration_steps)
            done.update((i, rec) for i, rec in zip(pending, got)
                        if rec is not None)
            pending = [i for i, rec in zip(pending, got) if rec is None]
            if not pending:
                break
        else:
            raise GenerationError(f"platoon syn-{seed}-{pending[0]:04d}: "
                                  f"no valid draw in 25 attempts")
        records.extend(done[i] for i in sorted(done))
    return records


def follower_observation(record: PlatoonRecord,
                         vehicle_index: int) -> idm.FollowerObservation:
    """Adapter: one follower (and its leader) for IDM calibration."""
    if not 1 <= vehicle_index <= record.n_followers:
        raise ValueError(f"vehicle_index {vehicle_index} is not a follower "
                         f"(1..{record.n_followers})")
    return idm.FollowerObservation(
        lead_speeds=record.speeds[vehicle_index - 1],
        speeds=record.speeds[vehicle_index],
        gaps=record.gaps()[vehicle_index - 1])
