"""Read pooled-testing records and impute fixed-size batches.

Input CSV schema (header required, naming each of these columns once; extra
columns ignored):

    pool_id,run_timestamp,pool_size,statuses

where run_timestamp is ISO-8601 or empty (the timestamps of one file either
all carry a UTC offset or none do), and statuses is a token string
over {N, P, I} (negative / positive / inconclusive) of length pool_size,
e.g. ``NNPNNNNN``.

The cleaning rules drop pools with no timestamp, pools of an excluded size,
and pools containing any inconclusive status.  Surviving pools are sorted
by timestamp (stable, so ties keep file order), their specimens are
concatenated, and consecutive slices of batch_size become batches; a
trailing remainder shorter than one batch is discarded and reported.

Batches round-trip through a second CSV, ``batch_index,statuses``, with
tokens restricted to {N, P}.  Both files are read as UTF-8; a leading byte
order mark is skipped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ValidationError
from .model import _is_int, binary_vector, check_int, parse_uint

__all__ = [
    "PoolRecord",
    "Batch",
    "parse_pools",
    "write_pools",
    "filter_pools",
    "impute_batches",
    "write_batches",
    "read_batches",
]

NEGATIVE = "N"
POSITIVE = "P"
INCONCLUSIVE = "I"

_POOL_COLUMNS = ("pool_id", "run_timestamp", "pool_size", "statuses")
_BATCH_COLUMNS = ("batch_index", "statuses")
_TOKENS = bytes.maketrans(b"\x00\x01", (NEGATIVE + POSITIVE).encode("ascii"))


def _statuses(tokens: str) -> np.ndarray:
    return np.frombuffer(tokens.encode("ascii"), np.uint8) == ord(POSITIVE)


def _tokens(statuses: np.ndarray) -> str:
    return statuses.tobytes().translate(_TOKENS).decode("ascii")


@dataclass(frozen=True)
class PoolRecord:
    pool_id: str
    run_timestamp: Optional[datetime]
    pool_size: int
    statuses: str

    def __post_init__(self):
        if not _is_int(self.pool_size):
            raise ValidationError(f"pool_size must be an integer, got {self.pool_size!r}")
        if self.pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {self.pool_size}")
        if len(self.statuses) != self.pool_size:
            raise ValidationError(
                f"pool {self.pool_id!r}: {len(self.statuses)} statuses for size {self.pool_size}"
            )
        bad = set(self.statuses) - {NEGATIVE, POSITIVE, INCONCLUSIVE}
        if bad:
            raise ValidationError(
                f"pool {self.pool_id!r}: unknown status token(s) {sorted(bad)}"
            )

    @property
    def has_inconclusive(self) -> bool:
        return INCONCLUSIVE in self.statuses


@dataclass(frozen=True, eq=False)
class Batch:
    index: int
    statuses: np.ndarray
    source_pools: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "index", check_int("batch index", self.index, 0))
        object.__setattr__(self, "statuses", binary_vector(self.statuses))
        if isinstance(self.source_pools, str):  # tuple() would split one id into characters
            raise ValidationError("source_pools must be a sequence of pool ids, not a string")
        object.__setattr__(self, "source_pools", tuple(self.source_pools))

    @property
    def size(self) -> int:
        return int(self.statuses.shape[0])


def _parse_timestamp(text: str) -> Optional[datetime]:
    text = text.strip()
    if not text:
        return None
    try:
        # fromisoformat on 3.10 rejects a trailing Z; normalize it
        return datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as e:
        raise ValidationError(f"bad timestamp {text!r}: {e}") from e


def _table(path, columns: Sequence[str]) -> Iterator[Tuple[int, Dict[str, str]]]:
    """Yield (line number, row) for each record of a UTF-8 CSV whose header
    holds each of `columns` once; csv.DictReader would read a repeated
    column's last field.  A byte order mark is skipped, a short row reads its
    missing fields as empty, and bytes that are not UTF-8 raise
    ValidationError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.DictReader(fh, restval="")
            header = reader.fieldnames or []
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValidationError(f"{path}: missing column(s) {missing}; header is {header}")
            repeated = [c for c in columns if header.count(c) > 1]
            if repeated:
                raise ValidationError(f"{path}: repeated column(s) {repeated}; header is {header}")
            for row in reader:
                yield reader.line_num, row
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}: not UTF-8 text: {e}") from e


def parse_pools(path) -> List[PoolRecord]:
    """Read pool records, failing loudly with line numbers on bad rows."""
    records = []
    problems = []
    for line, row in _table(path, _POOL_COLUMNS):
        try:
            try:
                size = parse_uint(row["pool_size"])
            except ValueError:
                raise ValidationError(f"bad pool_size {row['pool_size']!r}")
            records.append(
                PoolRecord(
                    pool_id=row["pool_id"],
                    run_timestamp=_parse_timestamp(row["run_timestamp"]),
                    pool_size=size,
                    statuses=row["statuses"].strip(),
                )
            )
        except ValidationError as e:
            problems.append(f"line {line}: {e}")
    if problems:
        raise ValidationError(
            f"{path}: {len(problems)} malformed row(s):\n  " + "\n  ".join(problems)
        )
    return records


def write_pools(path, records: Sequence[PoolRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_POOL_COLUMNS)
        for r in records:
            ts = r.run_timestamp.isoformat() if r.run_timestamp else ""
            writer.writerow([r.pool_id, ts, r.pool_size, r.statuses])


def filter_pools(
    records: Sequence[PoolRecord], excluded_sizes: Set[int] = frozenset({5})
) -> Tuple[List[PoolRecord], Dict[str, int]]:
    """Apply the cleaning rules in order: (a) no timestamp, (b) excluded
    size, (c) any inconclusive status.  A record failing several rules is
    counted under the first.  Returns surviving records in input order plus
    per-rule drop counts (in specimens as well as pools).
    """
    kept = []
    dropped = {
        "no_timestamp": 0,
        "excluded_size": 0,
        "inconclusive": 0,
        "dropped_specimens": 0,
    }
    for r in records:
        if r.run_timestamp is None:
            rule = "no_timestamp"
        elif r.pool_size in excluded_sizes:
            rule = "excluded_size"
        elif r.has_inconclusive:
            rule = "inconclusive"
        else:
            kept.append(r)
            continue
        dropped[rule] += 1
        dropped["dropped_specimens"] += r.pool_size
    return kept, dropped


def impute_batches(
    records: Sequence[PoolRecord], batch_size: int
) -> Tuple[List[Batch], int]:
    """Slice timestamp-ordered specimens into fixed-size batches.

    Returns the batches and the size of the discarded trailing remainder.
    Every record must carry a timestamp and no inconclusive status (run
    filter_pools first).
    """
    batch_size = check_int("batch_size", batch_size)
    for r in records:
        if r.run_timestamp is None:
            problem = "has no timestamp"
        elif r.has_inconclusive:
            problem = "has an inconclusive status"
        else:
            continue
        raise ValidationError(f"pool {r.pool_id!r} {problem}; filter before imputing")
    aware = {r.run_timestamp.tzinfo is not None: r for r in records}
    if len(aware) == 2:
        raise ValidationError(
            f"run_timestamp mixes offset-naive (pool {aware[False].pool_id!r}) and "
            f"offset-aware (pool {aware[True].pool_id!r}) values, which cannot be ordered"
        )
    ordered = sorted(records, key=lambda r: r.run_timestamp)
    statuses = _statuses("".join(r.statuses for r in ordered))
    starts = np.arange(0, statuses.size - batch_size + 1, batch_size)
    ends = np.cumsum([r.pool_size for r in ordered])  # pool i holds the specimens before ends[i]
    bounds = np.searchsorted(ends, [starts, starts + batch_size - 1], side="right").tolist()
    ids = [r.pool_id for r in ordered]
    return [
        Batch(b, statuses[s : s + batch_size], tuple(dict.fromkeys(ids[lo : hi + 1])))
        for b, (s, lo, hi) in enumerate(zip(starts.tolist(), *bounds))
    ], statuses.size % batch_size


def write_batches(path, batches: Sequence[Batch]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BATCH_COLUMNS)
        writer.writerows([b.index, _tokens(b.statuses)] for b in batches)


def read_batches(path) -> List[Batch]:
    batches = []
    for line, row in _table(path, _BATCH_COLUMNS):
        tokens = row["statuses"].strip()
        bad = set(tokens) - {NEGATIVE, POSITIVE}
        if bad:
            raise ValidationError(f"{path}: line {line}: unknown status token(s) {sorted(bad)}")
        if not tokens:
            raise ValidationError(f"{path}: line {line}: empty statuses")
        try:
            idx = parse_uint(row["batch_index"])
        except ValueError as e:
            raise ValidationError(
                f"{path}: line {line}: bad batch_index {row['batch_index']!r}"
            ) from e
        batches.append(Batch(idx, _statuses(tokens)))
    return batches
