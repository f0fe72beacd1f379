"""JSONL result spools: workers stream cells out, the parent merges.

Each shard owns one append-only spool file; every completed cell becomes
one self-contained JSON line tagged with its grid position.  The parent
counts complete lines for live progress (a line is only counted once its
newline landed, so a worker caught mid-write never yields a torn record)
and, after the pool drains, loads every spool and sorts by position — that
sort *is* the deterministic merge.

Two durability rules govern reads:

* a torn record is only legal at EOF (the writer died mid-line); anything
  malformed *before* the last line is corruption and raises
  :class:`SpoolError` naming the file and line, rather than silently
  dropping every later record;
* progress polling goes through :class:`SpoolCursor`, which remembers a
  byte offset past the last counted newline per file and reads only the
  appended bytes — O(new data) per poll instead of re-reading every spool
  in full each tick.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from ..codec import decode, encode
from ..workload.matrix import CellResult


class SpoolError(RuntimeError):
    """A spool file is corrupt, or two spools disagree about one cell."""


def shard_spool_path(directory, shard_index: int) -> Path:
    """Where shard ``shard_index`` spools its results."""
    return Path(directory) / f"shard-{shard_index:03d}.jsonl"


def dump_spool_line(position: int, cell_result: CellResult) -> str:
    """One cell as one newline-terminated JSON record."""
    record = {"position": position, "cell": encode(cell_result)}
    return json.dumps(record, sort_keys=True) + "\n"


def load_spool(path) -> List[Tuple[int, CellResult]]:
    """Read every complete record of one spool file.

    A final line missing its newline is the writer's torn tail and is
    ignored; any other malformed record — undecodable JSON, a missing
    ``position``/``cell`` field — is corruption and raises
    :class:`SpoolError` with the file and line number, because silently
    truncating there would misreport cells that *are* on disk as missing.
    """
    entries: List[Tuple[int, CellResult]] = []
    with open(path, "r", encoding="utf-8") as fp:
        lines = fp.readlines()
    for number, line in enumerate(lines):
        if not line.endswith("\n"):
            if number == len(lines) - 1:
                break  # torn final record: writer died mid-line
            raise SpoolError(
                f"{path}: record on line {number + 1} is torn mid-file "
                f"(only the final record may be incomplete)"
            )
        try:
            record = json.loads(line)
            entries.append(
                (int(record["position"]), decode(CellResult, record["cell"]))
            )
        except (ValueError, KeyError, TypeError) as error:
            raise SpoolError(
                f"{path}: corrupt spool record on line {number + 1}: {error}"
            ) from error
    return entries


class SpoolCursor:
    """Incremental complete-record counter over a fixed set of spool files.

    The parent polls spools several times a second while workers run; a
    cursor keeps per-file byte offsets just past the last newline it has
    counted, so each poll reads only what workers appended since the
    previous one.  Bytes after the last newline (a record mid-write) are
    re-read on the next poll, once their newline lands.
    """

    def __init__(self, paths: Iterable) -> None:
        self._paths = [Path(path) for path in paths]
        self._offsets: Dict[Path, int] = {path: 0 for path in self._paths}
        self._counts: Dict[Path, int] = {path: 0 for path in self._paths}

    def count(self) -> int:
        """Complete records seen so far (missing files count zero)."""
        for path in self._paths:
            try:
                with open(path, "rb") as fp:
                    fp.seek(self._offsets[path])
                    chunk = fp.read()
            except FileNotFoundError:
                continue
            if not chunk:
                continue
            complete = chunk.rfind(b"\n") + 1
            if complete:
                self._counts[path] += chunk.count(b"\n", 0, complete)
                self._offsets[path] += complete
        return sum(self._counts.values())
