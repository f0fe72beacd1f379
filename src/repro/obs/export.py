"""The observability export: one record shape, one writer, one loader.

A run with ``--obs DIR`` writes JSONL files whose every line is one
record ``{"kind": ..., ...}``:

``span``
    one :meth:`~repro.obs.spans.Span.to_dict` (logical-clock stamped,
    byte-deterministic);
``metrics``
    one cell's grid position and coordinates plus its full
    :class:`~repro.obs.registry.MetricsRegistry` dump under ``registry``
    (histogram buckets included, so any percentile re-derives exactly);
``timeline``
    one exemplar request timeline of a *timed* cell (batches, segments,
    critical path — see :mod:`repro.simtime.binding`);
``profile``
    one participant's wall-clock phases (``label``, ``phases``);
``cache``
    the run's cell-cache ``counters``.

The file is the scope: ``obs-cell-NNNN.jsonl`` holds cell ``NNNN``'s
spans, then its metrics record, then its exemplars;
``obs-shard-NNN.jsonl`` holds shard ``NNN``'s exec-engine spans (a
``shard`` span wrapping its ``cell-run`` events); ``obs-run.jsonl`` holds
the parent's ``merge`` span and the profile and cache records.  Cell
files key on grid position, so a sequential and any sharded run write
byte-identical cell files; each worker writes only its own files.

:func:`export_dir` clears any earlier export's ``obs-*.jsonl`` files, so a
directory holds exactly one run.  :func:`load_export` is the only reader
— ``python -m repro obs summarize/diff/attribute`` all go through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Every record kind an export may hold.
KINDS = ("span", "metrics", "timeline", "profile", "cache")


def export_dir(path) -> Path:
    """``path`` as a created export directory holding no earlier export.

    Deletes the ``obs-*.jsonl`` files a previous run left there — only
    those — so a reused directory never mixes two runs.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("obs-*.jsonl"):
        stale.unlink()
    return directory


def write_records(
    directory,
    records: Iterable[Dict[str, object]],
    cell: Optional[int] = None,
    shard: Optional[int] = None,
) -> Path:
    """Write ``records`` as one export file, one key-sorted JSON line each.

    The file is cell ``cell``'s, shard ``shard``'s, or (neither given) the
    run's; every record carries one of :data:`KINDS` as its ``kind``.
    """
    if cell is not None:
        name = f"obs-cell-{cell:04d}.jsonl"
    elif shard is not None:
        name = f"obs-shard-{shard:03d}.jsonl"
    else:
        name = "obs-run.jsonl"
    path = Path(directory) / name
    with open(path, "w", encoding="utf-8") as fp:
        for record in records:
            fp.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def span_records(tracer) -> List[Dict[str, object]]:
    """A tracer's spans as ``span`` records, in begin order."""
    return [{"kind": "span", **span.to_dict()} for span in tracer.spans]


def write_cell(
    directory, position: int, meta: Dict[str, str], tracer, result
) -> Path:
    """Write one executed cell's file: its span tree, its metrics record
    (``position``, the ``meta`` coordinates, the registry) and — for a
    timed cell — its exemplar timelines."""
    metrics = {
        "kind": "metrics", "position": position, **meta,
        "registry": result.metrics.registry.to_dict(),
    }
    return write_records(
        directory,
        [
            *span_records(tracer), metrics,
            *({"kind": "timeline", **record} for record in result.exemplars),
        ],
        cell=position,
    )


def load_export(directory) -> Dict[str, List[Dict[str, object]]]:
    """Every record of an export directory, grouped by kind.

    Files load in name order (cells by position, then the run file, then
    shards by index), records in file order.  A torn or garbled line, a
    line that is not a record object, or an unknown ``kind`` raises
    ``ValueError`` naming ``path:line``; so does a directory holding no
    record at all — an export missing records would under-report.
    """
    directory = Path(directory)
    records: Dict[str, List[Dict[str, object]]] = {kind: [] for kind in KINDS}
    for path in sorted(directory.glob("obs-*.jsonl")):
        with open(path, "r", encoding="utf-8") as fp:
            for number, line in enumerate(fp, start=1):
                where = f"{path}:{number}"
                if not line.endswith("\n"):
                    raise ValueError(f"{where}: torn final line")
                try:
                    record = json.loads(line)
                except ValueError as error:
                    raise ValueError(f"{where}: {error}") from None
                if not isinstance(record, dict):
                    raise ValueError(f"{where}: not a record object")
                if record.get("kind") not in KINDS:
                    raise ValueError(
                        f"{where}: unknown record kind {record.get('kind')!r}"
                    )
                records[record["kind"]].append(record)
    if not any(records.values()):
        raise ValueError(
            f"{directory}: no observability export (no obs-*.jsonl records)"
        )
    return records


def profiles_dict(profiles: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Profile records (or :meth:`PhaseProfile.to_dict` dicts) keyed by
    label — the report's and the summary's ``profile`` section."""
    out: Dict[str, object] = {}
    for profile in profiles:
        out[profile["label"] or f"worker-{len(out)}"] = profile["phases"]
    return out
