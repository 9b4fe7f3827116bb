"""Structured event sink: JSON-lines metrics and per-round CSV export."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

# one encoder for every event; json.dumps with sort_keys builds a new one per call
_event_json = json.JSONEncoder(sort_keys=True).encode


class MetricsSink:
    """Collects structured events; serialization is deterministic."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, kind: str, **data) -> None:
        self.events.append({"event": kind, **data})

    def to_jsonl(self) -> str:
        return "\n".join(map(_event_json, self.events))

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl() + ("\n" if self.events else ""))


ROUND_CSV_COLUMNS = ("round", "accuracy", "mini_rounds", "byz_fraction", "ablation")


def rounds_csv(records, byz_fraction: float, ablation: str) -> str:
    """Per-round metrics series from ``round`` event payloads; excludes
    wall-clock values on purpose so re-runs with the same seed are
    byte-identical."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROUND_CSV_COLUMNS)
    for rec in records:
        writer.writerow(
            [
                rec["round"],
                f"{rec['accuracy']:.8f}",
                rec["mini_rounds"],
                f"{byz_fraction:g}",
                ablation,
            ]
        )
    return buf.getvalue()


def agreement_csv(outcomes) -> str:
    """Per-instance consensus trial series."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("trial", "mini_rounds", "wrong_accepted"))
    for k, out in enumerate(outcomes):
        writer.writerow((k, out.mini_rounds, int(out.wrong_accepted)))
    return buf.getvalue()
