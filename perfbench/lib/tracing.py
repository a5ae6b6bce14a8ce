"""Per-layer attribution from the harness's Chrome-trace spans."""

import json
from collections import defaultdict


def load_spans(path):
    with open(path) as f:
        return [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]


def self_times(spans):
    """Self time per span name, in seconds, and the count of each.

    A span's self time is its duration minus the part of its interval that
    its child spans (same thread, nested inside it) cover.
    """
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s["tid"]].append(s)
    total = defaultdict(float)
    counts = defaultdict(int)
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, child_us, dur_us]
        def close(frame):
            total[frame[1]] += (frame[3] - frame[2]) / 1e6
        for e in events:
            end = e["ts"] + e["dur"]
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([end, e["name"], 0.0, e["dur"]])
            counts[e["name"]] += 1
        while stack:
            close(stack.pop())
    return dict(total), dict(counts)


def summary_table(rows):
    """Text table of (layer, self_s, count, note) rows."""
    lines = [f"{'layer':<34} {'self_s':>10} {'count':>8}  note"]
    for layer, self_s, count, note in rows:
        lines.append(f"{layer:<34} {self_s:>10.4f} {count:>8}  {note}")
    return "\n".join(lines)
