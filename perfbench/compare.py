"""Compare two result records written by ``run.py``.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Records measured on different inputs are not comparable: the command
refuses (exit 2) when the workload, trace mode, trace fingerprint or
store-configuration fingerprint differ.  With the same inputs and the
same program source, the simulated ratios (WA, padding, GC) must be
identical; a difference there is a determinism defect (exit 1).
Otherwise it prints each metric's change, judged by the direction and
bound declared in BENCHMARK.json (exit 0).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: Fingerprint fields that must match for two records to be comparable.
SAME_INPUT = ("workload", "trace_sha256", "config_sha256")


def _declared() -> dict[str, dict]:
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(base: dict, new: dict) -> tuple[list[str], int]:
    """Report lines and exit code for two loaded records."""
    fb, fn = base["fingerprint"], new["fingerprint"]
    diff = [k for k in SAME_INPUT if fb.get(k) != fn.get(k)]
    if base.get("trace") != new.get("trace"):
        diff.append("trace mode")
    if diff:
        return [f"refusing to compare: {', '.join(diff)} differ "
                f"({fb.get('workload')} seed {fb.get('seed')} vs "
                f"{fn.get('workload')} seed {fn.get('seed')})"], 2
    lines = [f"{fb['workload']} seed {fb['seed']} trace "
             f"{fb['trace_sha256'][:16]}: source "
             f"{fb['source_sha256'][:12]} -> {fn['source_sha256'][:12]}"]
    code = 0
    same_code = fb["source_sha256"] == fn["source_sha256"]
    for name in sorted(base["exact"]):
        a, b = base["exact"][name], new["exact"].get(name)
        if a != b:
            if same_code:
                code = 1
                lines.append(f"DEFECT {name} {a!r} -> {b!r} with the same "
                             "source and inputs")
            else:
                lines.append(f"behaviour change: {name} {a!r} -> {b!r}")
    declared = _declared()
    for name in sorted(base["metrics"]):
        if name not in new["metrics"]:
            lines.append(f"{name}: missing from the new record")
            continue
        a = base["metrics"][name]["value"]
        b = new["metrics"][name]["value"]
        unit = base["metrics"][name]["unit"]
        rel = (b - a) / a if a else 0.0
        spec = declared.get(name, {})
        verdict = ""
        if spec.get("better") in ("higher", "lower") and a:
            worse = -rel if spec["better"] == "higher" else rel
            bound = spec.get("bound")
            if bound is not None and worse > bound:
                verdict = f"  WORSE than bound {bound:.0%}"
        lines.append(f"{name:<36} {a:>14.6g} -> {b:>14.6g} {unit:<8} "
                     f"{rel:+.2%}{verdict}")
    return lines, code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    lines, code = compare(*records)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
