"""Repo benchmark: replay one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload msrc-adapt-instrumented --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
runs the traced pass and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes a fingerprinted result record (and, traced, a
Chrome trace) under ``perfbench/out/``; ``compare.py`` diffs two records.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _parse(argv: list[str] | None, workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes until this many seconds "
                         "have passed (untraced runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=OUT,
                    help="directory for result records and traces")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import replaybench as rb

    args = _parse(argv, rb.WORKLOADS)
    w = rb.WORKLOADS[args.workload]
    stem = f"{w.name}-seed{args.seed}"
    if args.trace:
        result = rb.run_traced(w, args.seed,
                               os.path.join(args.out, stem + ".trace.json"))
    else:
        result = rb.run_untraced(w, args.seed, args.seconds)
    out = result["outcome"]
    fp = result["fingerprint"]
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"trace_sha256 {fp['trace_sha256'][:16]} "
          f"config_sha256 {fp['config_sha256'][:16]} "
          f"source_sha256 {fp['source_sha256'][:16]} "
          f"git {fp['git_revision'] or '-'}")
    for err in out.errors:
        print(f"FAILED {err}")
    metrics = result["metrics"]
    shown = dict(metrics, **result.get("unbounded", {}))
    shown["error_rate"] = (out.failed / out.attempted, "ratio")
    width = max(len(k) for k in shown)
    for name, (value, unit) in sorted(shown.items()):
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fp,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "unbounded": {k: {"value": v, "unit": u}
                      for k, (v, u) in result.get("unbounded", {}).items()},
        "exact": result["exact"],
        "attempted": out.attempted, "failed": out.failed,
        "errors": out.errors, "detail": result["detail"],
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{stem}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
