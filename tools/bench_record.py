"""Record a benchmark claim: paired perfbench runs of two checkouts.

    python3 tools/bench_record.py --parent DIR --change DIR --pr N \\
        --workload train --seeds 1001-1010 [--seconds 35] [--claim decisions_per_s]

For every seed, ``perfbench/run.py --workload W --seed N --seconds S`` runs
once in each checkout, one after the other; which side runs first alternates
from pair to pair, so that a slow spell of the host does not fall on one side
only. Each run's end-to-end metrics are read from the JSON line that
``run.py`` prints last.

The record goes to ``BENCH_<pr>.json`` in the change checkout (or ``--out``),
under ``workloads[W]``; other workloads already in the file are kept. It
holds both sides' provenance, the seeds, the values of every pair, and per
metric each side's median and quartiles and the number of pairs the change
won (ties count for neither side). ``--claim`` names the metric the change
claims to improve; the record then says whether the change won at least nine
pairs in ten and whether the gap between the medians exceeds the parent's
interquartile range.

A side's ``commit`` is read from git, so it is recorded only when the
checkout is the top of a git repository. A copy made by ``git archive`` is
recorded with ``"commit": null`` (a note on stderr says so) and only
``src_sha256`` identifies it; ``git worktree add --detach DIR <commit>``
gives a parent checkout whose commit is recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def source_digest(root: Path) -> str:
    """sha256 over the paths and bytes of every file under ``src/``."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the repository whose top is ``root``, marked ``+dirty`` when
    tracked files differ from it; None for a copy outside git, such as one
    made by ``git archive`` (``src_sha256`` identifies it)."""
    def git(*cmd: str) -> str:
        return subprocess.run(["git", "-C", str(root), *cmd],
                              capture_output=True, text=True).stdout.strip()

    top = git("rev-parse", "--show-toplevel")
    if not top or Path(top).resolve() != root.resolve():
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    provenance = json.loads(next(line for line in out.stdout.splitlines()
                                 if line.startswith("# provenance "))[len("# provenance "):])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "provenance": provenance}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        summary[name] = {
            "better": direction,
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - b) > 0 for b, c in zip(parent, change)),
            "parent_wins": sum(sign * (b - c) > 0 for b, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--workload", required=True, choices=("train", "compare", "contention"))
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim: no end-to-end metric {args.claim!r}")
    sides = {"parent": args.parent, "change": args.change}
    pairs, provenance = [], {}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run = run_once(sides[side], args.workload, seed, args.seconds)
            if not run["correct"] or run["failed"]:
                raise RuntimeError(f"{side} run of seed {seed} failed: {run}")
            pair[side] = run["metrics"]
            provenance.setdefault(side, run["provenance"])
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    for side, root in sides.items():
        prov = provenance[side]
        commit = git_commit(root)
        if commit is None:
            print(f"note: the {side} checkout {root} is not the top of a git repository; "
                  f"its record has \"commit\": null and only src_sha256 identifies it",
                  file=sys.stderr)
        provenance[side] = {
            "commit": commit,
            "src_sha256": source_digest(root),
            **{k: prov[k] for k in ("python", "numpy", "blas", "blas_threads", "nproc", "cpu_count")},
        }
    record = {
        "provenance": {**provenance,
                       "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "command": f"perfbench/run.py --workload {args.workload} --seed N --seconds {args.seconds:g}",
        "seeds": args.seeds,
        "pairs": pairs,
        "summary": summarize(pairs, better),
    }
    if args.claim is not None:
        s = record["summary"][args.claim]
        gap = abs(s["change"]["median"] - s["parent"]["median"])
        improved = (s["change"]["median"] - s["parent"]["median"]) * (
            1.0 if s["better"] == "higher" else -1.0) > 0
        record["claim"] = {
            "metric": args.claim,
            "change_wins": s["change_wins"],
            "pairs": s["pairs"],
            "median_gain": s["change"]["median"] / s["parent"]["median"] - 1.0,
            "wins_at_least_9_in_10": s["change_wins"] >= 0.9 * s["pairs"],
            "median_gap_exceeds_parent_iqr": improved and gap > s["parent"]["iqr"],
        }

    out = args.out or args.change / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("pr", args.pr)
    doc.setdefault("workloads", {})[args.workload] = record
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
