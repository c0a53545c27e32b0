"""Shared helpers for the benchmark harness.

Also a tiny CLI: ``python benchmarks/_bench_util.py check BASELINE.json``
compares a freshly written ``BENCH_engine.json`` against a baseline
snapshot and exits non-zero when any shared benchmark id regressed its
speedup-style metrics beyond the tolerance — the CI ``bench`` job runs
this against the committed trajectory so perf regressions fail the
build instead of silently rewriting the numbers.
"""

import argparse
import json
import math
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Repo-root perf trajectory: every engine benchmark run appends or
#: refreshes its entry here, so speed regressions are visible across
#: PRs (CI uploads the file as an artifact).
TRAJECTORY_PATH = pathlib.Path(__file__).parent.parent / "BENCH_engine.json"


def quick_mode() -> bool:
    """True when the benchmarks should run their fast CI configuration."""
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def write_report(results_dir, name: str, text: str) -> None:
    """Persist one reproduction table (also echoed for -s runs)."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}")


def _is_ratio(value) -> bool:
    """True for a real, finite, non-bool number (a usable speedup)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _speedup_problems(entry: dict) -> list:
    """Why this entry cannot anchor the regression gate (empty = fine).

    Every trajectory entry must carry at least one *numeric* speedup
    metric: a ``None``/NaN value never compares against a baseline, so
    a regression in that benchmark would silently escape the CI gate.
    """
    entry_id = entry.get("id", "<missing id>")
    keys = [k for k in entry if "speedup" in k]
    problems = []
    if not keys:
        problems.append(
            f"{entry_id}: no speedup metric (key containing 'speedup') — "
            "the CI regression gate would never compare this entry"
        )
    for key in keys:
        if not _is_ratio(entry[key]):
            problems.append(
                f"{entry_id}.{key} = {entry[key]!r} is not a finite "
                "number — it silently escapes the regression gate"
            )
    return problems


def _load_trajectory() -> dict:
    """The trajectory file's content (no entries when absent or unreadable)."""
    try:
        return json.loads(TRAJECTORY_PATH.read_text())
    except (ValueError, OSError):
        return {"entries": []}


def read_trajectory(entry_id: str) -> dict:
    """The recorded entry ``entry_id`` without its id ({} when absent)."""
    for entry in _load_trajectory().get("entries", []):
        if entry.get("id") == entry_id:
            return {k: v for k, v in entry.items() if k != "id"}
    return {}


def record_trajectory(entry_id: str, payload: dict) -> None:
    """Upsert one entry of the perf trajectory (keyed by ``entry_id``).

    The file keeps one entry per benchmark id so re-runs refresh their
    numbers in place while entries from other benchmarks/PRs persist.

    Raises:
        ValueError: the entry carries no numeric speedup metric (every
            entry must be comparable by the CI regression gate — a
            ``None`` speedup would silently escape it).
    """
    problems = _speedup_problems({"id": entry_id, **payload})
    if problems:
        raise ValueError(
            "refusing to record an ungateable trajectory entry:\n  "
            + "\n  ".join(problems)
        )
    data = _load_trajectory()
    entries = [e for e in data.get("entries", []) if e.get("id") != entry_id]
    entries.append({"id": entry_id, **payload})
    data["entries"] = entries
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                               + "\n")
    print(f"\n[trajectory:{entry_id}] -> {TRAJECTORY_PATH}")


def compare_trajectory(baseline: dict, current: dict,
                       tolerance: float = 0.25) -> list:
    """Find speedup regressions between two trajectory files.

    Compares every benchmark id present in *both* files (ids only in one
    are skipped — a bench that did not re-run has nothing to report).
    Only ratio metrics (``speedup`` / ``*_speedup`` / ``speedup_*``
    keys) are compared: they are the machine-portable part of an entry,
    unlike absolute seconds, which differ between the committing host
    and CI runners.  A regression is a current ratio more than
    ``tolerance`` below the baseline.

    Returns:
        Human-readable problem strings (empty = no regressions).
    """
    base_entries = {e.get("id"): e for e in baseline.get("entries", [])}
    cur_entries = {e.get("id"): e for e in current.get("entries", [])}
    problems = []
    # a malformed *current* entry must fail the gate, not slip past it:
    # a None speedup compares against nothing, so without this check a
    # benchmark could regress arbitrarily and still go green
    for entry in current.get("entries", []):
        problems.extend(_speedup_problems(entry))
    for entry_id, base in base_entries.items():
        cur = cur_entries.get(entry_id)
        if cur is None:
            continue
        for key, base_val in sorted(base.items()):
            if "speedup" not in key:
                continue
            if not _is_ratio(base_val):
                continue
            cur_val = cur.get(key)
            if base_val <= 0:
                continue
            if not _is_ratio(cur_val):
                problems.append(
                    f"{entry_id}.{key}: baseline {base_val:.3f} but current "
                    f"value {cur_val!r} is not comparable"
                )
                continue
            if cur_val < base_val * (1.0 - tolerance):
                drop = (1.0 - cur_val / base_val) * 100.0
                problems.append(
                    f"{entry_id}.{key}: {cur_val:.3f} vs baseline "
                    f"{base_val:.3f} (-{drop:.0f}%, tolerance "
                    f"{tolerance * 100:.0f}%)"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark trajectory utilities"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", help="fail when the current trajectory regressed"
    )
    check.add_argument("baseline", type=pathlib.Path,
                       help="baseline BENCH_engine.json snapshot")
    check.add_argument("--current", type=pathlib.Path,
                       default=TRAJECTORY_PATH,
                       help="trajectory to check (default: repo root)")
    check.add_argument("--tolerance", type=float,
                       default=float(os.environ.get(
                           "REPRO_BENCH_TOLERANCE", "0.25")),
                       help="allowed fractional speedup drop "
                            "(default 0.25)")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    problems = compare_trajectory(baseline, current, args.tolerance)
    compared = sorted(
        set(e.get("id") for e in baseline.get("entries", []))
        & set(e.get("id") for e in current.get("entries", []))
    )
    print(f"compared {len(compared)} benchmark ids: {', '.join(compared)}")
    if problems:
        print("PERF REGRESSIONS:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("no speedup regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
