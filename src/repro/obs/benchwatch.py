"""The continuous-bench regression sentinel.

Every benchmark run already leaves a ``BENCH_<name>.json`` rollup at
the repo root (:func:`repro.obs.profiling.bench_rollup`). This module
turns those one-shot artifacts into a *trajectory* and watches it:

* :func:`append_run` folds a rollup into a schema-versioned history
  journal (``BENCH_history.jsonl``, one record per bench per run) that
  is committed alongside the code, so every checkout carries its own
  performance baseline;
* :func:`check_runs` compares the current rollup against the trailing
  median of the history with a noise-aware threshold: a test regresses
  when its mean exceeds ``median * (1 + tolerance + noise_term)``,
  where the noise term scales with the history's robust coefficient of
  variation (MAD/median) and is capped — so one noisy CI box widens
  the envelope a little, but a genuine 2x slowdown always trips it
  (the cap keeps the total allowance strictly below 2x);
* :func:`render_trends` rewrites the trend table between the
  ``benchwatch`` markers in EXPERIMENTS.md, so the human-readable
  reproduction report tracks the same trajectory CI gates on.

The CLI gates: ``python -m repro.obs.benchwatch BENCH_*.json`` checks
each rollup against the history, appends the new observations, and
exits nonzero if anything regressed. Deliberately clock-free — run
identity comes from ``--label`` (CI passes the commit SHA; an append
without one is refused, so every record names its run), and
ordering is the journal's append order — so the sentinel itself stays
inside the repository's no-wall-clock lint rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ReproError

HISTORY_SCHEMA = 1

#: Fewer prior samples than this and a test is still building its
#: baseline: recorded, never judged.
MIN_SAMPLES = 3

#: Default trailing window (prior runs per test) the median is taken over.
DEFAULT_WINDOW = 8

#: Default fractional slowdown allowed over the trailing median.
DEFAULT_TOLERANCE = 0.75

#: Multiplier on the history's robust CV (MAD/median) added to the
#: tolerance, and the hard cap on that noise term. tolerance + cap must
#: stay < 1.0 so a 2x slowdown can never be absorbed as noise.
NOISE_MULT = 3.0
NOISE_CAP = 0.2

TRENDS_BEGIN = "<!-- benchwatch:begin -->"
TRENDS_END = "<!-- benchwatch:end -->"


class BenchWatchError(ReproError):
    """An unreadable rollup or history journal."""


@dataclass(frozen=True)
class Verdict:
    """One test's judgement against its trailing history."""

    bench: str
    test: str
    mean_s: float
    baseline_s: float | None  # trailing median; None while building
    allowed_s: float | None
    samples: int
    regressed: bool

    @property
    def ratio(self) -> float | None:
        if self.baseline_s is None or self.baseline_s == 0.0:
            return None
        return self.mean_s / self.baseline_s


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchWatchError(message)


def load_rollup(path: str | Path) -> dict[str, Any]:
    """Read one ``BENCH_<name>.json`` rollup, validating its shape."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchWatchError(f"cannot read bench rollup {path}: {exc}") from exc
    _require(isinstance(payload, dict), f"{path}: rollup is not an object")
    _require("bench" in payload, f"{path}: rollup has no 'bench' name")
    _require(
        isinstance(payload.get("timings"), list),
        f"{path}: rollup has no 'timings' list",
    )
    return payload


def _observations(payload: Mapping[str, Any]) -> dict[str, float]:
    """``{test: mean_s}`` for every timed test in a rollup."""
    means: dict[str, float] = {}
    for entry in payload["timings"]:
        mean = entry.get("mean_s")
        test = entry.get("test")
        if isinstance(test, str) and isinstance(mean, (int, float)):
            means[test] = float(mean)
    return means


def history_record(
    payload: Mapping[str, Any], label: str | None = None
) -> dict[str, Any]:
    """The compact history-journal form of one rollup."""
    record: dict[str, Any] = {
        "schema": HISTORY_SCHEMA,
        "bench": payload["bench"],
        "tests": _observations(payload),
        "total_s": payload.get("total_s"),
    }
    if label is not None:
        record["label"] = label
    return record


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """Parse a history journal; a missing file is an empty history and
    a torn trailing line (killed writer) is dropped."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return []
    lines = raw.splitlines()
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break
            raise BenchWatchError(
                f"history {path} is corrupt at line {lineno}: {exc}"
            ) from exc
        if record.get("schema") != HISTORY_SCHEMA:
            raise BenchWatchError(
                f"history {path} line {lineno}: unsupported schema "
                f"{record.get('schema')!r} (expected {HISTORY_SCHEMA})"
            )
        records.append(record)
    return records


def append_run(
    history_path: str | Path,
    payload: Mapping[str, Any],
    label: str | None = None,
) -> dict[str, Any]:
    """Append one rollup's observations to the history journal
    (crash-atomically, preserving all prior records) and return the
    appended record. Every record must say which run it came from, so
    an append without a label is refused."""
    if not label:
        raise BenchWatchError(
            f"refusing to append {payload.get('bench')!r} to {history_path} "
            "without a label (the run identity, e.g. a git SHA)"
        )
    from repro.cache import atomic_write_text

    records = load_history(history_path)
    record = history_record(payload, label=label)
    records.append(record)
    atomic_write_text(
        history_path,
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
    )
    return record


def prune_history(history_path: str | Path, keep: int) -> int:
    """Cap the journal at the trailing ``keep`` records *per bench*.

    The committed history grows by one record per bench per CI run;
    pruning keeps it bounded without losing the trailing window the
    sentinel judges against. Kept records stay in journal order and the
    file is rewritten crash-atomically (the shared spill idiom); returns
    the number of records dropped.
    """
    if keep < 1:
        raise BenchWatchError(f"prune window must be >= 1, got {keep}")
    from repro.cache import atomic_write_text

    records = load_history(history_path)
    per_bench: dict[str, int] = {}
    for record in records:
        bench = str(record.get("bench"))
        per_bench[bench] = per_bench.get(bench, 0) + 1
    seen: dict[str, int] = {}
    kept: list[dict[str, Any]] = []
    for record in records:
        bench = str(record.get("bench"))
        seen[bench] = seen.get(bench, 0) + 1
        if seen[bench] > per_bench[bench] - keep:
            kept.append(record)
    dropped = len(records) - len(kept)
    if dropped:
        atomic_write_text(
            history_path,
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in kept),
        )
    return dropped


def _trailing_means(
    history: Sequence[Mapping[str, Any]], bench: str, test: str, window: int
) -> list[float]:
    """The last ``window`` recorded means for one test, journal order."""
    means = [
        float(record["tests"][test])
        for record in history
        if record.get("bench") == bench
        and isinstance(record.get("tests"), dict)
        and isinstance(record["tests"].get(test), (int, float))
    ]
    return means[-window:]


def judge(
    bench: str,
    test: str,
    mean_s: float,
    trailing: Sequence[float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Verdict:
    """Judge one observation against its trailing history.

    The allowance is ``median * (1 + tolerance + noise)`` with
    ``noise = min(NOISE_MULT * MAD/median, NOISE_CAP)`` — a robust
    envelope that widens slightly on jittery hardware but is capped so
    ``tolerance + NOISE_CAP < 1`` keeps any 2x slowdown out of it.
    """
    if len(trailing) < MIN_SAMPLES:
        return Verdict(
            bench=bench,
            test=test,
            mean_s=mean_s,
            baseline_s=None,
            allowed_s=None,
            samples=len(trailing),
            regressed=False,
        )
    median = statistics.median(trailing)
    mad = statistics.median(abs(v - median) for v in trailing)
    noise = min(NOISE_MULT * (mad / median if median > 0 else 0.0), NOISE_CAP)
    allowed = median * (1.0 + tolerance + noise)
    return Verdict(
        bench=bench,
        test=test,
        mean_s=mean_s,
        baseline_s=median,
        allowed_s=allowed,
        samples=len(trailing),
        regressed=median > 0 and mean_s > allowed,
    )


def check_runs(
    history: Sequence[Mapping[str, Any]],
    payload: Mapping[str, Any],
    window: int = DEFAULT_WINDOW,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Verdict]:
    """Judge every timed test of one rollup against the history."""
    bench = str(payload["bench"])
    return [
        judge(
            bench,
            test,
            mean,
            _trailing_means(history, bench, test, window),
            tolerance=tolerance,
        )
        for test, mean in sorted(_observations(payload).items())
    ]


# ---------------------------------------------------------------------------
# Trend rendering (EXPERIMENTS.md).
# ---------------------------------------------------------------------------


def trend_table(
    history: Sequence[Mapping[str, Any]],
    verdicts: Sequence[Verdict],
) -> str:
    """A GitHub-markdown trend table for the latest verdicts."""
    lines = [
        "| bench | test | runs | trailing median | latest | vs median | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for v in verdicts:
        if v.baseline_s is None:
            baseline = "—"
            delta = "—"
            verdict = f"baseline ({v.samples}/{MIN_SAMPLES} runs)"
        else:
            baseline = f"{v.baseline_s * 1000:.1f} ms"
            ratio = v.ratio or 0.0
            delta = f"{(ratio - 1.0) * 100:+.0f}%"
            verdict = "**REGRESSED**" if v.regressed else "ok"
        lines.append(
            f"| {v.bench} | {v.test} | {v.samples} | {baseline} "
            f"| {v.mean_s * 1000:.1f} ms | {delta} | {verdict} |"
        )
    return "\n".join(lines)


def render_trends(
    doc_path: str | Path,
    history: Sequence[Mapping[str, Any]],
    verdicts: Sequence[Verdict],
) -> None:
    """Replace the benchwatch block in a markdown document (between the
    ``benchwatch:begin/end`` markers) with the current trend table; if
    the markers are missing, append a new section carrying them."""
    from repro.cache import atomic_write_text

    doc_path = Path(doc_path)
    try:
        text = doc_path.read_text(encoding="utf-8")
    except OSError:
        text = ""
    block = "\n".join(
        [
            TRENDS_BEGIN,
            "",
            trend_table(history, verdicts),
            "",
            TRENDS_END,
        ]
    )
    if TRENDS_BEGIN in text and TRENDS_END in text:
        head, _, rest = text.partition(TRENDS_BEGIN)
        _, _, tail = rest.partition(TRENDS_END)
        updated = head + block + tail
    else:
        section = (
            "\n## Bench trend (continuous-bench sentinel)\n\n"
            "Maintained by `python -m repro.obs.benchwatch`; CI fails "
            "when a test's latest mean exceeds the noise-aware envelope "
            "around its trailing median.\n\n"
        )
        updated = text.rstrip("\n") + "\n" + section + block + "\n"
    atomic_write_text(doc_path, updated)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.benchwatch",
        description=(
            "Gate BENCH_*.json rollups against the committed bench "
            "history; append the new observations; exit 1 on regression."
        ),
    )
    parser.add_argument(
        "rollups",
        nargs="+",
        metavar="BENCH.json",
        help="bench rollup files to check (BENCH_<name>.json)",
    )
    parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="the history journal (default: ./BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--label",
        default=None,
        metavar="ID",
        help="run identity recorded with the observations (e.g. a git SHA); "
        "required unless --no-append",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        metavar="N",
        help=f"trailing runs per test the median is over (default {DEFAULT_WINDOW})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="F",
        help="fractional slowdown allowed over the trailing median "
        f"(default {DEFAULT_TOLERANCE}; noise can add at most {NOISE_CAP})",
    )
    parser.add_argument(
        "--no-append",
        action="store_true",
        help="judge only; do not record the observations in the history",
    )
    parser.add_argument(
        "--render",
        metavar="DOC.md",
        help="rewrite the benchwatch trend table in this markdown file "
        "(e.g. EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--prune",
        type=int,
        default=None,
        metavar="N",
        help="after appending, cap the history at the trailing N records "
        "per bench (atomic rewrite) so the committed journal stays bounded",
    )
    args = parser.parse_args(argv)
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")
    if args.prune is not None and args.prune < 1:
        parser.error(f"--prune must be >= 1, got {args.prune}")
    if not 0.0 < args.tolerance or args.tolerance + NOISE_CAP >= 1.0:
        parser.error(
            f"--tolerance must be in (0, {1.0 - NOISE_CAP}) so a 2x "
            f"slowdown always trips the gate; got {args.tolerance}"
        )

    if not args.no_append and not args.label:
        raise BenchWatchError(
            "appending to the history needs --label ID (e.g. a git SHA); "
            "pass --no-append to judge only"
        )
    history = load_history(args.history)
    all_verdicts: list[Verdict] = []
    for rollup_path in args.rollups:
        payload = load_rollup(rollup_path)
        verdicts = check_runs(
            history, payload, window=args.window, tolerance=args.tolerance
        )
        all_verdicts.extend(verdicts)
        for v in verdicts:
            if v.baseline_s is None:
                status = f"baseline ({v.samples}/{MIN_SAMPLES} prior runs)"
            elif v.regressed:
                status = (
                    f"REGRESSED: {v.mean_s * 1000:.1f} ms vs median "
                    f"{v.baseline_s * 1000:.1f} ms over {v.samples} runs "
                    f"(allowed {(v.allowed_s or 0) * 1000:.1f} ms)"
                )
            else:
                status = (
                    f"ok: {v.mean_s * 1000:.1f} ms vs median "
                    f"{v.baseline_s * 1000:.1f} ms"
                )
            print(f"{v.bench} :: {v.test}: {status}")
        if not args.no_append:
            append_run(args.history, payload, label=args.label)
    if args.prune is not None:
        dropped = prune_history(args.history, args.prune)
        print(
            f"history pruned to trailing {args.prune} records per bench "
            f"({dropped} dropped)"
        )
    if args.render:
        render_trends(args.render, history, all_verdicts)
        print(f"trend table rendered into {args.render}")
    regressions = [v for v in all_verdicts if v.regressed]
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) against {args.history}",
            file=sys.stderr,
        )
        return 1
    return 0


__all__ = [
    "BenchWatchError",
    "DEFAULT_TOLERANCE",
    "DEFAULT_WINDOW",
    "HISTORY_SCHEMA",
    "MIN_SAMPLES",
    "NOISE_CAP",
    "NOISE_MULT",
    "Verdict",
    "append_run",
    "check_runs",
    "history_record",
    "judge",
    "load_history",
    "load_rollup",
    "main",
    "prune_history",
    "render_trends",
    "trend_table",
]


if __name__ == "__main__":
    sys.exit(main())
