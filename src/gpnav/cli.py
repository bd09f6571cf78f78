"""Command-line harness: run episodes, compare variants, check, benchmark."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .barrier import VARIANTS
from .bench import bench_barrier, check_gradients, max_dataset_size
from .episode import (RunFiles, compare, comparison_json, comparison_table,
                      run_episode)
from .gp import FactorizationFailure
from .scenario import (ParseError, ValidationError, load_scenario,
                       resolve_scenario, with_variant)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FactorizationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpnav",
        description="GP-barrier safety filtering in a deterministic 2D world")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario episode")
    run.add_argument("scenario", help="scenario file path or shipped name")
    run.add_argument("--seed", type=_nonnegative_int, default=None)
    run.add_argument("--out-dir", default=None)
    run.add_argument("--variant", choices=VARIANTS, default=None)
    run.add_argument("--dump-field", action="store_true",
                     help="write a barrier-field CSV from the final frame")
    run.add_argument("--dump-perception", action="store_true",
                     help="write per-frame perception JSON-lines")
    run.set_defaults(handler=_cmd_run)

    cmp_parser = sub.add_parser("compare", help="run variants on one scenario")
    cmp_parser.add_argument("scenario")
    cmp_parser.add_argument("--variants", required=True,
                            help="comma-separated variant names")
    cmp_parser.add_argument("--seed", type=_nonnegative_int, default=None)
    cmp_parser.add_argument("--out-dir", default=None)
    cmp_parser.set_defaults(handler=_cmd_compare)

    grad = sub.add_parser("check-gradients",
                          help="derivatives vs finite differences")
    grad.add_argument("--cases", type=_positive_int, default=100)
    grad.set_defaults(handler=_cmd_check_gradients)

    bench = sub.add_parser("bench", help="time full barrier evaluations")
    bench.add_argument("--sizes", type=_sizes, default=[1, 5, 30, 60],
                       help="comma-separated dataset sizes, each in "
                            f"1..{max_dataset_size()}")
    bench.add_argument("--reps", type=_positive_int, default=50)
    bench.set_defaults(handler=_cmd_bench)
    return parser


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"{value} is not >= {minimum}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _sizes(text: str) -> list[int]:
    sizes = [_positive_int(s) for s in text.split(",") if s.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("no dataset sizes given")
    limit = max_dataset_size()
    if too_large := [s for s in sizes if s > limit]:
        raise argparse.ArgumentTypeError(
            f"{too_large[0]} is over the dataset size limit {limit}")
    return sizes


def _load(args):
    cfg = load_scenario(resolve_scenario(args.scenario))
    if getattr(args, "seed", None) is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_dir_error(out_dir: str | None) -> str | None:
    """Why --out-dir cannot become a directory, or None when it can.

    The nearest part of the path that exists must be a directory; checked
    before any episode, so a bad path costs no run.
    """
    if out_dir is None:
        return None
    path = Path(out_dir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing.is_dir():
        return None
    return f"--out-dir {out_dir}: {existing} exists and is not a directory"


def _cmd_run(args) -> int:
    if (args.dump_field or args.dump_perception) and args.out_dir is None:
        print("error: --dump-field and --dump-perception write into --out-dir, "
              "which was not given", file=sys.stderr)
        return 2
    if error := _out_dir_error(args.out_dir):
        print(f"error: {error}", file=sys.stderr)
        return 2
    cfg = _load(args)
    if args.variant is not None:
        cfg = with_variant(cfg, args.variant)
    files = RunFiles(args.dump_field, args.dump_perception)
    log, metrics = run_episode(cfg, on_step=files)
    if args.out_dir is not None:
        files.write(args.out_dir, cfg, log, metrics)
    print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    return 1 if metrics.collision or metrics.timed_out else 0


def _cmd_compare(args) -> int:
    if error := _out_dir_error(args.out_dir):
        print(f"error: {error}", file=sys.stderr)
        return 2
    cfg = _load(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    results = compare(cfg, variants)
    print(comparison_table(results))
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.json").write_text(comparison_json(results))
    return 1 if any(m.collision or m.timed_out for m in results.values()) else 0


def _cmd_check_gradients(args) -> int:
    report = check_gradients(cases=args.cases)
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = (report["spatial_max_rel_err"] <= 1e-5
          and report["time_max_rel_err"] <= 1e-5)
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    rows = bench_barrier(args.sizes, repetitions=args.reps)
    print(f"{'N':>5} {'mean_ms':>10} {'median_ms':>10}")
    for row in rows:
        print(f"{row.size:>5} {row.mean_ms:>10.3f} {row.median_ms:>10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
