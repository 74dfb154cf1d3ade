"""Command-line interface.

Subcommands:
  gen     generate one seeded weight or symbol file
  norms   full norm/functional report for (mu, lambda, symbol) files
  verify  run verification suites for a config, write suite JSON results
  sweep   vary one parameter over a range, write a CSV of norm reports
  report  summarize result files

Exit codes: 0 success, 1 hard-assertion failure, 2 usage or config error.
All file outputs are byte-deterministic for identical inputs: sorted JSON
keys, no timestamps, shortest-round-trip float repr, non-finite mapped to
null.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .config import SUITE_NAMES, ExperimentConfig
from .errors import ConfigError, DyadBloomError, EnsembleTargetError, GridMismatchError
from .grid import depth_of, same_depth
from .normest import NormReport, compute_norm_report
from .serialize import (
    load_step_function,
    load_weight,
    read_json,
    save_step_function,
    write_json,
)
from .suites import make_trial, run_suites
from .weights import (
    KIND_FIELDS,
    SYMBOL_KINDS,
    WEIGHT_KINDS,
    EnsembleSpec,
    Weight,
    a2_characteristic,
    generate,
)

__all__ = ["main", "build_parser", "sweep_rows", "SWEEP_COLUMNS"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dyadbloom",
        description="Two-weight dyadic Haar testbed: generate ensembles, "
        "compute norms, and verify identities and bounds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a weight or symbol file")
    g.add_argument("--kind", required=True, choices=WEIGHT_KINDS + SYMBOL_KINDS)
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("--alpha", type=float)
    g.add_argument("--delta", type=float)
    g.add_argument("--sparsity", type=float)
    g.add_argument("--values", help="comma-separated positive values for constant/two-value")
    g.add_argument("--center", type=float)
    g.add_argument("--a2-min", type=float)
    g.add_argument("--a2-max", type=float)
    g.add_argument("--out", required=True)

    n = sub.add_parser("norms", help="norm/functional report for one triple")
    n.add_argument("--mu", required=True)
    n.add_argument("--lambda", dest="lam", required=True)
    n.add_argument("--symbol", required=True)
    n.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--config", default=None)
    v.add_argument("--depth", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--suite", action="append", default=None,
                   choices=list(SUITE_NAMES))
    v.add_argument("--out", default=None, help="directory for suite JSON files")

    s = sub.add_parser("sweep", help="sweep one parameter, write CSV")
    s.add_argument("--parameter", required=True,
                   choices=["alpha", "delta", "sparsity", "depth"])
    s.add_argument("--range", dest="range_", required=True,
                   help="start:end:count (linspace, inclusive)")
    s.add_argument("--config", default=None)
    s.add_argument("--depth", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)

    r = sub.add_parser("report", help="summarize result files")
    r.add_argument("--results", nargs="+", required=True)
    r.add_argument("--csv", default=None)

    return p


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as e:
        raise ConfigError(f"--values must be comma-separated numbers: {e}") from e
    if not vals:
        raise ConfigError("--values must name at least one value")
    return vals


def _cmd_gen(args) -> int:
    if (args.a2_min is None) != (args.a2_max is None):
        raise ConfigError("--a2-min and --a2-max must be given together")
    # only the given flags override EnsembleSpec's defaults; from_dict refuses unread ones
    given = {k: getattr(args, k) for k in ("seed", "alpha", "delta", "sparsity", "center")
             if getattr(args, k) is not None}
    if args.values is not None:
        given["values"] = _parse_values(args.values)
    if args.a2_min is not None:
        given["a2_range"] = [args.a2_min, args.a2_max]
    spec = EnsembleSpec.from_dict({"kind": args.kind, "depth": args.depth, **given})
    obj = generate(spec)
    if isinstance(obj, Weight):
        save_step_function(args.out, obj.values, "weight", spec.to_dict())
        print(
            f"wrote weight kind={spec.kind} depth={spec.depth} seed={spec.seed} "
            f"a2={a2_characteristic(obj)!r} -> {args.out}"
        )
    else:
        save_step_function(args.out, obj, "symbol", spec.to_dict())
        print(
            f"wrote symbol kind={spec.kind} depth={spec.depth} seed={spec.seed} "
            f"-> {args.out}"
        )
    return 0


def _print_norm_report(rep: NormReport) -> None:
    print(f"depth                 {rep.depth}")
    print(f"[mu]_A2               {rep.a2_mu!r}")
    print(f"[lambda]_A2           {rep.a2_lambda!r}")
    print(f"[rho]_A2              {rep.a2_rho!r}")
    for name in rep.bmo.argmax:  # one key per functional, in field order
        print(f"{name:<22}{getattr(rep.bmo, name)!r}")
    print(f"norm_paraproduct      {rep.norm_paraproduct!r}")
    print(f"norm_paraproduct_adj  {rep.norm_paraproduct_adjoint!r}")
    print(f"norm_shift_mu         {rep.norm_shift_mu!r}")
    print(f"norm_shift_lambda     {rep.norm_shift_lambda!r}")
    print(f"norm_commutator       {rep.norm_commutator!r}")
    print(f"shift_truncated       {rep.shift_truncated}")
    for k in sorted(rep.ratios):
        v = rep.ratios[k]
        print(f"ratio {k:<32} {v!r}")


def _cmd_norms(args) -> int:
    mu = load_weight(args.mu)
    lam = load_weight(args.lam)
    b = load_step_function(args.symbol)
    try:
        same_depth(mu.values, lam.values, b)
    except GridMismatchError as e:
        depths = {args.mu: mu.depth, args.lam: lam.depth, args.symbol: depth_of(b)}
        raise ConfigError(
            "depth mismatch across files: "
            + ", ".join(f"{p} has depth {d}" for p, d in depths.items())
        ) from e
    # Finite inputs can still overflow (a leaf near 1e308 squares to inf);
    # ratios are exempt, as NaN there marks a zero denominator.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rep = compute_norm_report(b, mu, lam)
        except ValueError as e:
            raise ConfigError(f"inputs out of double-precision range: {e}") from e
    values = {**rep.to_dict(), **rep.bmo.to_dict()}
    bad = sorted(k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v))
    if bad:
        raise ConfigError(f"inputs out of double-precision range: {', '.join(bad)} not finite")
    if args.out:  # written before anything prints: an unwritable file leaves only its error
        write_json(args.out, rep.to_dict())
    _print_norm_report(rep)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        doc = read_json(args.config)
        try:
            cfg = ExperimentConfig.from_dict(doc)
        except ConfigError as e:
            raise ConfigError(f"{args.config}: {e}") from e
    else:
        cfg = ExperimentConfig()
    overrides = {k: getattr(args, k) for k in ("depth", "seed", "trials")
                 if getattr(args, k, None) is not None}
    if getattr(args, "suite", None):
        overrides["suites"] = tuple(args.suite)
    if overrides:
        d = cfg.to_dict()
        d.update(overrides)
        cfg = ExperimentConfig.from_dict(d)
    return cfg


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    results = run_suites(cfg)
    # every suite file is written before anything prints: an unwritable one leaves only its error
    for result in results if args.out else ():
        write_json(Path(args.out) / f"suite-{result.suite}.json", result.to_dict())
    for result in results:
        name = result.suite
        for a in result.assertions:
            status = "PASS" if a.passed else "FAIL"
            print(
                f"[{name}] {status} {a.name:<40} "
                f"worst {a.worst:.3e} tol {a.tolerance:.3e}"
                + (f"  ({a.detail})" if a.detail and not a.passed else "")
            )
        for fd in result.findings:
            seeds = ", ".join(
                f"{k}={fd.data[k]}"
                for k in ("mu_seed", "lambda_seed", "symbol_seed")
                if k in fd.data
            )
            print(f"[{name}] FINDING {fd.name} trial={fd.trial} ({seeds}): {fd.message}")
        n_pass = sum(a.passed for a in result.assertions)
        extra = f", {len(result.findings)} findings" if result.findings else ""
        print(f"[{name}] suite {'PASS' if result.passed else 'FAIL'} "
              f"({n_pass}/{len(result.assertions)} assertions{extra})")
    all_passed = all(result.passed for result in results)
    print(f"verify: {'PASS' if all_passed else 'FAIL'} ({len(cfg.suites)} suites)")
    return 0 if all_passed else 1


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--range must be start:end:count, got {text!r}")
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as e:
        raise ConfigError(f"--range must be start:end:count numbers: {e}") from e
    if count < 1:
        raise ConfigError(f"--range count must be >= 1, got {count}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError(f"--range ends must be finite, got {text!r}")
    return np.linspace(start, end, count)


SWEEP_COLUMNS = [
    "parameter",
    "value",
    "depth",
    "a2_mu",
    "a2_lambda",
    "a2_rho",
    "bloom_b2",
    "bloom_b2_dual",
    "bmo_rho",
    "neccon",
    "norm_paraproduct",
    "norm_shift_mu",
    "norm_commutator",
    "shift_mu_norm_over_a2_mu",
]


def _sweep_config(base: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    d = base.to_dict()
    if parameter == "alpha":
        d["mu"] = {"kind": "power", "alpha": float(value)}
    elif parameter == "delta":
        for role in ("mu", "lambda", "symbol"):
            if "delta" in KIND_FIELDS[d[role]["kind"]]:
                d[role] = {**d[role], "delta": float(value)}
    elif parameter == "sparsity":
        if d["symbol"]["kind"] != "haar-sparse-symbol":
            d["symbol"] = {"kind": "haar-sparse-symbol"}
        d["symbol"] = {**d["symbol"], "sparsity": float(value)}
    elif parameter == "depth":
        d["depth"] = int(round(value))
    else:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    return ExperimentConfig.from_dict(d)


def sweep_rows(base: ExperimentConfig, parameter: str, values) -> list[dict]:
    """One norm report per parameter value, on trial-0 materials."""
    rows = []
    for v in values:
        cfg = _sweep_config(base, parameter, float(v))
        td = make_trial(cfg, 0)
        rep = compute_norm_report(td.b, td.mu, td.lam)
        cells = {
            **rep.to_dict(),
            **rep.bmo.to_dict(),
            "parameter": parameter,
            "value": float(v),
            "shift_mu_norm_over_a2_mu": rep.norm_shift_mu / rep.a2_mu,
        }
        rows.append({c: cells[c] for c in SWEEP_COLUMNS})
    return rows


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v) if math.isfinite(v) else ""
    return str(v)


def _cmd_sweep(args) -> int:
    base = _config_from_args(args)
    values = _parse_range(args.range_)
    rows = sweep_rows(base, args.parameter, values)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in SWEEP_COLUMNS])
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    # every file is read, and the CSV written, before anything prints, so a
    # malformed input or an unwritable output leaves only its error line
    lines: list[str] = []
    csv_rows = []
    any_fail = False
    try:
        for path in args.results:
            doc = read_json(path)
            if not isinstance(doc, dict) or "suite" not in doc:
                raise ConfigError(f"{path}: not a suite result file")
            suite = doc["suite"]
            passed = bool(doc.get("passed", False))
            any_fail = any_fail or not passed
            lines.append(f"{path}: suite {suite} {'PASS' if passed else 'FAIL'}")
            for a in doc.get("assertions", []):
                lines.append(
                    f"  {'PASS' if a['passed'] else 'FAIL'} {a['name']:<40} "
                    f"worst {a['worst']:.3e} tol {a['tolerance']:.3e}"
                )
            for fd in doc.get("findings", []):
                lines.append(f"  FINDING {fd['name']} trial={fd['trial']}: {fd['message']}")
            for metric, stats in sorted(doc.get("measured", {}).items()):
                if isinstance(stats, dict) and "n" in stats:
                    if stats["n"]:
                        lines.append(
                            f"  measured {metric:<36} n={stats['n']} "
                            f"min={stats['min']:.6g} max={stats['max']:.6g} "
                            f"mean={stats['mean']:.6g}"
                        )
                        csv_rows.append(
                            [path, suite, metric, stats["n"],
                             repr(stats["min"]), repr(stats["max"]), repr(stats["mean"])]
                        )
                    else:
                        lines.append(f"  measured {metric:<36} (no samples)")
                else:
                    lines.append(f"  measured {metric:<36} {stats}")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ConfigError(f"{path}: malformed suite result file ({e!r})") from e
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["file", "suite", "metric", "n", "min", "max", "mean"])
            writer.writerows(csv_rows)
        lines.append(f"wrote {args.csv}")
    print("\n".join(lines))
    return 1 if any_fail else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "norms": _cmd_norms,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, EnsembleTargetError, OSError) as e:  # OSError: an unwritable output
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the input needs more memory than this machine has", file=sys.stderr)
        return 2
    except DyadBloomError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
