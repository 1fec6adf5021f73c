"""Command line front end: plan sizes, generate data, sample, audit.

Subcommands:

- ``plan``: resolve (alpha, epsilon, delta, d) to concrete pipeline sizes;
  prints machine JSON on stdout (or --out) and a small table on stderr.
- ``gen``: write a seeded Gaussian dataset as CSV with header x1..xd.
- ``sample``: run the full private sampler on a CSV dataset.
- ``mean``: run the covariance-aware private mean on a CSV dataset.
- ``audit``: run named audit checks; JSON-line reports plus a CSV summary.

Exit codes: 0 success (including a propose-test-release Fail outcome, which
is a valid private answer), 1 audit verdict failure, 2 usage or validation
errors. Given the same arguments and seed every command writes byte-identical
output; the seed falls back to the DPGS_SEED environment variable. Dataset
rows never appear in logs or error text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .exceptions import DpgsError, InvalidParams, NotPD
from .privacy import PrivacyParams, plan
from .randomness import RngStream
from .samplers import cov_aware_mean, sample_unbounded

FORMAT_VERSION = 1
DEFAULT_SEED = 20_240_817


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("DPGS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidParams(f"DPGS_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _thread_count(text: str) -> int:
    """argparse type for ``audit --threads``: an integer in [1, cpu_count]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    top = os.cpu_count() or 1
    if not 1 <= value <= top:
        raise argparse.ArgumentTypeError(f"must be in [1, {top}], got {value}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _params_from(args: argparse.Namespace) -> PrivacyParams:
    return PrivacyParams(args.epsilon, args.delta)


def _plan_from(args: argparse.Namespace):
    return plan(args.alpha, _params_from(args), args.dim, c1=args.c1, c2=args.c2)


def _load_csv(path: str, dim: int) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data"; refused below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        # numpy's message quotes the offending cell, a data value
        raise InvalidParams(
            f"{path} is malformed: a cell is not a number or the rows differ in length"
        ) from None
    if data.shape[0] == 0:
        raise InvalidParams(f"{path} has no data rows")
    if data.shape[1] != dim:
        raise InvalidParams(
            f"{path} has {data.shape[1]} columns, expected dim={dim}"
        )
    return data


def _parse_numbers(text: str, what: str) -> list[float]:
    """Comma-separated finite numbers, or InvalidParams naming ``what``."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidParams(f"{what} must be comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise InvalidParams(f"{what} must be finite, got {text!r}")
    return values


def _parse_vector(text: str, d: int) -> np.ndarray:
    vec = np.array(_parse_numbers(text, "mean"), dtype=float)
    if vec.size == 1 and d > 1:
        vec = np.full(d, vec[0])
    if vec.size != d:
        raise InvalidParams(f"mean has {vec.size} entries, expected {d}")
    return vec


def _parse_matrix(text: str, d: int) -> np.ndarray:
    rows = [_parse_numbers(row, "covariance") for row in text.split(";")]
    if len({len(row) for row in rows}) != 1:
        raise InvalidParams(f"covariance rows differ in length, got {text!r}")
    mat = np.array(rows, dtype=float)
    if mat.size == 1:
        return float(mat.reshape(())) * np.eye(d)
    if mat.shape != (d, d):
        raise InvalidParams(f"covariance has shape {mat.shape}, expected ({d}, {d})")
    return mat


def cmd_plan(args: argparse.Namespace) -> int:
    sp = _plan_from(args)
    doc = {"format_version": FORMAT_VERSION, **sp.to_dict()}
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    rows = [
        ("lambda0", f"{sp.lambda0:.6g}"),
        ("n1", str(sp.n1)),
        ("n2", str(sp.n2)),
        ("n", str(sp.n)),
        ("k", str(sp.k)),
        ("ref_size", str(sp.ref_size)),
        ("gamma", f"{sp.gamma:.6g}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}", file=sys.stderr)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    d = args.dim
    if args.n < 1 or d < 1:
        raise InvalidParams(f"n and dim must be >= 1, got n={args.n}, dim={d}")
    mu = _parse_vector(args.mu, d)
    sigma = _parse_matrix(args.sigma, d)
    sigma = 0.5 * sigma + 0.5 * sigma.T  # halve first: sigma + sigma.T can overflow
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] <= 0.0:
        raise NotPD(f"covariance is not positive definite (min eigenvalue {eigs[0]:.3g})")
    chol = np.linalg.cholesky(sigma)
    gen = RngStream(_resolve_seed(args.seed), 0).generator()
    x = mu + gen.standard_normal((args.n, d)) @ chol.T
    if not np.all(np.isfinite(x)):
        raise InvalidParams("generated rows are not finite: mu or sigma is too large")
    lines = [",".join(f"x{j + 1}" for j in range(d))]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in x)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _result_doc(result, trace) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "outcome": "fail" if result.failed else "ok",
        "z": None if result.failed else [float(v) for v in result.value],
        "trace": trace.to_dict(),
    }


def cmd_sample(args: argparse.Namespace) -> int:
    sp = _plan_from(args)
    x = _load_csv(args.infile, args.dim)
    rng = RngStream(_resolve_seed(args.seed), 0)
    result, trace = sample_unbounded(x, sp, rng)
    _emit(json.dumps(_result_doc(result, trace), sort_keys=True) + "\n", args.out)
    return 0


def cmd_mean(args: argparse.Namespace) -> int:
    params = _params_from(args)
    x = _load_csv(args.infile, args.dim)
    rng = RngStream(_resolve_seed(args.seed), 0)
    result, trace = cov_aware_mean(x, params, args.lambda0, rng, split_n1=args.split_n1)
    _emit(json.dumps(_result_doc(result, trace), sort_keys=True) + "\n", args.out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    # imported here: the audit loads scipy, which no other subcommand needs
    from .audit import reports_to_csv, reports_to_json_lines, run_checks
    checks = args.check or ["all"]
    reports = run_checks(
        checks,
        mode=args.mode,
        seed=_resolve_seed(args.seed),
        trials=args.trials,
        threads=args.threads,
    )
    _emit(reports_to_json_lines(reports), args.out)
    if args.summary is not None:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(reports_to_csv(reports))
    for rep in reports:
        print(f"{rep.verdict.upper():>4}  {rep.check_id}", file=sys.stderr)
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def _add_plan_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True, help="target total variation level")
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--c1", type=float, default=1.0)
    sub.add_argument("--c2", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpgs",
        description="differentially private Gaussian sampling toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_plan = subs.add_parser("plan", help="resolve pipeline sizes")
    _add_plan_args(p_plan)
    p_plan.add_argument("--out")
    p_plan.set_defaults(fn=cmd_plan)

    p_gen = subs.add_parser("gen", help="generate a Gaussian CSV dataset")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--mu", default="0", help="mean: comma-separated or scalar")
    p_gen.add_argument(
        "--sigma", default="1",
        help="covariance: rows ';'-separated, entries ','-separated, or scalar * I",
    )
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(fn=cmd_gen)

    p_sample = subs.add_parser("sample", help="run the private sampler on a CSV")
    _add_plan_args(p_sample)
    p_sample.add_argument("--in", dest="infile", required=True)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--out")
    p_sample.set_defaults(fn=cmd_sample)

    p_mean = subs.add_parser("mean", help="run the private mean estimator on a CSV")
    p_mean.add_argument("--epsilon", type=float, required=True)
    p_mean.add_argument("--delta", type=float, required=True)
    p_mean.add_argument("--dim", type=int, required=True)
    p_mean.add_argument("--lambda0", type=float, required=True)
    p_mean.add_argument("--split-n1", type=int, dest="split_n1")
    p_mean.add_argument("--in", dest="infile", required=True)
    p_mean.add_argument("--seed", type=int)
    p_mean.add_argument("--out")
    p_mean.set_defaults(fn=cmd_mean)

    p_audit = subs.add_parser("audit", help="run numerical audits")
    p_audit.add_argument(
        "--check", action="append",
        help="check name, or all; repeatable; an unknown name exits 2 and lists the valid ones",
    )
    p_audit.add_argument("--trials", type=int)
    p_audit.add_argument("--mode", choices=("relaxed", "strict"), default="relaxed")
    p_audit.add_argument("--seed", type=int)
    p_audit.add_argument(
        "--threads", type=_thread_count, default=1,
        help="checks run at once, 1..cpu_count; each check's trials run on one thread",
    )
    p_audit.add_argument("--out")
    p_audit.add_argument("--summary", help="also write the CSV summary here")
    p_audit.set_defaults(fn=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DpgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
