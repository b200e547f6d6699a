"""Command line front end.

Subcommands:

  check       run the axiom battery against a space document
  transform   derive a new space and write its document
  series      certify an averaged rate-term series
  solve       run one of the fixed-point solvers from a config document
  fixtures    list or replay the bundled end-to-end fixtures

Exit codes: 0 success, 2 a semantic check failed, 3 no conclusion reached,
64 bad command line, 65 invalid input data, 70 internal failure.  Reports
carry no timestamps and are keyed deterministically, so identical inputs
and seeds produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import __version__
from .axioms import build_report
from .errors import ConstructionError, InputError, PmtkError, UsageError
from .fixtures import FIXTURE_NAMES, run_fixture, solve_from_config
from .series import (
    DEFAULT_LAMBDA_GRID,
    RateSequence,
    certify_alpha_series,
    kannan_rate_terms,
)
from .solvers import FixedPointReport
from .spaces import (
    DEFAULT_TOL,
    Sampler,
    SpaceDescriptor,
    dump_json,
    load_space,
    save_space,
    space_to_json,
    write_text_atomic,
)
from .transforms import TransformSpec, apply_transform

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on error; raise instead so dispatch can
    # translate to the documented exit code
    def error(self, message: str):
        raise UsageError(message)


def _meta(seed: int | None, space: SpaceDescriptor | None = None) -> dict:
    doc: dict = {"version": __version__, "seed": seed, "tol": DEFAULT_TOL}
    if space is not None:
        doc["assumed_complete"] = space.complete_asserted
        doc["assumed_hausdorff"] = space.hausdorff_asserted
    return doc


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PMT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"PMT_SEED must be an integer, got {env!r}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from exc


def _load_config(arg: str) -> dict:
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read config {arg!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# trace output


def _trace_csv(report: FixedPointReport) -> str:
    trace = report.trace
    dim = trace.iterates[0].dim
    header = ["n"] + [f"x{a}" for a in range(dim)] + ["step_dist", "self_dist", "hyp_slack"]
    slack_by_step: dict[int, float] = {}
    for entry in report.hypothesis_log:
        cur = slack_by_step.get(entry.step)
        slack_by_step[entry.step] = entry.slack if cur is None else min(cur, entry.slack)
    rows = [",".join(header)]
    for n, pt in enumerate(trace.iterates):
        cells = [str(n)]
        cells.extend(repr(c) for c in pt.coords)
        cells.append(repr(trace.step_dist[n - 1]) if n >= 1 else "")
        cells.append(repr(trace.self_dist[n]))
        slack = slack_by_step.get(n)
        cells.append(repr(slack) if slack is not None else "")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    space = load_space(args.space)
    seed = _resolve_seed(args.seed)
    sampler = Sampler(
        seed=seed,
        region=space.domain,
        grid_density=args.grid_density,
        random_count=args.random_count,
    )
    report = build_report(space, sampler, chain_mode=args.chain_mode, with_labels=args.classify)
    doc = {"meta": _meta(seed, space), "report": report.to_json_dict()}
    text = dump_json(doc)
    if args.out:
        write_text_atomic(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK if report.claim_supported else EXIT_CHECK_FAILED


def _cmd_transform(args) -> int:
    space = load_space(args.space)
    second = load_space(args.space2) if args.space2 else None
    x0 = tuple(_parse_floats(args.x0)) if args.x0 else None
    spec = TransformSpec(kind=args.kind, basepoint=x0, exponent=args.q, second=second)
    seed = _resolve_seed(args.seed)
    sampler = Sampler(seed=seed, region=space.domain, grid_density=12, random_count=600)
    derived = apply_transform(space, spec, sampler)
    save_space(derived, args.out)
    doc = {"meta": _meta(seed, derived), "space": space_to_json(derived), "written": args.out}
    sys.stdout.write(dump_json(doc))
    return EXIT_OK


def _cmd_series(args) -> int:
    if (args.terms is None) == (args.deltas is None):
        raise UsageError("series needs exactly one of --terms or --deltas")
    if args.terms is not None:
        seq = RateSequence(tuple(_parse_floats(args.terms)), provenance="terms from command line")
    else:
        if args.s is None:
            raise UsageError("--deltas needs --s")
        seq = kannan_rate_terms(_parse_floats(args.deltas), args.s, with_2s_factor=args.with_2s_factor)
    if args.horizon is not None:
        if args.horizon < 1 or args.horizon > seq.horizon:
            raise InputError(f"horizon must lie in [1, {seq.horizon}], got {args.horizon}")
        seq = RateSequence(seq.terms[: args.horizon], provenance=seq.provenance)
    grid = tuple(_parse_floats(args.grid)) if args.grid else DEFAULT_LAMBDA_GRID
    cert = certify_alpha_series(seq, grid)
    doc = {"meta": _meta(None), "certificate": cert.to_json_dict(), "horizon": seq.horizon}
    text = dump_json(doc)
    if args.out:
        write_text_atomic(args.out, text)
    sys.stdout.write(text)
    if cert.status == "certified":
        return EXIT_OK
    if cert.status == "refuted_at_horizon":
        return EXIT_CHECK_FAILED
    return EXIT_INCONCLUSIVE


def _cmd_solve(args) -> int:
    space = load_space(args.space)
    cfg = _load_config(args.config)
    seed = _resolve_seed(args.seed)
    x0 = tuple(_parse_floats(args.x0)) if args.x0 is not None else None
    report = solve_from_config(space, args.scheme, cfg, x0)
    doc = {"meta": _meta(seed, space), "scheme": args.scheme, "report": report.to_json_dict()}
    text = dump_json(doc)
    if args.report_out:
        write_text_atomic(args.report_out, text)
    if args.trace_out:
        write_text_atomic(args.trace_out, _trace_csv(report))
    sys.stdout.write(text)
    if not report.converged:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.checks_passed else EXIT_CHECK_FAILED


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in FIXTURE_NAMES:
            sys.stdout.write(name + "\n")
        return EXIT_OK
    names = FIXTURE_NAMES if args.name == "all" else (args.name,)
    seed = _resolve_seed(args.seed)
    all_ok = True
    for name in names:
        result = run_fixture(name, seed=seed)
        all_ok = all_ok and result["all_passed"]
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_text_atomic(os.path.join(args.out, f"{name}.json"), dump_json(result))
        verdict = "ok" if result["all_passed"] else "FAILED"
        sys.stdout.write(f"{name}: {verdict}\n")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="pmtk", description="partial metric type space toolkit")
    parser.add_argument("--version", action="version", version=f"pmtk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_check = sub.add_parser("check", help="run the axiom battery against a space document")
    p_check.add_argument("space", help="path to a space JSON document")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--chain-mode", choices=("exact", "upto"), default="exact")
    p_check.add_argument("--grid-density", type=int, default=16)
    p_check.add_argument("--random-count", type=int, default=1000)
    p_check.add_argument("--classify", action="store_true", help="also list every consistent class label")
    p_check.add_argument("--out", default=None, help="write the report JSON here as well")

    p_tr = sub.add_parser("transform", help="derive a new space document")
    p_tr.add_argument("space", help="path to the input space JSON document")
    p_tr.add_argument("--kind", required=True, choices=("pt", "basepoint", "dp", "power", "sum"))
    p_tr.add_argument("--x0", default=None, help="basepoint coordinates, comma separated")
    p_tr.add_argument("--q", type=float, default=None, help="power exponent")
    p_tr.add_argument("--space2", default=None, help="second space document for the sum")
    p_tr.add_argument("--seed", type=int, default=None)
    p_tr.add_argument("--out", required=True, help="where to write the derived space document")

    p_se = sub.add_parser("series", help="certify an averaged rate-term series")
    p_se.add_argument("--terms", default=None, help="rate terms, comma separated")
    p_se.add_argument("--deltas", default=None, help="displacement coefficients, comma separated")
    p_se.add_argument("--s", type=float, default=None, help="gauge degree for --deltas")
    p_se.add_argument("--with-2s-factor", action="store_true")
    p_se.add_argument("--horizon", type=int, default=None, help="truncate to this many terms")
    p_se.add_argument("--grid", default=None, help="lambda grid, comma separated")
    p_se.add_argument("--out", default=None)

    p_so = sub.add_parser("solve", help="run a fixed-point solver")
    p_so.add_argument("--scheme", required=True, choices=("banach-pair", "kannan-pair", "admissible", "family"))
    p_so.add_argument("--space", required=True, help="path to a space JSON document")
    p_so.add_argument("--config", required=True, help="JSON object or path to a JSON file")
    p_so.add_argument("--x0", default=None, help="starting point, comma separated")
    p_so.add_argument("--seed", type=int, default=None)
    p_so.add_argument("--trace-out", default=None, help="write the orbit as CSV here")
    p_so.add_argument("--report-out", default=None, help="write the report JSON here")

    p_fx = sub.add_parser("fixtures", help="list or replay the bundled fixtures")
    fx_sub = p_fx.add_subparsers(dest="action", required=True, parser_class=_Parser)
    fx_sub.add_parser("list", help="print the fixture names")
    p_run = fx_sub.add_parser("run", help="replay fixtures and diff expectations")
    p_run.add_argument("name", help="fixture name, or 'all'")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="directory for the result documents")

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "transform": _cmd_transform,
    "series": _cmd_series,
    "solve": _cmd_solve,
    "fixtures": _cmd_fixtures,
}


def dispatch(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (InputError, ConstructionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except PmtkError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
