"""Command-line interface: emit, analyze, verify, scan.

Exit codes: 0 success, 1 input error (bad file, bad flags, unknown model),
2 verification failure.  Text and JSON outputs are rendered from the same
serialized document, so both carry identical numeric values.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__, io
from .analyzer import AnalyzeConfig, analyze
from .core import DEFAULT_TOLERANCE
from .errors import Curv4Error, ValidationError
from .models import MODELS, make_operator, parse_model_spec
from .numerics import derive_seed
from .oracle import OracleConfig
from .verify import DEFAULT_SAMPLES, run_scan, run_verification


class _Parser(argparse.ArgumentParser):
    # Argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for verification failures, so route usage errors through the
    # normal input-error path instead.
    def error(self, message):
        raise ValidationError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; model draws and oracle searches use derived substreams")
    p.add_argument("--out", type=str, default=None, help="write output to this path")


def _tolerance(text: str) -> float:
    """``--tol``: a finite nonnegative float.  A NaN bound would pass every
    check it guards, and a negative one would fail every file."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite nonnegative number, got {text!r}")
    return value


def _add_oracle_flags(p: argparse.ArgumentParser, samples: int) -> None:
    p.add_argument("--samples", type=int, default=samples,
                   help=f"coarse oracle samples per search (default {samples})")
    p.add_argument("--refine", type=int, default=OracleConfig.refine_iters,
                   help="cap on Newton polish steps per restart")
    p.add_argument("--restarts", type=int, default=OracleConfig.restarts,
                   help="refinement restarts")


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", help="structured output")
    fmt.add_argument("--text", dest="as_json", action="store_false", help="human-readable output")
    p.set_defaults(as_json=False)


def _oracle_config(args, seed: int) -> OracleConfig:
    return OracleConfig(samples=args.samples, refine_iters=args.refine,
                        restarts=args.restarts, seed=seed)


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# rendering


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def render_report_text(doc: dict) -> str:
    lines = [f"curv4 report (tool {doc['tool_version']})",
             f"source: {doc['config']['source']}",
             f"s = {_fmt(doc['s'])}",
             f"bianchi residual = {_fmt(doc['bianchi_residual'])}",
             "weyl+ eigenvalues: " + "  ".join(_fmt(x) for x in doc["weyl_plus"]),
             "weyl- eigenvalues: " + "  ".join(_fmt(x) for x in doc["weyl_minus"])]
    sp = doc["biortho_spectrum"]
    lines.append(f"biorthogonal spectrum: k1 = {_fmt(sp['k1'])}  "
                 f"k2 = {_fmt(sp['k2'])}  k3 = {_fmt(sp['k3'])}")
    for key, desc in (("hypothesis_A", "k1 >= s/24"), ("hypothesis_B", "k3 <= s/6")):
        h = doc[key]
        state = "holds" if h["holds"] else "fails"
        lines.append(f"{key} ({desc}): {state}, margin {_fmt(h['margin'])}")
    nn = doc["nnic"]
    state = "holds" if nn["holds"] else "fails"
    lines.append(f"nnic (w3+/- <= s/6): {state}, margins "
                 f"({_fmt(nn['margin_plus'])}, {_fmt(nn['margin_minus'])})")
    lines.append(f"scalar positive: {doc['scalar_positive']}")
    if not doc["scalar_positive"]:
        lines.append("note: the pinching analysis requires s > 0; "
                     "hypotheses above are reported for information only")
    chain = doc["chain"]
    if chain["applicable"]:
        ok = sum(s["satisfied"] for s in chain["steps"])
        lines.append(f"implication chain: {ok}/{len(chain['steps'])} inequalities satisfied")
        for s in chain["steps"]:
            mark = "ok" if s["satisfied"] else "VIOLATED"
            lines.append(f"  {s['label']}: {_fmt(s['lhs'])} {s['relation']} "
                         f"{_fmt(s['rhs'])}  {mark} (slack {_fmt(s['slack'])})")
    else:
        lines.append(f"implication chain: not applicable ({chain['reason']})")
    if doc["sectional_extrema"] is not None:
        lo, hi = doc["sectional_extrema"]["min"], doc["sectional_extrema"]["max"]
        lines.append(f"sectional extrema (oracle): min {_fmt(lo['value'])}  "
                     f"max {_fmt(hi['value'])}")
    if doc["conjecture_check"] is not None:
        c = doc["conjecture_check"]
        lines.append(f"sectional-minimum check (K_min > s/24): margin {_fmt(c['margin'])}, "
                     f"holds {c['holds']}, boundary {c['boundary']}")
    if doc["iso_min"] is not None:
        lines.append(f"isotropic-curvature minimum (oracle): {_fmt(doc['iso_min']['value'])}")
    if doc["classification_hints"]:
        lines.append("hints:")
        lines.extend(f"  - {hint}" for hint in doc["classification_hints"])
    lines.append(doc["footer"])
    return "\n".join(lines) + "\n"


def render_verification_text(doc: dict) -> str:
    summary = doc["summary"]
    n = summary["trials"]
    lines = [f"curv4 verify: {n} trials, seed {doc['config']['seed']}",
             f"trace identity: {summary['identity_pass']}/{n} passed",
             f"oracle equivalence: {summary['oracle_pass']}/{n} passed",
             f"proof chain: {summary['chain_applicable']} applicable, "
             f"{summary['chain_pass']}/{summary['chain_applicable']} passed"]
    for rec in doc["records"]:
        for failure in rec["failures"]:
            lines.append(f"trial {rec['trial']}: FAIL {failure}")
    lines.append("result: PASS" if doc["passed"] else "result: FAIL")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _resolve_operator(args):
    """Operator from a positional tensor file or a --model spec (exactly one)."""
    has_file = getattr(args, "input", None) is not None
    has_model = args.model is not None
    if has_file == has_model:
        raise ValidationError("provide exactly one of an input file or --model")
    if has_file:
        op = io.load(args.input, project_bianchi=args.project_bianchi, tolerance=args.tol)
        return op, f"file:{args.input}"
    spec = parse_model_spec(args.model, seed=derive_seed(args.seed, 0, 0))
    return make_operator(spec), f"model:{spec.label()}"


def cmd_emit(args) -> int:
    spec = parse_model_spec(args.model, seed=derive_seed(args.seed, 0, 0))
    op = make_operator(spec)
    meta = {"model": spec.label()}
    if MODELS[spec.name].seeded:
        meta["seed"] = args.seed
    doc = io.tensor_to_dict(op, meta=meta)
    _write(args, io.dumps_document(doc))
    return 0


def cmd_analyze(args) -> int:
    op, source = _resolve_operator(args)
    oracle = _oracle_config(args, seed=derive_seed(args.seed, 0, 1))
    cfg = AnalyzeConfig(run_oracle=args.run_oracle, oracle=oracle, source=source,
                        tolerance=args.tol, project_bianchi=args.project_bianchi)
    doc = io.report_to_dict(analyze(op, cfg))
    _write(args, io.dumps_document(doc) if args.as_json else render_report_text(doc))
    return 0


def cmd_verify(args) -> int:
    oracle = _oracle_config(args, seed=0)
    report = run_verification(trials=args.trials, seed=args.seed, oracle=oracle)
    doc = io.verification_to_dict(report)
    _write(args, io.dumps_document(doc) if args.as_json else render_verification_text(doc))
    return 0 if report.passed else 2


def cmd_scan(args) -> int:
    spec = parse_model_spec(args.model)
    report = run_scan(spec, trials=args.trials, seed=args.seed)
    _write(args, "\n".join(io.scan_to_lines(report)) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    leaves it unchanged, so :func:`main` pays for it once per process."""
    parser = _Parser(prog="curv4",
                     description="Pointwise curvature analysis for 4-dimensional geometry.")
    parser.add_argument("--version", action="version", version=f"curv4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_emit = sub.add_parser("emit", help="write a model curvature tensor file")
    p_emit.add_argument("--model", required=True,
                        help="model spec, e.g. sphere:1, product:1,1, cp2")
    _add_common_flags(p_emit)
    p_emit.set_defaults(func=cmd_emit)

    p_an = sub.add_parser("analyze", help="full pinching report for one tensor")
    p_an.add_argument("input", nargs="?", default=None, help="tensor file (curv4-v1)")
    p_an.add_argument("--model", default=None, help="analyze a model instead of a file")
    p_an.add_argument("--run-oracle", action="store_true",
                      help="add brute-force sectional and isotropic extrema")
    p_an.add_argument("--project-bianchi", action="store_true",
                      help="project the Bianchi residual away instead of rejecting")
    p_an.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                      help="validation tolerance for the tensor")
    _add_common_flags(p_an)
    _add_oracle_flags(p_an, OracleConfig.samples)
    _add_format_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="randomized closed-form vs oracle verification")
    p_ver.add_argument("--trials", type=int, default=100, help="number of random tensors")
    _add_common_flags(p_ver)
    _add_oracle_flags(p_ver, DEFAULT_SAMPLES)
    _add_format_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="per-tensor invariants over an ensemble")
    p_scan.add_argument("--model", default="random_bianchi:1", help="ensemble spec")
    p_scan.add_argument("--trials", type=int, default=100)
    _add_common_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Curv4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a --samples budget too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
