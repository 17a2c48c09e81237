"""Tensor and report file formats (JSON, self-describing, reproducible).

All floats are serialized with Python's shortest-round-trip repr, so files
round-trip bit-for-bit and re-running a command with the echoed configuration
reproduces identical bytes.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import PinchingReport
from .core import (BASIS_LABELS, DEFAULT_TOLERANCE, CurvatureOperator, from_components,
                   from_matrix)
from .errors import ValidationError
from .oracle import ExtremumResult
from .verify import ScanReport, VerificationReport

TENSOR_FORMAT = "curv4-v1"
REPORT_FORMAT = "curv4-report-v1"
SCAN_FORMAT = "curv4-scan-v1"
VERIFY_FORMAT = "curv4-verify-v1"

CONVENTION = {
    "basis": list(BASIS_LABELS),
    "sign": "K(ei,ej)=R(ij,ij)",
    "star": "antidiagonal signed",
}


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps_record(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# tensor files


def tensor_to_dict(op: CurvatureOperator, meta: dict | None = None) -> dict:
    doc = {
        "format": TENSOR_FORMAT,
        "convention": CONVENTION,
        "matrix": [[float(x) for x in row] for row in op.matrix],
    }
    if meta:
        doc["meta"] = meta
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _number(x, what: str) -> float:
    if type(x) is float:  # json's numbers are exactly float or int
        return x
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise ValidationError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(f"{what} {x!r} is out of range") from None


def _matrix_from_rows(rows) -> np.ndarray:
    _require(isinstance(rows, (list, tuple))
             and all(isinstance(row, (list, tuple)) for row in rows),
             "matrix must be a list of rows")
    _require(len(rows) == 6 and all(len(row) == 6 for row in rows),
             f"matrix must be 6x6, got rows of lengths {[len(row) for row in rows]}")
    return np.array([[_number(x, "matrix entry") for x in row] for row in rows])


def tensor_from_dict(doc: dict, project_bianchi: bool = False,
                     tolerance: float = DEFAULT_TOLERANCE) -> CurvatureOperator:
    _require(isinstance(doc, dict), "tensor file must contain a JSON object")
    _require(doc.get("format") == TENSOR_FORMAT,
             f"unsupported tensor format {doc.get('format')!r}; expected {TENSOR_FORMAT!r}")
    convention = doc.get("convention")
    if convention is not None:
        _require(convention == CONVENTION,
                 "tensor file declares a different basis/sign/star convention")
    has_matrix = "matrix" in doc
    has_components = "components" in doc
    _require(has_matrix != has_components,
             "tensor file must contain exactly one of 'matrix' or 'components'")
    if has_matrix:
        matrix = _matrix_from_rows(doc["matrix"])
        return from_matrix(matrix, project_bianchi=project_bianchi, tolerance=tolerance)
    components = doc["components"]
    _require(isinstance(components, list) and
             all(isinstance(c, (list, tuple)) and len(c) == 5 for c in components),
             "components must be a list of [i, j, k, l, value] entries")
    entries = [(*c[:4], _number(c[4], "component value")) for c in components]
    return from_components(entries, project_bianchi=project_bianchi, tolerance=tolerance)


def load(path, project_bianchi: bool = False,
         tolerance: float = DEFAULT_TOLERANCE) -> CurvatureOperator:
    """Load and validate a tensor file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    return tensor_from_dict(doc, project_bianchi=project_bianchi, tolerance=tolerance)


# ---------------------------------------------------------------------------
# report serialization


def _extremum_to_dict(res: ExtremumResult, plane: bool) -> dict:
    """A search result; its witness frame is written as the plane of its
    rows 0-1 for a ``plane`` objective, else as the whole frame."""
    rows = res.witness.tolist()
    wit = ({"type": "plane", "u": rows[0], "v": rows[1]} if plane
           else {"type": "frame", "rows": rows})
    return {"value": res.value, "witness": wit,
            "samples_used": res.samples_used, "converged": res.converged}


def report_to_dict(report: PinchingReport) -> dict:
    """The report document.  The config, the chain steps and the check are
    copies of their objects' fields, so editing the document leaves the
    report unchanged."""
    inv = report.invariants
    cfg = report.config
    doc = {
        "format": REPORT_FORMAT,
        "tool_version": __version__,
        "config": {**vars(cfg), "oracle": dict(vars(cfg.oracle))},
        "s": float(inv.s[0]),
        "bianchi_residual": report.bianchi_residual,
        "weyl_plus": inv.weyl_plus[0].tolist(),
        "weyl_minus": inv.weyl_minus[0].tolist(),
        "biortho_spectrum": dict(zip(("k1", "k2", "k3"), inv.k[0].tolist())),
        "hypothesis_A": {"holds": bool(inv.hypothesis_a[0]),
                         "margin": float(inv.margin_a[0])},
        "hypothesis_B": {"holds": bool(inv.hypothesis_b[0]),
                         "margin": float(inv.margin_b[0])},
        "nnic": {"holds": bool(inv.nnic[0]),
                 "margin_plus": float(inv.margin_plus[0]),
                 "margin_minus": float(inv.margin_minus[0])},
        "scalar_positive": bool(inv.scalar_positive[0]),
        "chain": {
            "applicable": report.chain.applicable,
            "reason": report.chain.reason,
            "all_satisfied": report.chain.all_satisfied,
            "steps": [dict(vars(step)) for step in report.chain.steps],
        },
        "classification_hints": list(report.hints),
        "sectional_extrema": None,
        "conjecture_check": None,
        "iso_min": None,
        "footer": report.footer,
    }
    if report.sectional_extrema is not None:
        lo, hi = report.sectional_extrema
        doc["sectional_extrema"] = {"min": _extremum_to_dict(lo, plane=True),
                                    "max": _extremum_to_dict(hi, plane=True)}
    if report.conjecture is not None:
        doc["conjecture_check"] = dict(vars(report.conjecture))
    if report.iso_min is not None:
        doc["iso_min"] = _extremum_to_dict(report.iso_min, plane=False)
    return doc


# ---------------------------------------------------------------------------
# verification and scan serialization


def verification_to_dict(report: VerificationReport) -> dict:
    """The verify document; each record is a copy of its
    :class:`~curv4.verify.TrialResult`'s fields."""
    oracle = report.oracle
    return {
        "format": VERIFY_FORMAT,
        "tool_version": __version__,
        "config": {
            "trials": report.trials,
            "seed": report.seed,
            "scale": 1.0,  # verify draws its trials from random_bianchi:1
            # The budget only: each trial's oracle seed is derived from
            # (seed, trial), so the config's own seed is never used.
            "oracle": {"samples": oracle.samples, "refine_iters": oracle.refine_iters,
                       "restarts": oracle.restarts},
        },
        "records": [dict(vars(rec)) for rec in report.records],
        "summary": report.summary(),
        "passed": report.passed,
    }


#: A scan row as :func:`dumps_record` writes it: keys sorted, floats as json
#: spells them, booleans as ``true``/``false``.
_ROW_TEMPLATE = ('{"hypothesis_A":%s,"hypothesis_B":%s,"k1":%s,"k2":%s,"k3":%s,'
                 '"nnic":%s,"s":%s,"trial":%d,"type":"row","w3_minus":%s,"w3_plus":%s}')
_JSON_BOOL = {True: "true", False: "false"}

#: Rows encoded per ``json.dumps`` call: bounds the float reprs held at once.
_ROW_BLOCK = 1024


def scan_to_lines(report: ScanReport) -> list[str]:
    """Line-delimited records: header, one row per tensor, then a summary.

    Each block of rows takes one ``json.dumps`` of its six floats per row (k1,
    k2, k3, s, w3_minus, w3_plus: the template's order), so every float is
    spelled as :func:`dumps_record` spells it (``float.__repr__``, or
    ``NaN``/``Infinity``), and the reprs fill the fixed row template.
    """
    lines = [dumps_record({"type": "header", "format": SCAN_FORMAT,
                           "tool_version": __version__,
                           "model": report.model, "trials": report.trials,
                           "seed": report.seed})]
    inv = report.invariants
    floats = np.column_stack([inv.k, inv.s, inv.weyl_minus[:, 2], inv.weyl_plus[:, 2]])
    flags = [list(map(_JSON_BOOL.__getitem__, col.tolist()))
             for col in (inv.hypothesis_a, inv.hypothesis_b, inv.nnic)]
    for lo in range(0, len(floats), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(floats))
        reprs = iter(json.dumps(floats[lo:hi].ravel().tolist())[1:-1].split(", "))
        hyp_a, hyp_b, nnic = (col[lo:hi] for col in flags)
        lines += map(_ROW_TEMPLATE.__mod__, zip(hyp_a, hyp_b, reprs, reprs, reprs, nnic,
                                                reprs, range(lo, hi), reprs, reprs))
    lines.append(dumps_record({"type": "summary", **report.summary()}))
    return lines
