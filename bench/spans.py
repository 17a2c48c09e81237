"""Per-layer spans for the traced benchmark run.

Each traced function is replaced by a wrapper under every name that binds it
in a loaded ``curv4`` module, because callers look functions up in their own
module namespace (``core.eig_sym``, ``analyzer.eig_sym``, ``oracle.random_frames``).
A target that no longer exists is recorded as absent instead of failing.

Spans live in memory as (name, start_ns, end_ns, parent, request) and are
written out after the run.  Calls run on one thread (``--workers 1``), so
spans nest strictly and a span's children never overlap each other.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

#: Timed layer functions: metric prefix -> (module, attribute).
SPANNED = {
    "cli.main": ("curv4.cli", "main"),
    "verify.run_verification": ("curv4.verify", "run_verification"),
    "verify.run_trial": ("curv4.verify", "run_trial"),
    "verify.run_scan": ("curv4.verify", "run_scan"),
    "verify.scan_row": ("curv4.verify", "scan_row"),
    "analyzer.analyze": ("curv4.analyzer", "analyze"),
    "analyzer.check_pinching": ("curv4.analyzer", "check_pinching"),
    "analyzer.check_nnic": ("curv4.analyzer", "check_nnic"),
    "analyzer.implication_audit": ("curv4.analyzer", "implication_audit"),
    "analyzer.classification_hints": ("curv4.analyzer", "classification_hints"),
    "oracle.extremize_pair": ("curv4.oracle", "extremize_pair"),
    "oracle.extremize": ("curv4.oracle", "extremize"),
    "oracle.min_isotropic": ("curv4.oracle", "min_isotropic"),
    "core.decompose": ("curv4.core", "decompose"),
    "core.biortho_spectrum": ("curv4.core", "biortho_spectrum"),
    "numerics.eig_sym": ("curv4.numerics", "eig_sym"),
    "numerics.random_frames": ("curv4.numerics", "random_frames"),
    "numerics.rotation_from_generator": ("curv4.numerics", "rotation_from_generator"),
    "models.random_bianchi": ("curv4.models", "random_bianchi"),
    "io.load": ("curv4.io", "load"),
    "io.report_to_dict": ("curv4.io", "report_to_dict"),
    "io.verification_to_dict": ("curv4.io", "verification_to_dict"),
    "io.scan_to_lines": ("curv4.io", "scan_to_lines"),
    "io.dumps_document": ("curv4.io", "dumps_document"),
}

#: Functions only counted, not timed: one call of the oracle's sampling
#: phase is one coarse pass.
COUNTED = {
    "oracle.coarse_pass": ("curv4.oracle", "_coarse_samples"),
}


def _count_frames(counts: Counter, result) -> None:
    counts["numerics.random_frames.frames"] += len(result)


def _count_extrema(counts: Counter, result) -> None:
    for res in (result if isinstance(result, tuple) else (result,)):
        counts["oracle.results"] += 1
        counts["oracle.evaluations"] += res.samples_used
        counts["oracle.converged"] += bool(res.converged)


_RESULT_HOOKS = {
    "numerics.random_frames": _count_frames,
    "oracle.extremize_pair": _count_extrema,
    "oracle.extremize": _count_extrema,
    "oracle.min_isotropic": _count_extrema,
}


class Tracer:
    """Installs span wrappers into the loaded curv4 modules and collects spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "curv4" or name.startswith("curv4."))]
        targets = [(label, target, True) for label, target in SPANNED.items()]
        targets += [(label, target, False) for label, target in COUNTED.items()]
        for label, (modname, attr), spanned in targets:
            fn = getattr(sys.modules.get(modname), attr, None)
            if not callable(fn):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, fn, spanned)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._installed):
            setattr(mod, name, fn)
        self._installed = []

    def _wrap(self, label: str, fn, spanned: bool):
        hook = _RESULT_HOOKS.get(label)
        calls_key = label + ".calls"

        if not spanned:
            def counter(*args, **kwargs):
                self.counts[calls_key] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counter, fn)

        def wrapper(*args, **kwargs):
            self.counts[calls_key] += 1
            spans = self.spans
            index = len(spans)
            parent = self._stack[-1] if self._stack else -1
            spans.append(None)
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                spans[index] = (label, start, end, parent, self.request)
            if hook is not None:
                hook(self.counts, result)
            return result
        return functools.update_wrapper(wrapper, fn)

    def self_ns(self) -> dict[str, int]:
        """Per-name self time: span duration minus the time its children cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request}) + "\n")
