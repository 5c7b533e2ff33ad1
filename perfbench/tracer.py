"""In-memory span tracer installed at the module attributes callers use.

A traced pass replaces each layer function named in LAYERS by a wrapper at
every ``cubeforms`` module attribute bound to it (for example
``verify.check_diffeo`` and ``meshlab.check_diffeo`` both record
``mapping.check_diffeo``).  Nothing under ``src/`` changes, and ``uninstall``
puts every original object back.  Spans stay in memory until ``write``.

``forms`` has no span of its own: its time falls inside the ``mapping``,
``spaces`` and ``dofs`` spans that call it.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (span name, defining module, function name).  The span is recorded at
# every cubeforms module attribute that is bound to the same object.
# Metric names must start with a letter or digit, so `_kernels` spans are
# named `kernels.*`.  `verify.random_map` spans count the accepted random
# maps behind `verify.map_accept_ratio`.
LAYERS = (
    ("verify.dimensions", "verify", "check_dimensions"),
    ("verify.dof_counts", "verify", "check_dof_counts"),
    ("verify.unisolvence", "verify", "check_unisolvence"),
    ("verify.calculus", "verify", "check_calculus"),
    ("verify.subcomplex", "verify", "check_subcomplex"),
    ("verify.pullback", "verify", "check_pullback_inclusions"),
    ("verify.dilation", "verify", "check_dilation_scaling"),
    ("verify.random_map", "verify", "random_rational_multilinear"),
    ("verify.random_map", "verify", "random_rational_affine"),
    ("mapping.pullback_polynomial", "mapping", "pullback_polynomial"),
    ("mapping.check_diffeo", "mapping", "check_diffeo"),
    ("mapping.map_from_vertices", "mapping", "map_from_vertices"),
    ("mapping.jacobian", "mapping", "jacobian"),
    ("spaces.in_span", "spaces", "in_span"),
    ("spaces.build_Qminus", "spaces", "build_Qminus"),
    ("spaces.build_P", "spaces", "build_P"),
    ("dofs.unisolvence_matrix", "dofs", "unisolvence_matrix"),
    ("dofs.apply_dof", "dofs", "apply_dof"),
    ("exactla.is_invertible", "exactla", "is_invertible"),
    ("exactla.rref", "exactla", "rref"),
    ("meshlab.convergence_study", "meshlab", "convergence_study"),
    ("meshlab.build_mesh", "meshlab", "build_mesh"),
    ("meshlab.element_l2_error", "meshlab", "element_l2_error"),
    ("kernels.eval_monomials", "_kernels", "eval_monomials"),
    ("kernels.multilinear_values", "_kernels", "multilinear_values"),
    ("kernels.multilinear_jacobian", "_kernels", "multilinear_jacobian"),
    ("kernels.jacobian_det_inv", "_kernels", "jacobian_det_inv"),
    ("kernels.inverse_minors", "_kernels", "inverse_minors"),
)
ROOT_SPAN = "cli.main"
LSTSQ_SPAN = "meshlab.lstsq"
LSTSQ_CALLER = "cubeforms.meshlab"

_SUITES = ("dimensions", "dof_counts", "unisolvence", "calculus", "subcomplex", "pullback", "dilation")


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [(f"verify.{s}.s", "s", "lower") for s in _SUITES]
    spec.append(("verify.map_accept_ratio", "ratio", "higher"))

    def add(span: str, fields: str) -> None:
        for f in fields.split():
            spec.append((f"{span}.{f}", "count" if f == "calls" else "s", "lower"))

    add("mapping.pullback_polynomial", "calls s self_s")
    for span in ("spaces.in_span", "spaces.build_Qminus", "spaces.build_P",
                 "dofs.unisolvence_matrix", "dofs.apply_dof",
                 "exactla.is_invertible", "exactla.rref",
                 "mapping.check_diffeo", "mapping.map_from_vertices", "mapping.jacobian"):
        add(span, "calls s")
    add("meshlab.build_mesh", "calls s self_s")
    add("meshlab.element_l2_error", "calls s self_s")
    add(LSTSQ_SPAN, "calls s")
    spec.append((f"{LSTSQ_SPAN}.max_cond", "ratio", "lower"))
    for fn in ("eval_monomials", "multilinear_values", "multilinear_jacobian",
               "jacobian_det_inv", "inverse_minors"):
        add(f"kernels.{fn}", "calls s")
    spec += [
        ("meshlab.convergence_study.s", "s", "lower"),
        ("cli.io_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
    return spec


# (metric name, unit, better) for every metric a traced run reports.
PER_LAYER = _per_layer_spec()


class Tracer:
    """Records (name, start, end, parent index) spans while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.max_cond = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, t0: float, parent: int) -> None:
        self.spans[idx] = (name, t0, perf_counter(), parent)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0, parent)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0, parent)

        traced.__wrapped__ = fn
        return traced

    def _wrap_lstsq(self, fn):
        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != LSTSQ_CALLER:
                return fn(*args, **kwargs)
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, LSTSQ_SPAN, t0, parent)
            sv = out[3]
            if len(sv) and sv[-1] > 0:
                self.max_cond = max(self.max_cond, float(sv[0] / sv[-1]))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "cubeforms" or k.startswith("cubeforms."))]
        for name, mod, fname in LAYERS:
            fn = getattr(sys.modules.get(f"cubeforms.{mod}"), fname, None)
            if fn is None:
                self.missing.append(f"{mod}.{fname}")
                continue
            wrapped = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapped)
        self._set(numpy.linalg, "lstsq", self._wrap_lstsq(numpy.linalg.lstsq))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def metrics(self, pass_s: float, untraced_pass_s: float) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
            if not self._has_ancestor(i, name):
                total[name] = total.get(name, 0.0) + (t1 - t0)
        attempts = sum(
            1 for name, _, _, parent in spans
            if name == "mapping.check_diffeo" and parent >= 0
            and spans[parent][0] == "verify.random_map"
        )
        root_s = total.get(ROOT_SPAN, 0.0)
        derived = {
            "verify.map_accept_ratio": calls.get("verify.random_map", 0) / attempts if attempts else 0.0,
            f"{LSTSQ_SPAN}.max_cond": self.max_cond,
            "cli.io_s": self_s.get(ROOT_SPAN, 0.0),
            "trace.overhead_s": pass_s - untraced_pass_s,
            "trace.unattributed_s": pass_s - root_s,
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
                continue
            span, field = metric.rsplit(".", 1)
            if field == "calls":
                out[metric] = calls.get(span, 0)
            elif field == "self_s":
                out[metric] = self_s.get(span, 0.0)
            else:
                out[metric] = total.get(span, 0.0)
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path, header: dict) -> None:
        """Dump every span as [name index, start, end, parent index]; times
        are seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(t0 - base, 7), round(t1 - base, 7), p]
                for n, t0, t1, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "names": names, "spans": rows},
                                   separators=(",", ":")))
