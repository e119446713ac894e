"""In-memory span tracing of epresolve's module entry points.

The tracer wraps public entry points from outside the package: nothing under
``src/`` is edited.  A wrapper records one span (name, start, end, parent) per
call and bumps the layer's work counters at the same boundary.  A function
imported by name into another module is rebound there too, by identity, so a
call through any import path is seen; ``Tracer.unwrapped()`` lists whatever a
module still holds of an original.

Per-layer metrics come from the spans once the traced pass ends:

* ``calls``  - number of spans of the layer;
* ``busy_s`` - wall time inside the layer, counting only the outermost span
  when a layer re-enters itself;
* ``self_s`` - busy time minus the time of child spans of other layers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

_PANEL_EVALS = 22  # one GL15 + GL7 panel in quadrature._panel


def _count_tails(counts, args, kwargs, out):
    counts["terms"] += len(args[0].terms)


def _count_osc_mul(counts, args, kwargs, out):
    a, b = args[0], args[1]
    counts["terms"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _count_osc_add(counts, args, kwargs, out):
    counts["terms"] += len(args[0].terms) + len(args[1].terms)


def _grid_points(k, x) -> int:
    return int(getattr(k, "size", 1)) * int(getattr(x, "size", 1))


def _count_el_grid(counts, args, kwargs, out):
    # el_eval_grid(ms, ps, cs, sigma, tau, scale, k, x, z)
    points = _grid_points(args[6], args[7])
    counts["points"] += points
    counts["term_points"] += points * int(args[0].size)


def _count_psi_grid(counts, args, kwargs, out):
    # interior_psi_grid(k, x, alpha, z, regularized)
    counts["points"] += _grid_points(args[0], args[1])


def _count_member(counts, args, kwargs, out):
    # im_psi0 / im_psi1 (model, x)
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts["points"] += int(getattr(x, "size", 1))


def _adaptive_counter(fn):
    sig = inspect.signature(fn)

    def count(counts, args, kwargs, out):
        max_panels = sig.bind(*args, **kwargs).arguments.get(
            "max_panels", sig.parameters["max_panels"].default
        )
        counts["evals"] += out.evaluations
        counts["cap_hits"] += int(out.evaluations >= _PANEL_EVALS * max_panels)

    return count


# (module, attribute path, span name, counter factory or None)
TARGETS = [
    ("cli", "main", "cli", None),
    ("resolution", "apply_scheme", "resolution.apply_scheme", None),
    ("quadrature", "OscRational.integral_tails", "quadrature.tails", lambda f: _count_tails),
    ("quadrature", "OscRational.__mul__", "quadrature.osc_algebra", lambda f: _count_osc_mul),
    ("quadrature", "OscRational.__add__", "quadrature.osc_algebra", lambda f: _count_osc_add),
    ("quadrature", "_adaptive", "quadrature.adaptive", _adaptive_counter),
    ("kernels", "el_eval_grid", "kernels.el_eval_grid", lambda f: _count_el_grid),
    ("kernels", "interior_psi_grid", "kernels.interior_psi_grid", lambda f: _count_psi_grid),
    # ExpLaurent.__rmul__ delegates to __mul__, so wrapping __mul__ sees both
    ("exact", "ExpLaurent.__mul__", "exact.el_mul", None),
    ("boundary", "bm_scatter", "boundary.build", None),
    ("boundary", "bm_assoc", "boundary.build", None),
    ("boundary", "bm_growing", "boundary.build", None),
    ("interior", "im_psi0", "interior.members", lambda f: _count_member),
    ("interior", "im_psi1", "interior.members", lambda f: _count_member),
    ("interior", "im_tail_model", "interior.tail_model", None),
    ("susy", "growing_chain", "susy", None),
    ("susy", "normalizable_chain", "susy", None),
    ("susy", "wronskian", "susy", None),
    ("susy", "darboux_potential", "susy", None),
    ("susy", "verify_intertwining", "susy", None),
    ("susy", "multiplicity_delta", "susy", None),
    ("greens", "pole_order", "greens.pole_order", None),
    ("greens", "green", "greens.green", None),
    ("greens", "indexes", "greens.indexes", None),
    ("biortho", "overlap_zero", "biortho", None),
    ("biortho", "overlap_chain_scatter", "biortho", None),
    ("biortho", "overlap_growing", "biortho", None),
    ("biortho", "scatter_norm", "biortho", None),
    ("biortho", "smear_interior_scatter", "biortho", None),
    ("biortho", "interior_biortho", "biortho", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """Owns the span list and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, dict[str, int]] = {n: defaultdict(int) for n in SPAN_NAMES}
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}

    def _wrap(self, fn, name: str, count):
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package holds it."""
        import epresolve  # noqa: F401  (loads every submodule)

        package = {k: m for k, m in sys.modules.items() if k == "epresolve" or k.startswith("epresolve.")}
        for module, path, name, factory in TARGETS:
            owner = package[f"epresolve.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(fn) in self._originals:
                continue
            wrapped = self._wrap(fn, name, factory(fn) if factory else None)
            self._originals[id(fn)] = fn
            if isinstance(owner, type):
                # an alias such as ``__rmul__ = __mul__`` holds the same object
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapped)
                continue
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def unwrapped(self) -> list[str]:
        """Module or class attributes that still hold an original target."""
        found = []
        for key, mod in sys.modules.items():
            if not (key == "epresolve" or key.startswith("epresolve.")):
                continue
            for attr, value in vars(mod).items():
                if id(value) in self._originals and self._originals[id(value)] is value:
                    found.append(f"{key}.{attr}")
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        if id(cvalue) in self._originals and self._originals[id(cvalue)] is cvalue:
                            found.append(f"{key}.{attr}.{cattr}")
        return sorted(set(found))

    def reset(self) -> None:
        self.spans.clear()
        for counts in self.counts.values():
            counts.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name, plus the layer counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        for i, (name, t0, t1, parent) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[i]
            if not self._inside(i, name):
                row["busy_s"] += t1 - t0
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def _inside(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """Write the spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")
