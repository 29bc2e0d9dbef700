"""Spans around the calls one ellpoisson layer makes into another.

``Tracer.install`` replaces the names in ``TARGETS`` with wrappers that
record a span per call; ``Tracer.uninstall`` puts the original objects
back.  A span records its name, start, end, parent span and job id, plus a
work count where the target has one.  Spans stay in memory until the run
writes them out.  The layer of a span is the part of its name before the
first dot; the layers are the package's modules.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "theta", "cech", "poisson", "fo", "exact", "homology",
          "leaves")


def _points(args, kwargs, result):
    # z is a scalar or an array of points
    return int(getattr(args[2], "size", 1))


def _nodes(args, kwargs, result):
    # laurent_coeffs(f, center, window, q, n=1)
    quad = args[3] if len(args) > 3 else kwargs["q"]
    n = args[4] if len(args) > 4 else kwargs.get("n", 1)
    return int(quad.resolve(n)[0])


def _madds(args, kwargs, result):
    a, b = args
    return a.shape[0] * a.shape[1] * b.shape[1]


def _length(args, kwargs, result):
    return len(result)


# (module, attribute or Class.method, span name, work count)
TARGETS = (
    ("ellpoisson.cli", "ThetaBasis", "theta.basis", None),
    ("ellpoisson.cli", "theta_alpha_eval", "theta.eval", _points),
    ("ellpoisson.cli", "theta_alpha_deriv", "theta.eval", _points),
    ("ellpoisson.cli", "verify_automorphy", "theta.automorphy", None),
    ("ellpoisson.cech", "theta_alpha_eval", "theta.eval", _points),
    ("ellpoisson.cech", "theta_alpha_deriv", "theta.eval", _points),
    ("ellpoisson.fo", "theta_alpha_eval", "theta.eval", _points),
    ("ellpoisson.cli", "ResidueSystem", "cech.system", None),
    ("ellpoisson.cech", "ResidueSystem.bracket_matrix", "cech.bracket", None),
    ("ellpoisson.cech", "ResidueSystem.closed_form_entry", "cech.closed_form",
     None),
    ("ellpoisson.cech", "ResidueSystem.trace_form_entry", "cech.trace_form",
     None),
    ("ellpoisson.cech", "laurent_coeffs", "cech.residue", _nodes),
    ("ellpoisson.cli", "f_constants", "fo.f_constants", None),
    ("ellpoisson.cech", "f_constants", "fo.f_constants", None),
    ("ellpoisson.cli", "sklyanin_bracket", "fo.sklyanin", None),
    ("ellpoisson.cli", "single_eta_bracket", "fo.single_eta", None),
    ("ellpoisson.cli", "semiclassical_from_relations", "fo.extrapolation",
     None),
    ("ellpoisson.fo", "fo_relations", "fo.relations", None),
    ("ellpoisson.cli", "QuadraticBracket", "poisson.bracket", None),
    ("ellpoisson.fo", "QuadraticBracket", "poisson.bracket", None),
    ("ellpoisson.poisson", "QuadraticBracket.max_difference",
     "poisson.max_difference", None),
    # cmd_sklyanin imports jacobi_defect when it runs, so the poisson
    # module attribute is the name it reads.
    ("ellpoisson.poisson", "jacobi_defect", "poisson.jacobi", None),
    ("ellpoisson.cli", "hn_canonical_extract", "poisson.canonical", None),
    ("ellpoisson.cli", "projective_matrix", "poisson.projective", None),
    ("ellpoisson.cli", "random_kronecker_complex", "homology.instance", None),
    ("ellpoisson.cli", "hom_complex", "homology.complex", None),
    ("ellpoisson.cli", "cone_iso_check", "homology.cone", None),
    ("ellpoisson.cli", "pi_bivector", "homology.bivector", None),
    ("ellpoisson.homology", "PiBivector.antisymmetry_ok",
     "homology.antisymmetry", None),
    ("ellpoisson.homology", "PiBivector.chain_map_ok", "homology.chain_map",
     None),
    ("ellpoisson.homology", "hstack", "exact.stack", None),
    ("ellpoisson.homology", "vstack", "exact.stack", None),
    ("ellpoisson.exact", "Mat.__matmul__", "exact.matmul", _madds),
    ("ellpoisson.exact", "Mat.__add__", "exact.add", None),
    ("ellpoisson.exact", "Mat.__eq__", "exact.eq", None),
    ("ellpoisson.exact", "Mat.kron", "exact.kron", None),
    ("ellpoisson.exact", "Mat.rank", "exact.rank", None),
    ("ellpoisson.exact", "Mat.from_rows", "exact.from_rows", None),
    # called by Mat.__matmul__ only when the int64 bound holds
    ("ellpoisson.exact", "_to_object_int", "exact.int64", None),
    ("ellpoisson.cli", "enumerate_strata", "leaves.strata", _length),
    ("ellpoisson.cli", "classical_cubic_rows", "leaves.classical", None),
    ("ellpoisson.cli", "end_dim_sheaf", "leaves.end_dim", None),
    ("ellpoisson.leaves", "TorsionType.describe", "leaves.describe", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "error", "count")

    def __init__(self, name, start, end, parent, job, error=False, count=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.error = error
        self.count = count

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _owner(module_name: str, path: str):
    """(object holding the name, attribute name) for a TARGETS entry."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.job = 0
        self._stack = []
        self._saved = []

    def call(self, name, fn, args, kwargs, count=None):
        span = Span(name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if count is not None:
            span.count = count(args, kwargs, result)
        return result

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, count in TARGETS:
            owner, attr = _owner(module_name, path)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name,
                                                 count))
            else:
                wrapped = self._wrap(original, name, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def originals() -> dict:
    """The object bound to every TARGETS name, keyed by (module, path)."""
    out = {}
    for module_name, path, _, _ in TARGETS:
        owner, attr = _owner(module_name, path)
        out[(module_name, path)] = inspect.getattr_static(owner, attr)
    return out


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted((spans[c].start, spans[c].end)
                                 for c in children[idx]):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out
