"""Layer tracing for the jdd benchmark, kept outside the package under test.

``Tracer.install`` wraps every public function of the six jdd layers at every
module binding that holds it (``gaussian_block`` is bound in ``channel``,
``montecarlo`` and ``bounds``; ``ml_decode`` is re-imported lazily from
``jdd.codebook``), so a call is seen whichever name the caller used. Each
call becomes a span with its parent; a span's self time is its duration
minus the time of the wrapped calls inside it. ``layer_metrics`` turns the
spans of one sweep into the per-layer metrics.
"""

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass

LAYERS = ("channel", "detectors", "codebook", "montecarlo", "bounds", "sweeps")


@dataclass
class Span:
    sid: int
    parent: int          # sid of the enclosing span, -1 at the root
    layer: str
    name: str
    binding: str         # module whose attribute the caller went through
    start: float
    end: float = 0.0
    child: float = 0.0   # time covered by wrapped calls inside this one
    info: dict = None

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child


def _rows(y):
    return y.shape[0] if getattr(y, "ndim", 1) > 1 else 1


def _shape(shape):
    return tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)


def _noise(a, _):
    shape = _shape(a["shape"])
    key = (float(a["sigma2"]), int(a["seed"]), int(a["stream"]), int(a["block"]), shape)
    return {"key": key, "samples": math.prod(shape), "rows": shape[0]}


def _correlation(y, cb):
    return {"rows": _rows(y), "n_c": cb.n_c, "M": cb.M}


# what to record, from the bound arguments and the result, per function name
OBSERVERS = {
    "gaussian_block": _noise,
    "stat_dad": lambda a, _: _correlation(a["y"], a["cb"]),
    "stat_codebook_aided": lambda a, _: _correlation(a["y"], a["cb"]),
    "ml_decode": lambda a, _: _correlation(a["y"], a["cb"]),
    "info_density_samples": lambda a, _: {
        "key": (int(a["n"]), float(a["sigma2"]), int(a["trials"]), int(a["seed"]), int(a["stream"]))},
    "run_rate_sweep": lambda a, r: {"rows": len(r)},
    "run_pie_sweep": lambda a, r: {"rows": len(r)},
}


class Tracer:
    """Installs span-recording wrappers on the jdd layers and removes them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "jdd" or name.startswith("jdd."))]
        for layer in LAYERS:
            mod = sys.modules["jdd." + layer]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, self._wrap(layer, name, holder.__name__, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer, name, binding, fn):
        observe = OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), stack[-1].sid if stack else -1, layer, name, binding,
                        time.perf_counter())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.dur
            if observe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = observe(bound.arguments, result)
            return result

        return traced


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one sweep's spans, keyed by metric name."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.dur for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    noise = by_name.get("gaussian_block", [])
    samples = sum(s.info["samples"] for s in noise)
    corr = [s.info for name in ("stat_dad", "stat_codebook_aided", "ml_decode")
            for s in by_name.get(name, ())]
    dad_flops = sum(2 * s.info["rows"] * s.info["n_c"] * s.info["M"] for s in by_name.get("stat_dad", ()))
    dens = by_name.get("info_density_samples", [])
    layer_self = {layer: sum(s.self_s for s in spans if s.layer == layer) for layer in LAYERS}
    m = {
        "channel.blocks": len(noise),
        "channel.samples": samples,
        "channel.unique_block_frac": _ratio(len({s.info["key"] for s in noise}), len(noise)),
        "channel.uniform_s": total("uniform_block"),
        "channel.ndtri_s": self_time("gaussian_block"),
        "channel.ns_per_sample": _ratio(total("gaussian_block") * 1e9, samples),
        "detectors.hyped_s": total("stat_hyped_exact"),
        "detectors.hyped_calls": calls("stat_hyped_exact"),
        "detectors.preamble_s": total("stat_preamble"),
        "detectors.dad_s": total("stat_dad"),
        "detectors.dad_calls": calls("stat_dad"),
        "detectors.dad_gflops": _ratio(dad_flops / 1e9, total("stat_dad")),
        "codebook.load_s": total("load_generator"),
        "codebook.ml_decode_s": total("ml_decode"),
        "codebook.ml_decode_calls": calls("ml_decode"),
        "codebook.corr_mib": max((c["rows"] * c["M"] * 8 / 2**20 for c in corr), default=0.0),
        "montecarlo.calibrate_s": self_time("calibrate_threshold"),
        "montecarlo.estimate_s": self_time("estimate_rates"),
        "montecarlo.calibrate_calls": calls("calibrate_threshold"),
        "montecarlo.estimate_calls": calls("estimate_rates"),
        "montecarlo.noise_rows": sum(s.info["rows"] for s in noise if s.binding == "jdd.montecarlo"),
        "bounds.density_s": self_time("info_density_samples"),
        "bounds.density_calls": len(dens),
        "bounds.unique_density_frac": _ratio(len({s.info["key"] for s in dens}), len(dens)),
        "bounds.dt_search_s": self_time("dt_bound_max_M") + total("dt_error_estimate"),
        "bounds.dt_evals": calls("dt_error_estimate"),
        "bounds.mc_bisect_s": self_time("meta_converse_min_error"),
        "sweeps.rows": sum(s.info["rows"] for name in ("run_rate_sweep", "run_pie_sweep")
                           for s in by_name.get(name, ())),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
