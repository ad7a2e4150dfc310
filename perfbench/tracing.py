"""Per-layer tracing of lexarith from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper
that records calls and self time (span duration minus the time of the
traced spans it caused), counts what it raised by exception type, then
re-raises it unchanged.  A call is *outer* when no other traced function of
its layer is running (a ``mul`` inside ``pow_int`` is not); outer calls are
counted apart, as the traffic one layer receives from the others.  A
function imported by name into another module (``from .model import
pow_int``) is rebound in every module that holds it, methods and operator
dunders are patched on their class, and the kernel is wrapped at term level
only: wrapping the per-rational helpers would time the wrapper, not the
kernel.  ``Tracer.uninstall()`` restores every binding it changed.

Nothing under ``src/`` is edited; the wrappers live only in this process.
"""

from __future__ import annotations

import sys
import time

from lexarith import (
    _backend,
    analysis,
    automorph,
    cli,
    equiv,
    jsonio,
    model,
    oracle,
    sampler,
    suites,
    textform,
)
from lexarith.errors import CoefficientNotRepresentable, NonTerminatingQuotient

PARTIAL = (NonTerminatingQuotient, CoefficientNotRepresentable)

KERNEL_FUNCS = ("terms_add", "terms_sub", "terms_mul", "terms_cmp", "terms_sign", "terms_scale")
MODEL_FUNCS = ("pow_int", "divmod_floor", "root_floor", "sub")
LEVELS = (0, 1, 2, 3, 4)


def _level_label(prefix):
    return lambda args, kwargs: f"{prefix}.l{args[0]}"


class Tracer:
    """Calls and self time per span name, plus derived counters."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.counters = {}
        self.raised = {}  # (span, exception type name) -> count
        self.outer_calls = {}  # span -> calls made while no span of its layer ran
        self.outer_raised = {}  # (span, exception type name) -> count, outer calls only
        self.active = {}  # span name or layer -> how many such calls are running
        self._stack = []
        self._saved = []
        self.installed = False

    # --- recording ---------------------------------------------------------

    def count(self, name, by=1):
        self.counters[name] = self.counters.get(name, 0) + by

    def high_water(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _span(self, name, fn, label=None, after=None):
        calls, self_ns, stack, active = self.calls, self.self_ns, self._stack, self.active
        raised, outer_calls, outer_raised = self.raised, self.outer_calls, self.outer_raised
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = label(args, kwargs) if label else name
            outer = not active.get(layer)
            active[name] = active.get(name, 0) + 1
            active[layer] = active.get(layer, 0) + 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (span, type(exc).__name__)
                raised[key] = raised.get(key, 0) + 1
                if outer:
                    outer_raised[key] = outer_raised.get(key, 0) + 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                active[name] -= 1
                active[layer] -= 1
                calls[span] = calls.get(span, 0) + 1
                self_ns[span] = self_ns.get(span, 0) + dt - child
                if outer:
                    outer_calls[span] = outer_calls.get(span, 0) + 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- binding -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace ``original`` in every lexarith module that holds it, under any name."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_function(self, module, attr, name, **kw):
        original = getattr(module, attr)
        self._rebind(original, self._span(name, original, **kw))

    def _wrap_method(self, cls, attr, name, **kw):
        self._set(cls, attr, self._span(name, cls.__dict__[attr], **kw))

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        kernel = _backend.kernel

        def mul_after(args, result):
            a, b = args
            self.count("kernel.terms_mul.products", len(a) * len(b))
            self.high_water("kernel.terms_mul.max_terms", len(result))

        for f in KERNEL_FUNCS:
            self._wrap_function(kernel, f, f"kernel.{f}", after=mul_after if f == "terms_mul" else None)

        E = model.Element
        self._wrap_method(E, "__mul__", "model.mul")
        self._wrap_method(E, "__add__", "model.add")
        self._wrap_method(E, "_cmp", "model.cmp")  # every order operator and model.cmp go through it
        for f in MODEL_FUNCS:
            self._wrap_function(model, f, f"model.{f}")
        self._set(E, "terms", self._counted("model.fraction_views.calls", E.__dict__["terms"]))
        comps = model.Exponent.__dict__["components"]
        self._set(model.Exponent, "components", property(self._counted("model.fraction_views.calls", comps.fget)))

        self._wrap_method(sampler.Sampler, "element", "sampler.element")

        def decide_after(args, verdict):
            if verdict.equivalent:
                self.count("equiv.decide.positive")

        self._wrap_function(equiv, "decide", "equiv.decide", label=_level_label("equiv.decide"), after=decide_after)
        self._wrap_function(equiv, "minimal_bound_n", "equiv.minimal_bound_n")

        def check_after(args, result):
            if self.active.get("equiv.decide"):
                self.count("equiv.decide.witness_checks")
            if self.active.get("oracle.search"):
                self.count("oracle.search.candidates")

        def search_after(args, found):
            if found is not None:
                self.count("oracle.search.hits")

        self._wrap_function(
            oracle, "check_witness", "oracle.check_witness",
            label=_level_label("oracle.check_witness"), after=check_after,
        )
        self._wrap_function(oracle, "search", "oracle.search", after=search_after)

        for f in ("build_from_e2", "build_from_e3", "apply"):
            self._wrap_function(automorph, f, f"automorph.{f}")

        def validate_after(args, report):
            self.count("automorph.validate.pairs", report.pairs)

        self._wrap_function(automorph, "validate", "automorph.validate", after=validate_after)
        for f in ("e0_seq", "e2_seq", "real_embed"):
            self._wrap_function(analysis, f, f"analysis.{f}")
        self._wrap_function(analysis, "b11_seq", "analysis.b11_seq")

        for f in ("parse_element", "format_element"):
            self._wrap_function(textform, f, f"textform.{f}")
        for f in ("element_to_json", "element_from_json", "descriptor_from_json"):
            self._wrap_function(jsonio, f, f"jsonio.{f}")
        self._wrap_function(cli, "main", "cli.main")
        return self

    def partial(self, span, outer=False) -> int:
        """Typed-partial exceptions (NonTerminatingQuotient, CoefficientNotRepresentable) of ``span``."""
        raised = self.outer_raised if outer else self.raised
        return sum(raised.get((span, exc.__name__), 0) for exc in PARTIAL)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        self.installed = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "lexarith" or n.startswith("lexarith.")]


def bindings_snapshot():
    """Every attribute of every lexarith module and traced class, by identity."""
    snap = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
    for cls in (model.Element, model.Exponent, sampler.Sampler):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = id(value)
    return snap


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values, every name present (0 when idle)."""
    calls, self_ns, c = tracer.calls, tracer.self_ns, tracer.counters
    out = {}

    def span(name):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")

    for f in KERNEL_FUNCS:
        span(f"kernel.{f}")
    out["kernel.terms_mul.products"] = (c.get("kernel.terms_mul.products", 0), "count")
    out["kernel.terms_mul.max_terms"] = (c.get("kernel.terms_mul.max_terms", 0), "count")
    for f in ("mul", "add", "sub", "cmp", "pow_int", "divmod_floor", "root_floor"):
        span(f"model.{f}")
    out["model.divmod_floor.partial"] = (tracer.partial("model.divmod_floor"), "count")
    out["model.root_floor.partial"] = (tracer.partial("model.root_floor"), "count")
    out["model.fraction_views.calls"] = (c.get("model.fraction_views.calls", 0), "count")
    span("sampler.element")
    for lvl in LEVELS:
        span(f"equiv.decide.l{lvl}")
    span("equiv.minimal_bound_n")
    positives = c.get("equiv.decide.positive", 0)
    checks = c.get("equiv.decide.witness_checks", 0)
    out["equiv.witness_checks_per_positive"] = (checks / positives if positives else 0.0, "ratio")
    for lvl in LEVELS:
        span(f"oracle.check_witness.l{lvl}")
    span("oracle.search")
    searches = calls.get("oracle.search", 0)
    out["oracle.search.candidates"] = (c.get("oracle.search.candidates", 0), "count")
    out["oracle.search.hit_ratio"] = (c.get("oracle.search.hits", 0) / searches if searches else 0.0, "ratio")
    for f in ("build_from_e2", "build_from_e3", "apply", "validate"):
        span(f"automorph.{f}")
    out["automorph.validate.pairs"] = (c.get("automorph.validate.pairs", 0), "count")
    for f in ("e0_seq", "e2_seq", "b11_seq", "real_embed"):
        span(f"analysis.{f}")
    out["analysis.b11_seq.partial"] = (tracer.partial("analysis.b11_seq"), "count")
    for f in ("parse_element", "format_element"):
        span(f"textform.{f}")
    for f in ("element_to_json", "element_from_json", "descriptor_from_json"):
        span(f"jsonio.{f}")
    span("cli.main")
    return out


def suite_metric_names():
    return [f"suites.{name}.d{dim}.wall_s" for dim in (1, 2) for name in suites.SUITES]
