"""Outside-in span tracer for the pnbm layers.

The tracer replaces each named function with a timing wrapper at every place
the package binds it: the defining module, every ``pnbm`` module that did
``from .x import name``, and the class dict for methods. Patching only the
defining module would record nothing for calls that go through an imported
name, which is how ``cli``, ``teleport`` and ``measurement`` call the layers
below them.

Spans are aggregated in memory per name (calls, total time, self time) and
read once the traced invocation has finished; nothing is written while it
runs. Self time is a span's duration minus the time spent in its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# Named spans per layer, as "function" or "Class.method", in the module that
# defines them. ``cli.main`` is the root span of every traced invocation, so
# the layer self times add up to its duration.
LAYERS = {
    "qsim": (
        "apply_linear", "apply_unitary", "tensor", "partial_trace",
        "measure_computational", "fidelity", "haar_random_pure",
        "PureState.__init__", "DensityMatrix.__init__", "GateOp.__init__",
    ),
    "measurement": (
        "kraus_set", "pnbm_network", "PnbmNetwork.run",
        "PnbmNetwork.outcome_probabilities", "apply_pnbm_kraus",
    ),
    "teleport": ("run_pqt", "pct_bound_curve", "pqt_bound_curve"),
    "ancilla": ("params_from_alpha", "sigma_state", "run_prep_circuit"),
    "analysis": (
        "monte_carlo_mean_fidelities", "haar_two_qubit_block",
        "mean_fidelities_from_kraus",
    ),
    "cv": ("build_cv_protocol", "cv_fidelities", "covariance_conditioning_check"),
    "cli": ("main", "_emit_table"),
}

CONSTRUCTOR_SPANS = ("qsim.PureState.init", "qsim.DensityMatrix.init", "qsim.GateOp.init")

# Workloads on which a span must record calls. A span left at zero there
# means a binding site was missed (or the code path moved), so the traced run
# fails instead of reporting a silent zero.
_SWEEP_AND_SELFTEST = ("qubit-sweep", "selftest")
REQUIRED = {
    **{f"qsim.{n}": _SWEEP_AND_SELFTEST for n in (
        "apply_linear", "apply_unitary", "tensor", "partial_trace",
        "measure_computational", "fidelity", "haar_random_pure",
        "PureState.init", "DensityMatrix.init", "GateOp.init",
    )},
    "measurement.kraus_set": ("measurement-sweep", "selftest"),
    "measurement.pnbm_network": _SWEEP_AND_SELFTEST,
    "measurement.PnbmNetwork.run": _SWEEP_AND_SELFTEST,
    "measurement.PnbmNetwork.outcome_probabilities": ("selftest",),
    "measurement.apply_pnbm_kraus": ("selftest",),
    "teleport.run_pqt": _SWEEP_AND_SELFTEST,
    "teleport.pct_bound_curve": ("selftest",),
    "teleport.pqt_bound_curve": (),  # only `pnbm bounds` calls it
    "ancilla.params_from_alpha": ("qubit-sweep", "measurement-sweep", "selftest"),
    "ancilla.sigma_state": _SWEEP_AND_SELFTEST,
    "ancilla.run_prep_circuit": ("selftest",),
    "analysis.monte_carlo_mean_fidelities": ("measurement-sweep", "selftest"),
    "analysis.haar_two_qubit_block": ("measurement-sweep", "selftest"),
    "analysis.mean_fidelities_from_kraus": ("measurement-sweep", "selftest"),
    "cv.build_cv_protocol": ("cv-sweep", "selftest"),
    "cv.cv_fidelities": ("cv-sweep", "selftest"),
    "cv.covariance_conditioning_check": ("selftest",),
    "cli.main": ("qubit-sweep", "measurement-sweep", "cv-sweep", "selftest"),
    "cli._emit_table": ("qubit-sweep", "measurement-sweep", "cv-sweep"),
}


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.replace('.__init__', '.init')}"


SPANS = tuple(span_name(layer, t) for layer, targets in LAYERS.items() for t in targets)


class Tracer:
    """Wraps the pnbm layers while installed and aggregates their spans."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.mc_samples = 0

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.mc_samples = 0

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child
                if stack:
                    stack[-1] += duration

        return span

    def _count_mc_samples(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.mc_samples += int(signature.bind(*args, **kwargs).arguments["n_samples"])
            return fn(*args, **kwargs)

        return counted

    def _patch_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded pnbm module."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pnbm" and not mod_name.startswith("pnbm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every named span, plus each layer's other public functions.

        The other public functions of a layer share one ``<layer>.other``
        span, so time spent in them counts toward their own layer rather
        than toward the caller's.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, targets in LAYERS.items():
                module = importlib.import_module(f"pnbm.{layer}")
                for target in targets:
                    name = span_name(layer, target)
                    if "." in target:
                        cls_name, attr = target.split(".")
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[attr]
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, self.wrap(name, original))
                        continue
                    original = vars(module)[target]
                    wrapper = self.wrap(name, original)
                    if name == "analysis.monte_carlo_mean_fidelities":
                        wrapper = self._count_mc_samples(wrapper)
                    self._patch_everywhere(original, wrapper)
                for attr, value in list(vars(module).items()):
                    if (attr.startswith("_") or attr in targets
                            or not inspect.isfunction(value)
                            or value.__module__ != module.__name__):
                        continue
                    self._patch_everywhere(value, self.wrap(f"{layer}.other", value))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def snapshot(self) -> dict:
        """Copy of the per-span aggregates plus the Monte-Carlo sample count."""
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in self.stats.items()},
            "mc_samples": self.mc_samples,
        }


def layer_self_times(spans: dict) -> dict:
    """Self time per layer: the sum over its named and ``other`` spans."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, entry in spans.items():
        totals[name.split(".", 1)[0]] += entry["self_s"]
    return totals


def per_layer_metrics(snapshot: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced invocation, as name -> (value, unit)."""
    spans = snapshot["spans"]
    metrics = {}
    for name in SPANS:
        entry = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        metrics[f"{name}.total_s"] = (entry["total_s"], "s")
    for layer, self_s in layer_self_times(spans).items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    run_pqt_total = spans.get("teleport.run_pqt", {}).get("total_s", 0.0)
    constructors = sum(spans.get(n, {}).get("self_s", 0.0) for n in CONSTRUCTOR_SPANS)
    metrics["qsim.validate_share"] = (
        constructors / run_pqt_total if run_pqt_total > 0 else 0.0, "ratio")
    mc_total = spans.get("analysis.monte_carlo_mean_fidelities", {}).get("total_s", 0.0)
    metrics["analysis.mc_samples"] = (snapshot["mc_samples"], "count")
    metrics["analysis.samples_per_s"] = (
        snapshot["mc_samples"] / mc_total if mc_total > 0 else 0.0, "1/s")
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return metrics


def missing_spans(snapshot: dict, workload: str) -> list[str]:
    """Named spans that should have recorded calls on ``workload`` but did not."""
    spans = snapshot["spans"]
    return [name for name, workloads in REQUIRED.items()
            if workload in workloads and spans.get(name, {}).get("calls", 0) == 0]
