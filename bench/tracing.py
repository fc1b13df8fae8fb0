"""Traced mode: spans and counts at cwlab's layer boundaries, recorded from
the benchmark's own files.

``install`` replaces the public callables where the calling layer looks them
up (``interaction.solve``, ``beals.dft_forward_nd``, ...), the class
attributes ``NonlinearitySpec.__call__`` and ``PsiMollifier.derivative``,
and the ``scipy.fft`` module the solver calls, with wrappers; ``uninstall``
puts the originals back.  No program file is edited.  Spans stay in memory,
each with the span that caused it, and are written out at the end.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("interaction", "solver", "spectral", "profiles", "beals")

# interaction's own public functions; the pipeline calls them through the
# module's globals, so wrapping the attribute also catches internal calls.
INTERACTION_FUNCS = (
    "run_experiment",
    "nonlinear_response",
    "linear_field",
    "polarization_isolate",
    "amplitude_scaling",
    "coefficient_recovery",
    "make_three_wave_data",
    "cone_order_estimate",
    "front_order_estimate",
    "cone_amplitude",
    "probe_band_energy",
    "ridge_radius",
)

# (name, unit, better); the per_layer list of BENCHMARK.json, in order.
PER_LAYER = (
    ("interaction.run_experiment.self_s", "s", "lower"),
    ("interaction.nonlinear_response.calls", "count", "lower"),
    ("interaction.nonlinear_response.s", "s", "lower"),
    ("interaction.polarization_isolate.s", "s", "lower"),
    ("interaction.amplitude_scaling.s", "s", "lower"),
    ("interaction.coefficient_recovery.s", "s", "lower"),
    ("interaction.make_three_wave_data.s", "s", "lower"),
    ("interaction.cone_order_estimate.s", "s", "lower"),
    ("interaction.front_order_estimate.s", "s", "lower"),
    ("interaction.cone_amplitude.s", "s", "lower"),
    ("interaction.probe_band_energy.s", "s", "lower"),
    ("interaction.ridge_radius.s", "s", "lower"),
    ("solver.solve.calls", "count", "lower"),
    ("solver.solve.nl_calls", "count", "lower"),
    ("solver.solve.lin_calls", "count", "lower"),
    ("solver.solve.unique_ratio", "ratio", "higher"),
    ("solver.solve_nl.s", "s", "lower"),
    ("solver.solve_lin.s", "s", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.p_eval.calls", "count", "lower"),
    ("solver.p_eval.s", "s", "lower"),
    ("solver.fft.calls", "count", "lower"),
    ("solver.fft.s", "s", "lower"),
    ("solver.energy.s", "s", "lower"),
    ("spectral.windowed_slice.s", "s", "lower"),
    ("spectral.decay_exponent.s", "s", "lower"),
    ("spectral.dft_forward_nd.calls", "count", "lower"),
    ("spectral.dft_forward_nd.s", "s", "lower"),
    ("profiles.synthesize_profile.s", "s", "lower"),
    ("profiles.mollifier_polynomial.s", "s", "lower"),
    ("profiles.psi_derivative.s", "s", "lower"),
    ("profiles.psi_derivative.points", "count", "lower"),
    ("profiles.piriou_decompose.s", "s", "lower"),
    ("beals.beals_norm.calls", "count", "lower"),
    ("beals.beals_norm.s", "s", "lower"),
    ("beals.membership_scan.s", "s", "lower"),
    ("beals.algebra_scan.s", "s", "lower"),
    ("interaction.self_s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("profiles.self_s", "s", "lower"),
    ("beals.self_s", "s", "lower"),
    ("traced.op_s", "s", "lower"),
)

SETUP = "setup"


class Tracer:
    """Spans ``[id, parent, op, name, start, end]`` and per-operation counts.

    ``op`` is ``"setup"``, an operation index, or None; nothing is recorded
    while it is None (the benchmark's checks run then).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)
        self.solve_inputs: dict = defaultdict(set)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.op, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _end(self, span: list):
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, op, name: str):
        """Root span of the set-up or of one operation."""
        self.op = op
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span)
            self.op = None

    def traced(self, fn, name, before=None, after=None):
        """``fn`` wrapped in a span; ``name`` may be a function of the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = tracer._begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, **hooks):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.traced(orig, name, **hooks))
        self._undo.append((owner, attr, orig))

    def count(self, key: str, n: int = 1):
        self.counts[self.op][key] += n

    def install(self):
        from cwlab import beals, interaction, profiles, solver

        for fn in INTERACTION_FUNCS:
            self.patch(interaction, fn, f"interaction.{fn}")
        self.patch(interaction, "solve", _solve_span_name,
                   before=self._solve_input, after=self._solve_steps)
        self.patch(interaction, "energy", "solver.energy")
        self.patch(interaction, "decay_exponent", "spectral.decay_exponent")
        self.patch(interaction, "windowed_slice", "spectral.windowed_slice")
        self.patch(interaction, "synthesize_profile", "profiles.synthesize_profile")
        self.patch(solver.NonlinearitySpec, "__call__", "solver.p_eval")
        self._undo.append((solver, "sfft", solver.sfft))
        solver.sfft = _FFTProxy(solver.sfft, self)

        self.patch(beals, "dft_forward_nd", "spectral.dft_forward_nd")
        for fn in ("beals_norm", "membership_scan", "algebra_scan", "algebra_check"):
            self.patch(beals, fn, f"beals.{fn}")
        for fn in ("synthesize_profile", "mollifier_polynomial", "piriou_decompose",
                   "profile_power", "extremal_profile"):
            self.patch(profiles, fn, f"profiles.{fn}")
        self.patch(profiles.PsiMollifier, "derivative", "profiles.psi_derivative",
                   before=self._psi_points)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _solve_input(self, args, kwargs):
        """Digest of everything a solve depends on: data, grid, config, P."""
        bound = dict(zip(("u0", "ut0", "grid", "config", "P"), args), **kwargs)
        h = hashlib.blake2b(digest_size=16)
        for key in ("u0", "ut0"):
            h.update(bound[key].tobytes())
        h.update(repr((bound["grid"], bound["config"], bound.get("P"))).encode())
        self.solve_inputs[self.op].add(h.hexdigest())

    def _solve_steps(self, field):
        meta = field.metadata
        self.count("solver.steps", int(round((meta["t1"] - meta["t0"]) / meta["dt"])))

    def _psi_points(self, args, kwargs):
        eta = args[2] if len(args) > 2 else kwargs["eta"]
        self.count("profiles.psi_derivative.points", int(getattr(eta, "size", 1)))

    def metrics(self, op_times: list[float]) -> dict:
        """Per-layer metrics: ``.s`` is the median seconds per call over the
        set-up and the operations, ``.calls`` and other counts are per
        operation, self times are per operation; medians over operations."""
        ops = sorted({s[2] for s in self.spans if s[2] not in (None, SETUP)})
        child = Counter()
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        durations = defaultdict(list)
        per_op = {op: Counter() for op in ops}
        for s in self.spans:
            dur = s[5] - s[4]
            durations[s[3]].append(dur)
            if s[2] in per_op:
                c = per_op[s[2]]
                c[s[3] + ".calls"] += 1
                c[s[3] + ".self_s"] += dur - child[s[0]]
                c[s[3].split(".")[0] + ".self_s"] += dur - child[s[0]]
        for op in ops:
            c = per_op[op]
            c.update(self.counts.get(op, {}))
            c["solver.solve.nl_calls"] = c["solver.solve_nl.calls"]
            c["solver.solve.lin_calls"] = c["solver.solve_lin.calls"]
            c["solver.solve.calls"] = c["solver.solve_nl.calls"] + c["solver.solve_lin.calls"]
            calls = c["solver.solve.calls"]
            c["solver.solve.unique_ratio"] = len(self.solve_inputs[op]) / calls if calls else 0.0

        out = {}
        for name, unit, _ in PER_LAYER:
            if name == "traced.op_s":
                value = statistics.median(op_times)
            elif name.endswith(".s"):
                d = durations.get(name[:-2])
                value = statistics.median(d) if d else 0.0
            else:
                value = statistics.median(per_op[op][name] for op in ops) if ops else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "span_fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}},
                      fh)


def _solve_span_name(args, kwargs):
    p = args[4] if len(args) > 4 else kwargs.get("P")
    return "solver.solve_lin" if p is None else "solver.solve_nl"


class _FFTProxy:
    """Stands in for the ``scipy.fft`` module inside ``cwlab.solver``; every
    callable it hands out is traced as ``solver.fft``."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._wrapped = {}

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if not callable(fn):
            return fn
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer.traced(fn, "solver.fft")
        return self._wrapped[attr]
