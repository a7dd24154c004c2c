"""In-memory span tracing of mixsep's public functions, installed from outside.

The benchmark never edits the package. For a traced run it replaces module
attributes (the names the package's own modules look up at call time) with
thin wrappers that record one span per call: name, start, end and the index
of the enclosing span. Spans stay in memory and are written once, at the end
of the run. A layer's self time is its span time minus the time covered by
its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.enabled = False

    def wrap(self, fn, name):
        """Wrap fn so each call records a span; name may be a function of the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (label, start, end, parent)

        return traced

    def aggregate(self) -> dict:
        """{name: {"calls", "s", "self_s"}} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")


def _minimize_name(args, kwargs):
    options = kwargs.get("options", args[2] if len(args) > 2 else None)
    return f"solver.minimize.{options.mode if options is not None else 'full'}"


def _inverse_name(args, kwargs):
    return f"abel.inverse_abel.{kwargs.get('method', args[1] if len(args) > 1 else 'dasch3')}"


def _targets():
    """(owner, attribute, span name) for every traced call site."""
    from mixsep import abel, config, functional, lossfit, pipeline, profiles, solver

    return [
        (config, "parse_config", "config.parse_config"),
        (pipeline, "serialize_config", "config.serialize_config"),
        (profiles, "grid_for_scenario", "profiles.grid_for_scenario"),
        (pipeline, "grid_for_scenario", "profiles.grid_for_scenario"),
        (solver, "grid_for_scenario", "profiles.grid_for_scenario"),
        (profiles, "fermi_tf_profile", "profiles.tf_profiles"),
        (profiles, "bec_tf_profile", "profiles.tf_profiles"),
        (solver, "fermi_tf_profile", "profiles.tf_profiles"),
        (solver, "bec_tf_profile", "profiles.tf_profiles"),
        (profiles, "fra_peak_quantities", "profiles.fra_peak_quantities"),
        (pipeline, "fra_peak_quantities", "profiles.fra_peak_quantities"),
        (solver, "minimize", _minimize_name),
        (pipeline, "minimize", _minimize_name),
        (solver, "energy_terms", "functional.energy_terms"),
        (solver, "apply_hamiltonians", "functional.apply_hamiltonians"),
        (solver, "local_scale_bound", "functional.local_scale_bound"),
        (functional.KineticStencil, "apply", "functional.stencil_apply"),
        (pipeline, "omega_eff_from_ground_state", "overlap.omega_eff_from_ground_state"),
        (pipeline, "run_figure3_pipeline", "pipeline.run_figure3_pipeline"),
        (pipeline, "write_table", "pipeline.write_table"),
        (pipeline.RunManifest, "add_file", "pipeline.manifest"),
        (pipeline.RunManifest, "write", "pipeline.manifest"),
        (abel, "forward_abel", "abel.forward_abel"),
        (abel, "center_and_symmetrize", "abel.center_and_symmetrize"),
        (abel, "inverse_abel", _inverse_name),
        (lossfit, "fit_gamma", "lossfit.fit_gamma"),
        (lossfit, "fit_l3", "lossfit.fit_l3"),
        (lossfit, "smooth_l3", "lossfit.smooth_l3"),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every target with a tracing wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def collecting_states(states: list):
    """Record every GroundState the pipeline's solver calls return."""
    from mixsep import pipeline

    original = pipeline.minimize

    @functools.wraps(original)
    def collect(*args, **kwargs):
        gs = original(*args, **kwargs)
        states.append(gs)
        return gs

    pipeline.minimize = collect
    try:
        yield states
    finally:
        pipeline.minimize = original
