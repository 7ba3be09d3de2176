"""Span recorder for the traced run.

Spans are recorded from outside the library: ``Tracer.installed()``
replaces each traced public function, in every ``ensembles`` module that
refers to it, by a wrapper that opens a span around the call, and puts the
originals back on exit.  Calls between library functions go through
module attributes, so nested calls are traced too.  A span's self time is
its duration minus the time its child spans cover, so the self times of
all spans add up to the time spent in the outermost spans, which the
benchmark opens around each op.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# module -> public functions whose calls and self time the traced run reports;
# PathConfig is traced through its constructor.
TRACED = {
    "model_core": ("PathConfig", "rescale"),
    "exact_engine": ("enumerate_states", "ensemble_messages", "marginal", "law_restricted", "exact_sample"),
    "gibbs_sampler": ("sample_paths",),
    "brownian_oracle": ("polymer_marginal", "zero_bc_extrapolate", "stationary_density"),
    "analysis": (
        "mixing_curve",
        "log_partition_slope",
        "invariance_check",
        "convergence_to_mu",
        "good_block_experiment",
        "good_blocks",
    ),
    "cli_io": ("run",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Per-name call counts and self times of nested spans, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.root_s = 0.0
        self._open: list[list[float]] = []  # child time of each open span

    @contextmanager
    def span(self, name: str):
        self._open.append([0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._open.pop()[0]
            self.calls[name] += 1
            self.self_s[name] += dur - child
            if self._open:
                self._open[-1][0] += dur
            else:
                self.root_s += dur

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call made inside an open span; calls
        outside every span (the benchmark's own checks) are not traced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in TRACED while the context is open."""
        undo = []
        try:
            for mod_name, fns in TRACED.items():
                mod = sys.modules[f"ensembles.{mod_name}"]
                for fn_name in fns:
                    orig = getattr(mod, fn_name, None)
                    if orig is None:
                        continue  # not in this version of the library: reported as 0
                    name = f"{mod_name}.{fn_name}"
                    if isinstance(orig, type):
                        init = orig.__init__
                        orig.__init__ = self.wrap(name, init)
                        undo.append((orig, "__init__", init))
                        continue
                    wrapper = self.wrap(name, orig)
                    for other in _library_modules():
                        for attr, val in list(vars(other).items()):
                            if val is orig:
                                setattr(other, attr, wrapper)
                                undo.append((other, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)


def _library_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("ensembles") and m is not None]
