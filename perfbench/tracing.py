"""In-memory spans around calls into irschain's public functions.

``Tracer.installed()`` wraps each target wherever its name is bound:
``deployment`` imports ``objective`` and ``derive_link_budget`` by name,
so patching only the defining module would miss those calls.  Spans
(name, start, end, parent) go into flat arrays and are written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

TARGETS = (
    "params.derive_link_budget",
    "params.validate",
    "metrics.objective",
    "metrics.snr_closed",
    "metrics.power_closed",
    "deployment.optimal_index",
    "deployment.scheme_middle",
    "deployment.scheme_all_pirs",
    "cli.evaluate_point",
    "channel.random_geometry",
    "channel.hop_matrices",
    "channel.full_snr",
    "channel.full_power",
    "beamforming.optimal_configuration",
)
# targets whose returned arrays are counted as computed bytes
COMPUTED_BYTES = ("channel.hop_matrices",)


class Tracer:
    def __init__(self):
        self.name_id = array("B")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.computed_bytes = dict.fromkeys(COMPUTED_BYTES, 0)
        self._stack = [-1]

    def _wrap(self, nid: int, target: str, fn):
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        count_bytes = target in self.computed_bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if count_bytes:
                self.computed_bytes[target] += sum(m.nbytes for m in result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of every target for its wrapper, then restore."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "irschain" or name.startswith("irschain.")]
        patches = []
        for nid, target in enumerate(TARGETS):
            module_name, attr = target.split(".")
            original = getattr(sys.modules["irschain." + module_name], attr)
            wrapper = self._wrap(nid, target, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, bound, original))
                        setattr(module, bound, wrapper)
        try:
            yield self
        finally:
            for module, bound, original in reversed(patches):
                setattr(module, bound, original)

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint8),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per target: (calls, self time in ns), self = span minus its children."""
        names, parent, start, end = self._arrays()
        duration = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(names))
        self_ns = duration - child
        calls = np.bincount(names, minlength=len(TARGETS))
        self_sum = np.bincount(names, weights=self_ns, minlength=len(TARGETS))
        return {t: (int(calls[i]), float(self_sum[i])) for i, t in enumerate(TARGETS)}

    def write(self, path) -> None:
        names, parent, start, end = self._arrays()
        np.savez(path, targets=np.array(TARGETS), name_id=names, parent=parent,
                 start_ns=start, end_ns=end)
