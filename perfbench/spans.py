"""In-process tracing of `segflow.cli.main` from outside the program.

`install` wraps every public function defined in a segflow module and
rebinds every reference to it in every segflow module, so names imported
with `from .x import f` are traced too.  Each call records a span (name,
start, end, parent span, command id) and, for a few functions, counts
taken from their arguments and results.  `uninstall` restores the
original bindings.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("ingest", "metrics", "network", "segregation", "models", "stats",
          "synth", "cli")
FLOAT_BYTES = 8


@dataclass
class Span:
    name: str
    command: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.command = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrapping

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(name, self.command, parent, time.perf_counter())
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap and rebind; returns the traced function names."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"segflow.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in [m for n, m in sys.modules.items()
                       if n == "segflow" or n.startswith("segflow.")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))
        return sorted(f"{obj.__module__.split('.')[-1]}.{obj.__name__}" for obj in wrappers)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------------- summaries

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_self_time(self, layer: str, command: str | None = None) -> float:
        return sum(s.self_s for s in self.spans if s.name.split(".")[0] == layer
                   and (command is None or s.command == command))


# Counters taken at the layer boundary, from argument and result sizes.
# Byte counts are computed (elements x 8), not measured.

def _rows(tracer, args, result):
    tracer.counts["ingest.file_parses"] += 1
    tracer.counts["ingest.purchase_rows"] += len(result)


def _parse(tracer, args, result):
    tracer.counts["ingest.file_parses"] += 1


def _filter(tracer, args, result):
    tracer.counts["ingest.purchases_in"] += len(args["events"])
    tracer.counts["ingest.purchases_kept"] += len(result)


def _network(tracer, args, result):
    nnz = int((result.W != 0).sum())
    tracer.values[f"network.{result.channel}_nnz"].add(nnz)
    tracer.values[f"network.{result.channel}_cells"].add(result.W.size)


def _mixing(tracer, args, result):
    tracer.counts["segregation.dense_bytes_read"] += args["W"].size * FLOAT_BYTES


def _sweep(tracer, args, result):
    tracer.counts["segregation.invalid_steps"] += sum(not s.valid for s in result)


def _gravity(tracer, args, result):
    tracer.counts["models.gravity_pairs"] += result.n_pairs
    grid = args["eps_grid"]
    tracer.counts["models.gravity_eps_solves"] += (
        1 if args["linear_distance"] else len(grid) if grid is not None else 0)


def _null(tracer, args, result):
    tracer.counts["models.null_replicates"] += args["replicates"]
    tracer.counts["models.null_discarded"] += result.discarded


def _reshuffle(tracer, args, result):
    tracer.counts["models.reshuffle_replicates"] += len(result)
    held = sum(rep.W.size for rep in result) * FLOAT_BYTES
    tracer.counts["models.reshuffle_bytes_held"] = max(
        tracer.counts["models.reshuffle_bytes_held"], held)


def _jackknife(tracer, args, result):
    tracer.counts["stats.jackknife_replicates"] += args["replicates"]
    tracer.counts["stats.jackknife_discarded"] += result.discarded
    tracer.counts["stats.jackknife_bytes_copied"] += (
        args["replicates"] * args["W"].size * FLOAT_BYTES)


OBSERVERS = {
    "ingest.load_purchases": _rows,
    "ingest.load_mentions": _parse,
    "ingest.load_geoposts": _parse,
    "ingest.load_geometry": _parse,
    "ingest.load_neighborhoods": _parse,
    "ingest.filter_active_customers": _filter,
    "network.build_purchase_network": _network,
    "network.build_mention_network": _network,
    "segregation.mixing_from_matrix": _mixing,
    "segregation.extremes_sweep": _sweep,
    "segregation.distance_sweep": _sweep,
    "models.fit_gravity": _gravity,
    "models.null_shuffle_ses": _null,
    "models.reshuffle_locations": _reshuffle,
    "stats.jackknife_statistic": _jackknife,
}
