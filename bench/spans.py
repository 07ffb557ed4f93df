"""Outside-in tracing: wrappers on the module attributes callers go through.

A span wrapper replaces ``module.name`` for as long as the tracer is
installed. Callers that look the name up at call time (every public entry
point and every cross-module call in the package) then pass through it.
Nothing private is patched and no program file changes. A name that a later
change deletes is listed as absent instead of failing the run.

Each span adds its wall time to ``<layer>.time`` and its time minus the
time of spans opened inside it to ``<layer>.self_s``, and counts its calls
and failures in ``<layer>.calls`` and ``<layer>.failed``.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, module, name, make):
        original = getattr(module, name, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{name}")
            return
        wrapper = make(original)
        wrapper.__wrapped__ = original
        setattr(module, name, wrapper)
        self._undo.append((module, name, original))

    def span(self, module, name, layer, measure=None, measure_args=None, split=None):
        """Time every call of ``module.name`` as ``layer``.

        ``measure(result)`` and ``measure_args(args, kwargs)`` return dicts
        of counts to add, keyed by full metric name; ``split(args, kwargs)`` returns a suffix
        under which self time is also booked (for example the criterion of a
        call).
        """
        stats, stack = self.stats, self._stack

        def make(original):
            def wrapper(*args, **kwargs):
                if measure_args is not None:
                    for key, value in measure_args(args, kwargs).items():
                        stats[key] += value
                children = [0.0]
                stack.append(children)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    stats[f"{layer}.failed"] += 1
                    raise
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    own = elapsed - children[0]
                    stats[f"{layer}.calls"] += 1
                    stats[f"{layer}.time"] += elapsed
                    stats[f"{layer}.self_s"] += own
                    if split is not None:
                        stats[f"{layer}.self_s.{split(args, kwargs)}"] += own
                if measure is not None:
                    for key, value in measure(result).items():
                        stats[key] += value
                return result

            return wrapper

        self._replace(module, name, make)

    def count(self, module, name, layer):
        """Count calls of ``module.name`` without timing them."""
        stats = self.stats

        def make(original):
            def wrapper(*args, **kwargs):
                stats[f"{layer}.calls"] += 1
                return original(*args, **kwargs)

            return wrapper

        self._replace(module, name, make)

    def uninstall(self):
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()


def install(tracer: Tracer, dg) -> None:
    """Wrap every layer boundary of the package ``dg`` (a namespace with
    the modules graph, game, lp, zeroday, mitigation, evaluation, cli)."""
    def paths(result):
        return {"graph.enumerate_attack_paths.paths": len(result)}

    def cells(result):
        return {"game.build_matrix.cells": result.matrix.size}

    def input_cells(args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        size = getattr(matrix, "size", None)
        cells = int(size) if size is not None else sum(len(row) for row in matrix)
        return {"lp.solve_zero_sum.cells": cells}

    for module in (dg.game, dg.mitigation, dg.cli):
        tracer.span(module, "enumerate_attack_paths", "graph.enumerate_attack_paths", measure=paths)
    for module in (dg.zeroday, dg.mitigation):
        tracer.count(module, "augment", "graph.augment")
    # game and lp are wrapped too, for callers that go through the defining
    # module (mitigate's set-up); neither name is called inside its own module
    for module in (dg.game, dg.zeroday, dg.mitigation, dg.evaluation, dg.cli):
        tracer.span(module, "build_matrix", "game.build_matrix", measure=cells)
    for module in (dg.game, dg.mitigation):
        tracer.count(module, "reward", "game.reward")
    for module in (dg.lp, dg.zeroday, dg.mitigation, dg.evaluation, dg.cli):
        tracer.span(module, "solve_zero_sum", "lp.solve_zero_sum", measure_args=input_cells)
    tracer.span(dg.mitigation, "solve_lp", "lp.solve_lp")
    tracer.span(dg.zeroday, "scan_candidates", "zeroday.scan_candidates")
    tracer.span(
        dg.zeroday, "evaluate_candidate", "zeroday.evaluate_candidate",
        measure=lambda record: {"zeroday.new_paths": record.new_path_count},
    )
    tracer.span(
        dg.mitigation, "evaluate_mitigation", "mitigation.evaluate_mitigation",
        measure=lambda metrics: {"mitigation.outcomes": len(metrics.outcomes)},
        split=lambda args, kwargs: kwargs.get("criterion", "pessimistic"),
    )
    for name in (
        "none_mitigation", "alpha_mitigation", "lp_mitigation", "nature_game",
        "critical_point_mitigation", "random_mitigation",
    ):
        tracer.span(dg.mitigation, name, "mitigation.planners")
    tracer.span(dg.evaluation, "sweep", "evaluation.sweep")
    tracer.span(dg.evaluation, "capture_proportion", "evaluation.capture_proportion")
    tracer.span(dg.cli, "main", "cli.main")

