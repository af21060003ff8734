"""Per-layer tracing of chancert from outside the package.

A layer is one of chancert's modules, plus ``kernel``: the four
``numpy.linalg`` routines under them. The tracer times calls into each
layer's public functions. It finds those functions at run time, so a
function that a later change adds or renames still counts toward its module,
and a metric of a function that no longer exists reads 0.

chancert modules bind each other's functions by name (``from .linalg import
as_matrix``), so a wrapper has to replace the function at every binding
site: in each ``chancert`` module namespace and in ``numpy.linalg``.
Classes are left alone, since replacing a class by a function would break
``isinstance``; their methods' time counts toward the calling function.

Each call records a span (name, start, end, parent span, command id) in
flat arrays. ``fold`` turns the spans into per-name totals. A span's self
time is its duration minus the part covered by its child spans. All spans
come from the main thread and nest properly, so the children of a span never
overlap and that part is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "generate", "channels", "complement", "certify", "linalg")
KERNELS = ("eigvalsh", "eigh", "svd", "pinv")


def _path_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


def _file_size(counter: str):
    """Hook adding the size of the file named by the first argument to ``counter``."""
    def hook(extra, args, kwargs, result, exc):
        extra[counter] += _path_size(args[0] if args else kwargs.get("path"))

    return hook


def _sample_outcome(extra, args, kwargs, result, exc):
    """Branch counters of one equivalence_check: discarded as fragile, or
    returned with or without a PPT primary map."""
    if exc is not None:
        extra["certify.fragile"] += type(exc).__name__ == "FragileSampleError"
        return
    predicates = getattr(result, "predicates", {})
    extra["certify.returned"] += 1
    extra["certify.phi_ppt"] += bool(getattr(predicates.get("ppt_phi"), "is_yes", False))


def _kernel_bytes(extra, args, kwargs, result, exc):
    extra["kernel.bytes_in"] += getattr(args[0] if args else None, "nbytes", 0)


# Counters taken at a boundary, by span name, after the span has ended.
HOOKS = {
    "io.save_json": _file_size("io.bytes_written"),
    "io.load_matrix": _file_size("io.bytes_read"),
    "io.file_digest": _file_size("io.bytes_read"),
    "certify.equivalence_check": _sample_outcome,
    **{f"kernel.{name}": _kernel_bytes for name in KERNELS},
}


class Tracer:
    """Installs span-recording wrappers into a loaded chancert package."""

    def __init__(self, package_name: str = "chancert"):
        self.package = package_name
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.command_id = -1
        self.clear()

    def clear(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.command = array("q")
        self.stack: list[int] = []
        self.extra: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.start)
            stack = tracer.stack
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.name.append(name_id)
            tracer.command.append(tracer.command_id)
            tracer.end.append(0.0)
            stack.append(index)
            result = error = None
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end[index] = perf()
                stack.pop()
                if hook is not None:
                    hook(tracer.extra, args, kwargs, result, error)

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer at every binding site."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        import numpy.linalg

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for kernel in KERNELS:
            fn = getattr(numpy.linalg, kernel, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(fn, f"kernel.{kernel}"))

        sites = [m for n, m in list(sys.modules.items())
                 if n == self.package or n.startswith(self.package + ".")]
        for module in sites + [numpy.linalg]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """One line per span: command, name, start and end in microseconds
        from the first span, and the parent span's line (-1 for none)."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("command\tname\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{self.command[i]}\t{self.names[self.name[i]]}\t"
                        f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\t"
                        f"{self.parent[i]}\n")

    def fold(self) -> "Totals":
        """Per-name call counts, self time and busy time of the recorded spans.

        Busy time of a name is the summed duration of its spans that are not
        nested inside a span of the same name.
        """
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = Totals()
        for i in range(n):
            label = self.names[name[i]]
            duration = end[i] - start[i]
            totals.calls[label] += 1
            totals.self_s[label] += duration - child[i]
            p = parent[i]
            while p >= 0 and name[p] != name[i]:
                p = parent[p]
            if p < 0:
                totals.busy_s[label] += duration
        totals.extra.update(self.extra)
        return totals


class Totals:
    """Summed per-name figures of one or more traced passes."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.busy_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()

    def add(self, other: "Totals") -> None:
        self.calls.update(other.calls)
        for label, value in other.self_s.items():
            self.self_s[label] += value
        for label, value in other.busy_s.items():
            self.busy_s[label] += value
        self.extra.update(other.extra)

    def counts(self) -> dict:
        """The figures that must repeat exactly between identical passes."""
        return {**self.calls, **self.extra}

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".", 1)[0] == layer)


def per_layer_metrics(totals: Totals, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics normalised by ``ops`` (samples or commands)."""
    def ms(seconds):
        return (1000.0 * seconds / ops, "ms/op")

    def per(count):
        return (count / ops, "calls/op")

    kernel_busy = sum(v for k, v in totals.busy_s.items() if k.startswith("kernel."))
    returned = totals.extra["certify.returned"]
    checked = totals.calls["certify.equivalence_check"]
    metrics = {
        "cli.self_ms": ms(totals.layer_self_s("cli")),
        "io.self_ms": ms(totals.layer_self_s("io")),
        "io.save_json.calls": per(totals.calls["io.save_json"]),
        "io.load_matrix.calls": per(totals.calls["io.load_matrix"]),
        "io.bytes_written": (totals.extra["io.bytes_written"] / ops, "B/op"),
        "io.bytes_read": (totals.extra["io.bytes_read"] / ops, "B/op"),
        "generate.self_ms": ms(totals.layer_self_s("generate")),
        "generate.random_stinespring.busy_ms": ms(totals.busy_s["generate.random_stinespring"]),
        "channels.self_ms": ms(totals.layer_self_s("channels")),
        "channels.choi_from_map_action.calls": per(totals.calls["channels.choi_from_map_action"]),
        "channels.choi_from_map_action.busy_ms":
            ms(totals.busy_s["channels.choi_from_map_action"]),
        "complement.self_ms": ms(totals.layer_self_s("complement")),
        "complement.purification_marginals.calls":
            per(totals.calls["complement.purification_marginals"]),
        "complement.rank_chain.busy_ms": ms(totals.busy_s["complement.rank_chain"]),
        "complement.complementary_pair_from_stinespring.busy_ms":
            ms(totals.busy_s["complement.complementary_pair_from_stinespring"]),
        "certify.self_ms": ms(totals.layer_self_s("certify")),
        "certify.equivalence_check.busy_ms": ms(totals.busy_s["certify.equivalence_check"]),
        "certify.ppt_branch_ratio":
            (totals.extra["certify.phi_ppt"] / returned if returned else 0.0, "ratio"),
        "certify.fragile_ratio":
            (totals.extra["certify.fragile"] / checked if checked else 0.0, "ratio"),
        "linalg.self_ms": ms(totals.layer_self_s("linalg")),
        "linalg.as_matrix.calls": per(totals.calls["linalg.as_matrix"]),
        "linalg.as_matrix.self_ms": ms(totals.self_s["linalg.as_matrix"]),
        "linalg.psd_check.calls": per(totals.calls["linalg.psd_check"]),
        "linalg.rank_decision.calls": per(totals.calls["linalg.rank_decision"]),
        "linalg.partial_trace.calls": per(totals.calls["linalg.partial_trace"]),
        "kernel.calls": per(totals.layer_calls("kernel")),
        "kernel.busy_ms": ms(kernel_busy),
        "kernel.bytes_in": (totals.extra["kernel.bytes_in"] / ops, "B/op"),
    }
    for kernel in KERNELS:
        metrics[f"kernel.{kernel}.calls"] = per(totals.calls[f"kernel.{kernel}"])
    return metrics
