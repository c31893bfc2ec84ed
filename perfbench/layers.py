"""Outside-in per-layer trace: wrap each layer's public functions, then unwrap.

The program carries no wall-clock instrumentation of its own, so the
benchmark measures each layer from the outside.  :class:`LayerTrace`
replaces a layer's public function, wherever a ``repro`` module has bound
it, with a wrapper that records per call:

* ``calls`` and ``items`` (the size of the argument that holds the work);
* ``busy_s``: ``time.thread_time()`` spent inside the call on the calling
  thread;
* ``wall_s``: ``time.perf_counter()`` spent inside the call;
* ``wait_s``: wall minus busy, which under the ``threads`` runtime is
  mostly interpreter-lock and barrier waiting.

Only the outermost call of a layer on a thread is recorded, so a codec
that delegates to another codec is not counted twice.  Leaving the
``with`` block restores every original binding; :func:`leftover_wrappers`
proves that nothing stayed wrapped.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.comm import codecs
from repro.graphs.graph import Graph
from repro.mpsim.communicator import Communicator

#: Marker attribute set on every wrapper this module creates.
WRAPPED = "__perfbench_layer__"

#: (module, attribute, layer) for plain functions.  The function is
#: rebound in every loaded ``repro`` module that imported it by name.
FUNCTIONS = (
    ("repro.graphs.rmat", "rmat_edges", "graphs.generate"),
    ("repro.core.bfs2d", "build_2d_blocks", "core.build_2d_blocks"),
    ("repro.core.validate", "validate_bfs", "core.validate"),
    ("repro.core.serial", "bfs_serial", "core.serial_oracle"),
    ("repro.core.validate", "count_traversed_edges", "core.count_edges"),
    ("repro.mpsim.engine", "run_spmd", "runtime.spmd"),
    ("repro.query.driver", "run_query", "query.run_query"),
) + tuple(("repro.kernels", name, f"kernels.{name}") for name in kernels.KERNELS)

#: Index of the argument whose size counts as a kernel's work items.
#: Every other kernel takes its work as the first argument.
ITEMS_ARG = {"scatter_reduce": 1}

#: Communicator collectives measured as ``mpsim.<name>``.
COLLECTIVES = ("alltoallv", "allgatherv", "allreduce")

#: Codec methods measured as ``comm.encode`` / ``comm.decode``.
CODEC_METHODS = {
    "encode_pairs": "comm.encode",
    "encode_set": "comm.encode",
    "decode_pairs": "comm.decode",
    "decode_set": "comm.decode",
}


@dataclass
class LayerStats:
    calls: int = 0
    items: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0

    @property
    def wait_s(self) -> float:
        return max(self.wall_s - self.busy_s, 0.0)


def _repro_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _codec_classes():
    return [
        cls
        for cls in vars(codecs).values()
        if isinstance(cls, type) and issubclass(cls, codecs.Codec)
    ]


def leftover_wrappers() -> list[str]:
    """Every ``repro`` binding that is still a wrapper of this module."""
    found = []
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if hasattr(value, WRAPPED):
                found.append(f"{mod.__name__}.{name}")
    for cls in [Graph, Communicator, *_codec_classes()]:
        for name, value in vars(cls).items():
            if hasattr(getattr(value, "__func__", value), WRAPPED):
                found.append(f"{cls.__qualname__}.{name}")
    return found


class LayerTrace:
    """Context manager that records per-layer work while it is active."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._lock = threading.Lock()
        self._active = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())

    def _wrap(self, fn, layer: str, items_arg: int | None):
        active = self._active
        lock = self._lock
        stats = self.stats.setdefault(layer, LayerStats())

        def wrapper(*args, **kwargs):
            if getattr(active, layer, False):
                return fn(*args, **kwargs)
            setattr(active, layer, True)
            busy0, wall0 = time.thread_time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - wall0
                busy = time.thread_time() - busy0
                setattr(active, layer, False)
                items = (
                    int(np.size(args[items_arg]))
                    if items_arg is not None and len(args) > items_arg
                    else 0
                )
                with lock:
                    stats.calls += 1
                    stats.items += items
                    stats.busy_s += busy
                    stats.wall_s += wall

        setattr(wrapper, WRAPPED, layer)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerTrace":
        try:
            modules = _repro_modules()
            for module_name, attr, layer in FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                kernel = layer.removeprefix("kernels.")
                items_arg = ITEMS_ARG.get(kernel, 0) if layer.startswith("kernels.") else None
                wrapper = self._wrap(original, layer, items_arg)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
            construct = vars(Graph)["from_edges"].__func__
            self._patch(
                Graph, "from_edges", classmethod(self._wrap(construct, "graphs.construct", None))
            )
            for name in COLLECTIVES:
                method = vars(Communicator)[name]
                self._patch(Communicator, name, self._wrap(method, f"mpsim.{name}", None))
            for cls in _codec_classes():
                for name, layer in CODEC_METHODS.items():
                    if name in vars(cls):
                        self._patch(cls, name, self._wrap(vars(cls)[name], layer, None))
        except BaseException:
            self._unpatch()
            raise
        return self

    def _unpatch(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc) -> None:
        self._unpatch()
