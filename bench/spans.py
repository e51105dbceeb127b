"""In-memory span tracer for the benchmark's traced run.

The tracer rebinds, from outside the package, every public function of each
``robustrns`` module (and the ``solve``/``estimate`` methods of the simkit
kernels) to a wrapper that records one span per call: name, start, end and
parent.  Every module that imported a function by name gets the same wrapper,
so ``cli.run_tau_sweep``, ``oracle.solve_with_context`` and
``multi_mod.mod_inverse`` are all traced.  Spans stay in flat arrays until the
run ends; self time (a span's duration minus the durations of its direct
children) is computed afterwards.  Nothing in the package is modified on disk.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("modmath", "crt_core", "two_mod", "multi_mod", "oracle", "simkit", "cli")
KERNELS = {
    "LevelKernel": "level_kernel",
    "BasicKernel": "basic_kernel",
    "GroupKernel": "group_kernel",
    "GeneralKernel": "general_kernel",
    "CascadeKernel": "cascade_kernel",
}
# Copied onto wrappers of lru_cache'd functions so callers can still use them.
_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


def _arrays(obj):
    """ndarrays inside an argument or result (lists and tuples are flattened)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def self_times(duration, parent):
    """Self time of every span: its duration minus its direct children's.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Spans of one thread nest, so children never overlap each other.
    """
    duration = np.asarray(duration, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    children = np.bincount(parent + 1, weights=duration, minlength=len(duration) + 1)
    return duration - children[1:]


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.kernel_obs: dict[str, int] = {}
        self.kernel_bytes = 0
        self.group_calls = 0
        self.group_inputs: set[bytes] = set()
        self.contexts: dict[tuple, int] = {}

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, kernel: str | None = None):
        begin, finish = self.begin, self.finish

        if name == "two_mod.level_context":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = begin(name)
                try:
                    ctx = fn(*args, **kwargs)
                finally:
                    finish(i)
                self.contexts[args] = len(getattr(ctx, "s1", ())) + len(getattr(ctx, "s2", ()))
                return ctx
        elif kernel is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(i)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if kernel == "group_kernel" and fn.__name__ == "solve":
                    self._hash_group_input(args[0], args[1:])
                i = begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    finish(i)
                self._count_kernel(name, fn.__name__, args[1:], out)
                return out

        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _hash_group_input(self, kernel, args) -> None:
        with self.span("trace.hash"):
            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(getattr(kernel, "group", None)).encode())
            for a in _arrays(args):
                digest.update(a.tobytes())
            self.group_calls += 1
            self.group_inputs.add(digest.digest())

    def _count_kernel(self, name, method, args, out) -> None:
        ins = list(_arrays(args))
        self.kernel_bytes += sum(a.nbytes for a in ins) + sum(a.nbytes for a in _arrays(out))
        if method == "solve" and ins:
            self.kernel_obs[name] = self.kernel_obs.get(name, 0) + ins[0].size

    def install(self) -> None:
        """Rebind every public function and kernel method to a traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("robustrns")
        modules = [importlib.import_module(f"robustrns.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                home = getattr(value, "__module__", "") or ""
                if attr.startswith("_") or not home.startswith("robustrns."):
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_info"):
                    if id(value) not in wrappers:
                        layer = home.split(".")[1]
                        wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{value.__name__}"))
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        simkit = importlib.import_module("robustrns.simkit")
        for cls_name, label in KERNELS.items():
            cls = getattr(simkit, cls_name, None)
            for method in ("solve", "estimate"):
                fn = None if cls is None else cls.__dict__.get(method)
                if inspect.isfunction(fn):
                    self._patches.append((cls, method, fn))
                    setattr(cls, method, self._wrap(fn, f"simkit.{label}.{method}", label))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def arrays(self):
        """(name ids, durations in ns, parents, self times in ns) as numpy arrays."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        name_id = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        duration = end - start
        return name_id, duration, parent, self_times(duration, parent)

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds for every span name."""
        name_id, duration, _, own = self.arrays()
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=duration, minlength=k)
        selft = np.bincount(name_id, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": total[i] / 1e9, "self_s": selft[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, callee: str, callers: set[str]) -> tuple[int, int]:
        """(outermost calls of any name in ``callers``, ``callee`` calls beneath them)."""
        name_id, _, parent, _ = self.arrays()
        caller_ids = {self._ids[n] for n in callers if n in self._ids}
        callee_id = self._ids.get(callee)
        owner = [-1] * len(name_id)
        roots = inner = 0
        for i, (nid, p) in enumerate(zip(name_id.tolist(), parent.tolist())):
            up = owner[p] if p >= 0 else -1
            if up < 0 and nid in caller_ids:
                owner[i] = i
                roots += 1
            else:
                owner[i] = up
                if nid == callee_id and up >= 0:
                    inner += 1
        return roots, inner

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id,name,start_ns,end_ns,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_ns,end_ns,parent\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.name_id, self.start, self.end, self.parent)):
                out.write(f"{i},{names[nid]},{s},{e},{p}\n")
