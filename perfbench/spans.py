"""In-memory span recording around the program's layer boundaries.

A :class:`Tracer` replaces a function at the name its callers resolve
(a module global such as ``repro.core.runner.simulate_app_batched``, or
a class attribute such as ``RaplCapController.enforce``) with a wrapper
that records one span per call: layer, op class, start, end and self
time.  Self time is the span's duration minus the time its direct child
spans on the same thread cover, so the self times of every span under
an op, plus the op's own self time (``unattributed``), add up to the
op's wall time.  :meth:`Tracer.remove` puts every original object back.

The program itself is never edited: the sites below are the layer entry
points named after the package's modules.  Spans stay in memory until
the benchmark writes or aggregates them at the end.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable

#: Both processes of the service workload stamp spans with this clock,
#: so daemon spans can be matched to the client's timed window.
clock = time.monotonic

#: One hook signature for every site: called after the span closes with
#: the call's arguments and outcome; returns the op class ("" if none),
#: or (op class, amount) to attach a size to the span, and may add
#: counters to the tracer.
Hook = Callable[["Tracer", tuple, dict, object, BaseException | None], object]

#: (layer, op class, start, end, self seconds, amount)
Span = tuple[str, str, float, float, float, float]


def resolve(path: str):
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, qual = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qual.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters for one process (see module docstring)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pmt_inputs: set = set()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` wrapped so each call records a ``layer`` span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                klass, amount = "", 0
                if hook is not None:
                    klass = hook(tracer, args, kwargs, result, exc)
                    if isinstance(klass, tuple):
                        klass, amount = klass
                tracer.spans.append(
                    (layer, klass, t0, t1, t1 - t0 - children[0], amount)
                )

        return wrapper

    def op(self, fn: Callable, *args, **kwargs):
        """Run one timed operation of a workload as the root span
        ``op``; its self time is the op's unattributed time."""
        return self.timed("op", fn)(*args, **kwargs)

    def traced_op(self, sites, fn: Callable):
        """Install ``sites``, run ``fn`` as one traced op, remove them.

        PMT builds of the op whose inputs an earlier build of the same
        op already had are counted as ``core.pmt.redundant``.
        """
        self.install(sites)
        builds = self.counts["core.pmt.builds"]
        try:
            return self.op(fn)
        finally:
            self.remove()
            self.counts["core.pmt.redundant"] += (
                self.counts["core.pmt.builds"] - builds - len(self.pmt_inputs)
            )
            self.pmt_inputs.clear()

    # -- installing wrappers -------------------------------------------------

    def install(self, sites: Iterable[tuple[str, str, Hook | None]]) -> None:
        """Wrap every ``(path, layer, hook)`` site (see :func:`resolve`)."""
        for path, layer, hook in sites:
            owner, attr = resolve(path)
            original = vars(owner)[attr]
            setattr(owner, attr, self.timed(layer, original, hook))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped site to the object it held before."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._installed)


def layer_totals(
    spans: Iterable[Span], window: tuple[float, float] | None = None
) -> dict[tuple[str, str], list[float]]:
    """(layer, op class) -> [self seconds, calls, amount] over spans
    whose start lies inside ``window`` (all spans when ``None``)."""
    out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0, 0])
    for layer, klass, t0, _t1, self_s, amount in spans:
        if window is not None and not window[0] <= t0 < window[1]:
            continue
        acc = out[(layer, klass)]
        acc[0] += self_s
        acc[1] += 1
        acc[2] += amount
    return out


# -- hooks -------------------------------------------------------------------


def _pmt_hook(tracer, args, kwargs, result, exc) -> str:
    """Counts PMT builds and the distinct inputs among them: the PMT is
    a deterministic function of (kind, fleet, app), plus the test
    module, noise flag and PVT for the calibrated kinds."""
    scheme, system, app = args[:3]
    key = (scheme.pmt_kind, id(system), app.name)
    if scheme.pmt_kind in ("uniform", "calibrated"):
        key += (
            kwargs.get("test_module", 0),
            kwargs.get("noisy", True),
            id(kwargs.get("pvt")),
        )
    tracer.counts["core.pmt.builds"] += 1
    tracer.pmt_inputs.add(key)
    return ""


def _simulate_hook(tracer, args, kwargs, result, exc) -> str:
    app, rates = args[0], args[1]
    rows, ranks = rates.shape
    iters = kwargs.get("n_iters") or app.default_iters
    tracer.counts["simmpi.rows"] += rows
    tracer.counts["simmpi.rank_iters"] += rows * ranks * iters
    return ""


def _cache_get_hook(tracer, args, kwargs, result, exc) -> str:
    # A stored infeasible verdict is a hit that re-raises.
    if result is not None or exc is not None:
        tracer.counts["exec.cache.hits"] += 1
    return ""


def _request_class(op: str, payload) -> str:
    if op == "allocate":
        return "read" if len(payload.budgets_w) == 1 else "plan"
    if op in ("admit", "depart", "set-budget"):
        return "write"
    return "other"


def _reply_class(reply) -> str:
    allocations = getattr(reply, "allocations", None)
    if allocations is not None:
        return "read" if len(allocations) == 1 else "plan"
    return "write" if hasattr(reply, "active_modules") else "other"


def _decode_hook(tracer, args, kwargs, result, exc) -> str:
    return _request_class(*result) if result is not None else "other"


def _encode_hook(tracer, args, kwargs, result, exc) -> tuple[str, int]:
    reply = args[1] if len(args) > 1 else None
    return _reply_class(reply), len(result) if result is not None else 0


def _handle_hook(tracer, args, kwargs, result, exc) -> str:
    return _request_class(args[1], args[2])


def _allocate_hook(tracer, args, kwargs, result, exc) -> str:
    return _request_class("allocate", args[1])


def _write_hook(tracer, args, kwargs, result, exc) -> str:
    return "write"


def _client_encode_hook(tracer, args, kwargs, result, exc) -> str:
    return _request_class(args[0], args[1])


def _client_decode_hook(tracer, args, kwargs, result, exc) -> str:
    return _reply_class(result)


#: Batch-path layer entry points, at the names the fleet point and the
#: experiment engine resolve.
BATCH_SITES: tuple[tuple[str, str, Hook | None], ...] = (
    ("repro.experiments.fleet:build_system", "cluster.build", None),
    ("repro.exec.engine:build_system", "cluster.build", None),
    ("repro.exec.engine:generate_pvt", "core.pvt.generate", None),
    ("repro.core.schemes:Scheme.build_pmt", "core.pmt.build", _pmt_hook),
    ("repro.core.schemes:solve_alpha_batched", "core.budget.solve", None),
    ("repro.control.rapl_cap:RaplCapController.enforce", "control.enforce", None),
    (
        "repro.hardware.module:ModuleArray.total_module_power_w",
        "hardware.fleet_power",
        None,
    ),
    ("repro.core.runner:simulate_app_batched", "simmpi.simulate", _simulate_hook),
    ("repro.exec.engine:_run_group", "exec.engine.group", None),
    ("repro.exec.cache:ResultCache.get", "exec.cache.get", _cache_get_hook),
    ("repro.exec.cache:ResultCache.put", "exec.cache.put", None),
    ("repro.exec.cache:ResultCache.put_infeasible", "exec.cache.put", None),
)

#: Daemon-side sites: the wire codec on the event loop, the dispatch on
#: the worker thread, and the engine calls beneath it.
_SERVICE = "repro.service.engine:AllocationService"
DAEMON_SITES: tuple[tuple[str, str, Hook | None], ...] = (
    ("repro.service.daemon:decode_request", "service.api.decode", _decode_hook),
    ("repro.service.daemon:encode_reply", "service.api.encode", _encode_hook),
    (
        "repro.service.daemon:ServiceDaemon._handle",
        "service.daemon.handle",
        _handle_hook,
    ),
    (f"{_SERVICE}.allocate", "service.engine.allocate", _allocate_hook),
    (f"{_SERVICE}.admit", "service.engine.membership", _write_hook),
    (f"{_SERVICE}.depart", "service.engine.membership", _write_hook),
    (f"{_SERVICE}.set_budget", "service.engine.membership", _write_hook),
    ("repro.service.engine:solve_alpha_batched", "core.budget.solve", _write_hook),
    ("repro.service.engine:build_system", "cluster.build", None),
    ("repro.service.engine:generate_pvt", "core.pvt.generate", None),
    ("repro.core.schemes:Scheme.build_pmt", "core.pmt.build", _pmt_hook),
)

#: Client-side codec, called by the load generator through the module.
CLIENT_SITES: tuple[tuple[str, str, Hook | None], ...] = (
    ("repro.service.api:encode_request", "service.client.encode", _client_encode_hook),
    ("repro.service.api:decode_reply", "service.client.decode", _client_decode_hook),
)
