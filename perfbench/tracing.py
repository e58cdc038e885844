"""Spans around geoprec's layer functions, recorded from outside the library.

The library calls its layer functions through module-global names (for
example ``geoprec.optimize`` calls ``evaluate``, ``exp_action`` and
``repolarize`` as globals of its own module).  ``Tracer.install`` rebinds
every binding of each traced function in every loaded ``geoprec`` module to a
wrapper that records a span, and ``Tracer.restore`` puts the original
objects back.  Nothing under ``src/`` is edited.

A span is ``(id, name, start, end, parent id, solve id)``.  Spans are kept in
memory and written out as JSON lines when the run ends.  Calls made while no
solve (or set-up) is open are passed through unrecorded, so the benchmark's
own correctness checks do not count towards any layer.  A speed probe that
runs inside a solve is recorded as a ``probe`` span, and its time is taken
out of every span around it.
"""

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped with spans.
TRACED = (
    ("optimize", "minimize_condition"),
    ("optimize", "minimize_cross_condition"),
    ("objective", "evaluate"),
    ("objective", "evaluate_cross"),
    ("group", "exp_action"),
    ("group", "repolarize"),
    ("group", "apply"),
    ("group", "project_to_lie"),
    ("stochastic", "estimate_gradient"),
    ("stochastic", "conjugate_gradient"),
    ("polysys", "precondition_full"),
    ("polysys", "precondition_sparse"),
    ("polysys", "change_variables"),
    ("polysys", "shuffle"),
    ("polysys", "gram_matrix"),
    ("polysys", "torus_rescale"),
    ("matrix", "as_dense"),
    ("mmio", "read_matrix"),
    ("sysio", "read_polysys"),
)

# optimize's ``_descend``, reached through minimize_condition and
# minimize_cross_condition, and the two loops polysys still carries.  The
# self time of the polysys loops also covers polynomial algebra that is not
# traced (_variable_side_form, _system_coeff_arrays, bw_inner, eigh), so it
# is reported apart from optimize's.
OPTIMIZE_LOOPS = ("optimize.minimize_condition", "optimize.minimize_cross_condition")
POLYSYS_LOOPS = ("polysys.precondition_full", "polysys.precondition_sparse")
DESCENT_LOOPS = OPTIMIZE_LOOPS + POLYSYS_LOOPS
PROBE = "probe"


class Tracer:
    """Span recorder for one traced run; create, install, run, restore."""

    def __init__(self):
        self.spans = []
        self.solve = None  # id of the open solve, or None outside solves
        self.counters = defaultdict(int)
        self.operators = []  # LinearOperators built during the open solve
        self._stack = []
        self._next = 0
        self._probes = 0
        self._bindings = []  # (owner, attribute, original object)

    # -- spans -------------------------------------------------------------

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, t0):
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, t0, t1, parent, self.solve))

    @contextlib.contextmanager
    def span(self, solve_id, name):
        """Root span around one solve (or the set-up); records while open."""
        self.solve = solve_id
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, parent, t0)
            self._collect_matvecs()
            self.solve = None

    def _wrap(self, name, fn):
        tracer = self
        on_result = self._count_cg if name == "stochastic.conjugate_gradient" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.solve is None:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, parent, t0)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def probe_ran(self, t0, t1):
        """Record a speed probe that ran from ``t0`` to ``t1``."""
        # The probe can interrupt _open or _close, so it takes no id from
        # their counter and leaves the stack alone.
        if self.solve is not None:
            self._probes += 1
            parent = self._stack[-1] if self._stack else None
            self.spans.append((-self._probes, PROBE, t0, t1, parent, self.solve))

    def _count_cg(self, res):
        self.counters["stochastic.cg_iterations"] += res.iterations
        self.counters["stochastic.cg_unconverged"] += 0 if res.converged else 1

    # -- installing and restoring ------------------------------------------

    def install(self):
        """Rebind every module-global binding of each traced function."""
        import geoprec
        from geoprec import stochastic

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "geoprec" or k.startswith("geoprec."))]
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(geoprec, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        # The operators carry their own matvec counters; register each one
        # built during a solve and read the counters when the solve ends.
        base_init = stochastic.LinearOperator.__init__

        @functools.wraps(base_init)
        def registering_init(op, *args, **kwargs):
            base_init(op, *args, **kwargs)
            if self.solve is not None:
                self.operators.append(op)

        self._bindings.append((stochastic.LinearOperator, "__init__", base_init))
        stochastic.LinearOperator.__init__ = registering_init

    def restore(self):
        """Put every original object back; returns the bindings not restored."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._bindings
                if getattr(o, "__dict__", {}).get(a) is not orig]
        self._bindings = []
        return left

    def _collect_matvecs(self):
        # Gram operators delegate to a base operator, so only operators
        # without a base count products with the matrix itself.
        for op in self.operators:
            if not hasattr(op, "base"):
                self.counters["stochastic.matvecs"] += op.matvec_count + op.rmatvec_count
        self.operators = []

    # -- output --------------------------------------------------------------

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, t0, t1, parent, solve in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "solve": solve}) + "\n")


def layer_stats(spans):
    """Per span name: calls, busy seconds and self seconds, without probes.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap their siblings, so that is
    the part of the interval no child covers.  A probe's time is taken out
    of each enclosing span as far as it overlaps it: the timer can fire
    after a span is opened but before its clock starts.
    """
    child = defaultdict(float)
    probed = defaultdict(float)
    by_id = {span[0]: span for span in spans}
    for _, name, t0, t1, parent, _ in spans:
        if name != PROBE:
            if parent is not None:
                child[parent] += t1 - t0
            continue
        first = True
        while parent is not None:
            _, _, a0, a1, up, _ = by_id[parent]
            inside = max(0.0, min(t1, a1) - max(t0, a0))
            probed[parent] += inside
            if first:
                child[parent] += inside
                first = False
            parent = up
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, name, t0, t1, _, _ in spans:
        if name == PROBE:
            continue
        s = stats[name]
        s["calls"] += 1
        s["busy_s"] += (t1 - t0) - probed[sid]
        s["self_s"] += (t1 - t0) - child[sid]
    return stats
