"""Outside-in tracer for the library's public callables.

`Tracer.install` wraps every public function (and public method of a
public class) defined in the traced modules and re-binds each wrapper in
every namespace of the package that holds the original, including names
brought in with ``from ... import`` and the package's re-exports.
`uninstall` restores the originals; an untraced run never installs.

Each call of a wrapped callable is a span: name, parent, start and end.
Its self time is its duration minus the time covered by its direct
children.  Aggregates (calls, total, self, raised) are kept for every
name; individual spans only for the first `SPAN_CAP` calls of each name
per reset, so hot leaves such as ``radial.float_power_step`` collapse
into counts and sums.
"""

import functools
import inspect
import itertools
import sys
import threading
import time

SPAN_CAP = 2000  # spans kept per name per reset; later calls only aggregate


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames: [name, span_id, child_seconds]
        self.stats = {}  # name -> [calls, total_s, self_s, failed]
        self.edges = {}  # (parent name, child name) -> calls
        self.counts = {}  # counter name -> value
        self.spans = []  # (span_id, parent_id, request_id, name, start, end)


class Tracer:
    """Wraps, records and restores; one instance per traced run."""

    def __init__(self, package, modules, counters):
        self.package = package
        self.modules = modules
        self.counters = counters  # traced name -> f(args, kwargs, result) -> {key: n}
        self.originals = {}  # traced name -> original callable
        self._bindings = []  # (owner, attribute, original)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self.request_id = None

    # -- installation ---------------------------------------------------

    def _targets(self):
        for short in self.modules:
            module = sys.modules[f"{self.package}.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{short}.{attr}.{meth}", obj, meth, fn
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    yield f"{short}.{attr}", None, attr, obj

    def install(self):
        wrappers = {}
        for name, cls, attr, fn in self._targets():
            wrapper = self._wrap(name, fn)
            self.originals[name] = fn
            if cls is not None:
                setattr(cls, attr, wrapper)
                self._bindings.append((cls, attr, fn))
            else:
                wrappers[id(fn)] = wrapper
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._bindings.append((module, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- recording ------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn):
        counter = self.counters.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            span_id = next(tracer._span_ids)
            frame = [name, span_id, 0.0]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                    edge = (parent[0], name)
                    st.edges[edge] = st.edges.get(edge, 0) + 1
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                agg[3] += failed
                if agg[0] <= SPAN_CAP:
                    st.spans.append(
                        (span_id, parent[1] if parent else None, tracer.request_id,
                         name, start, end)
                    )
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    st.counts[key] = st.counts.get(key, 0) + value
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- read-out -------------------------------------------------------

    def reset(self):
        with self._lock:
            for st in self._states:
                st.stats.clear()
                st.edges.clear()
                st.counts.clear()
                st.spans.clear()

    def snapshot(self):
        """Merged aggregates of every thread since the last reset."""
        stats, edges, counts, spans = {}, {}, {}, []
        with self._lock:
            for st in self._states:
                for name, (calls, total, own, failed) in st.stats.items():
                    agg = stats.setdefault(name, [0, 0.0, 0.0, 0])
                    agg[0] += calls
                    agg[1] += total
                    agg[2] += own
                    agg[3] += failed
                for edge, calls in st.edges.items():
                    edges[edge] = edges.get(edge, 0) + calls
                for key, value in st.counts.items():
                    counts[key] = counts.get(key, 0) + value
                spans.extend(st.spans)
        return {"stats": stats, "edges": edges, "counts": counts, "spans": spans}
