"""Outside-in tracing of the library's layers.

The traced run wraps each listed public function at every module
attribute that binds it, and LinkDiagram.__init__ on the class.  A
wrapper records one span (name, start, end, parent span, operation
id), counts the call and adds its self time: its duration minus the
time its direct child spans cover.  Three wrappers also read counters
at the layer boundary.  Nothing here is installed in the untraced run.
"""

import gzip
import sys
import time

# (module, attribute path) per layer; "LinkDiagram" alone means
# construction, i.e. LinkDiagram.__init__
LAYERS = (
    ("_planar", "trace_faces"),
    ("_planar", "two_color"),
    ("diagram", "parse_pd"),
    ("diagram", "LinkDiagram"),
    ("diagram", "LinkDiagram.component_count"),
    ("twists", "reduce_assumption1"),
    ("twists", "detect_twist_regions"),
    ("twists", "collapse"),
    ("sidegraphs", "normalize_assumption2"),
    ("sidegraphs", "build_side_graphs"),
    ("sidegraphs", "connectivity_report"),
    ("criterion", "check_main"),
    ("tait", "check_tait"),
    ("tait", "build_tait"),
    ("tait", "contract"),
    ("braids", "parse_braid"),
    ("braids", "reduce_braid"),
    ("braids", "braid_to_diagram"),
    ("braids", "check_braid"),
    ("arborescent", "parse_tree"),
    ("arborescent", "generate_diagram"),
    ("arborescent", "check_arborescent"),
    ("surgery", "augment"),
    ("surgery", "plan_configurations"),
    ("surgery", "classify_borromean"),
)

COUNTERS = (
    "twists.crossings_cancelled",
    "sidegraphs.regions_merged",
    "diagram.crossings_built",
)


class Tracer:
    def __init__(self):
        # metric names start with a letter: _planar reports as planar
        self.names = [f"{m.lstrip('_')}.{a}" for m, a in LAYERS]
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []  # (name index, start, end, parent span, op id)
        self.op = -1
        self._stack = []  # [span id, child time] per open span

    def install(self, package):
        """Wrap every listed function wherever a foliar module binds it."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == package.__name__ or n.startswith(package.__name__ + ".")
        ]
        for i, (mod_name, path) in enumerate(LAYERS):
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            if mod is None:
                raise SystemExit(f"trace: module {mod_name} not found")
            if path == "LinkDiagram":
                cls = _lookup(mod, path)
                cls.__init__ = self._wrap(i, cls.__init__, _built(self))
                continue
            if "." in path:
                cls_name, meth = path.split(".")
                cls = _lookup(mod, cls_name)
                setattr(cls, meth, self._wrap(i, _lookup(cls, meth)))
                continue
            orig = _lookup(mod, path)
            post = _POST[path](self) if path in _POST else None
            wrapped = self._wrap(i, orig, post)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    def _wrap(self, index, fn, post=None):
        stack, spans, calls, self_s = (
            self._stack, self.spans, self.calls, self.self_s
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[index] += 1
            sid = len(spans)
            spans.append(None)  # reserve the id; filled in at the end
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(args, out)
                return out
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[index] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (index, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for sid, (i, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    f"{sid}\t{self.names[i]}\t{start:.9f}\t{end:.9f}"
                    f"\t{parent}\t{op}\n"
                )


def _lookup(obj, name):
    try:
        return getattr(obj, name)
    except AttributeError:
        raise SystemExit(
            f"trace: {getattr(obj, '__name__', obj)}.{name} not found"
        ) from None


def _built(tracer):
    def post(args, _):
        tracer.counters["diagram.crossings_built"] += len(args[0])
    return post


def _cancelled(tracer):
    def post(args, out):
        tracer.counters["twists.crossings_cancelled"] += len(args[0]) - len(out)
    return post


def _merged(tracer):
    def post(args, out):
        tracer.counters["sidegraphs.regions_merged"] += (
            len(args[0].vertices) - len(out[0].vertices)
        )
    return post


_POST = {
    "reduce_assumption1": _cancelled,
    "normalize_assumption2": _merged,
}
