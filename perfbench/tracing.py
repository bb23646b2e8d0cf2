"""Span wrappers installed around ordo's layers from outside the package.

Every module attribute and class attribute that binds a traced function is
replaced by a wrapper while tracing is active (`free_reduce`, for example,
is bound in both ordo.groups and ordo.orderings), and restored afterwards.
A wrapper records one span: what was called, its parent span, start and
end, and a size where one matters (letters in, refinement bits, elements
inserted).  Spans stay in memory, in flat arrays, until `collect` derives
the per-layer figures of the pass from them and clears them.

Self time of a span is its duration minus that of its child spans.  A
"transparent" span (compare, cone_sign, interval) is counted but keeps no
time of its own: its duration stays with the enclosing layer.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array

# span name -> layer whose self time it accrues, or None for transparent
# spans that only count
SPANS = {
    "exactreal.sign": "exactreal.sign",
    "exactreal.floor": "exactreal.floor",
    "exactreal.interval": None,
    "orderings.flag_sign": "orderings.flag_sign",
    "orderings.dehornoy_sign": "orderings.dehornoy_sign",
    "orderings.handle_reduce": "orderings.handle_reduce",
    "orderings.cone_sign": None,
    "orderings.compare": None,
    "orderings.membership": "orderings.membership",
    "groups.free_reduce": "groups.free_reduce",
    "groups.braid_ops": "groups.braid_ops",
    "groups.lattice_ops": "groups.lattice_ops",
    "quasimorph.power_floor": "quasimorph.power_floor",
    "quasimorph.stable": "quasimorph.stable",
    "dynamics": "dynamics",
    "dynamics.realize": "dynamics",
    "dynamics.ball_enumeration": "dynamics",
    "cohmaps": "cohmaps",
    "convexity": "convexity",
    "linalg": "linalg",
    "cli.main": "cli.main",
}
NAMES = list(SPANS)
LAYERS = sorted({layer for layer in SPANS.values() if layer})


def _size_of(name, args, kwargs, result):
    """The span's size: letters in, refinement bits, or elements inserted."""
    if name == "groups.free_reduce":
        return len(args[0])
    if name == "exactreal.interval":
        return args[1] if len(args) > 1 else kwargs["bits"]
    if name == "dynamics.realize":
        return len(args[1])
    if name == "dynamics.ball_enumeration" and result is not None:
        return len(result)
    return 0


class Tracer:
    def __init__(self):
        self.targets = self._targets()
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.stack: list[int] = []

    # -- what gets wrapped ----------------------------------------------------

    @staticmethod
    def _public_members(module):
        """Public functions defined in a module, and public methods of its classes."""
        funcs, methods = [], []
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                funcs.append(obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, staticmethod):
                        methods.append((obj, attr))
        return funcs, methods

    def _targets(self):
        """(span name, functions to rebind wherever bound, (class, attr) methods)."""
        m = {name: sys.modules[f"ordo.{name}"] for name in
             ("exactreal", "groups", "orderings", "quasimorph", "dynamics",
              "cohmaps", "convexity", "linalg", "cli")}
        o, g, q = m["orderings"], m["groups"], m["quasimorph"]
        real = m["exactreal"].RealConstant
        targets = [
            ("exactreal.sign", [], [(real, "sign")]),
            ("exactreal.floor", [], [(real, "floor")]),
            ("exactreal.interval", [], [(real, "interval")]),
            ("orderings.flag_sign", [], [(o.FlagOrdering, "sign")]),
            ("orderings.dehornoy_sign", [], [(o.DehornoyOrdering, "sign")]),
            ("orderings.handle_reduce", [o.handle_reduce], []),
            ("orderings.cone_sign", [o.cone_sign], []),
            ("orderings.compare", [o.compare], []),
            ("orderings.membership", [o.is_cofinal, o.is_right_invariant, o.is_dense,
                                      o.is_central_braid], []),
            ("groups.free_reduce", [g.free_reduce], []),
            ("groups.braid_ops", [], [(g.BraidWord, "__mul__"), (g.BraidWord, "__pow__"),
                                      (g.BraidWord, "inverse")]),
            ("groups.lattice_ops", [], [(g.LatticeElement, "__mul__"),
                                        (g.LatticeElement, "__pow__"),
                                        (g.LatticeElement, "inverse")]),
            ("quasimorph.power_floor", [q.power_floor], []),
            ("quasimorph.stable", [q.stable_approx, q.stable_exact, q.stable_enclosure], []),
            ("dynamics.realize", [m["dynamics"].realize], []),
            ("dynamics.ball_enumeration", [m["dynamics"].ball_enumeration], []),
            ("cli.main", [m["cli"].main], []),
        ]
        for layer in ("dynamics", "cohmaps", "convexity", "linalg"):
            funcs, methods = self._public_members(m[layer])
            taken = {f for _, fs, _ in targets for f in fs}
            targets.append((layer, [f for f in funcs if f not in taken], methods))
        return targets

    # -- install and remove ------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer.stack
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            tracer.size.append(0)
            if name == "groups.free_reduce" and not hasattr(args[0], "__len__"):
                args = (tuple(args[0]),) + args[1:]
            stack.append(idx)
            tracer.start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end[idx] = clock()
                stack.pop()
                tracer.size[idx] = _size_of(name, args, kwargs, result)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        saved = []
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "ordo" or key.startswith("ordo.")]
        try:
            for name, funcs, methods in self.targets:
                for fn in funcs:
                    wrapper = self._wrap(name, fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                saved.append((mod, attr, value))
                                setattr(mod, attr, wrapper)
                for cls, attr in methods:
                    original = vars(cls)[attr]
                    saved.append((cls, attr, original))
                    if isinstance(original, staticmethod):
                        setattr(cls, attr, staticmethod(self._wrap(name, original.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- derive the per-layer figures -----------------------------------------------

    def collect(self) -> dict:
        """Per-layer figures of the spans recorded since the last call."""
        n = len(self.start)
        names, parent, size = self.name_id, self.parent, self.size
        duration = array("d", (self.end[i] - self.start[i] for i in range(n)))
        layer_of = [SPANS[name] for name in NAMES]
        # Time parent: nearest ancestor that keeps time (transparent spans don't).
        tparent = array("i", [-1]) * n
        child_time = array("d", [0.0]) * n
        nid = {name: i for i, name in enumerate(NAMES)}
        under_pf = bytearray(n)
        under_dyn = bytearray(n)
        has_interval = bytearray(n)
        has_reduce = bytearray(n)
        calls = [0] * len(NAMES)
        self_time = {layer: 0.0 for layer in LAYERS}
        pf, realize, ball = nid["quasimorph.power_floor"], nid["dynamics.realize"], \
            nid["dynamics.ball_enumeration"]
        interval, hr, fr = nid["exactreal.interval"], nid["orderings.handle_reduce"], \
            nid["groups.free_reduce"]
        steps = 0
        peak = 0
        letters_in = 0
        max_bits = 0
        for i in range(n):
            k, p = names[i], parent[i]
            calls[k] += 1
            if p >= 0:
                tp = p if layer_of[names[p]] else tparent[p]
                under_pf[i] = under_pf[p] or names[p] == pf
                under_dyn[i] = under_dyn[p] or names[p] in (realize, ball)
                if k == interval:
                    has_interval[p] = 1
                elif k == hr:
                    has_reduce[p] = 1
                elif k == fr and names[p] == hr:
                    steps += 1
                    peak = max(peak, size[i])
            else:
                tp = -1
            tparent[i] = tp
            if layer_of[k] and tp >= 0:
                child_time[tp] += duration[i]
            if k == fr:
                letters_in += size[i]
            elif k == interval:
                max_bits = max(max_bits, size[i])
        for i in range(n):
            layer = layer_of[names[i]]
            if layer:
                self_time[layer] += duration[i] - child_time[i]

        def count(*span_names):
            return sum(calls[nid[s]] for s in span_names)

        def ratio(a, b):
            return a / b if b else 0.0

        signs = [i for i in range(n) if names[i] == nid["orderings.dehornoy_sign"]]
        refined = [i for i in range(n) if has_interval[i] and
                   names[i] in (nid["exactreal.sign"], nid["exactreal.floor"])]
        probes = sum(1 for i in range(n) if names[i] == nid["orderings.cone_sign"] and under_pf[i])
        dyn_compares = sum(1 for i in range(n)
                           if names[i] == nid["orderings.compare"] and under_dyn[i])
        inserted = sum(size[i] for i in range(n) if names[i] in (realize, ball))
        hr_calls = count("orderings.handle_reduce")
        out = {
            "exactreal.sign.calls": count("exactreal.sign"),
            "exactreal.floor.calls": count("exactreal.floor"),
            "exactreal.interval.calls": count("exactreal.interval"),
            "exactreal.interval.max_bits": max_bits,
            "exactreal.rounds_per_sign": ratio(count("exactreal.interval"), len(refined)),
            "orderings.flag_sign.calls": count("orderings.flag_sign"),
            "quasimorph.power_floor.calls": count("quasimorph.power_floor"),
            "quasimorph.power_floor.probes_per_call":
                ratio(probes, count("quasimorph.power_floor")),
            "quasimorph.stable.calls": count("quasimorph.stable"),
            "orderings.dehornoy_sign.calls": len(signs),
            "orderings.dehornoy_sign.cache_hit_ratio":
                ratio(sum(1 for i in signs if not has_reduce[i]), len(signs)),
            "orderings.handle_reduce.calls": hr_calls,
            "orderings.handle_reduce.steps": steps - hr_calls,
            "orderings.handle_reduce.steps_per_call": ratio(steps - hr_calls, hr_calls),
            "orderings.handle_reduce.peak_letters": peak,
            "groups.free_reduce.calls": count("groups.free_reduce"),
            "groups.free_reduce.letters_in": letters_in,
            "groups.braid_ops.calls": count("groups.braid_ops"),
            "orderings.compare.calls": count("orderings.compare"),
            "orderings.membership.calls": count("orderings.membership"),
            "dynamics.calls": count("dynamics", "dynamics.realize", "dynamics.ball_enumeration"),
            "dynamics.compares_per_element": ratio(dyn_compares, inserted),
            "cohmaps.calls": count("cohmaps"),
            "convexity.calls": count("convexity"),
            "linalg.calls": count("linalg"),
            "cli.main.calls": count("cli.main"),
            "spans": n,
        }
        for layer, seconds in self_time.items():
            out[f"{layer}.self_s"] = seconds
        for arr in (self.name_id, self.parent, self.start, self.end, self.size):
            del arr[:]
        return out
