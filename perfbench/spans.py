"""Per-layer spans for the traced benchmark run.

The library has no instrumentation of its own, so the benchmark wraps the
public functions of each layer from outside.  A wrapper records one span
per call: its name (``layer.function``), start, end and parent (the span
that was open when it began).  Spans are folded into totals as they close,
so memory stays flat however many operations a run makes:

* a layer's self time is the sum, over its spans, of the span's duration
  minus the part of it covered by child spans;
* ``calls`` and ``inclusive_s`` are kept per span name;
* hooks add quantities measured at the same boundary (grid sizes, integer
  sizes, syllable counts, document bytes).

A hook runs with tracing paused and outside its span, and its time is
charged to neither the span nor its parent, so it lands in the
benchmark's own remainder and never in a layer's self time.

Wrappers must replace every binding of a function, not only the one in
its defining module: ``stein``, ``rotation``, ``amalgam``, ``verify``,
``serialize``, ``cli`` and the package itself bind names with
``from .maps import compose`` and the like.  `install` therefore patches
every ``plmonster`` module namespace that holds the original object.  The
kernel's implementation modules (``plmonster._core.pure`` and the compiled
twin) are left alone: the compiled kernel cannot be patched, so kernel
counts cover calls through ``plmonster._core`` on both backends alike.
"""

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "maps", "stein", "rotation", "amalgam", "serialize", "cli")


class Tracer:
    """Span totals for one process; `active` switches recording on and off."""

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = Counter()
        self.values = defaultdict(float)
        self.maxima = defaultdict(int)
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, hook=None):
        """A stand-in for ``fn`` that records a span named ``name``."""
        layer = name.split(".", 1)[0]
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            covered = [0.0]
            stack.append(covered)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if ok and hook is not None:
                    tracer.active = False
                    try:
                        hook(tracer, fn, args, kwargs, result)
                    finally:
                        tracer.active = True
                tracer.self_s[layer] += end - start - covered[0]
                tracer.inclusive_s[name] += end - start
                tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += perf_counter() - start
            return result

        return traced

    def add(self, key, amount):
        self.values[key] += amount

    def peak(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def install(self, specs):
        """Patch every binding named by ``specs`` (see `library_specs`)."""
        for name, owner, attr, hook in specs:
            if inspect.isclass(owner):
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    stand_in = property(self.wrap(name, original.fget, hook))
                else:
                    stand_in = self.wrap(name, original, hook)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, stand_in)
                continue
            original = getattr(owner, attr)
            stand_in = self.wrap(name, original, hook)
            for namespace in _library_modules():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        setattr(namespace, key, stand_in)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self):
        """Totals as plain JSON data, for a child process to hand back."""
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "values": dict(self.values),
            "maxima": dict(self.maxima),
        }

    def merge(self, data):
        for key, value in data["self_s"].items():
            self.self_s[key] += value
        for key, value in data["inclusive_s"].items():
            self.inclusive_s[key] += value
        self.calls.update(data["calls"])
        for key, value in data["values"].items():
            self.values[key] += value
        for key, value in data["maxima"].items():
            self.peak(key, value)


def _library_modules():
    for modname, module in list(sys.modules.items()):
        if module is None:
            continue
        if modname != "plmonster" and not modname.startswith("plmonster."):
            continue
        if modname.startswith("plmonster._core."):
            continue
        yield module


# ---------------------------------------------------------------------------
# hooks: quantities measured at layer boundaries


def _pair_bits(tracer, pairs):
    bits = 0
    for num, den in pairs:
        b = max(abs(num).bit_length(), den.bit_length())
        if b > bits:
            bits = b
    tracer.peak("core.int_bits_max", bits)


def _core_grid(tracer, fn, args, kwargs, result):
    xs, ys = result[0], result[1]
    tracer.add("core.grid_out_points", len(xs))
    _pair_bits(tracer, xs)
    _pair_bits(tracer, ys)


def _core_pair(tracer, fn, args, kwargs, result):
    _pair_bits(tracer, (result,))


def _core_displacement(tracer, fn, args, kwargs, result):
    _pair_bits(tracer, result)


def _depth(lam, value):
    den = value.denominator
    q = 0
    power = 1
    while power % den:
        power *= lam
        q += 1
    return q


def _stein_tuple_map(tracer, fn, args, kwargs, result):
    from fractions import Fraction
    from plmonster.maps import PLCircleMap

    bound = inspect.signature(fn).bind(*args, **kwargs)
    xs = [Fraction(x) for x in bound.arguments["xtuple"]]
    ys = [Fraction(y) for y in bound.arguments["ytuple"]]
    lam = bound.arguments["descriptor"].lam
    q = max(1, max(_depth(lam, v) for v in xs + ys))
    # interior lam**-q points of every arc, source and target together
    tracer.add("stein.grid_points", 2 * (lam**q - len(xs)))
    tracer.add("stein.out_breakpoints", len(PLCircleMap.breakpoints.fget(result.map)))


def _rotation_number(tracer, fn, args, kwargs, result):
    from plmonster.rotation import RationalRotation

    if isinstance(result, RationalRotation):
        tracer.add("rotation.iterates", result.value.denominator)
        return
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.add("rotation.iterates", bound.arguments["depth"])


def _detect(tracer, fn, args, kwargs, result):
    if result is not None:
        tracer.add("rotation.detect.hits", 1)


def _britton(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    tracer.add("amalgam.syllables_in", len(bound.arguments["syllables"]))
    tracer.add("amalgam.syllables_out", len(result))


def _text_in(tracer, fn, args, kwargs, result):
    text = args[0] if args else next(iter(kwargs.values()))
    tracer.add("serialize.bytes_in", len(text.encode("utf-8")))


def _text_out(tracer, fn, args, kwargs, result):
    tracer.add("serialize.bytes_out", len(result.encode("utf-8")))


def library_specs():
    """(span name, owner, attribute, hook) for every wrapped entry point."""
    from plmonster import _core, amalgam, cli, maps, rotation, serialize, stein

    specs = [
        ("core.compose", _core, "compose", _core_grid),
        ("core.invert", _core, "invert", _core_grid),
        ("core.canon_grid", _core, "canon_grid", _core_grid),
        ("core.eval_lift", _core, "eval_lift", _core_pair),
        ("core.displacement", _core, "displacement", _core_displacement),
    ]
    for fn in ("compose", "invert", "power", "evaluate_circle", "evaluate_line",
               "displacement_interval", "rotation_map"):
        specs.append(("maps." + fn, maps, fn, None))
    specs += [
        ("maps.circle_init", maps.PLCircleMap, "__init__", None),
        ("maps.views.breakpoints", maps.PLCircleMap, "breakpoints", None),
        ("maps.views.images", maps.PLCircleMap, "images", None),
        ("maps.views.segment_slopes", maps.PLCircleMap, "segment_slopes", None),
        ("maps.views.graph_vertices", maps.PLLineMap, "graph_vertices", None),
        ("stein.tuple_map_report", stein, "tuple_map_report", _stein_tuple_map),
        ("stein.tuple_map", stein, "tuple_map", None),
        ("stein.is_member", stein, "is_member", None),
        ("stein.random_member", stein, "random_member", None),
        ("stein.random_tuple_pair", stein, "random_tuple_pair", None),
        ("stein.torsion_rotation", stein, "torsion_rotation", None),
        ("rotation.rotation_number", rotation, "rotation_number", _rotation_number),
        ("rotation.rational_rotation_test", rotation, "rational_rotation_test", None),
        ("rotation.translation_bracket", rotation, "translation_bracket", None),
        ("rotation.log_ratio_bounds", rotation, "log_ratio_bounds", None),
        ("rotation.is_translation", rotation, "is_translation", None),
        ("rotation.is_power_of", rotation, "is_power_of", None),
        ("rotation.detector_init", rotation.PowerDetector, "__init__", None),
        ("rotation.detect", rotation.PowerDetector, "detect", _detect),
        ("amalgam.britton", amalgam, "britton_reduce", _britton),
        ("amalgam.random_word", amalgam, "random_word", None),
        ("amalgam.relator_word", amalgam, "relator_word", None),
        ("amalgam.words_equal", amalgam, "words_equal", None),
        ("amalgam.context_init", amalgam.AmalgamContext, "__init__", None),
        ("amalgam.word_init", amalgam.AmalgamWord, "__init__", None),
        ("amalgam.reduce", amalgam.AmalgamWord, "reduce", None),
        ("amalgam.is_trivial", amalgam.AmalgamWord, "is_trivial", None),
        ("amalgam.multiply", amalgam.AmalgamWord, "multiply", None),
        ("amalgam.invert_word", amalgam.AmalgamWord, "invert_word", None),
        ("amalgam.project_to_g1", amalgam.AmalgamWord, "project_to_g1", None),
        ("serialize.parse_map", serialize, "parse_map", _text_in),
        ("serialize.parse_word", serialize, "parse_word", _text_in),
        ("serialize.format_map", serialize, "format_map", _text_out),
        ("serialize.format_word", serialize, "format_word", _text_out),
        ("serialize.map_from_document", serialize, "map_from_document", None),
        ("serialize.word_from_document", serialize, "word_from_document", None),
        ("serialize.map_to_document", serialize, "map_to_document", None),
        ("serialize.word_to_document", serialize, "word_to_document", None),
        ("serialize.document_descriptor", serialize, "document_descriptor", None),
        ("cli.main", cli, "main", None),
    ]
    return specs


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s):
    """Every per-layer metric, by name, from one process's merged totals.

    ``wall_s`` is the traced wall time; ``bench.self_s`` is what the layer
    self times and the child-process overheads leave of it, so the parts
    add up to the whole.
    """
    c = tracer.calls
    v = tracer.values
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = tracer.self_s[layer]
    for fn in ("compose", "invert", "canon_grid", "eval_lift", "displacement"):
        out["core.%s.calls" % fn] = c["core." + fn]
    out["core.grid_out_points"] = v["core.grid_out_points"]
    out["core.int_bits_max"] = tracer.maxima["core.int_bits_max"]
    for fn in ("compose", "invert", "power"):
        out["maps.%s.calls" % fn] = c["maps." + fn]
    out["maps.circle_init.calls"] = c["maps.circle_init"]
    out["maps.views.calls"] = sum(n for k, n in c.items() if k.startswith("maps.views."))
    # every tuple map, through tuple_map or not, is built by tuple_map_report
    out["stein.tuple_map.calls"] = c["stein.tuple_map_report"]
    out["stein.is_member.calls"] = c["stein.is_member"]
    out["stein.grid_points"] = v["stein.grid_points"]
    out["stein.useful_ratio"] = _ratio(v["stein.out_breakpoints"], v["stein.grid_points"])
    out["rotation.rotation_number.calls"] = c["rotation.rotation_number"]
    out["rotation.iterates"] = v["rotation.iterates"]
    out["rotation.detect.calls"] = c["rotation.detect"]
    out["rotation.detect.hit_ratio"] = _ratio(v["rotation.detect.hits"], c["rotation.detect"])
    out["rotation.detector_init.calls"] = c["rotation.detector_init"]
    out["amalgam.britton.calls"] = c["amalgam.britton"]
    out["amalgam.syllables_in"] = v["amalgam.syllables_in"]
    out["amalgam.syllables_out"] = v["amalgam.syllables_out"]
    out["amalgam.context_init.calls"] = c["amalgam.context_init"]
    out["amalgam.context_init_s"] = tracer.inclusive_s["amalgam.context_init"]
    out["serialize.parse.calls"] = c["serialize.parse_map"] + c["serialize.parse_word"]
    out["serialize.format.calls"] = c["serialize.format_map"] + c["serialize.format_word"]
    out["serialize.bytes_in"] = v["serialize.bytes_in"]
    out["serialize.bytes_out"] = v["serialize.bytes_out"]
    out["cli.spawn_s"] = v["cli.spawn_s"]
    out["cli.import_s"] = v["cli.import_s"]
    out["cli.handler_s"] = tracer.inclusive_s["cli.main"]
    accounted = sum(out[layer + ".self_s"] for layer in LAYERS)
    accounted += out["cli.spawn_s"] + out["cli.import_s"]
    out["bench.self_s"] = wall_s - accounted
    out["trace.wall_s"] = wall_s
    return out
