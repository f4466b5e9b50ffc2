"""Per-layer tracing of equichar from outside the library.

``Tracer.install`` replaces each module-level public function of the eight
layer modules, plus a short list of methods, with a wrapper that records a
span (name, start, end, parent span, query id).  The wrapper is installed in
every equichar module namespace that holds a reference to the function, so
calls between layers nest as child spans.  ``Permutation`` methods are left
alone: a single query makes about 1e5 of those calls, and their cost stays in
the self time of the calling layer.

Counters that need an argument or a result (matrix entries, subgroups
enumerated, simplices built) are computed by small hooks after the call.
Spans and counters stay in memory; ``dump`` writes them when the run ends.
"""

import importlib
import inspect
import json
import time

LAYERS = ("permgrp", "simp", "exactlin", "posets", "euler", "duality",
          "jones", "cli")

# Methods wrapped in addition to module-level functions: (module, class,
# attribute).  Missing attributes are skipped, so the tracer survives
# refactors of the library.
METHODS = (
    ("simp", "SimplicialComplex", "link"),
    ("simp", "SimplicialComplex", "chain_complex"),
    ("simp", "SimplicialComplex", "barycentric_subdivision"),
    ("simp", "SimplicialComplex", "flag_from_graph"),
    ("simp", "SimplicialComplex", "from_maximal_simplices"),
    ("simp", "GroupAction", "__init__"),
    ("simp", "GroupAction", "fixed_subcomplex"),
    ("simp", "GroupAction", "quotient_action"),
    ("permgrp", "QuotientGroup", "__init__"),
    ("posets", "FinitePoset", "order_complex"),
    ("posets", "FinitePoset", "chain_counts"),
)

# Private functions traced because a layer metric is defined on them.
PRIVATE = (("permgrp", "_close_under_products"),)

# Span names reported under a short metric name.
ALIASES = {
    "permgrp.conjugacy_classes_of_subgroups": "permgrp.conjugacy_classes",
    "permgrp.QuotientGroup.__init__": "permgrp.quotient",
    "permgrp._close_under_products": "permgrp.closure",
    "posets.FinitePoset.order_complex": "posets.order_complex",
    "posets.FinitePoset.chain_counts": "posets.chain_counts",
    "exactlin.smith_normal_form": "exactlin.snf",
    "simp.SimplicialComplex.link": "simp.link",
    "simp.SimplicialComplex.chain_complex": "simp.chain_complex",
    "simp.SimplicialComplex.flag_from_graph": "simp.flag_from_graph",
    "simp.SimplicialComplex.barycentric_subdivision": "simp.barycentric",
    "simp.GroupAction.__init__": "simp.group_action",
    "simp.GroupAction.fixed_subcomplex": "simp.fixed_subcomplex",
    "cli.load_complex": "cli.load",
    "cli.load_group": "cli.load",
}

# Span names whose calls and self time are reported.
TIMED = ("permgrp.all_subgroups", "permgrp.conjugacy_classes",
         "permgrp.normalizer", "permgrp.quotient", "permgrp.closure",
         "posets.subgroup_poset", "posets.chain_counts", "exactlin.snf",
         "exactlin.rank_mod_p", "simp.link", "simp.chain_complex",
         "simp.flag_from_graph", "simp.barycentric", "simp.group_action",
         "simp.fixed_subcomplex", "duality.cohen_macaulay",
         "jones.cyclic_extension", "cli.load")


class Tracer:
    def __init__(self):
        self.names = []        # span-name id -> metric name
        self.layer_of = []     # span-name id -> layer
        self.spans = []        # (name id, start, end, parent index, query)
        self.stack = []        # open span indices
        self.query = None
        self.counts = {}
        self.escaped = {layer: [] for layer in LAYERS}
        self.groups_enumerated = set()
        self._patches = None

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap the library in place; uninstall() restores it."""
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in reversed(self._patches or ()):
            setattr(owner, attr, old)

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for everything traced."""
        mods = {layer: importlib.import_module("equichar." + layer)
                for layer in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[fn] = "%s.%s" % (layer, attr)
        for layer, attr in PRIVATE:
            fn = getattr(mods[layer], attr, None)
            if inspect.isfunction(fn):
                originals[fn] = "%s.%s" % (layer, attr)
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        patches = []
        for mod in list(mods.values()) + [importlib.import_module("equichar")]:
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((mod, attr, value, wrappers[value]))
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            name = "%s.%s.%s" % (layer, cls_name, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            patches.append((cls, attr, raw, new))
        return patches

    def _wrap(self, fn, full_name):
        name = ALIASES.get(full_name, full_name)
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        self.layer_of.append(layer)
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((nid, 0.0, 0.0, parent, self.query))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._escaped(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, self.query)
            if hook is not None:
                try:
                    hook(self, args, result, parent)
                except Exception:  # a refactored API must not fail queries
                    self.add("hook_errors", 1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _escaped(self, layer, exc):
        seen = self.escaped[layer]
        if not any(e is exc for e in seen):
            seen.append(exc)

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def layer_at(self, index):
        """Layer of a recorded (possibly still open) span; None for -1."""
        return self.layer_of[self.spans[index][0]] if index >= 0 else None

    # ------------------------------------------------------------ reports

    def reset(self):
        """Forget spans and counters (keeps the installed wrappers)."""
        del self.spans[:]
        self.counts = {}
        self.escaped = {layer: [] for layer in LAYERS}
        self.groups_enumerated = set()

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        n = len(self.spans)
        child = [0.0] * n
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = {layer: 0.0 for layer in LAYERS}
        name_self = {}
        name_calls = {}
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[i]
            layer_self[self.layer_of[nid]] += own
            name = self.names[nid]
            name_self[name] = name_self.get(name, 0.0) + own
            name_calls[name] = name_calls.get(name, 0) + 1
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = (layer_self[layer], "s")
            out[layer + ".errors"] = (len(self.escaped[layer]), "count")
        for name in TIMED:
            out[name + ".calls"] = (name_calls.get(name, 0), "count")
            out[name + ".self_s"] = (name_self.get(name, 0.0), "s")
        c = self.counts
        calls = name_calls.get("permgrp.all_subgroups", 0)
        out.update({
            "permgrp.subgroups_enumerated": (c.get("subgroups", 0), "count"),
            "permgrp.points_max": (c.get("points_max", 0), "count"),
            "permgrp.lattice_reuse": (
                len(self.groups_enumerated) / calls if calls else 0.0, "ratio"),
            "posets.order_complex.simplices": (c.get("order_simplices", 0), "count"),
            "exactlin.snf.entries": (c.get("snf_entries", 0), "count"),
            "exactlin.snf.max_entries": (c.get("snf_max_entries", 0), "count"),
            "exactlin.rank_mod_p.entries": (c.get("rank_entries", 0), "count"),
            "exactlin.torsion_factors": (c.get("torsion", 0), "count"),
            "simp.simplices_built": (c.get("simplices_built", 0), "count"),
            "duality.links_checked": (c.get("links_checked", 0), "count"),
            "euler.coefficients": (
                name_calls.get("euler.euler_class_coefficient", 0), "count"),
            "cli.stdout_bytes": (c.get("stdout_bytes", 0), "bytes"),
            "trace.spans": (n, "count"),
            "trace.hook_errors": (c.get("hook_errors", 0), "count"),
        })
        return out

    def dump(self, path, meta):
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = self.spans
        doc["counts"] = self.counts
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------- hooks
# Each hook runs after its span closed: hook(tracer, args, result, parent).


def _group_key(g):
    return (tuple(g.group.points if hasattr(g, "group") else g.points),
            frozenset(e.key for e in g.elements))


def _points(g):
    return len(g.group.points if hasattr(g, "group") else g.points)


def _all_subgroups(tr, args, result, parent):
    g = args[0]
    tr.add("subgroups", len(result))
    tr.maximum("points_max", _points(g))
    tr.groups_enumerated.add(_group_key(g))


def _entries(m):
    return m.rows * m.cols


def _snf(tr, args, result, parent):
    e = _entries(args[0])
    tr.add("snf_entries", e)
    tr.maximum("snf_max_entries", e)
    tr.add("torsion", sum(1 for d in result[0] if d > 1))


def _rank(tr, args, result, parent):
    tr.add("rank_entries", _entries(args[0]))


def _built(tr, args, result, parent):
    """Simplices of complexes built by simp, counted once at the outermost
    simp call so nested constructions are not counted twice."""
    if tr.layer_at(parent) == "simp":
        return
    simplices = getattr(result, "simplices", None)
    if simplices is not None:
        tr.add("simplices_built", len(simplices))


def _link(tr, args, result, parent):
    _built(tr, args, result, parent)
    if tr.layer_at(parent) == "duality":
        tr.add("links_checked", 1)


def _order_complex(tr, args, result, parent):
    tr.add("order_simplices", len(result.simplices))


HOOKS = {
    "permgrp.all_subgroups": _all_subgroups,
    "exactlin.snf": _snf,
    "exactlin.rank_mod_p": _rank,
    "simp.link": _link,
    "simp.flag_from_graph": _built,
    "simp.barycentric": _built,
    "simp.complex_of_chains": _built,
    "simp.SimplicialComplex.from_maximal_simplices": _built,
    "simp.fixed_subcomplex": _built,
    "posets.order_complex": _order_complex,
}
