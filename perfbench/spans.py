"""Spans around calls into qstrange, recorded from outside the package.

A Tracer wraps public functions and methods; each call records one span
(name, parent span, item, start, end) in compact arrays.  Self time is a
span's duration minus the part of it covered by its child spans.  Nothing
here edits qstrange: wrappers replace attributes at run time only, in the
defining module and in every qstrange module that imported the same object
by name.
"""

import functools
import importlib
import sys
import time
from array import array

# (span name, module, attribute path).  Several targets may share one span
# name; they are then reported as one layer.
TARGETS = (
    ("exactpoly.exact_div", "qstrange.exactpoly", "exact_div"),
    ("exactpoly.mul", "qstrange.exactpoly", "IntPoly.__mul__"),
    ("exactpoly.mul", "qstrange.exactpoly", "IntPoly.__rmul__"),
    ("exactpoly.mul", "qstrange.exactpoly", "RatPoly.__mul__"),
    ("exactpoly.mul", "qstrange.exactpoly", "RatPoly.__rmul__"),
    ("exactpoly.pochhammer", "qstrange.exactpoly", "pochhammer"),
    ("qfamilies.partial_sum", "qstrange.qfamilies", "partial_sum"),
    ("qfamilies.coefficient_polys", "qstrange.qfamilies",
     "FamilySpec.coefficient_polys"),
    ("dissection.verify_theorem", "qstrange.dissection", "verify_theorem"),
    ("dissection.dissect", "qstrange.dissection", "dissect"),
    ("dissection.residue_set", "qstrange.dissection", "residue_set"),
    ("cyclofield.eval_at_root", "qstrange.cyclofield", "eval_at_root"),
) + tuple(
    ("cyclofield.ops", "qstrange.cyclofield", "CycloNum." + op)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__pow__", "scale")
) + (
    ("partialtheta.twisted_sequence", "qstrange.partialtheta",
     "twisted_sequence"),
    ("partialtheta.l_value", "qstrange.partialtheta", "l_value"),
    ("partialtheta.gamma_coeff", "qstrange.partialtheta", "gamma_coeff"),
    ("strangematch.expansion_coeff", "qstrange.strangematch",
     "expansion_coeff"),
    ("strangematch.match_expansion", "qstrange.strangematch",
     "match_expansion"),
    ("fishburn.verify_congruence", "qstrange.fishburn", "verify_congruence"),
    ("fishburn.scan_congruences", "qstrange.fishburn", "scan_congruences"),
    ("fishburn.xi_coeffs", "qstrange.fishburn", "xi_coeffs"),
    ("fishburn.convolve", "numpy", "convolve"),
    ("cli.run", "qstrange.cli", "run"),
)


class Tracer:
    """In-memory span store; one per process, single-threaded."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = {}  # span index -> exception type name
        self.item_id = -1
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, raised = self._stack, self.raised
        names, parents, items = self.name, self.parent, self.item
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.item_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def dump(self):
        """Plain-data copy of every span, for writing out or merging."""
        return {
            "names": list(self.names),
            "spans": [[self.name[i], self.parent[i], self.item[i],
                       self.start[i], self.end[i], self.raised.get(i)]
                      for i in range(len(self.start))],
        }


def install(tracer, targets=TARGETS):
    """Wrap every target that exists; return the span names of those missing."""
    missing, found = set(), set()
    for name, module_name, path in targets:
        try:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.add(name)
            continue
        found.add(name)
        wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        if owner is module:
            _rebind(original, wrapped)
    return sorted(missing - found)


def _rebind(original, wrapped):
    """Point every qstrange module's by-name import of original at wrapped."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qstrange"
                               or mod_name.startswith("qstrange.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def merge(dumps):
    """One dump from several, keeping each span's parent link and item."""
    names, ids, spans = [], {}, []
    for dump in dumps:
        base = len(spans)
        for nid, parent, item, start, end, raised in dump["spans"]:
            name = dump["names"][nid]
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            spans.append([ids[name], parent + base if parent >= 0 else -1,
                          item, start, end, raised])
    return {"names": names, "spans": spans}


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    spans is a list of (name, parent, item, start, end, ...) with parent an
    index into the same list or -1.
    """
    children = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[3], span[4]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[3], span[4]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def aggregate(dump):
    """Per span name: call count, summed self time and the number of calls
    that raised each exception type."""
    spans = dump["spans"]
    selfs = self_times(spans)
    out = {}
    for span, self_s in zip(spans, selfs):
        row = out.setdefault(dump["names"][span[0]],
                             {"calls": 0, "self_s": 0.0, "raised": {}})
        row["calls"] += 1
        row["self_s"] += self_s
        if span[5]:
            row["raised"][span[5]] = row["raised"].get(span[5], 0) + 1
    return out


def divisions_under(dump, division, caller):
    """(attempted, succeeded) for division spans whose parent is a caller span."""
    spans, names = dump["spans"], dump["names"]
    attempted = succeeded = 0
    for span in spans:
        if names[span[0]] == division and span[1] >= 0 \
                and names[spans[span[1]][0]] == caller:
            attempted += 1
            succeeded += span[5] is None
    return attempted, succeeded
