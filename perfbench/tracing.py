"""Spans around every public qcmaps function, installed from outside the package.

``Tracer.install`` wraps each public function of the layer modules and
rebinds every module attribute that refers to it, including names imported
with ``from ... import`` (``realizer.select_alpha``, ``distortion.svd_small``)
and the package re-exports.  Calls made through those attributes, from the
CLI or from inside the package, then record a span: name, start, end, parent
span and op id, plus a row count for the functions listed in ``ROWS``.

Spans stay in memory until ``save``; ``summarize`` reduces them to per-name
sums, with self time = span time minus the time of its child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time

import numpy as np

from ops import KERNELS

LAYERS = ("cli", "distortion", "realizer", "canonical_maps", "zorich", "kernels", "vecgeom")


def _lead_rows(a):
    a = np.asarray(a)
    return a.shape[0] if a.ndim >= 2 else 1


def _nbytes(obj):
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    return np.asarray(obj).nbytes


# Rows (or pairs) recorded per call, from the call's arguments.
ROWS = {f"kernels.{k}": (lambda args: _lead_rows(args[0])) for k in KERNELS}
ROWS.update({
    "realizer.eval_map_batch": lambda args: _lead_rows(args[1]),
    "realizer.mean_radius_batch": lambda args: int(np.size(args[1])),
    "realizer.hausdorff_distance": lambda args: _lead_rows(args[0]) * _lead_rows(args[1]),
})


class Tracer:
    FIELDS = ("index", "name", "start", "end", "parent", "op", "rows", "bytes")

    def __init__(self):
        self.names = []
        # One flat record of FIELDS per span, appended when the span ends;
        # "index" is the span's number in call order, which "parent" refers to.
        self.buf = array.array("d")
        self.stack = []
        self.count = 0
        self.op = -1

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def _wrap(self, name, fn):
        sid = len(self.names)
        self.names.append(name)
        rows_of = ROWS.get(name)
        is_kernel = name.startswith("kernels.")
        buf, stack, clock = self.buf, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.count
            self.count += 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                rows = rows_of(args) if rows_of else 0
                nbytes = _nbytes(args[0]) + _nbytes(out) if is_kernel and out is not None else 0
                buf.extend((idx, sid, t0, t1, parent, self.op, rows, nbytes))

        return traced

    def arrays(self):
        """Span fields as arrays, in call order."""
        a = np.frombuffer(self.buf, dtype=float).reshape(-1, len(self.FIELDS))
        a = a[np.argsort(a[:, 0])]
        out = dict(zip(self.FIELDS, a.T))
        for key in ("index", "name", "parent", "op"):
            out[key] = out[key].astype(np.int64)
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summarize(self):
        """Per-name sums over spans inside ops, plus each op's root time.

        Returns {"by_name": {name: {calls, s, self_s, rows, bytes,
        with_children, jac_rows}}, "roots": [(op id, name, s)], "spans": n}.
        A span "with_children" made at least one traced call; "jac_rows" sums
        the rows of its direct ``kernels.spiral_jac_batch`` children.
        """
        a = self.arrays()
        count = len(a["name"])
        dur = a["end"] - a["start"]
        par = a["parent"]
        has_par = par >= 0
        child_s = np.bincount(par[has_par], weights=dur[has_par], minlength=count)
        child_n = np.bincount(par[has_par], minlength=count)
        jac = has_par & (a["name"] == self.names.index("kernels.spiral_jac_batch"))
        jac_rows = np.bincount(par[jac], weights=a["rows"][jac], minlength=count)
        inside = a["op"] >= 0
        by_name = {}
        k = len(self.names)
        ids = a["name"][inside]

        def per_name(values):
            return np.bincount(ids, weights=values[inside], minlength=k)

        sums = {
            "calls": np.bincount(ids, minlength=k).astype(float),
            "s": per_name(dur),
            "self_s": per_name(dur - child_s),
            "rows": per_name(a["rows"]),
            "bytes": per_name(a["bytes"]),
            "with_children": per_name((child_n > 0).astype(float)),
            "jac_rows": per_name(jac_rows),
        }
        for i, name in enumerate(self.names):
            if sums["calls"][i]:
                by_name[name] = {key: float(v[i]) for key, v in sums.items()}
        roots = np.flatnonzero(inside & ~has_par)
        return {
            "by_name": by_name,
            "roots": [(int(a["op"][j]), self.names[a["name"][j]], float(dur[j])) for j in roots],
            "spans": int(inside.sum()),
        }
