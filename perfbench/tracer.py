"""Span tracer that wraps kinderlab's public functions from the outside.

`Tracer.install` replaces each traced function at every module attribute
and class attribute that binds it (several modules import functions by
name, e.g. `genericity.np_rank`), and `Tracer.restore` puts the originals
back. Each call records one span: name, parent span, job id, start, end.
Spans live in flat in-memory arrays and are written out once, at the end.

Only calls made while `recording` is true produce spans; the harness turns
it off while it prepares inputs and checks outputs.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# "<module>.<qualname>" of each traced function, also its metric prefix
TRACED = (
    "gf.make_field",
    "linalg.np_rank",
    "linalg.rref",
    "linalg.rank_nullspace",
    "linalg.Matrix.mul",
    "bimap.hom_dim",
    "bimap.MatrixSystem.random",
    "bimap.hom_space",
    "genericity.estimate",
    "genericity.exhaustive_mode",
    "smallgrp.all_subgroups",
    "smallgrp.SmallGroup.__init__",
    "smallgrp.SmallGroup.closure_idx",
    "smallgrp.SmallGroup.fingerprint",
    "smallgrp.SmallGroup.generating_set",
    "smallgrp.find_isomorphism",
    "smallgrp.iso_classes",
    "nursery.make_nursery",
    "nursery.Kind.group",
    "nursery.census",
    "nursery.reconstruct",
    "altcodes.subgroup_from_code",
    "altcodes.hamming_recover",
    "twisted.suzuki_search",
    "twisted.suzuki_verify",
    "twisted.b2_build",
    "twisted.b2_labels",
)


def _np_rank_cells(args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    rows = len(mat)
    return rows * len(mat[0]) if rows else 0


# per-call quantities, summed per function: np_rank cells (rows * cols),
# subgroups returned, isomorphisms found
MEASURES = {
    "linalg.np_rank": _np_rank_cells,
    "smallgrp.all_subgroups": lambda args, kwargs, result: len(result),
    "smallgrp.find_isomorphism": lambda args, kwargs, result: result is not None,
}


def metric_names():
    """Every per-layer metric name with its unit and direction."""
    out = []
    for name in TRACED:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out.append(("linalg.np_rank.cells", "count", "lower"))
    out.append(("smallgrp.all_subgroups.yield", "ratio", "higher"))
    out.append(("smallgrp.find_isomorphism.hit_ratio", "ratio", "higher"))
    out.append(("trace.overhead_share", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.measured = {name: 0 for name in MEASURES}
        self.recording = False
        self.job_id = -1
        self._stack = [-1]
        self._patched = []

    # -- installation --------------------------------------------------

    def install(self, package):
        """Wrap every TRACED function of `package` wherever it is bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for code, name in enumerate(self.names):
            modname, *path = name.split(".")
            owner = sys.modules["%s.%s" % (package.__name__, modname)]
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, code, name)))
                continue
            wrapped = self._wrap(raw, code, name)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # module-level function: rebind it in every module that imported it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, code, name):
        measure = MEASURES.get(name)
        perf = time.perf_counter
        stack = self._stack
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            sid = len(tr.name_id)
            tr.name_id.append(code)
            tr.parent.append(stack[-1])
            tr.job.append(tr.job_id)
            tr.end.append(0.0)
            stack.append(sid)
            tr.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[sid] = perf()
                stack.pop()
            if measure is not None and tr.job_id >= 0:
                tr.measured[name] += measure(args, kwargs, result)
            return result

        return traced

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """{"setup"|"jobs": (calls, self seconds) per traced name}."""
        n = len(self.names)
        out = {"setup": ([0] * n, [0.0] * n), "jobs": ([0] * n, [0.0] * n)}
        child = [0.0] * len(self.name_id)
        for sid in range(len(self.name_id) - 1, -1, -1):
            dur = self.end[sid] - self.start[sid]
            code = self.name_id[sid]
            calls, total = out["setup" if self.job[sid] < 0 else "jobs"]
            calls[code] += 1
            total[code] += dur - child[sid]
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur
        return out

    def count_under(self, ancestor: str, name: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        want_anc = self.names.index(ancestor)
        want = self.names.index(name)
        inside = array("b", bytes(len(self.name_id)))
        count = 0
        # parents precede children in span order, so one forward pass works
        for sid in range(len(self.name_id)):
            p = self.parent[sid]
            inside[sid] = self.name_id[sid] == want_anc or (p >= 0 and inside[p])
            if self.name_id[sid] == want and p >= 0 and inside[p]:
                count += 1
        return count

    def metrics(self, rounds: int, overhead_share: float) -> dict:
        """Per-layer metrics for one set-up plus one traced round (the mean)."""
        times = self.self_times()
        (setup_calls, setup_self), (job_calls, job_self) = times["setup"], times["jobs"]
        out = {}
        for code, name in enumerate(self.names):
            out[name + ".calls"] = setup_calls[code] + job_calls[code] / rounds
            out[name + ".self_s"] = setup_self[code] + job_self[code] / rounds
        # the counts below come from job spans only
        out["linalg.np_rank.cells"] = self.measured["linalg.np_rank"] / rounds
        inner = self.count_under("smallgrp.all_subgroups", "smallgrp.SmallGroup.closure_idx")
        out["smallgrp.all_subgroups.yield"] = (
            self.measured["smallgrp.all_subgroups"] / inner if inner else 0.0)
        iso_calls = job_calls[self.names.index("smallgrp.find_isomorphism")]
        out["smallgrp.find_isomorphism.hit_ratio"] = (
            self.measured["smallgrp.find_isomorphism"] / iso_calls if iso_calls else 0.0)
        out["trace.overhead_share"] = overhead_share
        return out

    def top_job_layer(self) -> str:
        """The traced function with the largest self time inside jobs."""
        _, job_self = self.self_times()["jobs"]
        return self.names[max(range(len(self.names)), key=job_self.__getitem__)]

    def save(self, path):
        """Write the spans as one .npz file of parallel arrays."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
