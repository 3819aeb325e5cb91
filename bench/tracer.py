"""Outside-in tracer for adamsbar's layers.

The tracer wraps, from the benchmark's side, every public function and
every public method (constructors included) of the modules named in
LAYERS, at every name a caller resolves: the module attribute, each
re-import into another adamsbar module, and the class attribute.
`uninstall` puts every original back.

Each wrapped call appends a span (site, start, end, parent span, job) to
flat in-memory arrays; nothing is written until the run ends.  A span's
self time is its duration minus the time its child spans cover, and a
layer's self time is the sum over its sites.  Probes read arguments and
results at a few sites to count the work metrics in layers.json; their
own time is recorded as a span of the pseudo-site "trace.probe", so it is
not charged to a layer.
"""

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("parser", "cdga", "linalg", "bar", "minimal", "relative",
          "cellmod", "cli")

# "one-shot" eliminations: a fresh matrix, reduced once
ONESHOT = ("linalg.kernel_basis", "linalg.image_basis",
           "linalg.echelon_basis", "linalg.rank", "linalg.quotient_reps",
           "linalg.quotient_basis", "linalg.cohomology")

PROBE = "trace.probe"


class Tracer:
    def __init__(self):
        self.sites = []          # site name per site id
        self.site_id = {}
        self.start = array("d")
        self.end = array("d")
        self.site = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self._patches = []       # (owner, attribute, original value)
        self._probe_site = self._site(PROBE)
        self.begin_job(-1)
        self.extra = Counter()   # probe-counted metrics
        self._probes = {
            "linalg.solve": self._probe_solve,
            "bar.BarComplex.shuffle_lin": self._probe_shuffle,
            "bar.BarComplex.slice": self._probe_slice,
            "cdga.CdgaPresentation.apply_d": self._probe_apply_d,
            "cellmod.CellModule.check": self._probe_pairs,
            "cellmod.ConnectionModule.check_flat": self._probe_pairs,
            "parser.parse_text": self._probe_parse,
        }

    # ---- wrapping ------------------------------------------------------

    def _site(self, name):
        if name not in self.site_id:
            self.site_id[name] = len(self.sites)
            self.sites.append(name)
        return self.site_id[name]

    def _wrap(self, fn, name):
        site = self._site(name)
        probe = self._probes.get(name)
        start, end, sites, parents, jobs = (
            self.start, self.end, self.site, self.parent, self.job)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(sites)
            sites.append(site)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                tracer._run_probe(probe, args, result)
            return result

        return traced

    def _run_probe(self, probe, args, result):
        t0 = time.perf_counter()
        probe(args, result)
        t1 = time.perf_counter()
        self.site.append(self._probe_site)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.start.append(t0)
        self.end.append(t1)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: sys.modules[f"adamsbar.{name}"] for name in LAYERS}
        wrapped = {}  # original function -> wrapper
        for lname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{lname}.{attr}")
                elif inspect.isclass(obj) and not issubclass(
                        obj, BaseException):
                    self._wrap_class(obj, f"{lname}.{attr}")
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("adamsbar"):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr,
                            type(obj)(self._wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_job(self, job_id):
        self.job_id = job_id
        self._job_state = {"solve": {}, "solved": set(), "shuffled": set(),
                           "slices": {}, "apply_d": set(), "algebras": {}}

    # ---- probes --------------------------------------------------------

    def _probe_solve(self, args, result):
        m, b = args[0], args[1]
        st = self._job_state
        key = st["solve"].get(id(m))
        if key is None or key[0] is not m:
            key = (m, (m.rows, m.cols, frozenset(m.entries.items())))
            st["solve"][id(m)] = key
        if key[1] in st["solved"]:
            self.extra["linalg.solve.repeats"] += 1
        st["solved"].add(key[1])
        self.extra["linalg.solve.entries"] += len(m.entries) + len(b)
        if result is None:
            self.extra["linalg.solve.inconsistent"] += 1

    def _probe_shuffle(self, args, result):
        a = frozenset(args[1].items())
        b = frozenset(args[2].items())
        seen = self._job_state["shuffled"]
        if (b, a) in seen:
            self.extra["bar.shuffle_lin.mirrors"] += 1
        seen.add((a, b))

    def _probe_slice(self, args, result):
        bar = args[0]
        max_len = args[3] if len(args) > 3 else None
        key = (id(bar), args[1], args[2], max_len)
        slices = self._job_state["slices"]
        if slices.get(key) is not bar:
            slices[key] = bar
            self.extra["bar.slice.words"] += len(result)

    def _probe_apply_d(self, args, result):
        algebra, el = args[0], args[1]
        st = self._job_state
        st["algebras"][id(algebra)] = algebra  # keeps the id unique
        key = (id(algebra), frozenset(el.items()))
        if key in st["apply_d"]:
            self.extra["cdga.apply_d.repeats"] += 1
        st["apply_d"].add(key)

    def _probe_pairs(self, args, result):
        self.extra["cellmod.check.pairs"] += len(args[0].basis) ** 2

    def _probe_parse(self, args, result):
        self.extra["parser.bytes"] += len(args[0].encode("utf-8"))

    # ---- results -------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of everything traced so far."""
        n = len(self.site)
        layer_of = [s.split(".", 1)[0] for s in self.sites]
        child = [0.0] * n
        start, end, parent, site = self.start, self.end, self.parent, self.site
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            layer = layer_of[site[i]]
            if layer in self_s:
                self_s[layer] += end[i] - start[i] - child[i]
        calls = Counter({self.sites[s]: k for s, k in Counter(site).items()})
        oneshot = {self.site_id.get(s) for s in ONESHOT} - {None}
        res_site = self.site_id.get("cellmod.cell_resolution")
        quot_site = self.site_id.get("linalg.quotient_basis")
        oneshot_calls = rounds = 0
        for i in range(n):
            s = site[i]
            if s in oneshot:
                p = parent[i]
                if p < 0 or layer_of[site[p]] != "linalg":
                    oneshot_calls += 1
                if s == quot_site and p >= 0 and site[p] == res_site:
                    rounds += 1
        total = sum(self_s.values()) or 1.0
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.self_share"] = self_s[layer] / total
        solves = calls["linalg.solve"]
        shuffles = calls["bar.BarComplex.shuffle_lin"]
        apply_d = calls["cdga.CdgaPresentation.apply_d"]
        x = self.extra
        out.update({
            "linalg.solve.calls": solves,
            "linalg.solve.repeat_share": _share(x["linalg.solve.repeats"],
                                                solves),
            "linalg.solve.entries": x["linalg.solve.entries"],
            "linalg.solve.inconsistent": x["linalg.solve.inconsistent"],
            "linalg.oneshot.calls": oneshot_calls,
            "bar.classify.calls": calls["bar.HopfPresentation.classify"],
            "bar.shuffle_lin.calls": shuffles,
            "bar.shuffle_lin.mirror_share": _share(
                x["bar.shuffle_lin.mirrors"], shuffles),
            "bar.slice.words": x["bar.slice.words"],
            "cdga.multiply.calls": calls["cdga.CdgaPresentation.multiply"],
            "cdga.apply_d.calls": apply_d,
            "cdga.apply_d.repeat_share": _share(x["cdga.apply_d.repeats"],
                                                apply_d),
            "cdga.basis_slice.calls":
                calls["cdga.CdgaPresentation.basis_slice"],
            "minimal.to_coords.calls": calls["minimal.IdealComplex.to_coords"],
            "minimal.cohomology.calls":
                calls["minimal.IdealComplex.cohomology"],
            "relative.d_lin.calls": calls["relative.DeltaApprox.d_lin"],
            "cellmod.check.pairs": x["cellmod.check.pairs"],
            "cellmod.cell_resolution.rounds": rounds,
            "parser.bytes": x["parser.bytes"],
        })
        return out

    def dump(self, path):
        """Write the spans: a header line of site names, then the raw
        start, end, site, parent and job arrays."""
        with open(path, "wb") as fh:
            fh.write((" ".join(self.sites) + "\n").encode())
            fh.write(f"{len(self.site)}\n".encode())
            for arr in (self.start, self.end, self.site, self.parent,
                        self.job):
                arr.tofile(fh)


def _share(part, whole):
    return part / whole if whole else 0.0
