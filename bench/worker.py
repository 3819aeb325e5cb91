"""One round of a workload, in a fresh single-threaded process.

    python3 bench/worker.py --workload hopf --set 3 [--trace] [--record]

Imports adamsbar from the checkout's src/, generates input set --set,
writes its files under .bench_build/, prints "ready", then runs every
job in order, one at a time (a closed loop with one client).  Each job
is checked: its exit code, its verdict, its oracle if it has one, and
the sha256 of its canonical report against digests.json (skipped with
--record, which only reports the digests).  The last line printed is a
JSON object with per-job times and outcomes, the round's wall time and
ru_maxrss, and with --trace the per-layer metrics of tracer.py.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--set", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import adamsbar.cli  # imports every layer
    import workloads

    src = Path(adamsbar.cli.__file__).resolve()
    if not src.is_relative_to(ROOT / "src"):
        sys.exit(f"adamsbar was imported from {src}, not from src/")

    jobs, files = workloads.build(args.workload, args.set)
    expected = None
    if not args.record:
        with open(BENCH / "digests.json", encoding="utf-8") as fh:
            expected = json.load(fh)[args.workload].get(str(args.set), [])
    inputs = BUILD / "inputs" / f"{args.workload}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in files.items():
            (inputs / name).write_text(text, encoding="utf-8")
        print("ready", flush=True)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            result = run_jobs(jobs, inputs, expected, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        (BUILD / "trace").mkdir(parents=True, exist_ok=True)
        tracer.dump(BUILD / "trace" / f"{args.workload}.spans")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_jobs(jobs, inputs, expected, tracer=None):
    """Run and check every job; expected is the list of recorded report
    digests, in job order, or None to skip that check."""
    records = []
    report_bytes = stage_iterations = 0
    t_begin = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(k)
        t0 = time.perf_counter()
        try:
            if job["kind"] == "cli":
                code, report = _run_cli(job, inputs)
                seconds = time.perf_counter() - t0
                problem = _check_cli(job, code, report)
                report_bytes += len(report.encode("utf-8"))
                if job["argv"][0] == "minimal-model" and code == 0:
                    stage_iterations += sum(
                        json.loads(report)["stage_iterations"])
            else:
                raw = _run_cell(job, inputs)
                seconds = time.perf_counter() - t0
                report, ok = _describe_cell(raw)
                problem = None if ok else "check failed"
        except Exception as e:  # a job that raises counts as failed
            seconds = time.perf_counter() - t0
            report, problem = "", f"{type(e).__name__}: {e}"
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        if problem is None and expected is not None and (
                k >= len(expected) or expected[k] != digest):
            problem = "report digest differs from the recorded one"
        records.append({"id": job["id"], "seconds": seconds,
                        "digest": digest, "problem": problem})
    return {"wall_s": time.perf_counter() - t_begin, "jobs": records,
            "report_bytes": report_bytes,
            "stage_iterations": stage_iterations}


# ---- CLI jobs ----------------------------------------------------------

def _run_cli(job, inputs):
    from adamsbar import cli

    argv = [str(inputs / a[1:]) if a.startswith("@") else a
            for a in job["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return code, out.getvalue()


def _check_cli(job, code, report):
    if code != 0:
        return f"exit code {code}"
    rep = json.loads(report)
    if rep.get("verdict") != "pass":
        return f"verdict {rep.get('verdict')}"
    for key, want in (job["oracle"] or {}).items():
        if rep[key] != want:
            return f"oracle mismatch in {key}: {rep[key]} != {want}"
    return None


# ---- cell-module jobs --------------------------------------------------

RESOLUTION_WINDOW = (-1, 4, 6)  # coh_min, coh_max, adams_max


def _run_cell(job, inputs):
    """The program's work for a cell job: parse, bind, compute, check."""
    from adamsbar import cellmod, parser

    _, A = parser.parse_file(str(inputs / "e3.cdga"))
    modules = [parser.bind_cell(parser.parse_file(str(inputs / f))[1], A)
               for f in job["files"]]
    M, N = modules[0], modules[-1]
    op = job["op"]
    if op == "hom_group":
        return {"dim": cellmod.hom_group(M, N)}
    if op in ("hom_check", "tensor_check"):
        build = cellmod.hom_complex if op == "hom_check" else \
            cellmod.tensor_mod
        H = build(M, N)
        return {"module": H, "check": H.check()[0]}
    if op == "connection_flat":
        C = cellmod.to_connection(M)
        return {"connection": C, "check": C.check_flat()[0]}
    if op == "t_truncate":
        n = M.basis[-1][1]
        low, high, hn = cellmod.t_truncate(M, n)
        return {"n": n, "low": low, "high": high, "h": hn}
    if op == "cell_resolution":
        P, phi, cert = cellmod.cell_resolution(_dg_module(M),
                                               *RESOLUTION_WINDOW)
        return {"module": P, "phi": phi, "certificate": cert,
                "check": all(cert.values())}
    raise ValueError(f"unknown cell op {op!r}")


def _dg_module(M):
    """The finite-dimensional dg module underlying a cell module over a
    finite-dimensional algebra, as slice matrices."""
    from adamsbar.cdga import el_gen
    from adamsbar.cellmod import FiniteDgModule

    A = M.algebra
    wt_max = max(a for (_, _, a) in M.basis) + sum(
        g.adams for g in A.generators)
    deg_lo = min(c for (_, c, _) in M.basis)
    deg_hi = max(c for (_, c, _) in M.basis) + sum(
        abs(g.coh) for g in A.generators) + 1
    pairs = []
    for r in range(wt_max + 1):
        for n in range(deg_lo, deg_hi + 1):
            pairs.extend(M.slice_basis(n, r))
    index = {p: i for i, p in enumerate(pairs)}
    basis = []
    for mono, j in pairs:
        name, cj, aj = M.basis[j]
        mn, ma = A.mono_bidegree(mono)
        basis.append((f"{mono}|{name}", cj + mn, aj + ma))
    d = {}
    for p, i in index.items():
        for key, c in M.d_element(*p).items():
            if key in index:
                d[(index[key], i)] = c
    action = {}
    for g in A.generators:
        mat = {}
        for (mono, j), i in index.items():
            for pm, c in A.multiply(el_gen(g.name), {mono: 1}).items():
                if (pm, j) in index:
                    mat[(index[(pm, j)], i)] = c
        action[g.name] = mat
    return FiniteDgModule(A, basis, d, action)


def _describe_cell(raw):
    """(canonical report, verdict) of a cell job's raw results."""
    from adamsbar.cellmod import CellModule, ConnectionModule

    def canon(x):
        if isinstance(x, CellModule):
            return canon({"basis": x.basis, "differential": x.differential,
                          "filtration": x.filtration, "twist": x.twist})
        if isinstance(x, ConnectionModule):
            return canon({"basis": x.basis, "d0": x.d0, "gamma": x.gamma,
                          "twist": x.twist})
        if isinstance(x, dict):
            return {_key(k): canon(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        if isinstance(x, Fraction):
            return str(x)
        return x

    report = json.dumps(canon(raw), sort_keys=True, indent=1)
    return report + "\n", raw.get("check", True)


def _key(k):
    if isinstance(k, tuple):
        return "|".join(_key(p) for p in k)
    return str(k)


if __name__ == "__main__":
    sys.exit(main())
