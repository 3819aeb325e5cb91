"""Command-line interface.

Commands operate on presentation files (see parser module) and emit
canonical JSON reports: sorted keys, exact rationals rendered as
strings, byte-identical across runs.  Exit codes: 0 = pass, 1 = a
property failed (see the report's verdict), 2 = input error (a non-cdga
too, where the verdict does not check it: _flat), 3 = internal error (an
exception no input check names, with its traceback on stderr).  validate
and cohomology take a cdga file with no --base, or a cell file with
--base naming its algebra, which _flat checks in both (_load_any).
"""

import argparse
import functools
import sys
import traceback
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import cdga as cdga_mod
from .bar import gamma, h0_hopf, polynomial_dims
from .cellmod import ModuleError
from .minimal import quillen_compare, relative_minimal_model, trivial_base
from .parser import ParseError, bind_cell, parse_file
from .relative import (
    AugmentedOverN,
    RelativeError,
    coaction_check,
    delta_approximation,
    pi1_demo,
    semidirect,
)

F = Fraction


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(_key(p)) for p in k)
    return str(k)


def _write(x, out, pad):
    """Append the canonical JSON text of x to out, in one walk: dicts with
    their keys through _key (the last of equal keys wins) and sorted,
    lists and tuples as arrays, str, bool, None and int as JSON, and any
    other value (a Fraction) as its quoted str.  pad is the newline and
    indent of the line x starts on; the text is that of json.dumps(...,
    sort_keys=True, indent=2)."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        inner, sep = pad + "  ", "{"
        for k, v in sorted({_key(k): v for k, v in x.items()}.items()):
            out += sep, inner, _quote(k), ": "
            _write(v, out, inner)
            sep = ","
        out += (pad, "}") if x else ("{}",)
    elif isinstance(x, (list, tuple)):
        inner, sep = pad + "  ", "["
        for v in x:
            out += sep, inner
            _write(v, out, inner)
            sep = ","
        out += (pad, "]") if x else ("[]",)
    else:
        out.append(_quote(str(x)))


def emit(report, out_path):
    out = []
    _write(report, out, "\n")
    text = "".join(out) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cdga(path):
    kind, obj = parse_file(path)
    if kind != "cdga":
        raise ParseError("expected a cdga presentation", 1)
    cdga_mod.check_bidegrees(obj)
    return obj


def _flat(obj):
    """obj, an algebra or a cell module of right bidegrees, refused as an
    input error where it is not a cdga (cdga.structure_failures) or its
    d^2 != 0: no cohomology of it can be certified."""
    if isinstance(obj, cdga_mod.CdgaPresentation):
        fails, error = cdga_mod.structure_failures(obj), cdga_mod.CdgaError
    else:  # a parsed filtration is strict, so check() fails only on d^2
        fails, error = obj.check()[1], ModuleError
    if fails:
        raise error(f"{obj.name}: " + "; ".join(fails))
    return obj


def _load_any(path, base_path):
    """("cdga", the algebra at path), which takes no --base, or ("cell",
    the cell module at path bound over the --base algebra, which _flat
    refuses where it is not a cdga)."""
    kind, obj = parse_file(path)
    if kind == "cdga":
        if base_path is not None:
            raise ParseError("a cdga file takes no --base", 1)
        return "cdga", obj
    if base_path is None:
        raise ParseError(
            "cell file needs --base pointing at its algebra", 1
        )
    base_algebra = _flat(_load_cdga(base_path))
    if obj["over"] != base_algebra.name:
        raise ParseError(
            f"cell module is over {obj['over']!r}, --base file defines "
            f"{base_algebra.name!r}", 1
        )
    return "cell", bind_cell(obj, base_algebra)


def _augmented(args):
    base = _load_cdga(args.base) if args.base else trivial_base()
    total = _load_cdga(getattr(args, "total", None) or args.file)
    return AugmentedOverN(base, total)


def cmd_validate(args):
    kind, obj = _load_any(args.file, args.base)
    if kind == "cdga":
        ok, fails = cdga_mod.validate(obj)
    else:
        ok, fails = obj.check()
    report = _base_report("validate", args, ok)
    report["witnesses"] = [str(f) for f in fails]
    return report, 0 if ok else 1


def cmd_cohomology(args):
    kind, obj = _load_any(args.file, args.base)
    if kind == "cdga":
        cdga_mod.check_bidegrees(obj)
    else:
        obj.check_bidegrees()
    _flat(obj)
    tables = {}
    for n in range(0, args.deg_max + 1):
        for r in range(0, args.wt_max + 1):
            dim = obj.cohomology(n, r)[0]
            if dim:
                tables[(n, r)] = dim
    report = _base_report("cohomology", args, True)
    report["tables"] = tables
    return report, 0


def cmd_bar_h0(args):
    A = _flat(_load_cdga(args.file))
    hopf = h0_hopf(A, args.wt_max)
    weights = range(args.wt_max + 1)
    tables = hopf.dims()
    truncated = hopf.bar.filtered_h0(len, weights, weights)
    # a weight-w word has at most w letters, so at w <= m the truncation is
    # the whole complex: its ranks must give the dims of the cocycle classes
    ok = all(truncated[m][w] == tables[w] for m in weights
             for w in range(m + 1))
    report = _base_report("bar-h0", args, ok)
    report["tables"] = tables
    report["truncated"] = truncated
    return report, 0 if ok else 1


def cmd_colie(args):
    A = _flat(_load_cdga(args.file))
    gam = gamma(A, args.wt_max)
    # H^0 is a commutative connected Hopf algebra over Q, so by Leray and
    # Milnor-Moore it is free on gamma; other dims mean gamma is wrong
    ok = polynomial_dims(gam.dims(), args.wt_max) == gam.hopf.dims()
    report = _base_report("colie", args, ok)
    report["tables"] = gam.dims()
    report["generators"] = {
        g: {"weight": w} for g, (w, _) in enumerate(gam.basis)
    }
    report["structure_constants"] = {
        g: cb for g, cb in gam.cobracket.items() if cb
    }
    return report, 0 if ok else 1


def cmd_minimal_model(args):
    A = _flat(_load_cdga(args.file))
    base = _flat(_load_cdga(args.base)) if args.base else trivial_base()
    mm = relative_minimal_model(base, A, args.n, args.wt_max)
    ok = mm.certified()
    report = _base_report("minimal-model", args, ok)
    report["generators"] = {
        name: {"deg": mm.model.gen[name].coh, "wt": mm.model.gen[name].adams}
        for name in mm.fiber_names
    }
    report["tables"] = {
        (i, m): bool(v) for (i, m), v in mm.certification.items()
    }
    report["stage_iterations"] = [s["iterations"] for s in mm.stage_log]
    return report, 0 if ok else 1


def cmd_quillen(args):
    A = _flat(_load_cdga(args.file))
    ok, details = quillen_compare(A, args.wt_max)
    report = _base_report("quillen", args, ok)
    report["witnesses"] = [] if ok else [str(details)]
    return report, 0 if ok else 1


def cmd_kernel(args):
    X = _augmented(args)
    sd = semidirect(X, args.wt_max)
    ok = sd.verdict == "pass"
    report = _base_report("kernel", args, ok)
    report.update(
        {
            "weights": sd.weights,
            "kernel_dims": sd.kernel_dims,
            "base_dims": sd.base_dims,
            "total_dims": sd.total_dims,
            # both keys carry the one co-action matrix (report format)
            "coaction_split": sd.coaction,
            "coaction_conn": sd.coaction,
        }
    )
    return report, 0 if ok else 1


def cmd_coaction_check(args):
    X = _augmented(args)
    ok, matrix = coaction_check(X, args.wt_max)
    report = _base_report("coaction-check", args, ok)
    report["coaction_split"] = report["coaction_conn"] = matrix
    return report, 0 if ok else 1


def cmd_delta_approx(args):
    X = _augmented(args)
    rep = delta_approximation(X, args.n, args.wt_max)
    ok = (
        rep["d_squared_ok"]
        and rep["q_chain_map_ok"]
        and rep["system_compat_ok"]
    )
    report = _base_report("delta-approx", args, ok)
    report["tables"] = rep["dims"]
    report["full_dims"] = rep["full_dims"]
    report["stable_n"] = rep["stable_n"]
    return report, 0 if ok else 1


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _necklaces(q, w):
    """Witt's formula: the number of Lyndon words of length w >= 1 over q
    letters, (1/w) sum_{d | w} mu(d) q^(w/d), the dimension of the free Lie
    algebra on q generators in degree w."""
    return sum(_mobius(d) * q ** (w // d)
               for d in range(1, w + 1) if w % d == 0) // w


def cmd_pi1_demo(args):
    rep = pi1_demo(args.punctures, args.wt_max)
    # H^0 is free on gamma, as in cmd_colie; and for the line minus k
    # points, H^0 is the shuffle algebra on k - 1 letters, so H^0_w is
    # (k - 1)^w and gamma_w is the number of Lyndon words of length w
    q = args.punctures - 1
    ok = (rep["polynomial_dims"] == rep["h0_dims"]
          and all(d == q ** w for w, d in rep["h0_dims"].items())
          and all(d == _necklaces(q, w) for w, d in rep["gamma_dims"].items()))
    report = _base_report("pi1-demo", args, ok)
    report.update(rep)
    return report, 0 if ok else 1


def _base_report(command, args, ok):
    return {
        "command": command,
        "window": {"deg_max": getattr(args, "deg_max", None),
                   "wt_max": getattr(args, "wt_max", None)},
        "verdict": "pass" if ok else "fail",
    }


def _at_least(least):
    """An argparse type: an int of at least `least`.  A smaller window
    option leaves nothing to compute, and would pass with empty tables."""

    def parse(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type of a non-int value
    return parse


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="adamsbar",
        description="Exact computations with Adams-graded cdgas: bar "
        "constructions, minimal models, and semidirect kernel data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    nonneg = _at_least(0)

    def common(p, file_arg=True):
        if file_arg:
            p.add_argument("file", help="presentation file")
        p.add_argument("--wt-max", dest="wt_max", type=nonneg, default=3)
        p.add_argument("--deg-max", dest="deg_max", type=nonneg, default=4)
        p.add_argument("--out", dest="out", default=None)

    p = sub.add_parser("validate")
    common(p)
    p.add_argument("--base", default=None,
                   help="algebra file for a cell module")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology")
    common(p)
    p.add_argument("--base", default=None)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("bar-h0")
    common(p)
    p.set_defaults(func=cmd_bar_h0)

    p = sub.add_parser("colie")
    common(p)
    p.set_defaults(func=cmd_colie)

    p = sub.add_parser("minimal-model")
    common(p)
    p.add_argument("--base", default=None)
    p.add_argument("--n", type=_at_least(1), default=2)
    p.set_defaults(func=cmd_minimal_model)

    p = sub.add_parser("quillen")
    common(p)
    p.set_defaults(func=cmd_quillen)

    p = sub.add_parser("kernel")
    common(p, file_arg=False)
    p.add_argument("--base", required=True)
    p.add_argument("--total", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("coaction-check")
    common(p, file_arg=False)
    p.add_argument("--base", required=True)
    p.add_argument("--total", required=True)
    p.set_defaults(func=cmd_coaction_check)

    p = sub.add_parser("delta-approx")
    common(p)
    p.add_argument("--base", default=None)
    p.add_argument("--n", type=nonneg, default=2)
    p.set_defaults(func=cmd_delta_approx)

    p = sub.add_parser("pi1-demo")
    common(p, file_arg=False)
    p.add_argument("--punctures", type=int, required=True)
    p.set_defaults(func=cmd_pi1_demo)

    return ap


@functools.cache
def _arg_parser():
    """The parser of build_arg_parser, built once per process: parsing
    leaves it unchanged, so every main call can share it."""
    return build_arg_parser()


def main(argv=None):
    args = _arg_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        emit(report, args.out)
    except (ParseError, OSError, RelativeError, ModuleError,
            cdga_mod.CdgaError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n"
                         + traceback.format_exc())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
