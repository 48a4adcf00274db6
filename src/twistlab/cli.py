"""Command line front end.

Subcommands map onto the library verticals: suite verification, the
magnetic butterfly scan, eta and spectral flow for configured operators,
kernel Betti numbers, Sobolev norms with the derivation chain, and the
circle pairing.  Outputs are deterministic for fixed inputs and seeds:
JSON is emitted with sorted keys and one trailing newline, CSV with
exact %.17g floats.  ``emit`` is the one output sink: it takes a dict
as JSON, or for CSV an iterable of text chunks that it writes as they
are made.  This module only parses; the library functions check their
own inputs when called, which is before ``emit`` opens stdout or
``--out``, so a rejected call writes nothing; a failed one leaves no
partial ``--out``.

``verify --suite all`` runs its suites through ``verify.run_suites``,
which splits them between this process and a forked helper when two
CPUs are usable, with the same output as one process.

Exit codes: 0 success; 1 a verification suite failed; 2 bad input, one
``error:`` line for a ``TwistlabError`` (reading a config raises its faults
as ``ConfigError``) or an ``OSError``; 3 an internal error, with its
traceback: any other exception, a helper process that died included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__
from .algebra import element_from_json, json_numbers
from .cohomology import derivation_chain, sobolev_norm
from .errors import TwistlabError
from .groups import (
    FreeAbelianGroup,
    alternating_group,
    cyclic_group,
    group_from_json,
    symmetric_group,
    trivial_group,
    ProductGroup,
)
from .mishchenko import CircleCover, lott_pairing_circle
from .multipliers import multiplier_from_json
from .representations import butterfly_csv
from .spectral import (
    MatrixPath,
    eta_operator,
    spectral_flow,
    twisted_betti,
    cycle_complex,
)
from . import verify as verify_mod


class ConfigError(TwistlabError):
    pass


_USER_ERRORS = (TwistlabError, OSError)


@contextlib.contextmanager
def _reading():
    """Raise a KeyError, TypeError, ValueError or OverflowError of reading input as a ConfigError."""
    try:
        yield
    except TwistlabError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)) from None


def parse_group(spec):
    """Group from a short spec: z, z2, z3, sN, aN, cN, products with *, @file."""
    if isinstance(spec, dict):
        return group_from_json(spec)
    spec = str(spec).strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return group_from_json(json.load(fh))
    if "*" in spec:
        left, _, right = spec.partition("*")
        return ProductGroup(parse_group(left), parse_group(right))
    if spec in ("1", "e"):
        return trivial_group()
    if spec == "z":
        return FreeAbelianGroup(1)
    if spec.startswith("z") and spec[1:].isdigit():
        return FreeAbelianGroup(int(spec[1:]))
    if spec.startswith("s") and spec[1:].isdigit():
        return symmetric_group(int(spec[1:]))
    if spec.startswith("a") and spec[1:].isdigit():
        return alternating_group(int(spec[1:]))
    if spec.startswith("c") and spec[1:].isdigit():
        return cyclic_group(int(spec[1:]))
    raise ConfigError(f"unrecognized group spec {spec!r}")


def parse_matrix(data) -> np.ndarray:
    if not isinstance(data, dict) or "re" not in data:
        raise ConfigError("matrix payload must be an object with 're' (and optional 'im')")
    for key in ("re", "im"):
        rows = data.get(key, [])
        if not isinstance(rows, list) or not all(isinstance(row, list) and json_numbers(row) for row in rows):
            raise ConfigError(f"matrix '{key}' must be a list of rows of JSON numbers")
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise ConfigError("matrix 're' and 'im' must be equal-shape 2d arrays")
    return re + 1j * im


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _config_int(cfg: dict, key: str) -> int:
    """cfg[key] as a JSON integer; floats, bools and strings are rejected."""
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return value


def _config_list(cfg: dict, key: str, default: list | None = None) -> list | None:
    """cfg[key] (or the default) as a JSON list; a string or a number is rejected,
    and so is null unless the default is None."""
    value = cfg.get(key, default)
    if not isinstance(value, list) and (value is not None or default is not None):
        raise ConfigError(f"{key} must be a list, not {value!r}")
    return value


def element_from_config(cfg: dict):
    group = parse_group(cfg.get("group", "z2"))
    sigma = multiplier_from_json(cfg["multiplier"], group)
    return element_from_json(sigma, {"terms": cfg["terms"]})


def emit(payload, out_path: str | None) -> None:
    """Write a JSON payload (a dict), or an iterable of CSV text chunks, to stdout
    or atomically to out_path."""
    # NaN and Infinity are not JSON: such a payload raises ValueError (exit 3) before any write.
    chunks = ([json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"]
              if isinstance(payload, dict) else payload)
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, not {args.seed}")
    names = verify_mod.suite_names() if args.suite == "all" else [args.suite]
    reports = list(verify_mod.run_suites(names, args.seed))
    payload = {
        "seed": args.seed,
        "passed": all(r.passed for r in reports),
        "suites": [r.to_json() for r in reports],
    }
    emit(payload, args.out)
    return 0 if payload["passed"] else 1


def _cmd_butterfly(args) -> int:
    with _reading():
        coefficients = tuple(float(x) for x in args.coefficients.split(","))
    emit(butterfly_csv(args.qmax, args.kgrid, coefficients), args.out)
    return 0


def _eta_result_json(res) -> dict:
    out = {
        "eta": res.eta,
        "error_bound": res.error_bound,
        "method": res.method,
        "params": {k: (str(v) if not isinstance(v, (int, float)) else v)
                   for k, v in res.params.items()},
    }
    if res.germ is not None:
        out["germ"] = res.germ
    if res.kernel is not None:
        out["kernel"] = {
            "dim": res.kernel.dim,
            "zero_tol": res.kernel.zero_tol,
            "ambiguous": res.kernel.ambiguous,
        }
    return out


def _cmd_eta(args) -> int:
    with _reading():
        cfg = load_config(args.config)
        if "matrix" in cfg:
            operator, options = parse_matrix(cfg["matrix"]), {"method": cfg.get("method", "dense")}
        else:
            operator = element_from_config(cfg)
            # A key the config leaves out keeps eta_operator's default; it checks s_grid.
            options = {key: _config_int(cfg, key) for key in ("kgrid", "radius") if key in cfg}
            options["s_grid"] = cfg.get("s_grid")
            if "method" in cfg:
                options["method"] = cfg["method"]
    res = eta_operator(operator, normalization=args.eta_normalization,
                       zero_tol=cfg.get("zero_tol"), **options)
    emit(_eta_result_json(res), args.out)
    return 0


def _cmd_spectral_flow(args) -> int:
    with _reading():
        cfg = load_config(args.config)
        pcfg = cfg.get("path", cfg)
        if not isinstance(pcfg, dict):
            raise ConfigError("path must be an object")
        if "samples" in pcfg:
            path = MatrixPath.from_samples([parse_matrix(m) for m in pcfg["samples"]])
        elif pcfg.get("generator", "linear") == "linear":
            path = MatrixPath.linear(parse_matrix(pcfg["A0"]), parse_matrix(pcfg["A1"]))
        else:
            raise ConfigError(f"unknown path generator {pcfg.get('generator')!r}")
    counts = {key: _config_int(cfg, key) for key in ("initial_samples", "max_refinements") if key in cfg}
    res = spectral_flow(path, zero_tol=cfg.get("zero_tol"), **counts)
    emit(
        {
            "flow": res.flow,
            "endpoint_formula": res.endpoint_formula,
            "samples": res.samples,
            "refinements": res.refinements,
            "crossings": [[l, r, s] for l, r, s in res.crossings],
        },
        args.out,
    )
    return 0


def _cmd_betti(args) -> int:
    with _reading():
        cfg = load_config(args.config)
        if "cycle" in cfg:
            even, odd = cycle_complex(_config_int(cfg, "cycle"))
        else:
            even = parse_matrix(cfg["even"])
            odd = parse_matrix(cfg["odd"])
    res = twisted_betti(even, odd, zero_tol=cfg.get("zero_tol"))
    emit(
        {
            "b_even": res.b_even,
            "b_odd": res.b_odd,
            "euler": res.euler,
            "index": res.index,
            "zero_tol": res.zero_tol,
            "ambiguous": res.ambiguous,
        },
        args.out,
    )
    return 0


def _cmd_sobolev(args) -> int:
    with _reading():
        cfg = load_config(args.config)
        element = element_from_config(cfg)
        if not json_numbers(s_list := _config_list(cfg, "s", [0, 1, 2])):
            raise ConfigError("s must be a list of JSON numbers")
        orders = {str(s): float(s) for s in s_list}
    payload = {"norms": {key: sobolev_norm(element, s) for key, s in orders.items()}}
    if "chain_j_max" in cfg:
        chain = derivation_chain(element, j_max=_config_int(cfg, "chain_j_max"))
        payload["chain"] = {
            "j_max": chain.j_max,
            "radius": chain.radius,
            "identity_defect": chain.identity_defect,
            "norms": chain.chain_norms,
            "constants": chain.bound_constants,
            "margins": chain.bound_margins,
            "bound_ok": chain.bound_ok,
        }
    emit(payload, args.out)
    return 0


def _cmd_pairing_circle(args) -> int:
    cover = CircleCover(args.winding)
    value = lott_pairing_circle(cover, n_grid=args.n_grid)
    emit({"winding": args.winding, "n_grid": args.n_grid, "pairing": value}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Twisted group algebra toolkit: multipliers, spectra, invariants.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run canonical self check suites")
    p.add_argument("--suite", default="all", choices=["all"] + verify_mod.suite_names())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("butterfly", help="band spectra over rational flux values (CSV)")
    p.add_argument("--qmax", type=int, default=8)
    p.add_argument("--kgrid", type=int, default=64)
    p.add_argument("--coefficients", default="1,1,1,1",
                   help="four hopping coefficients c1,c2,c3,c4")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_butterfly)

    p = sub.add_parser("eta", help="eta invariant of a configured operator")
    p.add_argument("--config", required=True)
    p.add_argument("--eta-normalization", default="half", choices=["half", "full"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("spectral-flow", help="net eigenvalue flow along a matrix path")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_spectral_flow)

    p = sub.add_parser("betti", help="kernel traces of a two block complex")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_betti)

    p = sub.add_parser("sobolev", help="length weighted norms and the derivation chain")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sobolev)

    p = sub.add_parser("pairing-circle", help="winding pairing of the circle projection")
    p.add_argument("--winding", type=int, default=1)
    p.add_argument("--n-grid", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_pairing_circle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        # A helper process that died is an internal error, although ChildProcessError is an OSError.
        if isinstance(exc, _USER_ERRORS) and not isinstance(exc, ChildProcessError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        import traceback  # only here: importing it costs every run memory

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
