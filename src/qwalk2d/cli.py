"""
Command-line front end.

Commands
--------
simulate    evolve a walk and write the probability grid (csv or json)
spectrum    cluster the full eigenvalue spectrum of a coin on a lattice
timeavg     time-averaged origin probabilities by any of the four methods
scan-alpha  tabulate the two-component limit curves p_R, p_L over alpha
predict     localization verdict from block-spectrum degeneracy

Coins are selected with `grover | a1 | a2 | a4:p | file:path`; initial
states with `R | L | U | D` or `custom:a,b,c,d` using complex literals
like `0.5+0.3i` or `0.5e^{i/3}`.  Exit codes: 0 success, 1 I/O error,
2 usage error, 3 numeric/internal-consistency error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

import numpy as np

from . import timeavg as ta
from .coins import (CHIRALITIES, Coin, a1_coin, a2_coin, coin_from_json, grover_coin,
                    symmetric_family)
from .evolve import evolve
from .spectral import SpectralDecomposition, SpectralError, evolve_spectral
from .state import InitialSpec, _check_size, origin_superposition, write_grid_csv, write_grid_json

__all__ = ["main", "parse_coin", "parse_complex", "parse_initial", "run"]

_POLAR = re.compile(
    r"^(?P<mod>[+-]?(?:\d+\.?\d*|\.\d+)?)\s*e\^\{(?P<sign>[+-]?)i(?P<theta>[^}]*)\}$"
)
_THETA = re.compile(
    r"^(?P<num>\d+\.?\d*|\.\d+)?\s*(?P<pi>pi)?\s*(?:/\s*(?P<den>\d+\.?\d*|\.\d+))?$"
)


def parse_complex(text: str) -> complex:
    """Parse a complex literal: `x+yi` cartesian or `re^{iT}` polar."""
    text = text.strip()
    if not text:
        raise ValueError("empty complex literal")
    polar = _POLAR.match(text)
    if polar:
        mod_text = polar.group("mod")
        modulus = 1.0 if mod_text in ("", "+") else -1.0 if mod_text == "-" else float(mod_text)
        theta_text = polar.group("theta").strip()
        theta_match = _THETA.match(theta_text)
        if not theta_match:
            raise ValueError(f"bad phase in complex literal {text!r}")
        theta = float(theta_match.group("num") or 1.0)
        if theta_match.group("pi"):
            theta *= np.pi
        if theta_match.group("den"):
            theta /= float(theta_match.group("den"))
        if polar.group("sign") == "-":
            theta = -theta
        # an infinite phase is refused below; np.cos would warn on it first
        value = modulus * complex(np.cos(theta), np.sin(theta)) if np.isfinite(theta) else np.nan
    else:
        normalized = re.sub(r"(?<![0-9.])j", "1j", text.replace("i", "j").replace(" ", ""))
        try:
            value = complex(normalized)
        except ValueError:
            raise ValueError(f"cannot parse complex literal {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def parse_coin(text: str) -> Coin:
    """Resolve a coin selector `grover | a1 | a2 | a4:p | file:path`."""
    text = text.strip()
    if text == "grover":
        return grover_coin()
    if text == "a1":
        return a1_coin()
    if text == "a2":
        return a2_coin()
    if text.startswith("a4:"):
        try:
            p = float(text[3:])
        except ValueError:
            raise ValueError(f"bad parameter in coin selector {text!r}") from None
        return symmetric_family(p)
    if text.startswith("file:"):
        return coin_from_json(text[5:])
    raise ValueError(
        f"unknown coin {text!r}; expected grover, a1, a2, a4:p or file:path"
    )


def parse_initial(text: str) -> InitialSpec:
    """
    Resolve an initial-state selector: one of R/L/U/D, or
    `custom:a,b,c,d`.  Custom weights are normalized; a warning is
    emitted when the input norm deviates from 1 by more than 1e-6.
    """
    text = text.strip()
    if text.upper() in ("R", "L", "U", "D"):
        return InitialSpec.pure(text.upper())
    if not text.startswith("custom:"):
        raise ValueError(
            f"unknown initial state {text!r}; expected R, L, U, D or custom:a,b,c,d"
        )
    parts = text[len("custom:"):].split(",")
    if len(parts) != 4:
        raise ValueError(f"custom initial state needs 4 components, got {len(parts)}")
    weights = np.array([parse_complex(part) for part in parts])
    norm = float(np.sqrt((np.abs(weights) ** 2).sum()))
    if norm == 0.0:
        raise ValueError("custom initial state cannot be all zero")
    if abs(norm - 1.0) > 1e-6:
        print(
            f"warning: normalizing initial state (input norm {norm:.6g})",
            file=sys.stderr,
        )
    weights = weights / norm
    return InitialSpec(*weights)


#: Default time horizon of `timeavg --method empirical`.
EMPIRICAL_SAMPLES = 20000
#: Largest `--n`.  A state takes 64 N^2 bytes, the exact commands' eigenvectors 256 N^2.  By
#: tracemalloc at N = 101 and 201, a coin with no symmetry peaks near 1060 N^2 bytes in `timeavg
#: --method exact --parity odd` (1.1 GB at N = 1001) and at most 530 N^2 in `spectrum`, which
#: streams its text to stdout or `--out`, and `predict`.
MAX_N = 1001
#: Largest `scan-alpha --samples`: the scan and its CSV text peak near 248 bytes a sample, 1 GB.
MAX_SCAN_SAMPLES = 4_000_000
#: Largest N^2 * steps of direct evolution (`simulate`, `timeavg --method empirical`): at the
#: 8.6e7 site-steps a second of grover at N = 201, t = N on a 2-vCPU host, about 20 minutes.
MAX_SITE_STEPS = 10 ** 11


def _scan_samples(value: str) -> int:
    samples = int(value)
    if samples > MAX_SCAN_SAMPLES:
        raise argparse.ArgumentTypeError(f"{samples} samples exceed the limit {MAX_SCAN_SAMPLES}")
    return samples


def _check_site_steps(size: int, steps: int) -> None:
    if size * size * steps > MAX_SITE_STEPS:
        raise ValueError(f"N^2 * steps = {size * size * steps} exceeds the limit {MAX_SITE_STEPS}")


def _odd_size(value: str) -> int:
    size = int(value)
    if size > MAX_N:
        raise argparse.ArgumentTypeError(f"lattice size {size} exceeds the limit {MAX_N}")
    try:
        return _check_size(size)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it costs about ten parses."""
    parser = argparse.ArgumentParser(
        prog="qwalk2d",
        description="Two-dimensional coined quantum walks on the periodic lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a walk and write the probability grid")
    sim.add_argument("--coin", required=True)
    sim.add_argument("--n", type=_odd_size, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--initial", default="R")
    sim.add_argument("--backend", choices=("direct", "spectral"), default="direct")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", required=True)

    spec = sub.add_parser("spectrum", help="cluster the full eigenvalue spectrum")
    spec.add_argument("--coin", required=True)
    spec.add_argument("--n", type=_odd_size, required=True)
    spec.add_argument("--out")

    avg = sub.add_parser("timeavg", help="time-averaged origin probabilities")
    avg.add_argument("--coin", default="grover")
    avg.add_argument("--n", type=_odd_size)
    avg.add_argument("--initial", default="R")
    avg.add_argument(
        "--method",
        choices=("empirical", "exact", "closed-form", "limit"),
        default="exact",
    )
    avg.add_argument("--parity", choices=ta.PARITIES, default="all")
    avg.add_argument("--samples", type=int,
                     help=f"time horizon T for the empirical method (default {EMPIRICAL_SAMPLES})")
    avg.add_argument("--out")

    scan = sub.add_parser("scan-alpha", help="limit curves over the two-component family")
    scan.add_argument("--samples", type=_scan_samples, default=201)
    scan.add_argument("--out")

    pred = sub.add_parser("predict", help="localization verdict for a coin")
    pred.add_argument("--coin", required=True)
    pred.add_argument("--n", type=_odd_size, required=True)
    return parser


def _cmd_simulate(args) -> int:
    coin = parse_coin(args.coin)
    spec = parse_initial(args.initial)
    state = origin_superposition(args.n, spec)
    if args.backend == "spectral":
        state = evolve_spectral(state, coin, args.steps)
    else:
        _check_site_steps(args.n, args.steps)
        state = evolve(state, coin, args.steps)
    if args.format == "csv":
        grid = write_grid_csv(state, args.out)
    else:
        grid = write_grid_json(state, args.out, coin=coin.label, initial=args.initial)
    # sites tied by symmetry differ in last bits by backend: take the first within 1e-12
    flat = int(np.argmax(grid >= grid.max() - 1e-12))
    half = (state.n - 1) // 2
    x_max = flat // state.n - half
    y_max = flat % state.n - half
    print(f"origin probability: {state.probability_at(0, 0):.12g}")
    print(f"grid maximum: {grid.max():.12g} at ({x_max}, {y_max})")
    return 0


def _cmd_spectrum(args) -> int:
    coin = parse_coin(args.coin)
    SpectralDecomposition.build(coin, args.n).write_json(args.out or sys.stdout)
    return 0


def _format_value(value: complex) -> str:
    if abs(value.imag) < 1e-9:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}i"


def _cmd_timeavg(args) -> int:
    spec = parse_initial(args.initial)
    coin = parse_coin(args.coin)
    if args.samples is not None and args.method != "empirical":
        raise ValueError(f"--samples applies to the empirical method only, not {args.method}")
    if args.method == "limit":
        if args.parity != "all":
            raise ValueError("the infinite-lattice limit has no parity split; use --parity all")
        if args.n is not None:
            raise ValueError("the infinite-lattice limit takes no --n; use --method exact")
        report = ta.limit_report(coin, spec)
    else:
        if args.n is None:
            raise ValueError(f"--n is required for the {args.method} method")
        if args.method == "closed-form":
            report = ta.closed_form_report(coin, spec, args.n, args.parity)
        elif args.method == "empirical":
            horizon = EMPIRICAL_SAMPLES if args.samples is None else args.samples
            _check_site_steps(args.n, horizon)
            state = origin_superposition(args.n, spec)
            report = ta.empirical_time_average(state, coin, horizon, parity=args.parity)
        else:
            report = ta.exact_time_average(coin, spec, args.n, parity=args.parity)
    if report.total is None:
        print(f"{report.per_chirality[0]:.12g}")
    else:
        for name, value in zip(CHIRALITIES, report.per_chirality):
            print(f"{name}: {value:.12g}")
        print(f"total: {report.total:.12g}")
    if args.out:
        ta.write_report_json(dataclasses.replace(report, initial=args.initial), args.out)
    return 0


def _cmd_scan_alpha(args) -> int:
    if args.out:
        ta.write_scan_csv(args.out, args.samples)
    else:
        print(ta.scan_csv(args.samples), end="")
    return 0


def _cmd_predict(args) -> int:
    coin = parse_coin(args.coin)
    report = ta.localization_predictor(coin, args.n)
    print(f"localizing: {'yes' if report.localizing else 'no'}")
    if report.common_eigenvalues:
        values = ", ".join(_format_value(v) for v in report.common_eigenvalues)
        print(f"common eigenvalues: {values}")
    print(f"max multiplicity: {report.max_multiplicity}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "timeavg": _cmd_timeavg,
    "scan-alpha": _cmd_scan_alpha,
    "predict": _cmd_predict,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpectralError, ta.ConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
