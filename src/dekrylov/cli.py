"""Command-line front end: deterministic (L, tau) scans to CSV or JSON.

Subcommands map one observable to one plot-ready file:

  coeffs      Lanczos coefficients a_n, b_n
  evolve      Krylov complexity K, K_norm and (where exact) chi
  wavepacket  Krylov wavepacket psi_n at explicit tau values
  renyi2      Renyi-2 correlator chi
  moments     survival moments mu_n from the tridiagonal representation
  verify      run the verification suite (all twelve criteria)

Each scan runs one pass per length on the calling thread, and the rows
are built from whole arrays over tau, with no object per tau.  `evolve`
and IR `renyi2` need no wavepacket: K and chi are closed forms or O(L)
sums over the magnetization sectors, so they serve L <= 100000; NN
`renyi2` sums the dense levels and serves L <= 14.  `wavepacket` prints
the exact wavepacket: the NN binomial closed form, and the IR Gaussian
integral of dekrylov.wigner, both accurate to the last digits of every
entry, however small; it serves L <= 4096.  `coeffs` and `moments` serve
L <= 100000 too, a --tau grid holds at most 100000 points, and every tau
passes errors.check_taus (finite, at most 1e300, so no kernel overflows).
Input past these bounds exits 2 before any allocation.  `main` resolves the
flags once, the command builds its rows, and `main` writes them.  No scan
reaches the tridiagonal eigensolver, which serves `verify` and the tests,
and no scan imports the verification layer: `verify` loads it.  Output
is bitwise deterministic across runs, and floats are written with 17
significant digits (binary64 round-trip exact).  One argparse parser,
built on the first call, serves every `main` call of a process, and CSV
rows are formatted by one %-template per row shape (the tuple of cell
types).  Flags are the only input.  Exit codes: 0 success, 1 verification
failure, 2 invalid arguments or an --out path or a stdout that cannot be
written, for --help too (one `error:` line, no traceback), 3 numerical
failure (a LinAlgError), 130 interrupted (SIGINT, Ctrl-C; one
`error: interrupted` line, no traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import ArgumentError, check_taus
from .evolve import (
    SCAN_MAX_LENGTH,
    ir_magnetization_sums,
    moments_from_tridiag,
    renyi2_dense,
    scan_point,
)
from .models import REDUCED_MAX_LENGTH, ModelKind, ModelSpec, analytic_lanczos, psi_nn_analytic
from .wigner import WAVEPACKET_MAX_LENGTH, psi_ir_exact_profile

# Figure-scale default grids.
DEFAULT_LENGTHS = {ModelKind.NN: (20, 100), ModelKind.IR: (100, 200, 500)}
DEFAULT_TAU_GRID = {ModelKind.NN: (0.0, 3.0, 301), ModelKind.IR: (0.0, 2.0, 401)}
# Extra points past the crossover where the IR complexity plateaus at L/4.
IR_PLATEAU_TAUS = (5.0, 10.0)
# Dense-method default lengths for the Renyi-2 crossing plots.
RENYI2_DEFAULT_LENGTHS = (8, 10, 12, 14)
DEFAULT_NMAX = 10
# Most points a --tau grid may have: 250 times the largest default grid.
TAU_COUNT_MAX = 100_000

@dataclass(frozen=True)
class RunConfig:
    """The models of the distinct lengths and the distinct taus, ascending,
    and --nmax (None when it is not given)."""

    models: tuple
    taus: tuple
    nmax: Optional[int]


def _as_int(text, key):
    try:
        return int(text)
    except ValueError:
        raise ArgumentError(f"{key}: {text!r} is not an integer") from None


def _as_float(text, key):
    try:
        return float(text)
    except ValueError:
        raise ArgumentError(f"{key}: could not parse {text!r}") from None


def _comma_list(text, key):
    """Tokens of "a,b,c"; there must be at least one."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ArgumentError(f"{key}: need at least one value")
    return tokens


def parse_lengths(text):
    """Parse "100,200,500" into a tuple of ints."""
    out = []
    for tok in _comma_list(text, "lengths"):
        length = _as_int(tok, "lengths")
        if length < 2:
            raise ArgumentError(f"lengths: must be >= 2, got {length}")
        out.append(length)
    return tuple(out)


def parse_tau_grid(text):
    """Parse "start:stop:count" into a grid tuple."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ArgumentError(f"tau: expected start:stop:count, got {text!r}")
    start, stop = _as_float(parts[0], "tau"), _as_float(parts[1], "tau")
    count = _as_int(parts[2], "tau count")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ArgumentError(f"tau: start and stop must be finite, got {text!r}")
    if start < 0:
        raise ArgumentError(f"tau: start must be >= 0, got {start}")
    if stop < start:
        raise ArgumentError(f"tau: stop must be >= start, got {stop} < {start}")
    if not 1 <= count <= TAU_COUNT_MAX:
        raise ArgumentError(f"tau: count must lie in [1, {TAU_COUNT_MAX}], got {count}")
    return start, stop, count


def parse_tau_list(text):
    """Parse "0.1,0.5,2" into a tuple of floats."""
    return tuple(_as_float(tok, "tau_list") for tok in _comma_list(text, "tau_list"))


def grid_taus(grid):
    return tuple(np.linspace(*grid).tolist())


def resolve_config(args):
    """Turn the parsed flags into a RunConfig, filling in the defaults.

    The lengths are checked first (the command's cap, then IR parity),
    then the taus of the commands that take them, then --nmax.
    """
    if args.model is None:
        raise ArgumentError("model: required (--model nn|ir)")
    kind = ModelKind(args.model)
    command = args.command

    if args.lengths is not None:
        lengths = parse_lengths(args.lengths)
    elif command == "renyi2":
        lengths = RENYI2_DEFAULT_LENGTHS
    else:
        lengths = DEFAULT_LENGTHS[kind]
    name, cap = command, WAVEPACKET_MAX_LENGTH if command == "wavepacket" else SCAN_MAX_LENGTH
    if command == "renyi2" and kind is ModelKind.NN:
        name, cap = "renyi2 --model nn", REDUCED_MAX_LENGTH
    if max(lengths) > cap:
        raise ArgumentError(f"lengths: {name} serves L <= {cap}, got {max(lengths)}")
    models = tuple(ModelSpec(kind=kind, length=length) for length in sorted(set(lengths)))

    taus = resolve_taus(args, kind) if hasattr(args, "tau") else ()
    nmax = getattr(args, "nmax", None)
    if nmax is not None and nmax < 0:
        raise ArgumentError(f"nmax: must be >= 0, got {nmax!r}")
    return RunConfig(models=models, taus=taus, nmax=nmax)


def resolve_taus(args, kind):
    """The distinct taus of evolve, wavepacket or renyi2, ascending."""
    if args.tau_list is not None and args.tau is not None:
        raise ArgumentError("tau: give --tau or --tau-list, not both")
    if args.tau_list is not None:
        taus = parse_tau_list(args.tau_list)
    elif args.tau is not None:
        taus = grid_taus(parse_tau_grid(args.tau))
    elif args.command == "wavepacket":
        raise ArgumentError("tau: wavepacket requires an explicit tau list (--tau-list or --tau)")
    else:
        taus = grid_taus(DEFAULT_TAU_GRID[kind])
        if kind is ModelKind.IR and args.command == "evolve":
            taus += IR_PLATEAU_TAUS
    check_taus(taus)
    # x + 0.0 turns -0.0 (and a negative underflow such as -1e-400) into
    # +0.0, so every command prints 0 and -0 is not a second zero.
    return tuple(sorted({tau + 0.0 for tau in taus}))


def _row_template(shape):
    """The %-template of one row shape, a tuple of cell types.

    None is a blank field (%.0s prints none of it), str is %s, int, bool
    and numpy integers are %d, and any other type is %.17g.
    """
    return ",".join(
        "%.0s" if cls is type(None)
        else "%s" if issubclass(cls, str)
        else "%d" if issubclass(cls, (int, np.integer))
        else "%.17g"
        for cls in shape
    )


def write_rows(out, fmt, header, rows):
    """Write tuple rows as CSV (17-digit floats, \\n endings) or JSON objects.

    A path or a stdout that cannot be written raises ArgumentError (exit
    code 2).
    """
    if fmt == "csv":
        lines = [",".join(header)]
        templates = {}
        for row in rows:
            shape = tuple(map(type, row))
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = _row_template(shape)
            lines.append(template % row)
        text = "\n".join(lines) + "\n"
    else:
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    if out is None:
        _write_stdout(text)
        return
    try:
        with open(out, "wb") as handle:
            handle.write(text.encode("utf-8"))
    except OSError as err:
        raise ArgumentError(f"out: cannot write {out!r}: {err.strerror or err}") from None


def _write_stdout(text):
    """Write ``text`` to stdout and flush it.

    A stdout that cannot be written (a pipe whose reader has gone, a full
    device) raises ArgumentError, as an unwritable --out does.  Its file
    descriptor then points at os.devnull, so the text left in its buffer
    does not fail a second time when the interpreter flushes it at exit.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ArgumentError(f"stdout: cannot write: {err.strerror or err}") from None


def cmd_coeffs(config):
    """Lanczos coefficients; b_0 is written as an empty field."""
    rows = []
    for spec in config.models:
        model, tridiag = spec.kind.value, analytic_lanczos(spec).tridiag
        offdiag = [None] + tridiag.offdiag.tolist()
        rows.extend(
            (model, spec.length, n, a, b)
            for n, (a, b) in enumerate(zip(tridiag.diag.tolist(), offdiag))
        )
    return rows


def cmd_evolve(config):
    """K, K_norm and chi over the (L, tau) grid, sorted by (L, tau)."""
    rows = []
    for spec in config.models:
        tag = (spec.kind.value,)
        rows.extend(tag + row for row in scan_point(spec, config.taus))
    return rows


def cmd_wavepacket(config):
    """psi_n at explicit taus, one row per Krylov index: NN binomial, IR Gaussian integral."""
    rows = []
    for spec in config.models:
        model = spec.kind.value
        for tau in config.taus:
            if spec.kind is ModelKind.IR:
                psi = psi_ir_exact_profile(spec.length, tau)
            else:
                psi = psi_nn_analytic(spec.length, tau).psi
            rows.extend(
                (model, spec.length, tau, n, a, a * a) for n, a in enumerate(psi.tolist())
            )
    return rows


def cmd_renyi2(config):
    """chi over the (L, tau) grid: dense for NN (L <= 14), magnetization sums for IR."""
    rows = []
    for spec in config.models:
        if spec.kind is ModelKind.IR:
            _, chis = ir_magnetization_sums(spec, config.taus)
        else:
            chis = renyi2_dense(spec, config.taus)
        rows.extend(zip(repeat(spec.kind.value), repeat(spec.length), config.taus, chis.tolist()))
    return rows


def cmd_moments(config):
    """Survival moments mu_n from the analytic tridiagonal representation, to
    --nmax, by default to DEFAULT_NMAX or 2 x the Krylov dimension if lower."""
    rows = []
    for spec in config.models:
        model, tridiag = spec.kind.value, analytic_lanczos(spec).tridiag
        nmax = min(DEFAULT_NMAX, 2 * tridiag.dim) if config.nmax is None else config.nmax
        mu = moments_from_tridiag(tridiag, nmax)
        rows.extend((model, spec.length, n, value) for n, value in enumerate(mu.tolist()))
    return rows


def cmd_verify(level):
    """Run the verification suite; exit 0 iff every check passes."""
    from . import checks  # the verification layer, which no scan loads

    results = checks.run_checks(level)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  [{r.number:2d}] {r.name}: {r.detail} "
        f"({r.elapsed:.2f}s)\n"
        for r in results
    ]
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed ({level} level)\n")
    _write_stdout("".join(lines))
    return 0 if not failed else 1


class _Parser(argparse.ArgumentParser):
    """Writes --help (of subparsers too, built with this class) through
    _write_stdout: argparse itself ignores an OSError from its write."""

    def print_help(self, file=None):
        if file is None:
            return _write_stdout(self.format_help())
        super().print_help(file)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="dekrylov",
        description=(
            "Krylov complexity and Renyi-2 scans for symmetric dephasing "
            "channels mapped to imaginary-time evolution"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scan_flags(p, with_tau=True):
        p.add_argument("--model", choices=("nn", "ir"), help="model kind")
        p.add_argument("--lengths", help="comma list of chain lengths, e.g. 100,200")
        if with_tau:
            p.add_argument("--tau", help="grid start:stop:count, e.g. 0:2:401")
            p.add_argument("--tau-list", dest="tau_list", help="comma list of tau values")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    add_scan_flags(
        sub.add_parser("coeffs", help="Lanczos coefficients a_n, b_n"), with_tau=False
    )
    add_scan_flags(sub.add_parser("evolve", help="K, K_norm, chi over (L, tau)"))
    add_scan_flags(
        sub.add_parser("wavepacket", help="psi_n at explicit tau values")
    )
    add_scan_flags(sub.add_parser("renyi2", help="Renyi-2 correlator chi"))
    moments = sub.add_parser(
        "moments", help="survival moments mu_n = <rho_init|H^n|rho_init>"
    )
    add_scan_flags(moments, with_tau=False)
    moments.add_argument(
        "--nmax",
        type=int,
        help=f"highest moment (default {DEFAULT_NMAX}, "
        "or 2 x the Krylov dimension where that is lower)",
    )
    verify = sub.add_parser("verify", help="run all twelve verification criteria")
    verify.add_argument(
        "level",
        choices=("full",),
        nargs="?",
        default="full",
        help="the only level, the default; `verify` alone runs the same suite",
    )
    return parser


def _attach_negative_values(argv):
    """Write ``--tau -1:2:3`` as ``--tau=-1:2:3``.

    argparse takes a token that starts with '-' for an option unless it is
    a plain number, so a negative grid or list (or -inf, -nan in any case)
    would end in a usage error instead of reaching parse_tau_grid,
    parse_tau_list or parse_lengths.
    """
    out = []
    for token in argv:
        if out and out[-1] in ("--tau", "--tau-list", "--lengths") and re.match(
            r"-([\d.]|inf|nan)", token, re.IGNORECASE
        ):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_negative_values(argv))
        if args.command == "verify":
            return cmd_verify(args.level)
        # Looked up on each call, so a cmd_* patched on the module is the one run.
        handler, header = {
            "coeffs": (cmd_coeffs, ("model", "L", "n", "a_n", "b_n")),
            "evolve": (cmd_evolve, ("model", "L", "tau", "K", "K_norm", "chi")),
            "wavepacket": (cmd_wavepacket, ("model", "L", "tau", "n", "psi", "psi2")),
            "renyi2": (cmd_renyi2, ("model", "L", "tau", "chi")),
            "moments": (cmd_moments, ("model", "L", "n", "mu_n")),
        }[args.command]
        write_rows(args.out, args.format or "csv", header, handler(resolve_config(args)))
        return 0
    except ArgumentError as err:  # DomainError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
