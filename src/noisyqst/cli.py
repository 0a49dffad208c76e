"""Command-line front end.

Subcommands: quality, optimize, sweep, gate-fidelity, coeff, single-qubit.
Every command honors --seed and produces byte-identical output for
identical flags.  Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile

# The package's matrices are at most 16 x 16, so BLAS worker threads only spin:
# pin BLAS to one thread before numpy loads it, unless the caller chose a count.
if not {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"} & os.environ.keys():
    os.environ.update(OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np

# optimize, quality and tomography are imported by the subcommands that use
# them, so that a launch compiles and loads only what its command runs.
from .gates import (
    ENTANGLERS,
    HEISENBERG,
    INTERACTIONS,
    STRATEGIES,
    QuorumParams,
    standard_mub_params,
)
from .noise import CHANNELS, DEPOLARIZING, NoiseModel, average_gate_fidelity

# Outputs echo every parsed flag except the subcommand's name and handler
# and --out and --config, so the result does not depend on where it is written.
_NOT_ECHOED = ("command", "func", "out", "config")

# The measurements of each sweep scheme; each needs at least one shot.
SCHEME_MEASUREMENTS = {"mub": 5, "pauli9": 9, "optimized": 5}

# sweep refines its optimized quorums to convergence: at r = 0.5, OU/Heisenberg
# needs about 1,100 iterations, past optimize's default of 200.
SWEEP_MAX_ITERS = 2000


def _noise_model(channel: str, interaction: str, strength: float) -> NoiseModel:
    """The noise model of parsed flags; one that NoiseModel rejects is a usage error."""
    try:
        return NoiseModel(channel=channel, interaction=interaction, strength=strength)
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _noise_from_args(args) -> NoiseModel:
    if args.strength is None:
        raise SystemExit2("missing noise strength (--zeta / -r)")
    return _noise_model(args.channel, args.interaction, args.strength)


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _effective_config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED and v is not None}


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it to ``path``.

    The file gets the mode that ``open(path, "w")`` would leave: an existing
    file's own, or 0666 less the umask, not mkstemp's 0600.  The temporary
    file is removed if the write fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-noisyqst-")
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_quality(args) -> int:
    from .quality import quality_report

    noise = _noise_from_args(args)
    if args.quorum:
        try:
            with open(args.quorum) as fh:
                quorum = QuorumParams.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit2(f"cannot load quorum file {args.quorum!r}: {exc}")
        if quorum.interaction != noise.interaction:
            raise SystemExit2(
                f"quorum interaction {quorum.interaction!r} conflicts with --interaction"
            )
    else:
        quorum = standard_mub_params(args.mub or noise.interaction)
        if quorum.interaction != noise.interaction:
            raise SystemExit2("--mub interaction conflicts with --interaction")
    report = quality_report(quorum, noise)
    doc = {"config": _effective_config(args), "noise": noise.to_dict(), **report.to_dict()}
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0


def cmd_optimize(args) -> int:
    from . import optimize as opt

    if min(args.max_iters, args.starts, args.threshold_pairs) < 1:
        raise SystemExit2("--max-iters, --starts and --threshold-pairs must be >= 1")
    noise = _noise_from_args(args)
    results = opt.optimize_quorum(
        noise,
        strategy=args.strategy,
        n_starts=args.starts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    csv_text = opt.results_to_csv(results, args.strategy, args.seed)
    doc = {
        "config": _effective_config(args),
        "noise": noise.to_dict(),
        "strategy": args.strategy,
        "seed": args.seed,
        "results": [r.to_dict() for r in results],
    }
    if args.out:
        _atomic_write(args.out, csv_text)
        _atomic_write(args.out + ".json", json.dumps(doc, sort_keys=True))
    else:
        sys.stdout.write(csv_text)
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise SystemExit2(f"bad --grid value: {exc}")
    if not grid:
        raise SystemExit2("--grid needs at least one noise strength")
    return grid


def cmd_sweep(args) -> int:
    from . import tomography as tomo

    if args.states < 1 or args.shots < 1:
        raise SystemExit2("--states and --shots must be >= 1")
    grid = _parse_grid(args.grid)
    noises = [_noise_model(args.channel, args.interaction, strength) for strength in grid]
    scheme_names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not scheme_names:
        raise SystemExit2("--schemes needs at least one scheme")
    for name in scheme_names:
        if name not in SCHEME_MEASUREMENTS:
            raise SystemExit2(f"unknown scheme {name!r} (expected mub, pauli9, optimized)")
    widest = max(scheme_names, key=SCHEME_MEASUREMENTS.get)
    if args.shots < SCHEME_MEASUREMENTS[widest]:
        raise SystemExit2(f"--shots {args.shots} is below the {SCHEME_MEASUREMENTS[widest]} "
                          f"measurements of scheme {widest!r}")
    # One tomography pass: every scheme sees the same states, on the sampling
    # stream of its position in --schemes.  pauli9 has no entangler, so its
    # report is the same at every grid point and it is built and run once.
    schemes, streams, keys = [], [], []
    for i, name in enumerate(scheme_names):
        if name == "pauli9":
            schemes.append(tomo.pauli9_scheme())
            streams.append(i)
            keys.append((i, None))
            continue
        for noise in noises:
            if name == "mub":
                schemes.append(tomo.mub_scheme(noise))
            else:
                from . import optimize as opt

                best = opt.optimize_quorum(noise, strategy="mub-seeded", max_iters=SWEEP_MAX_ITERS,
                                           seed=args.seed)[0]
                schemes.append(tomo.quorum_scheme(best.params, noise, "optimized"))
            streams.append(i)
            keys.append((i, noise.strength))
    reports = dict(zip(keys, tomo.run_experiment(
        schemes, args.states, args.shots, args.seed, streams=streams)))
    rows = [
        (reports[i, None if name == "pauli9" else strength], strength)
        for strength in grid
        for i, name in enumerate(scheme_names)
    ]
    config_line = "# config: " + json.dumps(_effective_config(args), sort_keys=True) + "\n"
    _emit(args, config_line + tomo.reports_to_csv(rows))
    return 0


def cmd_gate_fidelity(args) -> int:
    if args.gate != "cnot":
        raise SystemExit2(f"unknown gate {args.gate!r} (only 'cnot' is built in)")
    noise = _noise_from_args(args)
    ent = ENTANGLERS[noise.interaction].cnot
    _emit(args, f"{average_gate_fidelity(noise, ent):.12g}")
    return 0


def cmd_coeff(args) -> int:
    from .quality import estimate_log_coefficient

    rng = np.random.default_rng(args.seed)
    try:
        slope = estimate_log_coefficient(args.dim, args.samples, rng)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    doc = {"config": _effective_config(args), "dim": args.dim, "samples": args.samples,
           "coefficient": slope}
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0


def cmd_single_qubit(args) -> int:
    from .quality import single_qubit_optimal_angle, single_qubit_quality

    r = _noise_from_args(args).strength
    theta = single_qubit_optimal_angle(r)
    doc = {
        "config": _effective_config(args),
        "r": r,
        "optimal_theta": theta,
        "q_noisy_at_optimum": single_qubit_quality(theta, r),
    }
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, noise: bool = True) -> None:
    if noise:
        p.add_argument("--channel", choices=CHANNELS, default=DEPOLARIZING)
        p.add_argument("--interaction", choices=INTERACTIONS, default=HEISENBERG)
        p.add_argument("--zeta", "-r", dest="strength", type=float, default=None,
                       help="noise strength (zeta for depolarizing, r for ou)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (atomic write)")
    p.add_argument("--threads", type=int, default=1, help="accepted and echoed; selects nothing")
    p.add_argument("--config", default=None, help="JSON file of flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisyqst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommand_parsers = {}

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        parser.subcommand_parsers[name] = p
        return p

    p = add_parser("quality", help="evaluate a quorum's Q and Q_N")
    _add_common(p)
    p.add_argument("--quorum", default=None, help="quorum JSON file")
    p.add_argument("--mub", choices=INTERACTIONS, default=None,
                   help="use the built-in standard MUB quorum")
    p.set_defaults(func=cmd_quality)

    p = add_parser("optimize", help="optimize a quorum for a noise model")
    _add_common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="mub-seeded")
    p.add_argument("--starts", type=int, default=1)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=200)
    p.add_argument("--threshold-pairs", dest="threshold_pairs", type=int, default=10_000,
                   help="accepted and echoed; selects nothing")
    p.set_defaults(func=cmd_optimize)

    p = add_parser("sweep", help="reconstruction-infidelity sweep over a noise grid")
    _add_common(p)
    p.add_argument("--grid", required=True, help="comma-separated noise strengths")
    p.add_argument("--schemes", default="mub,pauli9")
    p.add_argument("--shots", type=int, default=23040)
    p.add_argument("--states", type=int, default=1000)
    p.set_defaults(func=cmd_sweep)

    p = add_parser("gate-fidelity", help="average gate fidelity of a noisy gate")
    _add_common(p)
    p.add_argument("--gate", default="cnot")
    p.set_defaults(func=cmd_gate_fidelity)

    p = add_parser("coeff", help="estimate the log-average linear coefficient")
    _add_common(p, noise=False)
    p.add_argument("--dim", type=int, choices=(2, 4), default=4,
                   help="Hilbert-space dimension; both average over gap-of-uniforms "
                        "spectra, so --dim 2 gives about 1.237, not the Bloch-ball 3/2")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.set_defaults(func=cmd_coeff)

    p = add_parser("single-qubit", help="closed-form single-qubit optimum")
    _add_common(p)
    p.set_defaults(func=cmd_single_qubit)

    return parser


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the --config file's keys spliced in as flags after the subcommand.

    The user's own flags follow them and so override them.  A config value
    passes its flag's type and choices checks here, so that a failure names the
    key and the file; the parser then checks both alike.
    """
    for idx, arg in enumerate(argv):
        if arg == "--config":
            if idx + 1 == len(argv):
                raise SystemExit2("--config requires a path")
            path = argv[idx + 1]
            break
        if arg.startswith("--config="):
            path = arg.split("=", 1)[1]
            break
    else:
        return argv
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    except (OSError, ValueError) as exc:
        raise SystemExit2(f"cannot load config {path!r}: {exc}")
    command = parser.subcommand_parsers.get(argv[0])
    if command is None:  # argparse reports the missing or unknown subcommand
        return argv
    actions = {a.dest: a for a in command._actions if a.option_strings and a.nargs is None}
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        raise SystemExit2(f"unknown config key(s) for {argv[0]}: " + ", ".join(map(repr, unknown)))
    spliced = []
    for key, value in cfg.items():
        if key == "config" or value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise SystemExit2(f"config key {key!r} must be a string or a number, "
                              f"got {type(value).__name__}")
        action = actions[key]
        try:  # argparse would name the flag, not the key or the file
            parsed = action.type(str(value)) if action.type else str(value)
        except ValueError:
            raise SystemExit2(f"config {path!r} key {key!r}: invalid "
                              f"{action.type.__name__} value {value!r}")
        if action.choices is not None and parsed not in action.choices:
            raise SystemExit2(f"config {path!r} key {key!r}: invalid choice {value!r} "
                              f"(choose from {', '.join(map(str, action.choices))})")
        spliced.append(f"{action.option_strings[0]}={value}")
    return argv[:1] + spliced + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        if args.threads < 1:
            raise SystemExit2("--threads must be >= 1")
        if args.seed < 0:
            raise SystemExit2("--seed must be >= 0")
        return args.func(args)
    except SystemExit2 as exc:
        return int(exc.code)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code) if exc.code is not None else 0
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
