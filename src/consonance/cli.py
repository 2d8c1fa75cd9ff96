"""Command line interface.

Subcommands: measure, optimize, sweep, schmidt, classify, remap.  A
state comes either from a JSON file (--state FILE) or from a factory spec
(--family SPEC, e.g. ``werner:a=0.5`` or ``bell:psi-``).  Family names,
there and in ``sweep --family``, are normalized once, in
``states.get_family``, so ``Werner`` and ``bell-like`` work.  Exit codes: 0
on success, 1 when a state or parameter fails validation, 2 on usage
errors.  An output file (--report, --out) is opened before the work
that fills it, by ``_claim_output``, so a path that cannot be written
exits 2 at once.

The random seed is --seed, 0 by default.  CSV output serializes numbers
with 9 significant digits and is byte-identical across runs for a fixed
seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import coherence, measures, optimizer, states, unitary
from .qstate import (DensityMatrix, PureState, ValidationError, check_integer,
                     density_from_pure, load_state, state_to_json)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _fmt(x: float) -> str:
    return f"{x + 0.0:.9g}"    # + 0.0 keeps -0.0 out of the CSV


# --- state sources -------------------------------------------------------


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", metavar="FILE", help="JSON state file")
    group.add_argument("--family", metavar="SPEC",
                       help="factory spec, e.g. werner:a=0.5 or bell:psi-")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip physicality checks when loading a state file")


@dataclass
class MeasureContext:
    """One state and what its measures share: the family record (None for
    a state file), its resolved parameters, which the closed forms take,
    and the density matrix and coherence profile, each built at most once."""

    state: object
    family: states.Family | None = None
    params: dict = field(default_factory=dict)
    opt_config: optimizer.OptimizerConfig | None = None

    @cached_property
    def density(self) -> DensityMatrix:
        if isinstance(self.state, PureState):
            return density_from_pure(self.state)
        return self.state

    @cached_property
    def profile(self) -> coherence.CoherenceProfile:
        return coherence.profile(self.density)


def _family_context(family: states.Family, params: dict,
                    opt_config=None) -> MeasureContext:
    """The context of one family state, built by one ``states.make_family``
    call, so that call marks where a sweep row begins."""
    return MeasureContext(states.make_family(family.name, **params), family,
                          family.resolve(**params), opt_config)


def _load_source(args, opt_config=None) -> MeasureContext:
    if args.family is None:
        state = load_state(args.state, validate_state=not args.no_validate)
        return MeasureContext(state, opt_config=opt_config)
    return _family_context(*states.parse_spec(args.family), opt_config)


# --- measure evaluation --------------------------------------------------

_SEARCH_MEASURES = ("consonance", "consonance_opt")


def _closed_form(kind: str, general=None):
    """The measure that takes the family's closed form ``kind`` (an
    attribute of ``states.Family``) at the context's parameters; where the
    family has none, ``general(ctx)`` if given."""
    def value(ctx: MeasureContext) -> float:
        fn = None if ctx.family is None else getattr(ctx.family, kind)
        if fn is not None:
            return fn(**ctx.params)
        if general is not None:
            return general(ctx)
        if ctx.family is None:
            raise ValueError(f"closed-form {kind} needs a --family state")
        raise ValueError(f"no closed-form {kind} for family {ctx.family.name!r}")
    return value


_consonance_cf = _closed_form("consonance")
# the family's closed form keeps differences with other closed forms
# exact (the general route leaves float dust where a gap closes to 0)
_concurrence = _closed_form("concurrence", lambda ctx: measures.concurrence_2x2(ctx.density))


def _eof(ctx: MeasureContext) -> float:
    if ctx.density.dims != (2, 2):
        raise ValueError("eof is implemented for two-qubit states only")
    # a pair's closed form 2|a||b| can pass 1 by up to the norm tolerance
    return measures.eof_from_concurrence(min(_concurrence(ctx), 1.0))


def _negativity(ctx: MeasureContext) -> float:
    if ctx.density.n_parties != 2:
        raise ValueError("negativity here expects a bipartite state")
    return measures.negativity(ctx.density)


def _consonance_pure(ctx: MeasureContext) -> float:
    if not isinstance(ctx.state, PureState):
        raise ValueError("consonance_pure needs a pure state")
    return measures.consonance_pure_bipartite(ctx.state)


# every measure but the search: name -> its value at a context
_MEASURES = {
    "consonance_cf": _consonance_cf,
    "consonance_pure": _consonance_pure,
    "concurrence": lambda ctx: measures.concurrence_2x2(ctx.density),
    "eof": _eof,
    "negativity": _negativity,
    "discord": _closed_form("discord"),
    "nonlocal_sum": lambda ctx: ctx.profile.s_value,
    "local_coherence": lambda ctx: ctx.profile.l_value,
    "c_minus_concurrence": lambda ctx: _consonance_cf(ctx) - _concurrence(ctx),
}


def _measure_name(name: str) -> str:
    """A measure name stripped and lower-cased; an unknown one raises."""
    name = name.strip().lower()
    if name not in _SEARCH_MEASURES and name not in _MEASURES:
        raise ValueError(f"unknown measure {name!r}")
    return name


def evaluate_measure(name: str, ctx: MeasureContext):
    """Returns (value, extras) where extras holds companion columns."""
    name = _measure_name(name)
    if name in _SEARCH_MEASURES:
        report = optimizer.consonance(ctx.density, ctx.opt_config)
        return report.value, {"feasible": report.feasible,
                              "l_residual": report.l_residual}
    return _MEASURES[name](ctx), {}


# --- sweeps --------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A one-axis parameter sweep over a state family."""

    family: str
    axis: str
    start: float
    stop: float
    points: int
    measures: tuple[str, ...]
    fixed: tuple[tuple[str, float], ...] = ()
    bindings: tuple = ()          # (param, fn(axis_value)) derived parameters
    recipe: str | None = None
    header_notes: tuple[str, ...] = ()

    def __post_init__(self):
        points = check_integer(self.points, "points")
        if points < 2:
            raise ValueError(f"a sweep needs at least 2 grid points, got {points}")
        object.__setattr__(self, "points", points)
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"sweep bounds must be finite, got {self.start} and {self.stop}")
        if not self.measures:
            raise ValueError("a sweep needs at least one measure")
        object.__setattr__(self, "measures", tuple(map(_measure_name, self.measures)))
        self.record.check_params([self.axis] + [k for k, _ in self.fixed]
                                 + [k for k, _ in self.bindings])

    @cached_property
    def record(self) -> states.Family:
        """The family record; ``family`` keeps the name as given."""
        return states.get_family(self.family)

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def params_at(self, x: float) -> dict:
        """The family's parameters at grid value x.  Sweep values are
        floats, so an integer parameter (the party count of ghz and w)
        takes a whole value as its int and rejects any other."""
        p = {self.axis: float(x)}
        p.update({k: v for k, v in self.fixed})
        p.update({k: fn(float(x)) for k, fn in self.bindings})
        parsers = self.record.parsers
        for k, v in p.items():
            if parsers[k] is int:
                if not float(v).is_integer():
                    raise ValueError(f"{k} must be an integer, got {v}")
                p[k] = int(v)
        return p


def fig2_spec(points: int = 41) -> SweepSpec:
    """Werner family: consonance (closed form and optimizer) against
    discord, concurrence and EoF on a uniform grid of a."""
    return SweepSpec(
        family="werner", axis="a", start=0.0, stop=1.0, points=points,
        measures=("consonance_cf", "consonance_opt", "discord",
                  "concurrence", "eof"),
        recipe="fig2")


def fig3_spec(points: int = 301) -> SweepSpec:
    """Werner family: the consonance-minus-concurrence gap on a dense grid."""
    return SweepSpec(
        family="werner", axis="a", start=0.0, stop=1.0, points=points,
        measures=("c_minus_concurrence",),
        recipe="fig3",
        header_notes=("quantum dissonance has no closed form implemented here; "
                      "only the consonance minus concurrence gap is emitted",))


def fig4_spec(points: int = 80) -> SweepSpec:
    """Qubit-qutrit family along gamma with the third weight pinned at 0.07
    by sliding alpha."""
    return SweepSpec(
        family="two_param_2x3", axis="gamma", start=0.0, stop=0.79,
        points=points,
        bindings=(("alpha", lambda g: (0.79 - g) / 2.0),),
        measures=("consonance_cf", "consonance_opt", "discord", "negativity"),
        recipe="fig4",
        header_notes=("alpha = (0.79 - gamma)/2 keeps the beta weight at 0.07",))


RECIPES = {"fig2": fig2_spec, "fig3": fig3_spec, "fig4": fig4_spec}


def run_sweep(spec: SweepSpec, opt_config: optimizer.OptimizerConfig,
              seed: int) -> str:
    """Execute the sweep and render the CSV text."""
    columns = [spec.axis]
    for m in spec.measures:
        columns.append(m)
        if m in _SEARCH_MEASURES:
            columns.append(f"{m}_feasible")

    lines = []
    if spec.recipe:
        lines.append(f"# recipe = {spec.recipe}")
    lines.append(f"# family = {spec.family}")
    for k, v in spec.fixed:
        lines.append(f"# fixed {k} = {_fmt(v)}")
    for note in spec.header_notes:
        lines.append(f"# {note}")
    lines.append(f"# seed = {seed}")
    lines.append(",".join(columns))

    for x in spec.grid():
        ctx = _family_context(spec.record, spec.params_at(x), opt_config)
        row = [_fmt(float(x))]
        for m in spec.measures:
            value, extras = evaluate_measure(m, ctx)
            row.append(_fmt(value))
            if m in _SEARCH_MEASURES:
                row.append("true" if extras.get("feasible") else "false")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# --- subcommand handlers -------------------------------------------------


@contextlib.contextmanager
def _claim_output(path):
    """Open the output file ``path`` before the work that fills it, so a
    path that cannot be written (a directory, a missing parent, a
    read-only file) fails at once, with exit 2.  Yields ``save(text)``,
    which replaces the file's bytes with ``text``; with no path it does
    nothing.  The file is not truncated before ``save``, so when the work
    fails an existing file keeps its bytes and a file made by the claim is
    removed.  A pipe, such as ``/dev/stdout`` on a pipe, cannot seek and is
    only written."""
    if not path:
        yield lambda text: None
        return
    try:
        fd, made = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, made = os.open(path, os.O_WRONLY), False
    with open(fd, "w") as fh:
        def save(text: str) -> None:
            if fh.seekable():
                fh.seek(0)
                fh.truncate()
            fh.write(text)
        try:
            yield save
        except BaseException:
            if made:
                os.remove(path)
            raise


def _opt_config_from(args) -> optimizer.OptimizerConfig:
    """The search config of the flags; a --warm-start circuit is checked
    by the search, against its own circuit."""
    kwargs = dict(preset=unitary.Preset(kind=args.preset, depth=args.depth),
                  seed=args.seed)
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    if args.max_evals is not None:
        kwargs["max_evals"] = args.max_evals
    # --warm-start exists on optimize only
    if getattr(args, "warm_start", None):
        kwargs["warm_starts"] = (unitary.load_circuit(args.warm_start),)
    return optimizer.OptimizerConfig(**kwargs)


def cmd_measure(args) -> int:
    ctx = _load_source(args, _opt_config_from(args))
    value, extras = evaluate_measure(args.measure, ctx)
    if extras.get("feasible") is False:
        print(f"warning: no feasible frame found "
              f"(l_residual={extras['l_residual']:.3e})", file=sys.stderr)
    if args.json:
        out = {"measure": args.measure, "value": value}
        if ctx.family is not None:
            out["family"] = ctx.family.name
            out["params"] = {k: (str(v) if isinstance(v, complex) else v)
                             for k, v in ctx.params.items()}
        out.update(extras)
        print(json.dumps(out))
    else:
        print(value)
    return EXIT_OK


def cmd_optimize(args) -> int:
    with _claim_output(args.report) as save:
        rho = _load_source(args).density
        config = _opt_config_from(args)
        report = optimizer.consonance(rho, config)
        obj = optimizer.report_to_json(report)
        obj["config"] = optimizer.config_to_json(config)
        obj["seed"] = args.seed
        text = json.dumps(obj, indent=1)
        save(text + "\n")
    print(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.recipe:
        for name in ("family", "axis", "start", "stop", "fixed", "measures"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} does not go with --recipe")
        maker = RECIPES[args.recipe]
        spec = maker() if args.points is None else maker(args.points)
    else:
        for required in ("family", "axis", "start", "stop", "points"):
            if getattr(args, required) is None:
                raise ValueError(f"custom sweeps need --{required}")
        fixed = []
        if args.fixed:
            for chunk in args.fixed.split(","):
                k, _, v = chunk.partition("=")
                if not _ or not k.strip():
                    raise ValueError(f"bad --fixed entry {chunk!r}; use key=value")
                fixed.append((k.strip(), float(v)))
        names = "consonance_cf" if args.measures is None else args.measures
        spec = SweepSpec(family=args.family, axis=args.axis, start=args.start,
                         stop=args.stop, points=args.points,
                         measures=tuple(names.split(",")), fixed=tuple(fixed))
    with _claim_output(args.out) as save:
        text = run_sweep(spec, _opt_config_from(args), args.seed)
        save(text)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_schmidt(args) -> int:
    state = _load_source(args).state
    if not isinstance(state, PureState):
        raise ValueError("schmidt needs a pure state")
    dec = measures.schmidt_decompose(state)
    if args.json:
        print(json.dumps({"coefficients": [float(c) for c in dec.coefficients]}))
    else:
        print("k,coefficient")
        for k, c in enumerate(dec.coefficients):
            print(f"{k},{_fmt(float(c))}")
    return EXIT_OK


def cmd_classify(args) -> int:
    rho = _load_source(args).density
    diag, local, nonloc = coherence.class_masks(rho.dims)
    names = np.where(diag, "diagonal", np.where(local, "local", "nonlocal"))
    print("row,col,row_parts,col_parts,class,modulus")
    d = rho.dim
    for i in range(d):
        mi = np.unravel_index(i, rho.dims)
        for j in range(d):
            mj = np.unravel_index(j, rho.dims)
            print(f"{i},{j},"
                  f"{'.'.join(str(x) for x in mi)},"
                  f"{'.'.join(str(x) for x in mj)},"
                  f"{names[i, j]},{_fmt(abs(rho.entries[i, j]))}")
    return EXIT_OK


def cmd_remap(args) -> int:
    with _claim_output(args.out) as save:
        out = states.tps_remap(_load_source(args).density, states.werner_f_prime())
        save(json.dumps(state_to_json(out), indent=1) + "\n")   # save_state's bytes
    if not args.out:
        print(json.dumps(state_to_json(out)))
    return EXIT_OK


# --- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consonance",
        description="Quantum correlation as nonlocal coherence under the "
                    "best local frame")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_opt_flags(p, with_warm=False):
        default = unitary.Preset()
        p.add_argument("--preset", choices=default.KINDS, default=default.kind)
        p.add_argument("--depth", type=int, default=default.depth,
                       help="layer budget for the nonglobal preset")
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--max-evals", type=int, default=None, dest="max_evals")
        p.add_argument("--seed", type=int, default=0)
        if with_warm:
            p.add_argument("--warm-start", metavar="CIRCUIT_JSON", default=None,
                           help="circuit file whose parameters seed one restart")

    p = sub.add_parser("measure", help="evaluate one measure of one state")
    _add_state_source(p)
    p.add_argument("--measure", required=True,
                   help=", ".join(_SEARCH_MEASURES + tuple(_MEASURES)))
    p.add_argument("--json", action="store_true")
    add_opt_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("optimize", help="run the consonance search, print the report")
    _add_state_source(p)
    add_opt_flags(p, with_warm=True)
    p.add_argument("--report", metavar="FILE", help="also write the JSON report here")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="sweep a family parameter, emit CSV")
    p.add_argument("--recipe", choices=sorted(RECIPES))
    p.add_argument("--family")
    p.add_argument("--axis")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--fixed", help="comma-separated key=value pairs")
    p.add_argument("--measures",
                   help="comma-separated measure names (default consonance_cf)")
    p.add_argument("--out", metavar="FILE")
    add_opt_flags(p)
    p.set_defaults(func=cmd_sweep, restarts=8)

    p = sub.add_parser("schmidt", help="Schmidt coefficients of a pure state")
    _add_state_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("classify", help="per-element coherence classes as CSV")
    _add_state_source(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("remap", help="rewrite a two-qubit state in the Bell-basis "
                                     "product structure (states.werner_f_prime)")
    _add_state_source(p)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_remap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
