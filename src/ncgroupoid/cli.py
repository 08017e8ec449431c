"""Command line front end.

Every subcommand loads a space config (a JSON file path, or the name of a
bundled gallery config), runs its computation, prints its notes and one
line per check (``groupoid build`` reports notes only), and exits 0 when
all checks pass, 1 when any fails, 2 on malformed input.
With --out DIR, a report.txt and the command's CSV outputs are written
deterministically (fixed column order, fixed float formatting).

Each subcommand is one entry of ``COMMANDS``, which the parser and
``verify all`` both read.  A handler is the one definition of the checks
its subcommand reports: it receives the space and its Hausdorff groupoid
already built and fills in a report.  ``verify all`` runs every handler on
every bundled config and adds only the checks that no single command
reports.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from ._expr import ValueGradFn, coordinate_symbols, parse
from .algebra import (
    BaseFunction,
    arrow_basis,
    convolve,
    from_expression,
    involution,
    max_diff,
    random_element,
    unit,
)
from .calculus import Derivation, commutator_apply, commutator_defect, leibniz_defect
from .deform import (deformation_chain, homomorphism_defect_chain, singleton_defects,
                     step_n_pointwise_check)
from .diffspace import (
    ConfigError,
    GeneratorFunction,
    Partition,
    build_space,
    consistent_family,
    hausdorff_relation,
    load_config,
    quotient,
)
from .gallery import gallery, gallery_config
from .groupoid import build_groupoid
from .representation import (
    RandomOperator,
    homomorphism_defect,
    represent,
    star_defect,
)
from .reporting import (
    CheckRecord,
    RunReport,
    check,
    check_flag,
    config_digest,
    skip,
    write_csv,
)
from .vonneumann import (
    DensityField,
    ambient_dim,
    double_commutant,
    expect,
    make_state,
)

DEFAULT_TOL = 1e-12


def _load_config(value: str) -> dict:
    return gallery_config(value) if value in gallery() else load_config(value)


def _space_and_groupoid(config: dict):
    space = build_space(config)
    return space, build_groupoid(space, hausdorff_relation(space))


def _trial_checks(args, report, trial, tolerances: dict) -> np.random.Generator:
    """Check, per named defect, its worst over ``args.trials`` runs of ``trial(rng)``.

    One rng, seeded by ``args.seed`` and returned, feeds every run; a run returns its
    defects in the order of ``tolerances``.  ``np.max``, unlike ``max``, keeps a NaN.
    """
    rng = np.random.default_rng(args.seed)
    worst = np.max([trial(rng) for _ in range(args.trials)], axis=0)
    for (name, tol), defect in zip(tolerances.items(), worst):
        report.add(check(name, defect, tol))
    return rng


# ---------------------------------------------------------------- space

def _cmd_space_analyze(args, space, g, report) -> None:
    rho = g.partition
    report.note(f"{len(space.id_array)} points, dimension {space.dimension}, "
                f"{len(space.generators)} generators, compare={space.compare_mode}")
    sizes, counts = np.unique(rho.sizes, return_counts=True)
    report.note(f"relation: {rho.n_blocks} classes, count by size "
                f"{dict(zip(sizes.tolist(), counts.tolist()))}, hausdorff={rho.is_identity}")
    for r in consistent_family(space, rho):
        report.add(check_flag(
            f"consistent:{r.name}", r.consistent,
            note=f"max spread {r.max_spread:.3g}",
        ))
    q = quotient(space, rho)
    report.note(f"quotient: {len(q.space.id_array)} points, dropped={list(q.dropped)}")
    # pulling the pushed-down generators back along the projection must
    # reproduce the originals, up to the comparison mode: their keys agree.
    # The space's rows and rho's labels both run by ascending id, and the
    # quotient point of each point is its class label.
    kept = [j for j, gen in enumerate(space.generators) if gen.name not in q.dropped]
    pulled = q.space.generator_keys[rho.labels, :len(kept)]
    worst = np.abs(pulled - space.generator_keys[:, kept]).max(initial=0.0)
    report.add(check("quotient_roundtrip", float(worst), args.tol))
    if args.out:
        write_csv(os.path.join(args.out, "partition.csv"), ["point", "class"],
                  [rho.members, rho.labels])
        write_csv(os.path.join(args.out, "quotient_points.csv"),
                  ["class", "weight"] + [f"coord{i+1}" for i in range(q.space.dimension)],
                  [q.space.id_array, q.space.weights, *q.space.coords.T])


# ------------------------------------------------------------- groupoid

# relations other than the Hausdorff one, whose groupoid run() always builds
_RELATIONS = {
    "identity": lambda space: Partition.identity(space.id_array),
    "total": lambda space: Partition.total(space.id_array),
}


def _cmd_groupoid_build(args, space, g, report) -> None:
    rho = _RELATIONS[args.relation](space) if args.relation in _RELATIONS else g.partition
    report.note(f"{rho.n_blocks} orbits, {rho.sizes @ rho.sizes} arrows, transitive={rho.is_total}")
    if args.out:
        write_csv(os.path.join(args.out, "arrows.csv"), ["src", "dst"],
                  build_groupoid(space, rho).arrows()[:2])


# -------------------------------------------------------------- algebra

def _cmd_algebra_conv(args, space, g, report) -> None:
    a, b = from_expression(g, args.a), from_expression(g, args.b)
    if args.out:  # conv.csv carries the product's jets
        a, b = a.with_jets(), b.with_jets()
    c = convolve(a, b)
    report.note(f"a = {args.a!r}, b = {args.b!r}")
    report.note(f"max |a*b| = {c.max_abs():.6g}")
    e = unit(g)
    worst = np.max((max_diff(convolve(e, c), c), max_diff(convolve(c, e), c)))
    report.add(check("unit_law", worst, args.tol * max(1.0, c.max_abs())))
    if args.out:
        c.to_csv(os.path.join(args.out, "conv.csv"))


def _cmd_algebra_check_laws(args, space, g, report) -> None:
    e = unit(g)

    def trial(rng):
        a, b, c = (random_element(g, rng) for _ in range(3))
        ab = convolve(a, b)
        lhs = convolve(ab, c)
        assoc = max_diff(lhs, convolve(a, convolve(b, c)))
        anti = max_diff(involution(ab), convolve(involution(b), involution(a)))
        units = np.max((max_diff(convolve(e, a), a), max_diff(convolve(a, e), a)))
        return (assoc / max(1.0, lhs.max_abs()), anti / max(1.0, ab.max_abs()),
                max_diff(involution(involution(a)), a), units / max(1.0, a.max_abs()))

    rng = _trial_checks(args, report, trial, {
        "associativity": args.tol, "involution_antihom": args.tol,
        "involution_involutive": 0.0, "unit_law": args.tol})
    if g.partition.is_identity:
        # diagonal groupoid: convolution collapses to the weighted
        # pointwise product on the units
        weighted, _ = singleton_defects(random_element(g, rng), random_element(g, rng))
        report.add(check("diagonal_collapse", weighted, args.tol))


# ------------------------------------------------------------- calculus

def _parse_deriv(space, text: str) -> Derivation:
    parts = [p.strip() for p in text.split(",")]
    return Derivation.from_expressions(space, parts)


def _cmd_calculus_leibniz(args, space, g, report) -> None:
    P = _parse_deriv(space, args.deriv)
    a = from_expression(g, args.a)
    b = from_expression(g, args.b)
    report.note(f"P = ({args.deriv}), a = {args.a!r}, b = {args.b!r}")
    scale = max(1.0, convolve(a, b).max_abs())
    report.add(check("leibniz", leibniz_defect(P, a, b) / scale, args.tol))


def _cmd_calculus_commutator(args, space, g, report) -> None:
    P = _parse_deriv(space, args.deriv)
    f = BaseFunction.from_expression(space, args.func)
    a = from_expression(g, args.a)
    report.note(f"P = ({args.deriv}), f = {args.func!r}, a = {args.a!r}")
    scale = max(1.0, a.max_abs())
    report.add(check("commutator_vs_Qf", commutator_defect(P, f, a) / scale, args.tol))


# --------------------------------------------------------------- rep

def _cmd_rep_build(args, space, g, report) -> None:
    a = from_expression(g, args.a)
    R = represent(a)
    sup = R.ess_sup()
    report.note(f"a = {args.a!r}")
    report.note(f"ess sup = {sup:.6g}")
    report.add(check_flag("bounded", math.isfinite(sup)))
    if args.out:
        # each class matrix once, keyed by point ids; the fiber over x is its class's rows
        write_csv(os.path.join(args.out, "fibers.csv"), ["row", "col", "re", "im"],
                  R.stack.columns())


def _cmd_rep_check(args, space, g, report) -> None:
    def trial(rng):
        a, b = random_element(g, rng), random_element(g, rng)
        return (homomorphism_defect(a, b) / max(1.0, represent(convolve(a, b)).ess_sup()),
                star_defect(a) / max(1.0, represent(a).ess_sup()))

    _trial_checks(args, report, trial,
                  {"representation_homomorphism": args.tol, "representation_star": args.tol})
    # every fiber is its class's matrix
    worst = np.max([np.abs(M - np.eye(grp.m)).max()
                    for grp, M in zip(g.groups, represent(unit(g)).stack.arrays)])
    report.add(check("represent_unit_is_identity", worst, args.tol))


# ---------------------------------------------------------------- vn

def _cmd_vn_commutant(args, space, g, report) -> None:
    try:
        D = ambient_dim(g)
    except ValueError as exc:
        report.add(skip("bicommutant", str(exc)))
        return
    gens = [represent(e) for e in arrow_basis(g)]
    result = double_commutant(gens)
    report.note(
        f"ambient dim {D}; commutant dim {result.commutant.dim}, "
        f"bicommutant dim {result.bicommutant.dim}, span dim {result.span_dim}"
    )
    report.add(check("generators_inside_bicommutant",
                     result.generator_residual, 1e-10))
    report.add(check_flag("bicommutant_equals_span", result.equals_span))
    if args.out:
        S = result.commutant.stack
        write_csv(os.path.join(args.out, "commutant_basis.csv"), ["k", "row", "col", "re", "im"],
                  [col.ravel() for col in (*np.indices(S.shape), S.real, S.imag)])


def _expect_identity(state, g, tol) -> CheckRecord:
    return check("expect_identity", abs(expect(state, RandomOperator.identity(g)) - 1.0), tol)


def _cmd_vn_state_check(args, space, g, report) -> None:
    try:
        state = make_state(DensityField.uniform(g))
    except ValueError as exc:
        report.add(check_flag("uniform_state_valid", False, note=str(exc)))
        return
    report.add(check_flag("uniform_state_valid", True,
                          note=f"normalization {state.normalization!r}"))
    report.add(check_flag("uniform_state_faithful", state.faithful))
    report.add(_expect_identity(state, g, args.tol))

    def trial(rng):
        R = represent(random_element(g, rng))
        val = expect(state, R.adjoint() @ R)
        # float64 ** gives inf past the range, where float ** raises; abs(min()) keeps a NaN
        scale = max(1.0, np.float64(R.ess_sup()) ** 2)
        return (np.max((abs(min(val.real, 0.0)), abs(val.imag))) / scale,)

    _trial_checks(args, report, trial, {"positivity_on_squares": args.tol})


def _cmd_vn_expect(args, space, g, report) -> None:
    a = from_expression(g, args.a)
    state = make_state(DensityField.uniform(g))
    val = expect(state, represent(a))
    report.note(f"Phi(represent({args.a!r})) = {val.real!r} + {val.imag!r}j")
    report.add(_expect_identity(state, g, args.tol))


# -------------------------------------------------------------- deform

def _cmd_deform_sweep(args, space, g, report) -> None:
    chain = deformation_chain(space)
    rep = chain.report
    report.note(
        f"levels 0..{chain.top}: blocks {list(rep.block_counts)}, "
        f"arrows {list(rep.arrow_counts)}"
    )
    report.add(check_flag("partitions_refine", rep.partitions_refine))
    report.add(check_flag("classes_are_fibers", rep.fibers_exact))
    if not rep.top_is_diagonal:
        report.note("top level is not the diagonal (coincident coordinates)")
    defects = chain.lost_mass()
    for k, d in enumerate(defects):
        report.note(f"restriction defect level {k}->{k + 1} on constants: {d:.6g}")
    top_g = chain.level(chain.top).groupoid
    # a space of dimension 0 has no coordinates to build from
    a, b = ("1 + x1*y1", "2 - x1") if space.dimension else ("1", "2")
    step = step_n_pointwise_check(chain, from_expression(top_g, a), from_expression(top_g, b))
    if step.weighted_defect is None:
        for name in ("top_level_weighted_pointwise", "top_level_plain_pointwise"):
            report.add(skip(name, "the top level has no singleton class"))
    else:
        report.add(check("top_level_weighted_pointwise", step.weighted_defect, args.tol))
        if step.unit_weights:
            report.add(check("top_level_plain_pointwise", step.plain_defect, args.tol))
        else:
            report.add(skip("top_level_plain_pointwise", "weights are not all 1"))
    if args.out:
        # the last level restricts to none
        write_csv(os.path.join(args.out, "levels.csv"),
                  ["level", "blocks", "arrows", "restriction_defect_on_constants"],
                  [np.arange(chain.top + 1), rep.block_counts, rep.arrow_counts,
                   [f"{d:.17g}" for d in defects] + [""]])


# -------------------------------------------------------------- verify

def _fd_jet_check(g, tol) -> CheckRecord:
    """Jets of an expression element against central finite differences of its values."""
    n = g.space.dimension
    text = "1 + x1*y1 + x1^2"
    syms = coordinate_symbols(n) + coordinate_symbols(n, prefix="y")
    f = ValueGradFn(parse(text, syms), syms)
    a = from_expression(g, text).with_jets()
    h = 1e-4
    step = h * np.eye(2 * n)
    found = []  # per size group: the largest difference, the largest jet entry
    for grp, arr in zip(g.groups, a.stack.arrays):
        pts = g.space.coords[grp.index]  # (k, m, n)
        # (k, m, m, 2n): source coordinates first, as the source partials in the jet
        c = np.concatenate(np.broadcast_arrays(pts[:, :, None], pts[:, None, :]), axis=-1)
        fd = (f.values(c[..., None, :] + step) - f.values(c[..., None, :] - step)) / (2 * h)
        jets = np.moveaxis(arr[:, 1:], 1, -1)
        found.append((np.abs(fd - jets).max(), np.abs(jets).max()))
    worst, size = np.max(found, axis=0)
    return check("jets_match_finite_differences", float(worst / max(1.0, size)), tol)


def _superposition_check(space, before: Partition, rng) -> CheckRecord:
    """Adding a function OF the generators must not change the relation ``before``."""
    gens = [f"({g.expr_text})" for g in space.generators]
    coefs = rng.integers(-3, 4, size=len(gens))
    terms = [str(int(rng.integers(-3, 4)))]
    terms += [f"{int(c)}*{t}" for c, t in zip(coefs, gens)]
    terms += [f"{int(c)}*{t}*{t}" for c, t in zip(coefs[::-1], gens)]
    composed = " + ".join(terms)
    bigger = space.with_generators(
        [*space.generators, GeneratorFunction("superposed", composed, space.dimension)])
    after = hausdorff_relation(bigger)
    return check_flag("superposition_invariance", after == before)


def _suite_only_checks(space, g, rng) -> list[CheckRecord]:
    """The properties ``verify all`` checks that no subcommand reports."""
    q = quotient(space, g.partition)
    a = from_expression(g, "x1*y1 + 2")
    P1 = Derivation.from_expressions(space, ["1"] + ["0"] * (space.dimension - 1))
    comm = commutator_apply(P1, BaseFunction.from_expression(space, "x1"), a)
    chain = deformation_chain(space)
    # the general defect on tabulated constants, which deform sweep reads off the labels
    ones = [from_expression(chain.level(k).groupoid, "1") for k in range(chain.top)]
    dense = [homomorphism_defect_chain(e, e, chain, k) for k, e in enumerate(ones)]
    return [
        _superposition_check(space, g.partition, rng),
        check_flag("quotient_is_hausdorff", hausdorff_relation(q.space).is_identity),
        check("quotient_weight_mass",
              abs(sum(p.weight for p in q.space.points) - sum(p.weight for p in space.points)),
              1e-12),
        check("position_momentum_identity", max_diff(comm, a) / max(1.0, a.max_abs()), 1e-14),
        _fd_jet_check(g, 1e-6),
        # deform sweep states this as a note: coincident coordinates are
        # legitimate input there, but no bundled config has them
        check_flag("top_level_diagonal", chain.report.top_is_diagonal),
        check("restriction_defect_is_lost_mass",
              np.abs(np.subtract(dense, chain.lost_mass())).max(initial=0.0), 1e-12),
    ]


def _adopt(report: RunReport, prefix: str, checks, notes=()) -> None:
    report.notes.extend(prefix + text for text in notes)
    report.checks.extend(replace(c, name=prefix + c.name) for c in checks)


def _cmd_verify_all(args, parser: argparse.ArgumentParser) -> RunReport:
    """Every subcommand on every bundled config, then the suite-only checks.

    A check is named ``config:group.command:check``; the suite-only ones
    carry ``verify.all`` as their command.
    """
    names = gallery()
    report = RunReport("verify all", config_digest({n: gallery_config(n) for n in names}))
    report.note(f"gallery configs: {names}")
    rng = np.random.default_rng(args.seed)
    for name in names:
        space, g = _space_and_groupoid(gallery_config(name))
        deriv = ",".join(f"x{i} + {i}" for i in range(1, space.dimension + 1))
        for cmd in COMMANDS:
            suite = [text.format(deriv=deriv, seed=args.seed) for text in cmd.suite]
            sub = parser.parse_args([cmd.group, cmd.name, *suite,
                                     "--space", name, "--tol", repr(args.tol)])
            part = RunReport(f"{cmd.group} {cmd.name}", report.input_digest)
            cmd.handler(sub, space, g, part)
            _adopt(report, f"{name}:{cmd.group}.{cmd.name}:", part.checks, part.notes)
        _adopt(report, f"{name}:verify.all:", _suite_only_checks(space, g, rng))
    return report


# ------------------------------------------------------------- wiring

def _bounded(convert, accept, rule: str):
    """An argparse type: ``convert`` the text, then refuse a value ``accept`` rejects."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _arg(flag: str, **options) -> tuple[str, dict]:
    return flag, options


_EXPR = "expression in x1..xn, y1..yn"
_SPACE = _arg("--space", required=True, help="path to a space config JSON, or a gallery name")
_COMMON = (
    _arg("--out", default=None, help="directory for report.txt and CSVs"),
    _arg("--tol", type=_bounded(float, lambda v: 0 <= v < math.inf, "finite and nonnegative"),
         default=DEFAULT_TOL, help=f"tolerance for defect checks (default {DEFAULT_TOL})"),
)
# numpy's random generators need a nonnegative seed
_SEED = _arg("--seed", type=_bounded(int, lambda v: v >= 0, "nonnegative"), default=0,
             help="seed for randomized checks (default 0)")
_SEEDED = (_SEED, _arg("--trials", type=_bounded(int, lambda v: v >= 1, "at least 1"),
                       default=20, help="number of random trials (default 20)"))


@dataclass(frozen=True)
class Command:
    """One subcommand: its parser entry, its handler and how ``verify all`` runs it.

    ``arguments`` follow ``--space`` and the common ``--out`` and ``--tol``, as
    (flag, ``add_argument`` keywords).  ``suite`` is what ``verify all`` passes
    besides ``--space`` and ``--tol``; ``{deriv}`` and ``{seed}`` are filled in
    per config.
    """

    group: str
    name: str
    help: str
    handler: Callable
    arguments: tuple = ()
    suite: tuple = ()


GROUPS = {
    "space": "spaces, relations, quotients",
    "groupoid": "pair groupoids of relations",
    "algebra": "the convolution algebra",
    "calculus": "lifted derivations",
    "rep": "the regular representation",
    "vn": "states and commutants",
    "deform": "the level-by-level deformation chain",
    "verify": "property suites",
}

_SUITE_A, _SUITE_B = ("--a", "x1*y1 + 2"), ("--b", "x1 + y1 + 1")
_SUITE_SEEDED = ("--seed", "{seed}", "--trials", "5")

COMMANDS = (
    Command("space", "analyze", "relation, consistency, quotient of a space",
            _cmd_space_analyze),
    Command("groupoid", "build", "build the groupoid and report its orbits and arrows",
            _cmd_groupoid_build,
            (_arg("--relation", default="hausdorff", choices=["hausdorff", *_RELATIONS]),)),
    Command("algebra", "conv", "convolve two expression elements", _cmd_algebra_conv,
            (_arg("--a", required=True, help=_EXPR), _arg("--b", required=True, help=_EXPR)),
            (*_SUITE_A, *_SUITE_B)),
    Command("algebra", "check-laws", "algebra laws on random elements",
            _cmd_algebra_check_laws, _SEEDED, _SUITE_SEEDED),
    Command("calculus", "leibniz", "generalized Leibniz rule defect", _cmd_calculus_leibniz,
            (_arg("--deriv", required=True,
                  help="comma-separated coefficient expressions, one per coordinate"),
             _arg("--a", required=True), _arg("--b", required=True)),
            ("--deriv", "{deriv}", *_SUITE_A, *_SUITE_B)),
    Command("calculus", "commutator", "[P, Q(f)] against Q(Pf)", _cmd_calculus_commutator,
            (_arg("--deriv", required=True),
             _arg("--func", required=True, help="expression in x1..xn"),
             _arg("--a", required=True)),
            ("--deriv", "{deriv}", "--func", "x1^2", *_SUITE_A)),
    Command("rep", "build", "represent an element, report its field", _cmd_rep_build,
            (_arg("--a", default="1", help=_EXPR),), _SUITE_A),
    Command("rep", "check", "homomorphism and star properties", _cmd_rep_check,
            _SEEDED, _SUITE_SEEDED),
    Command("vn", "commutant", "commutant and bicommutant dimensions", _cmd_vn_commutant),
    Command("vn", "state-check", "state axioms for the uniform density",
            _cmd_vn_state_check, _SEEDED, _SUITE_SEEDED),
    Command("vn", "expect", "expectation of a represented element", _cmd_vn_expect,
            (_arg("--a", default="1", help=_EXPR),), _SUITE_A),
    Command("deform", "sweep", "walk all levels, measure restriction defects",
            _cmd_deform_sweep),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgroupoid",
        description="Groupoid convolution algebras on finite differential spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)
    subs = {name: groups.add_parser(name, help=text).add_subparsers(dest="command",
                                                                    required=True)
            for name, text in GROUPS.items()}
    for cmd in COMMANDS:
        p = subs[cmd.group].add_parser(cmd.name, help=cmd.help)
        for flag, options in (_SPACE, *_COMMON, *cmd.arguments):
            p.add_argument(flag, **options)
        p.set_defaults(handler=cmd.handler)
    p = subs["verify"].add_parser("all", help="full property suite over the bundled configs")
    for flag, options in (*_COMMON, _SEED):
        p.add_argument(flag, **options)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        if args.out:
            try:
                os.makedirs(args.out, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise ConfigError(f"--out {args.out!r} is not a directory") from exc
        if args.group == "verify":
            report = _cmd_verify_all(args, parser)
        else:
            config = _load_config(args.space)
            report = RunReport(f"{args.group} {args.command}", config_digest(config))
            args.handler(args, *_space_and_groupoid(config), report)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    if args.out:
        path = report.write(args.out)
        print(f"wrote {path}")
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
