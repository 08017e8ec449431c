"""Command line front end.

Every subcommand loads a space config (a JSON file path, or the name of a
bundled gallery config), runs its computation, prints one line per check,
and exits 0 when all checks pass, 1 when any fails, 2 on malformed input.
With --out DIR, a report.txt and the command's CSV outputs are written
deterministically (fixed column order, fixed float formatting).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import sympy

from . import __version__
from ._expr import ExpressionError, coordinate_symbols, parse
from .algebra import (
    AlgebraElement,
    BaseFunction,
    arrow_basis,
    convolve,
    from_expression,
    involution,
    max_diff,
    module_action,
    random_element,
    unit,
)
from .calculus import Derivation, commutator_apply, commutator_defect, leibniz_defect
from .deform import deformation_chain, homomorphism_defect_chain, step_n_pointwise_check
from .diffspace import (
    ConfigError,
    Partition,
    build_space,
    classes_are_fibers,
    consistent_family,
    hausdorff_relation,
    quotient,
)
from .gallery import gallery, gallery_config
from .groupoid import build_groupoid, is_transitive
from .representation import (
    RandomOperator,
    homomorphism_defect,
    random_operator_report,
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
    if value in gallery():
        return gallery_config(value)
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {value}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {value}: {exc}")


def _space_and_groupoid(args):
    config = _load_config(args.space)
    space = build_space(config)
    rho = hausdorff_relation(space)
    return config, space, build_groupoid(space, rho)


def _report(args, command: str, config: dict) -> RunReport:
    return RunReport(command=command, input_digest=config_digest(config))


# ---------------------------------------------------------------- space

def _cmd_space_analyze(args) -> RunReport:
    config = _load_config(args.space)
    space = build_space(config)
    report = _report(args, "space analyze", config)
    rho = hausdorff_relation(space)
    report.note(
        f"{len(space.points)} points, dimension {space.dimension}, "
        f"{len(space.generators)} generators, compare={space.compare_mode}"
    )
    report.note(
        f"relation: {rho.n_blocks} classes, sizes "
        f"{[len(b) for b in rho.blocks]}, hausdorff={rho.is_identity}"
    )
    fam = consistent_family(space, rho)
    for r in fam.results:
        report.add(check_flag(
            f"consistent:{r.name}", r.consistent,
            note=f"max spread {r.max_spread:.3g}",
        ))
    q = quotient(space, rho)
    report.note(
        f"quotient: {len(q.space.points)} points, dropped={list(q.dropped)}"
    )
    # pulling the pushed-down generators back along the projection must
    # reproduce the originals
    kept = [j for j, g in enumerate(space.generators) if g.name not in q.dropped]
    down = [q.space.index_of(q.projection[x]) for x in space.ids]
    pulled = q.space.generator_values[down, :len(kept)]
    worst = np.abs(pulled - space.generator_values[:, kept]).max(initial=0.0)
    report.add(check("quotient_roundtrip", float(worst), args.tol))
    if args.out:
        write_csv(
            os.path.join(args.out, "partition.csv"),
            ["point", "class"],
            [(x, rho.block_of[x]) for x in sorted(rho.block_of)],
        )
        write_csv(
            os.path.join(args.out, "quotient_points.csv"),
            ["class", "weight"] + [f"coord{i+1}" for i in range(q.space.dimension)],
            [(p.id, p.weight) + tuple(p.coords) for p in q.space.points],
        )
    return report


# ------------------------------------------------------------- groupoid

def _relation_for(space, name: str) -> Partition:
    if name == "hausdorff":
        return hausdorff_relation(space)
    if name == "identity":
        return Partition.identity(space.ids)
    if name == "total":
        return Partition.total(space.ids)
    raise ConfigError(f"unknown relation {name!r}")


def _relation_check(prefix: str, space, rho: Partition) -> CheckRecord:
    """The classes must be exactly the fibers of the generator values."""
    return check_flag(f"{prefix}relation_matches_generators", classes_are_fibers(space, rho))


def _cmd_groupoid_build(args) -> RunReport:
    config = _load_config(args.space)
    space = build_space(config)
    rho = _relation_for(space, args.relation)
    g = build_groupoid(space, rho)
    report = _report(args, "groupoid build", config)
    report.note(
        f"{g.n_blocks} orbits, {g.arrow_count} arrows, "
        f"transitive={is_transitive(g)}"
    )
    if args.relation == "hausdorff":
        report.add(_relation_check("", space, rho))
    else:
        report.add(skip("relation_matches_generators",
                        f"the {args.relation} relation is not built from the generators"))
    if args.out:
        write_csv(
            os.path.join(args.out, "arrows.csv"),
            ["src", "dst"],
            sorted((a.src, a.dst) for a in g.arrows()),
        )
    return report


# -------------------------------------------------------------- algebra

def _cmd_algebra_conv(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    a = from_expression(g, args.a)
    b = from_expression(g, args.b)
    c = convolve(a, b)
    report = _report(args, "algebra conv", config)
    report.note(f"a = {args.a!r}, b = {args.b!r}")
    report.note(f"max |a*b| = {c.max_abs():.6g}")
    e = unit(g)
    report.add(check(
        "unit_law", max(max_diff(convolve(e, c), c), max_diff(convolve(c, e), c)),
        args.tol * max(1.0, c.max_abs()),
    ))
    if args.out:
        c.to_csv(os.path.join(args.out, "conv.csv"))
    return report


def _algebra_law_checks(prefix, g, rng, tol, trials) -> list[CheckRecord]:
    assoc = 0.0
    anti = 0.0
    invol = 0.0
    unit_law = 0.0
    e = unit(g)
    for _ in range(trials):
        a = random_element(g, rng)
        b = random_element(g, rng)
        c = random_element(g, rng)
        lhs = convolve(convolve(a, b), c)
        rhs = convolve(a, convolve(b, c))
        scale = max(1.0, lhs.max_abs())
        assoc = max(assoc, max_diff(lhs, rhs) / scale)
        ab = convolve(a, b)
        anti = max(anti, max_diff(
            involution(ab), convolve(involution(b), involution(a))
        ) / max(1.0, ab.max_abs()))
        invol = max(invol, max_diff(involution(involution(a)), a))
        unit_law = max(
            unit_law,
            max_diff(convolve(e, a), a) / max(1.0, a.max_abs()),
            max_diff(convolve(a, e), a) / max(1.0, a.max_abs()),
        )
    records = [
        check(f"{prefix}associativity", assoc, tol),
        check(f"{prefix}involution_antihom", anti, tol),
        check(f"{prefix}involution_involutive", invol, 0.0),
        check(f"{prefix}unit_law", unit_law, tol),
    ]
    if all(len(b) == 1 for b in g.blocks):
        # diagonal groupoid: convolution collapses to the weighted
        # pointwise product on the units
        a = random_element(g, rng)
        b = random_element(g, rng)
        c = convolve(a, b)
        worst = max(
            abs(c.value_at(x, x)
                - a.value_at(x, x) * b.value_at(x, x) * g.space.weight(x))
            for x in g.space.ids
        )
        records.append(check(f"{prefix}diagonal_collapse", worst, tol))
    return records


def _cmd_algebra_check_laws(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    rng = np.random.default_rng(args.seed)
    report = _report(args, "algebra check-laws", config)
    report.checks.extend(
        _algebra_law_checks("", g, rng, args.tol, args.trials)
    )
    return report


# ------------------------------------------------------------- calculus

def _parse_deriv(space, text: str) -> Derivation:
    parts = [p.strip() for p in text.split(",")]
    return Derivation.from_expressions(space, parts)


def _cmd_calculus_leibniz(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    P = _parse_deriv(space, args.deriv)
    a = from_expression(g, args.a)
    b = from_expression(g, args.b)
    report = _report(args, "calculus leibniz", config)
    report.note(f"P = ({args.deriv}), a = {args.a!r}, b = {args.b!r}")
    scale = max(1.0, convolve(a, b).max_abs())
    report.add(check("leibniz", leibniz_defect(P, a, b) / scale, args.tol))
    return report


def _cmd_calculus_commutator(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    P = _parse_deriv(space, args.deriv)
    f = BaseFunction.from_expression(space, args.func)
    a = from_expression(g, args.a)
    report = _report(args, "calculus commutator", config)
    report.note(f"P = ({args.deriv}), f = {args.func!r}, a = {args.a!r}")
    scale = max(1.0, a.max_abs())
    report.add(check("commutator_vs_Qf", commutator_defect(P, f, a) / scale, args.tol))
    return report


# --------------------------------------------------------------- rep

def _cmd_rep_build(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    a = from_expression(g, args.a)
    R = represent(a)
    rep_report = random_operator_report(R)
    report = _report(args, "rep build", config)
    report.note(f"a = {args.a!r}")
    report.note(f"ess sup = {rep_report.ess_sup:.6g}")
    report.add(check_flag("measurable_field", rep_report.measurable,
                          note=rep_report.measurable_note))
    report.add(check_flag("bounded", rep_report.bounded))
    if args.out:
        rows = []
        for x in space.ids:
            fs_block = g.block_points(g.block_index(x))
            M = R.fiber(x)
            for i, zi in enumerate(fs_block):
                for j, zj in enumerate(fs_block):
                    rows.append((x, zi, zj, float(M[i, j].real), float(M[i, j].imag)))
        write_csv(
            os.path.join(args.out, "fibers.csv"),
            ["point", "row", "col", "re", "im"],
            rows,
        )
    return report


def _rep_checks(prefix, g, rng, tol, trials) -> list[CheckRecord]:
    hom = 0.0
    star = 0.0
    for _ in range(trials):
        a = random_element(g, rng)
        b = random_element(g, rng)
        scale = max(1.0, represent(convolve(a, b)).ess_sup())
        hom = max(hom, homomorphism_defect(a, b) / scale)
        star = max(star, star_defect(a) / max(1.0, represent(a).ess_sup()))
    records = [
        check(f"{prefix}representation_homomorphism", hom, tol),
        check(f"{prefix}representation_star", star, tol),
    ]
    E = represent(unit(g))
    worst = max(
        float(np.abs(E.fiber(x) - np.eye(E.fiber(x).shape[0])).max())
        for x in g.space.ids
    )
    records.append(check(f"{prefix}represent_unit_is_identity", worst, tol))
    return records


def _cmd_rep_check(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    rng = np.random.default_rng(args.seed)
    report = _report(args, "rep check", config)
    report.checks.extend(_rep_checks("", g, rng, args.tol, args.trials))
    return report


# ---------------------------------------------------------------- vn

def _cmd_vn_commutant(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    report = _report(args, "vn commutant", config)
    try:
        D = ambient_dim(g)
    except ValueError as exc:
        report.add(skip("bicommutant", str(exc)))
        return report
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
        rows = []
        for k, B in enumerate(result.commutant.matrices):
            for i in range(D):
                for j in range(D):
                    rows.append((k, i, j, float(B[i, j].real), float(B[i, j].imag)))
        write_csv(
            os.path.join(args.out, "commutant_basis.csv"),
            ["k", "row", "col", "re", "im"],
            rows,
        )
    return report


def _state_checks(prefix, g, rng, tol, trials) -> list[CheckRecord]:
    records = []
    try:
        state = make_state(DensityField.uniform(g))
    except ValueError as exc:
        return [check_flag(f"{prefix}uniform_state_valid", False, note=str(exc))]
    records.append(check_flag(f"{prefix}uniform_state_valid", True,
                              note=f"normalization {state.report.normalization!r}"))
    records.append(check_flag(f"{prefix}uniform_state_faithful", state.faithful))
    ident = RandomOperator.identity(g)
    records.append(check(
        f"{prefix}expect_identity",
        abs(expect(state, ident) - 1.0), tol,
    ))
    worst = 0.0
    for _ in range(trials):
        R = represent(random_element(g, rng))
        val = expect(state, R.adjoint() @ R)
        scale = max(1.0, R.ess_sup() ** 2)
        worst = max(worst, max(0.0, -val.real) / scale, abs(val.imag) / scale)
    records.append(check(f"{prefix}positivity_on_squares", worst, tol))
    return records


def _cmd_vn_state_check(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    rng = np.random.default_rng(args.seed)
    report = _report(args, "vn state-check", config)
    report.checks.extend(_state_checks("", g, rng, args.tol, args.trials))
    return report


def _cmd_vn_expect(args) -> RunReport:
    config, space, g = _space_and_groupoid(args)
    a = from_expression(g, args.a)
    state = make_state(DensityField.uniform(g))
    val = expect(state, represent(a))
    report = _report(args, "vn expect", config)
    report.note(f"Phi(represent({args.a!r})) = {val.real!r} + {val.imag!r}j")
    report.add(check(
        "expect_identity",
        abs(expect(state, RandomOperator.identity(g)) - 1.0), args.tol,
    ))
    return report


# -------------------------------------------------------------- deform

def _cmd_deform_sweep(args) -> RunReport:
    config = _load_config(args.space)
    space = build_space(config)
    chain = deformation_chain(space)
    report = _report(args, "deform sweep", config)
    rep = chain.report
    report.note(
        f"levels 0..{chain.top}: blocks {list(rep.block_counts)}, "
        f"arrows {list(rep.arrow_counts)}"
    )
    report.add(check_flag("arrows_monotone", rep.arrows_monotone))
    report.add(check_flag("partitions_refine", rep.partitions_refine))
    report.add(check_flag("classes_are_fibers", rep.fibers_exact))
    if not rep.top_is_diagonal:
        report.note("top level is not the diagonal (coincident coordinates)")
    defects = []
    for k in range(chain.top):
        gk = chain.level(k).groupoid
        ones = from_expression(gk, "1")
        d = homomorphism_defect_chain(ones, ones, chain, k)
        defects.append(d)
        report.note(f"restriction defect level {k}->{k + 1} on constants: {d:.6g}")
    top_g = chain.level(chain.top).groupoid
    a = from_expression(top_g, "1 + x1*y1")
    b = from_expression(top_g, "2 - x1")
    step = step_n_pointwise_check(chain, a, b)
    report.add(check("top_level_weighted_pointwise", step.weighted_defect,
                     args.tol))
    if step.unit_weights:
        report.add(check("top_level_plain_pointwise", step.plain_defect, args.tol))
    else:
        report.add(skip("top_level_plain_pointwise", "weights are not all 1"))
    if args.out:
        write_csv(
            os.path.join(args.out, "levels.csv"),
            ["level", "blocks", "arrows", "restriction_defect_on_constants"],
            [
                (k, rep.block_counts[k], rep.arrow_counts[k],
                 defects[k] if k < len(defects) else "")
                for k in range(chain.top + 1)
            ],
        )
    return report


# -------------------------------------------------------------- verify

def _fd_jet_check(prefix, g, tol) -> CheckRecord:
    """Jets of an expression element against central finite differences."""
    n = g.space.dimension
    text = "1 + x1*y1 + x1^2" if n >= 1 else "1"
    syms = coordinate_symbols(n) + coordinate_symbols(n, prefix="y")
    expr = parse(text, syms)
    f = sympy.lambdify(syms, expr, modules="math")
    a = from_expression(g, text)
    h = 1e-4
    worst = 0.0
    scale = 1.0
    for x, y in g.partition.pairs():
        c = list(g.space.point(x).coords) + list(g.space.point(y).coords)
        jet = a.jet_at(x, y)
        # source coordinates come first in c, as the source partials in the jet
        for k, d in enumerate(jet.d_src + jet.d_dst):
            cp, cm = list(c), list(c)
            cp[k] += h
            cm[k] -= h
            worst = max(worst, abs((f(*cp) - f(*cm)) / (2 * h) - d))
            scale = max(scale, abs(d))
    return check(f"{prefix}jets_match_finite_differences", worst / scale, tol)


def _superposition_check(prefix, space, rng) -> CheckRecord:
    """Adding a function OF the generators must not change the relation."""
    from .diffspace import DiffSpace, GeneratorFunction

    before = hausdorff_relation(space)
    k = len(space.generators)
    ts = sympy.symbols(f"t1:{k + 1}")
    coefs = rng.integers(-3, 4, size=k)
    omega = sympy.Integer(int(rng.integers(-3, 4)))
    omega += sum(int(c) * t for c, t in zip(coefs, ts))
    omega += sum(int(c) * t * t for c, t in zip(coefs[::-1], ts))
    composed = omega.subs(
        {t: g.expr for t, g in zip(ts, space.generators)}, simultaneous=True
    )
    bigger = DiffSpace(
        space.points, space.dimension,
        list(space.generators)
        + [GeneratorFunction("superposed", composed, space.dimension)],
        compare_mode=space.compare_mode, eps=space.eps,
        constants_only=False,
    )
    after = hausdorff_relation(bigger)
    return check_flag(f"{prefix}superposition_invariance", after == before)


def _verify_config(name: str, rng, tol: float) -> list[CheckRecord]:
    records = []
    p = f"{name}:"
    config = gallery_config(name)
    space = build_space(config)
    rho = hausdorff_relation(space)
    g = build_groupoid(space, rho)

    fam = consistent_family(space, rho)
    records.append(check_flag(f"{p}generators_consistent", fam.all_consistent))
    records.append(_superposition_check(p, space, rng))

    q = quotient(space, rho)
    records.append(check_flag(f"{p}quotient_is_hausdorff",
                              hausdorff_relation(q.space).is_identity))
    records.append(check(
        f"{p}quotient_weight_mass",
        abs(sum(pt.weight for pt in q.space.points)
            - sum(pt.weight for pt in space.points)),
        1e-12,
    ))

    records.append(_relation_check(p, space, rho))
    records.extend(_algebra_law_checks(p, g, rng, tol, trials=5))
    records.extend(_rep_checks(p, g, rng, tol, trials=5))
    records.extend(_state_checks(p, g, rng, tol, trials=5))

    try:
        ambient_dim(g)
    except ValueError as exc:
        records.append(skip(f"{p}bicommutant", str(exc)))
    else:
        result = double_commutant([represent(e) for e in arrow_basis(g)])
        records.append(check(f"{p}generators_inside_bicommutant",
                             result.generator_residual, 1e-10))
        records.append(check_flag(f"{p}bicommutant_equals_span", result.equals_span))

    chain = deformation_chain(space)
    records.append(check_flag(f"{p}chain_arrows_monotone", chain.report.arrows_monotone))
    records.append(check_flag(f"{p}chain_partitions_refine", chain.report.partitions_refine))
    records.append(check_flag(f"{p}chain_classes_are_fibers", chain.report.fibers_exact))
    records.append(check_flag(f"{p}chain_top_diagonal", chain.report.top_is_diagonal))
    top_g = chain.level(chain.top).groupoid
    a = from_expression(top_g, "1 + x1*y1")
    b = from_expression(top_g, "2 - x1")
    step = step_n_pointwise_check(chain, a, b)
    records.append(check(f"{p}step_n_weighted_pointwise", step.weighted_defect, tol))

    n = space.dimension
    P = Derivation.from_expressions(
        space, [f"x{i} + {i}" for i in range(1, n + 1)]
    )
    a = from_expression(g, "x1*y1 + 2")
    b = from_expression(g, "x1 + y1 + 1")
    f = BaseFunction.from_expression(space, "x1^2")
    scale = max(1.0, convolve(a, b).max_abs())
    records.append(check(f"{p}leibniz", leibniz_defect(P, a, b) / scale, tol))
    records.append(check(
        f"{p}commutator_vs_Qf",
        commutator_defect(P, f, a) / max(1.0, a.max_abs()), tol,
    ))
    P1 = Derivation.from_expressions(space, ["1"] + ["0"] * (n - 1))
    pi1 = BaseFunction.from_expression(space, "x1")
    comm = commutator_apply(P1, pi1, a)
    records.append(check(
        f"{p}position_momentum_identity",
        max_diff(comm, a) / max(1.0, a.max_abs()), 1e-14,
    ))
    records.append(_fd_jet_check(p, g, 1e-6))
    return records


def _cmd_verify_all(args) -> RunReport:
    rng = np.random.default_rng(args.seed)
    names = gallery()
    digest = config_digest({n: gallery_config(n) for n in names})
    report = RunReport(command="verify all", input_digest=digest)
    report.note(f"gallery configs: {names}")
    for name in names:
        report.checks.extend(_verify_config(name, rng, args.tol))
    return report


# ------------------------------------------------------------- wiring

def _add_common(p, space=True, seed=False, trials=None):
    if space:
        p.add_argument("--space", required=True,
                       help="path to a space config JSON, or a gallery name")
    p.add_argument("--out", default=None, help="directory for report.txt and CSVs")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"tolerance for defect checks (default {DEFAULT_TOL})")
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks (default 0)")
    if trials is not None:
        p.add_argument("--trials", type=int, default=trials,
                       help=f"number of random trials (default {trials})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgroupoid",
        description="Groupoid convolution algebras on finite differential spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    sp = groups.add_parser("space", help="spaces, relations, quotients")
    sub = sp.add_subparsers(dest="command", required=True)
    p = sub.add_parser("analyze", help="relation, consistency, quotient of a space")
    _add_common(p)
    p.set_defaults(handler=_cmd_space_analyze)

    gp = groups.add_parser("groupoid", help="pair groupoids of relations")
    sub = gp.add_subparsers(dest="command", required=True)
    p = sub.add_parser("build", help="build the groupoid and check its laws")
    _add_common(p)
    p.add_argument("--relation", default="hausdorff",
                   choices=["hausdorff", "identity", "total"])
    p.set_defaults(handler=_cmd_groupoid_build)

    ap = groups.add_parser("algebra", help="the convolution algebra")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("conv", help="convolve two expression elements")
    _add_common(p)
    p.add_argument("--a", required=True, help="expression in x1..xn, y1..yn")
    p.add_argument("--b", required=True, help="expression in x1..xn, y1..yn")
    p.set_defaults(handler=_cmd_algebra_conv)
    p = sub.add_parser("check-laws", help="algebra laws on random elements")
    _add_common(p, seed=True, trials=20)
    p.set_defaults(handler=_cmd_algebra_check_laws)

    cp = groups.add_parser("calculus", help="lifted derivations")
    sub = cp.add_subparsers(dest="command", required=True)
    p = sub.add_parser("leibniz", help="generalized Leibniz rule defect")
    _add_common(p)
    p.add_argument("--deriv", required=True,
                   help="comma-separated coefficient expressions, one per coordinate")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_calculus_leibniz)
    p = sub.add_parser("commutator", help="[P, Q(f)] against Q(Pf)")
    _add_common(p)
    p.add_argument("--deriv", required=True)
    p.add_argument("--func", required=True, help="expression in x1..xn")
    p.add_argument("--a", required=True)
    p.set_defaults(handler=_cmd_calculus_commutator)

    rp = groups.add_parser("rep", help="the regular representation")
    sub = rp.add_subparsers(dest="command", required=True)
    p = sub.add_parser("build", help="represent an element, report its field")
    _add_common(p)
    p.add_argument("--a", default="1", help="expression in x1..xn, y1..yn")
    p.set_defaults(handler=_cmd_rep_build)
    p = sub.add_parser("check", help="homomorphism and star properties")
    _add_common(p, seed=True, trials=20)
    p.set_defaults(handler=_cmd_rep_check)

    vp = groups.add_parser("vn", help="states and commutants")
    sub = vp.add_subparsers(dest="command", required=True)
    p = sub.add_parser("commutant", help="commutant and bicommutant dimensions")
    _add_common(p)
    p.set_defaults(handler=_cmd_vn_commutant)
    p = sub.add_parser("state-check", help="state axioms for the uniform density")
    _add_common(p, seed=True, trials=20)
    p.set_defaults(handler=_cmd_vn_state_check)
    p = sub.add_parser("expect", help="expectation of a represented element")
    _add_common(p)
    p.add_argument("--a", default="1", help="expression in x1..xn, y1..yn")
    p.set_defaults(handler=_cmd_vn_expect)

    dp = groups.add_parser("deform", help="the level-by-level deformation chain")
    sub = dp.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep", help="walk all levels, measure restriction defects")
    _add_common(p)
    p.set_defaults(handler=_cmd_deform_sweep)

    wp = groups.add_parser("verify", help="property suites")
    sub = wp.add_subparsers(dest="command", required=True)
    p = sub.add_parser("all", help="full property suite over the bundled configs")
    _add_common(p, space=False, seed=True)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
    try:
        report = args.handler(args)
    except (ConfigError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
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
