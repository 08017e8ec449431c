"""Spaces, gluing relations, consistency, quotients."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgroupoid import (
    ConfigError,
    DiffSpace,
    GeneratorFunction,
    Partition,
    Point,
    build_space,
    classes_are_fibers,
    consistent_family,
    hausdorff_relation,
    load_space,
    quotient,
)
from ncgroupoid._expr import ExpressionError

from conftest import grid_space, line_space, random_int_space, total_pair_space


# ------------------------------------------------------------ building

def test_generator_evaluates_and_differentiates():
    g = GeneratorFunction("f", "x1^2 + 3*x2", 2)
    assert g((2.0, 1.0)) == 7.0
    assert g.gradient((2.0, 1.0)) == (4.0, 3.0)


def test_generator_supports_the_four_functions():
    g = GeneratorFunction("f", "sin(x1) + cos(x1) + exp(x1) + log(x1)", 1)
    x = 0.7
    expected = math.sin(x) + math.cos(x) + math.exp(x) + math.log(x)
    assert g((x,)) == pytest.approx(expected, rel=1e-15)


def test_unknown_symbol_rejected():
    with pytest.raises(ExpressionError):
        GeneratorFunction("f", "x1 + q", 1)


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError):
        GeneratorFunction("f", "gamma(x1)", 1)


def test_code_cannot_sneak_through_expressions():
    with pytest.raises(ExpressionError):
        GeneratorFunction("f", "__import__('os').system('true')", 1)


def test_empty_generator_family_needs_constants_flag():
    pts = [Point(0, (0.0,), 1.0)]
    with pytest.raises(ValueError):
        DiffSpace(pts, 1, ())
    sp = DiffSpace(pts, 1, (), constants_only=True)
    assert [g.name for g in sp.generators] == ["one"]
    assert sp.generators[0]((5.0,)) == 1.0


def test_space_validation_errors():
    with pytest.raises(ValueError):
        DiffSpace([Point(0, (0.0, 0.0), 1.0)], 1, (), constants_only=True)
    with pytest.raises(ValueError):
        DiffSpace([Point(0, (0.0,), 0.0)], 1, (), constants_only=True)
    with pytest.raises(ValueError):
        DiffSpace(
            [Point(0, (0.0,), 1.0), Point(0, (1.0,), 1.0)],
            1, (), constants_only=True,
        )


def test_build_space_happy_path_and_errors(tmp_path):
    config = {
        "dimension": 1,
        "points": [{"id": 0, "coords": [0.0]}, {"id": 1, "coords": [2.0], "weight": 3.0}],
        "generators": [{"name": "f", "expr": "x1^2"}],
    }
    sp = build_space(config)
    assert sp.point(1).weight == 3.0
    assert sp.generators[0]((2.0,)) == 4.0

    for broken in [
        {},
        {"dimension": "x", "points": [], "generators": []},
        {"dimension": 1, "points": [], "generators": []},
        {"dimension": 1, "points": [{"id": 0}], "generators": []},
        {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}],
         "generators": [{"name": "f", "expr": "nope(x1)"}]},
        {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}],
         "generators": [], "compare_mode": "fuzzy"},
        {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}],
         "generators": [], "extra": 1},
    ]:
        with pytest.raises(ConfigError):
            build_space(broken)

    path = tmp_path / "space.json"
    path.write_text('{"dimension": 1, "points": [{"id": 0, "coords": [0.0]}], "generators": []}')
    assert load_space(path).constants_only
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        load_space(path)
    with pytest.raises(ConfigError):
        load_space(tmp_path / "missing.json")


_ONE = [Point(0, (0.0,), 1.0)]
_CONST = {"constants_only": True}
_FAR = [Point(0, (1e300,), 1.0), Point(1, (1.0,), 1.0)]


@pytest.mark.parametrize("field, args, kwargs", [
    ("dimension", (_ONE, 1.7, ()), _CONST),
    ("dimension", (_ONE, -1, ()), _CONST),
    ("point", ([], 1, ()), _CONST),
    ("duplicate point id", (_ONE * 2, 1, ()), _CONST),
    ("coordinates", (_ONE, 2, ()), _CONST),
    ("weight", ([Point(0, (0.0,), 0.0)], 1, ()), _CONST),
    ("weight", ([Point(0, (0.0,), math.inf)], 1, ()), _CONST),
    ("generator family", (_ONE, 1, ()), {}),
    ("generator names", (_ONE, 1, [GeneratorFunction("f", "x1", 1)] * 2), {}),
    ("generator f: dimension", (_ONE, 1, [GeneratorFunction("f", "x1", 2)]), {}),
    ("compare_mode", (_ONE, 1, ()), {**_CONST, "compare_mode": "fuzzy"}),
    ("eps", (_ONE, 1, ()), {**_CONST, "compare_mode": "quantized", "eps": [1]}),
    ("eps", (_ONE, 1, ()), {**_CONST, "compare_mode": "quantized", "eps": 0.0}),
    ("eps", (_FAR, 1, [GeneratorFunction("f", "x1", 1)]),
     {"compare_mode": "quantized", "eps": 1e-300}),
])
def test_every_space_refusal_is_a_config_error(field, args, kwargs):
    with pytest.raises(ConfigError, match=field):
        DiffSpace(*args, **kwargs)


def test_one_refusal_type():
    assert issubclass(ExpressionError, ConfigError)
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("field, change", [
    ("dimension", {"dimension": 1.7}),
    ("dimension", {"dimension": "1"}),
    ("point id", {"points": [{"id": 0.5, "coords": [0.0]}]}),
    ("point id", {"points": [{"id": True, "coords": [0.0]}]}),
    ("coords", {"dimension": 2, "points": [{"id": 0, "coords": "12"}]}),
    ("coords", {"points": [{"id": 0, "coords": ["1"]}]}),
    ("coords", {"points": [{"id": 0, "coords": [10 ** 400]}]}),
    ("coords", {"points": [{"id": 0, "coords": [math.nan]}]}),
    ("weight", {"points": [{"id": 0, "coords": [0.0], "weight": "2"}]}),
    ("eps", {"compare_mode": {"quantized": None}}),
])
def test_build_space_refuses_instead_of_converting(field, change):
    config = {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}], "generators": []}
    with pytest.raises(ConfigError, match=field):
        build_space({**config, **change})


def test_whole_floats_are_whole_numbers():
    space = build_space({"dimension": 1.0, "points": [{"id": 3.0, "coords": [0]}],
                         "generators": []})
    assert space.dimension == 1 and space.ids == (3,) and space.points[0].coords == (0.0,)
    assert type(space.ids[0]) is int


# ------------------------------------------------------------ relation

def test_grid_glues_into_columns():
    rho = hausdorff_relation(grid_space())
    assert rho.blocks == ((0, 1), (2, 3))
    assert not rho.is_identity


def test_separating_generator_gives_identity():
    rho = hausdorff_relation(line_space())
    assert rho.is_identity
    assert rho.n_blocks == 5


def test_constants_only_gives_total():
    rho = hausdorff_relation(total_pair_space())
    assert rho.is_total


def test_quantized_mode_glues_close_values():
    pts = [Point(0, (0.0,), 1.0), Point(1, (1e-12,), 1.0), Point(2, (1.0,), 1.0)]
    gen = GeneratorFunction("coord", "x1", 1)
    exact = DiffSpace(pts, 1, [gen])
    assert hausdorff_relation(exact).n_blocks == 3
    quantized = DiffSpace(pts, 1, [gen], compare_mode="quantized", eps=1e-9)
    rho = hausdorff_relation(quantized)
    assert rho.blocks == ((0, 1), (2,))


def test_quantized_mode_needs_eps():
    pts = [Point(0, (0.0,), 1.0)]
    with pytest.raises(ValueError):
        DiffSpace(pts, 1, (), compare_mode="quantized", constants_only=True)


def test_relation_is_an_equivalence(rng):
    for _ in range(10):
        space = random_int_space(rng)
        rho = hausdorff_relation(space)
        ids = space.ids
        assert sorted(rho.block_of) == sorted(ids)
        for x in ids:
            assert rho.relates(x, x)
        pairs = set(rho.pairs())
        for (x, y) in pairs:
            assert (y, x) in pairs
        for (x, y) in pairs:
            for (y2, z) in pairs:
                if y2 == y:
                    assert (x, z) in pairs


def test_every_generator_consistent_on_own_relation(rng):
    for _ in range(20):
        space = random_int_space(rng)
        report = consistent_family(space, hausdorff_relation(space))
        assert report.all_consistent


def test_inconsistency_witnessed_on_coarser_relation():
    space = line_space()
    report = consistent_family(space, Partition.total(space.ids))
    (res,) = report.results
    assert not res.consistent
    assert res.witness is not None
    x, y = res.witness
    g = space.generators[0]
    assert g(space.point(x).coords) != g(space.point(y).coords)
    assert res.max_spread == 4.0


def test_consistency_needs_matching_ids():
    space = line_space()
    with pytest.raises(ValueError):
        consistent_family(space, Partition.total([10, 11]))


# ------------------------------------------------------------ partition

def test_partition_canonical_and_relates():
    p1 = Partition([(3, 1), (2,), (0, 4)])
    p2 = Partition([[4, 0], [1, 3], [2]])
    assert p1 == p2
    assert p1.blocks == ((0, 4), (1, 3), (2,))
    assert p1.relates(0, 4) and not p1.relates(0, 1)


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        Partition([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Partition([(), (0,)])


def test_refinement():
    fine = Partition([(0,), (1,), (2, 3)])
    coarse = Partition([(0, 1), (2, 3)])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(coarse)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_partition_from_fibers_is_equivalence(labels):
    ids = list(range(len(labels)))
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    p = Partition(groups.values())
    for i in ids:
        for j in ids:
            assert p.relates(i, j) == (labels[i] == labels[j])


# ------------------------------------------------------------ quotient

def test_grid_quotient_collapses_columns():
    space = grid_space()
    q = quotient(space, hausdorff_relation(space))
    assert len(q.space.points) == 2
    assert [p.weight for p in q.space.points] == [2.0, 2.0]
    assert q.dropped == ()
    # the pushed-down generator is the coordinate projection under the
    # original name
    (gen,) = q.space.generators
    assert gen.name == "pi1"
    assert q.space.point(q.projection[2]).coords == (1.0,)


def test_quotient_roundtrip_reproduces_generators(rng):
    for _ in range(10):
        space = random_int_space(rng)
        rho = hausdorff_relation(space)
        q = quotient(space, rho)
        assert q.dropped == ()
        for g_old, g_new in zip(space.generators, q.space.generators):
            for p in space.points:
                qc = q.space.point(q.projection[p.id]).coords
                assert g_new(qc) == g_old(p.coords)


def test_quotient_of_hausdorff_space_is_identity_map():
    space = line_space()
    q = quotient(space, hausdorff_relation(space))
    assert len(q.space.points) == len(space.points)
    assert hausdorff_relation(q.space).is_identity


def test_quotient_drops_inconsistent_generators():
    space = grid_space()
    # glue rows instead of columns: pi1 is not constant on classes
    rho = Partition([(0, 2), (1, 3)])
    q = quotient(space, rho)
    assert q.dropped == ("pi1",)
    assert q.space.constants_only
    assert q.space.dimension == 0
    assert [p.weight for p in q.space.points] == [2.0, 2.0]


def test_quotient_weight_mass_is_preserved(rng):
    for _ in range(10):
        space = random_int_space(rng)
        q = quotient(space, hausdorff_relation(space))
        assert sum(p.weight for p in q.space.points) == pytest.approx(
            sum(p.weight for p in space.points), abs=0
        )


# ------------------------------------------------------------ signed zero

def _zero_space(coords, quantized):
    gens = [GeneratorFunction("prod", "x1*x2", 2), GeneratorFunction("norm", "x1^2 + x2^2", 2)]
    pts = [Point(id=i, coords=c, weight=1.0) for i, c in enumerate(coords)]
    if quantized:
        return DiffSpace(pts, 2, gens, compare_mode="quantized", eps=1e-9)
    return DiffSpace(pts, 2, gens)


@pytest.mark.parametrize("quantized", [False, True])
def test_signed_zero_values_are_glued(quantized):
    # x1*x2 is 0.0 at (0, 1) and -0.0 at (0, -1): mathematically equal
    space = _zero_space([(0.0, 1.0), (0.0, -1.0)], quantized)
    assert hausdorff_relation(space).is_total


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, -1.0, 2.0]), st.sampled_from([0.0, 1.0, -1.0])),
        min_size=2, max_size=6,
    ),
    flips=st.lists(st.booleans(), min_size=12, max_size=12),
    quantized=st.booleans(),
)
def test_sign_of_zero_coordinates_never_changes_gluing(coords, flips, quantized):
    flipped = [
        tuple(-v if v == 0.0 and flip else v for v, flip in zip(c, flips[2 * i:2 * i + 2]))
        for i, c in enumerate(coords)
    ]
    assert (hausdorff_relation(_zero_space(coords, quantized))
            == hausdorff_relation(_zero_space(flipped, quantized)))


def test_classes_are_fibers_only_for_the_gluing_relation():
    space = grid_space()  # glued into the columns x1 = 0 and x1 = 1
    assert classes_are_fibers(space, hausdorff_relation(space))
    assert not classes_are_fibers(space, Partition.total(space.ids))
    assert not classes_are_fibers(space, Partition.identity(space.ids))
