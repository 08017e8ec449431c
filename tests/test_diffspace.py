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
    load_config,
    quotient,
)
from ncgroupoid._expr import ExpressionError

from conftest import grid_space, line_space, random_int_space, total_pair_space


# ------------------------------------------------------------ building

def test_generator_evaluates():
    g = GeneratorFunction("f", "x1^2 + 3*x2", 2)
    assert DiffSpace([Point(0, (2.0, 1.0), 1.0)], 2, [g]).generator_values.tolist() == [[7.0]]


def test_generator_supports_the_four_functions():
    g = GeneratorFunction("f", "sin(x1) + cos(x1) + exp(x1) + log(x1)", 1)
    x = 0.7
    expected = math.sin(x) + math.cos(x) + math.exp(x) + math.log(x)
    value = DiffSpace([Point(0, (x,), 1.0)], 1, [g]).generator_values[0, 0]
    assert value == pytest.approx(expected, rel=1e-15)


def test_unknown_symbol_rejected():
    with pytest.raises(ExpressionError):
        GeneratorFunction("f", "x1 + q", 1)


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError):
        GeneratorFunction("f", "gamma(x1)", 1)


def test_code_cannot_sneak_through_expressions():
    with pytest.raises(ExpressionError):
        GeneratorFunction("f", "__import__('os').system('true')", 1)


def test_empty_generator_family_is_the_constants_only_structure():
    pts = [Point(0, (0.0,), 1.0), Point(1, (5.0,), 1.0)]
    sp = DiffSpace(pts, 1, ())
    assert sp.constants_only
    assert [g.name for g in sp.generators] == ["one"]
    assert sp.generator_values.tolist() == [[1.0], [1.0]]
    gen = GeneratorFunction("f", "x1", 1)
    assert not DiffSpace(pts, 1, [gen]).constants_only
    assert not sp.with_generators([gen]).constants_only
    assert sp.with_generators([gen]).with_generators(()).constants_only


def test_space_validation_errors():
    with pytest.raises(ValueError):
        DiffSpace([Point(0, (0.0, 0.0), 1.0)], 1, ())
    with pytest.raises(ValueError):
        DiffSpace([Point(0, (0.0,), 0.0)], 1, ())
    with pytest.raises(ValueError):
        DiffSpace(
            [Point(0, (0.0,), 1.0), Point(0, (1.0,), 1.0)],
            1, (),
        )


def test_build_space_happy_path_and_errors(tmp_path):
    config = {
        "dimension": 1,
        "points": [{"id": 0, "coords": [0.0]}, {"id": 1, "coords": [2.0], "weight": 3.0}],
        "generators": [{"name": "f", "expr": "x1^2"}],
    }
    sp = build_space(config)
    assert sp.point(1).weight == 3.0
    assert sp.generator_values[:, 0].tolist() == [0.0, 4.0]

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
    assert build_space(load_config(path)).constants_only
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        build_space(load_config(path))
    with pytest.raises(ConfigError):
        build_space(load_config(tmp_path / "missing.json"))


_ONE = [Point(0, (0.0,), 1.0)]
_FAR = [Point(0, (1e300,), 1.0), Point(1, (1.0,), 1.0)]


@pytest.mark.parametrize("field, args, kwargs", [
    ("dimension", (_ONE, 1.7, ()), {}),
    ("dimension", (_ONE, -1, ()), {}),
    ("point", ([], 1, ()), {}),
    ("duplicate point id", (_ONE * 2, 1, ()), {}),
    ("coordinates", (_ONE, 2, ()), {}),
    ("weight", ([Point(0, (0.0,), 0.0)], 1, ()), {}),
    ("weight", ([Point(0, (0.0,), math.inf)], 1, ()), {}),
    ("generator 'f': log", (_ONE, 1, [GeneratorFunction("f", "log(x1)", 1)]), {}),
    ("generator names", (_ONE, 1, [GeneratorFunction("f", "x1", 1)] * 2), {}),
    ("generator f: dimension", (_ONE, 1, [GeneratorFunction("f", "x1", 2)]), {}),
    ("total weight inf", ([Point(0, (0.0,), 1e308), Point(1, (1.0,), 1e308)], 1, ()), {}),
    ("eps", (_ONE, 1, ()), {"eps": [1]}),
    ("eps", (_ONE, 1, ()), {"eps": 0.0}),
    ("eps", (_FAR, 1, [GeneratorFunction("f", "x1", 1)]), {"eps": 1e-300}),
    ("64 bits", ([Point(2 ** 63, (0.0,), 1.0)], 1, ()), {}),
    *(("point 1: coordinates must be finite",
       ([Point(0, (0.0,), 1.0), Point(1, (x,), 1.0)], 1, [GeneratorFunction("f", "1", 1)]), {})
      for x in (math.nan, math.inf, -math.inf)),
])
def test_every_space_refusal_is_a_config_error(field, args, kwargs):
    with pytest.raises(ConfigError, match=field):
        DiffSpace(*args, **kwargs)


@pytest.mark.parametrize("points, generators, message", [
    ([(4, 1.0, -1.0), (7, 2.0, 1.0), (2, 3.0, -1.0)], [],
     "point 2: weight must be positive and finite, got -1.0"),
    ([(4, -2.0, 1.0), (7, 2.0, 1.0), (2, -1.0, 1.0)], [{"name": "f", "expr": "log(x1)"}],
     "generator 'f': log(x1) is nan at (x1=-1.0)"),
], ids=["weights", "generator"])
def test_a_refusal_names_the_smallest_offending_id_in_any_listing_order(
        points, generators, message):
    for listing in (points, points[::-1]):
        config = {"dimension": 1, "generators": generators,
                  "points": [{"id": i, "coords": [x], "weight": w} for i, x, w in listing]}
        with pytest.raises(ConfigError) as refusal:
            build_space(config)
        assert str(refusal.value) == message


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
    ("64 bits", {"points": [{"id": -2 ** 63 - 1, "coords": [0.0]}]}),
    ("unknown point key", {"points": [{"id": 0, "coords": [0.0], "colour": 1}]}),
    ("needs id and coords", {"points": [{"id": 0}]}),
    ("must be an object", {"points": [[0, [0.0]]]}),
    ("point 0: weight", {"points": [{"id": 0, "coords": [0.0], "weight": True}]}),
    ("point 1: coords", {"points": [{"id": 0, "coords": [0.0]}, {"id": 1, "coords": [True]},
                                    {"id": 2, "coords": ["2"]}]}),
    ("generators must be a list", {"generators": {"name": "f", "expr": "x1"}}),
    ("malformed generator entry", {"generators": ["x1"]}),
    ("malformed generator entry", {"generators": [{"name": "f", "expr": "x1", "colour": 1}]}),
    ("needs name and expr", {"generators": [{"name": "f"}]}),
    ("malformed compare_mode", {"compare_mode": {"quantized": 1e-9, "eps": 1e-9}}),
    ("unknown compare_mode", {"compare_mode": "fuzzy"}),
])
def test_build_space_refuses_instead_of_converting(field, change):
    config = {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}], "generators": []}
    with pytest.raises(ConfigError, match=field):
        build_space({**config, **change})


def test_build_space_refuses_a_config_that_is_not_an_object():
    config = {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}], "generators": []}
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        build_space([config])


def test_build_space_reads_points_as_the_constructor_does():
    entries = [{"id": 7, "coords": [1, -2.5]}, {"coords": [0.5, 3], "weight": 2, "id": -4},
               {"id": 2, "weight": 0.1, "coords": [2 ** 70, -0.0]}]
    points = [Point(7, (1.0, -2.5), 1.0), Point(-4, (0.5, 3.0), 2.0),
              Point(2, (float(2 ** 70), -0.0), 0.1)]
    want = DiffSpace(points, 2, ())
    # the same entries, then with a whole float id, which is read one entry at a time
    for last_id in (2, 2.0):
        entries[-1]["id"] = last_id
        got = build_space({"dimension": 2, "points": entries, "generators": []})
        for field in ("id_array", "coords", "weights"):
            u, v = getattr(got, field), getattr(want, field)
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes()


def test_whole_floats_are_whole_numbers():
    space = build_space({"dimension": 1.0, "points": [{"id": 3.0, "coords": [0]}],
                         "generators": []})
    assert space.dimension == 1 and space.ids == (3,) and space.points[0].coords == (0.0,)
    assert type(space.ids[0]) is int


def test_dimension_mismatch_is_refused_before_any_generator_is_built(monkeypatch):
    # building a generator costs time linear in the declared dimension
    def no_generators(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr("ncgroupoid.diffspace.GeneratorFunction", no_generators)
    with pytest.raises(ConfigError, match="point 0: got 1 coordinates, expected 1000000000"):
        build_space({"dimension": 10 ** 9, "points": [{"id": 0, "coords": [1.0]}],
                     "generators": [{"name": "g", "expr": "x1"}]})


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
    quantized = DiffSpace(pts, 1, [gen], eps=1e-9)
    rho = hausdorff_relation(quantized)
    assert rho.blocks == ((0, 1), (2,))


def test_eps_alone_picks_the_comparison():
    pts = [Point(0, (0.0,), 1.0), Point(1, (1e-12,), 1.0), Point(2, (1.0,), 1.0)]
    config = {"dimension": 1, "points": [{"id": p.id, "coords": list(p.coords)} for p in pts],
              "generators": [{"name": "coord", "expr": "x1"}]}
    for eps, mode, blocks in ((None, "exact", 3), (1e-9, "quantized", 2)):
        space = DiffSpace(pts, 1, [GeneratorFunction("coord", "x1", 1)], eps=eps)
        built = build_space({**config, "compare_mode": {"quantized": eps} if eps else mode})
        assert (space.compare_mode, space.eps) == (built.compare_mode, built.eps) == (mode, eps)
        assert space.generator_keys.tolist() == built.generator_keys.tolist()
        rho = hausdorff_relation(space)
        assert rho == hausdorff_relation(built) and rho.n_blocks == blocks
        assert quotient(space, rho).space.eps == eps


def test_quantized_mode_needs_eps():
    config = {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}], "generators": []}
    for mode in ("quantized", {"quantized": None}):
        with pytest.raises(ValueError):
            build_space({**config, "compare_mode": mode})


def test_relation_is_an_equivalence(rng):
    for _ in range(10):
        space = random_int_space(rng)
        rho = hausdorff_relation(space)
        ids = space.ids
        assert sorted(rho.block_of) == sorted(ids)
        pairs = {(x, y) for x in ids for y in ids if rho.block_of[x] == rho.block_of[y]}
        for x in ids:
            assert (x, x) in pairs
        # related exactly when every generator takes the same value at both points
        vals = {x: tuple(space.generator_values[space.index_of(x)]) for x in ids}
        assert pairs == {(x, y) for x in ids for y in ids if vals[x] == vals[y]}
        for (x, y) in pairs:
            assert (y, x) in pairs
        for (x, y) in pairs:
            for (y2, z) in pairs:
                if y2 == y:
                    assert (x, z) in pairs


def test_every_generator_consistent_on_own_relation(rng):
    for _ in range(20):
        space = random_int_space(rng)
        results = consistent_family(space, hausdorff_relation(space))
        assert all(r.consistent for r in results)


def test_inconsistency_witnessed_on_coarser_relation():
    space = line_space()
    (res,) = consistent_family(space, Partition.total(space.ids))
    assert not res.consistent
    assert res.witness is not None
    x, y = res.witness
    values = space.generator_values[:, 0]
    assert values[space.index_of(x)] != values[space.index_of(y)]
    assert res.max_spread == 4.0


def test_consistency_needs_matching_ids():
    space = line_space()
    with pytest.raises(ValueError, match="does not cover the space's point ids"):
        consistent_family(space, Partition.total([10, 11]))


# ------------------------------------------------------------ partition

def test_partition_canonical_and_relates():
    p1 = Partition([(3, 1), (2,), (0, 4)])
    p2 = Partition([[4, 0], [1, 3], [2]])
    assert p1 == p2
    assert p1.blocks == ((0, 4), (1, 3), (2,))
    assert p1.block_of[0] == p1.block_of[4] != p1.block_of[1]


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(ValueError, match=r"ids \[1\] appear in more than one block"):
        Partition([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="empty block in partition"):
        Partition([(), (0,)])
    with pytest.raises(ValueError, match="repeated id inside a block"):
        Partition([(5, 0, 5)])
    # the other constructors take the same path
    with pytest.raises(ValueError, match=r"ids \[4\] appear in more than one block"):
        Partition.identity([4, 4])
    with pytest.raises(ValueError, match="repeated id inside a block"):
        Partition.total([4, -4, 4])
    with pytest.raises(ValueError, match="empty block in partition"):
        Partition.total([])


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
            assert (p.block_of[i] == p.block_of[j]) == (labels[i] == labels[j])


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
    assert q.space.point(hausdorff_relation(space).block_of[2]).coords == (1.0,)


def test_quotient_leaves_the_block_of_lookup_unbuilt():
    # the quotient's point b is class b: no per-point projection is made
    space = grid_space()
    rho = hausdorff_relation(space)
    quotient(space, rho)
    assert "block_of" not in vars(rho)


def test_quotient_roundtrip_reproduces_generators(rng):
    for _ in range(10):
        space = random_int_space(rng)
        rho = hausdorff_relation(space)
        q = quotient(space, rho)
        assert q.dropped == ()
        for p in space.points:
            old = space.generator_values[space.index_of(p.id)]
            new = q.space.generator_values[q.space.index_of(rho.block_of[p.id])]
            assert new.tolist() == old.tolist()


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
        return DiffSpace(pts, 2, gens, eps=1e-9)
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
    with pytest.raises(ValueError, match="different id sets"):
        classes_are_fibers(space, Partition([(0, 1), (2, 3, 4)]))
