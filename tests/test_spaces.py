"""Core data model tests: points, boxes, oracles, descriptors, samplers."""

import hashlib
import json
import math
import os
import re
import struct
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtk.errors import ConstructionError, DomainError, InputError, PmtkError
from pmtk.spaces import (
    Box,
    MapFamily,
    Point,
    Sampler,
    SelfMap,
    SpaceClass,
    SpaceDescriptor,
    as_point,
    ball_contains,
    build_oracle,
    chebyshev,
    check_selfmap_closure,
    eval_distance,
    load_space,
    lookup_oracle,
    oracle_from_callable,
    register_oracle,
    save_space,
    self_distance,
    space_from_json,
    space_to_json,
    write_json_atomic,
)


def unit_line(oracle_spec, K=1.0, n=1, claim=SpaceClass.KPMS, **kw):
    return SpaceDescriptor(
        oracle=build_oracle(oracle_spec),
        coeff_K=K,
        polygon_order_n=n,
        domain=Box.closed(0.0, 1.0),
        class_claim=claim,
        **kw,
    )


# ---------------------------------------------------------------------------
# points


def test_point_coerces_and_validates():
    p = Point((1, 0.5))
    assert p.coords == (1.0, 0.5)
    assert p.dim == 2
    assert Point.of(0.25).coords == (0.25,)


def test_point_rejects_empty_and_nonfinite():
    with pytest.raises(InputError):
        Point(())
    with pytest.raises(InputError):
        Point((float("nan"),))
    with pytest.raises(InputError):
        Point((1.0, float("inf")))


def test_as_point_accepts_scalar_sequence_and_point():
    assert as_point(0.5).coords == (0.5,)
    assert as_point([0.1, 0.2]).coords == (0.1, 0.2)
    p = Point.of(0.3)
    assert as_point(p) is p
    with pytest.raises(InputError):
        as_point(0.5, dim=2)


def test_chebyshev_is_max_norm():
    assert chebyshev(Point.of(0.0, 1.0), Point.of(0.5, 0.25)) == 0.75


# ---------------------------------------------------------------------------
# boxes


def test_box_contains_respects_open_endpoints():
    b = Box(((0.0, 1.0, True, False),))
    assert not b.contains(Point.of(0.0))
    assert b.contains(Point.of(1.0))
    assert b.contains(Point.of(0.5))
    assert not b.contains(Point.of(1.5))
    assert not b.contains(Point.of(0.5, 0.5))


def test_box_rejects_degenerate_intervals():
    with pytest.raises(InputError):
        Box(((1.0, 1.0, False, False),))
    with pytest.raises(InputError):
        Box(())
    with pytest.raises(InputError):
        Box(((0.0, float("inf"), False, False),))


def test_box_rejects_bounds_whose_width_overflows():
    # such a box made the sampler warn about overflow and draw nan coordinates
    with pytest.raises(InputError, match="width overflows"):
        Box.closed(-1e308, 1e308)
    with pytest.raises(InputError, match="width overflows"):
        Box(((0.0, 1.0, False, False), (-1.7e308, 1.7e308, True, True)))
    widest = Box.closed(-8e307, 8e307)
    points = Sampler(seed=0, region=widest, grid_density=4, random_count=4).points(4)
    assert len(points) == 4 and all(widest.contains(p) for p in points)


def test_effective_bounds_shrinks_only_open_sides():
    b = Box(((0.0, 1.0, True, False),))
    (lo, hi), = b.effective_bounds(1e-3)
    assert lo == 1e-3
    assert hi == 1.0
    with pytest.raises(InputError):
        Box.open(0.0, 1e-9).effective_bounds(1.0)


def test_box_json_round_trip():
    b = Box(((0.0, 2.0, True, True), (-1.0, 1.0, False, False)))
    assert Box.from_json(b.to_json()) == b
    with pytest.raises(InputError):
        Box.from_json([[0.0, 1.0]])
    with pytest.raises(InputError):
        Box.from_json({"bounds": [[0.0, 1.0, False, False]]})
    with pytest.raises(InputError):
        Box.from_json([["zero", 1.0, False, False]])


# ---------------------------------------------------------------------------
# oracle expressions


def test_absdiff_is_chebyshev_in_higher_dim():
    sp1 = unit_line({"op": "absdiff"})
    assert eval_distance(sp1, 0.25, 0.75) == 0.5
    sp2 = SpaceDescriptor(
        oracle=build_oracle({"op": "absdiff"}),
        coeff_K=1.0,
        polygon_order_n=1,
        domain=Box(((0.0, 1.0, False, False), (0.0, 1.0, False, False))),
        class_claim=SpaceClass.METRIC,
    )
    assert eval_distance(sp2, (0.0, 0.2), (0.5, 0.3)) == 0.5


def test_max_oracle_spans_both_points():
    sp = unit_line({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    assert eval_distance(sp, 0.25, 0.75) == 0.75
    assert eval_distance(sp, 0.75, 0.25) == 0.75
    assert self_distance(sp, 0.4) == 0.4


def test_power_affine_sum_compose():
    spec = {
        "op": "sum",
        "args": [
            {"op": "power", "base": {"op": "absdiff"}, "q": 2.0},
            {"op": "affine", "arg": {"op": "const", "value": 1.0}, "scale": 3.0, "offset": 0.5},
        ],
    }
    sp = unit_line(spec)
    assert eval_distance(sp, 0.0, 1.0) == 1.0 + 3.5
    assert eval_distance(sp, 0.5, 0.5) == 3.5


def test_pt_expression_subtracts_self_distances():
    sp = unit_line({"op": "pt", "source": {"op": "max"}})
    # 2 max(x,y) - x - y = |x - y|
    assert eval_distance(sp, 0.25, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert eval_distance(sp, 0.3, 0.3) == 0.0


def test_pt_expression_rejects_genuinely_negative_output():
    # source 1 - |x - y| has self distance 1, so the transform goes negative
    spec = {"op": "pt", "source": {"op": "affine", "arg": {"op": "absdiff"}, "scale": -1.0, "offset": 1.0}}
    sp = unit_line(spec)
    with pytest.raises(ConstructionError):
        eval_distance(sp, 0.0, 1.0)


def test_dp_expression_zeroes_exact_diagonal_only():
    sp = unit_line({"op": "dp", "source": {"op": "max"}})
    assert eval_distance(sp, 0.5, 0.5) == 0.0
    assert eval_distance(sp, 0.5, 0.5 + 1e-12) == 0.5 + 1e-12


def test_basepoint_expression_is_bitwise_symmetric():
    spec = {"op": "basepoint", "source": {"op": "absdiff"}, "x0": [0.3]}
    sp = unit_line(spec)
    a = eval_distance(sp, 0.11, 0.93)
    b = eval_distance(sp, 0.93, 0.11)
    assert a == b
    # p(x,y) = [d(x,y) + d(x,x0) + d(y,x0)] / 2
    assert a == pytest.approx(0.5 * (0.82 + 0.19 + 0.63), abs=1e-15)


def test_max_oracle_never_returns_negative_zero():
    sp = unit_line({"op": "max"})
    for x, y in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
        assert struct.pack("<d", eval_distance(sp, x, y)) == struct.pack("<d", 0.0)


# coordinates in [0, 1] with both zeros drawn often, so every source stays
# nonnegative and the pt transform stays defined
COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0))
SOURCES = [
    {"op": "max"},
    {"op": "absdiff"},
    {"op": "power", "base": {"op": "absdiff"}, "q": 1.5},
    {"op": "power", "base": {"op": "max"}, "q": 3.0},
]


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 2),
    source=st.sampled_from(SOURCES),
    wrap=st.sampled_from([None, "pt", "dp", "basepoint"]),
    coords=st.lists(COORD, min_size=6, max_size=6),
)
def test_oracles_are_bitwise_symmetric_at_signed_zeros(dim, source, wrap, coords):
    x, y, x0 = (Point(tuple(coords[k:k + dim])) for k in (0, 2, 4))
    spec = source if wrap is None else {"op": wrap, "source": source}
    if wrap == "basepoint":
        spec["x0"] = list(x0.coords)
    fn = build_oracle(spec).fn
    assert struct.pack("<d", fn(x, y)) == struct.pack("<d", fn(y, x))


def test_malformed_expressions_are_rejected():
    with pytest.raises(InputError):
        build_oracle({"op": "nope"})
    with pytest.raises(InputError):
        build_oracle({"noop": 1})
    with pytest.raises(InputError):
        build_oracle(42)


def test_registry_round_trip_and_collision():
    oracle = oracle_from_callable(lambda a, b: abs(a - b), name="test-registry-absdiff")
    assert lookup_oracle("test-registry-absdiff") is oracle
    with pytest.raises(InputError):
        register_oracle("test-registry-absdiff", build_oracle({"op": "max"}))
    register_oracle("test-registry-absdiff", build_oracle({"op": "max"}), overwrite=True)
    assert lookup_oracle("test-registry-absdiff").fn(Point.of(0.2), Point.of(0.7)) == 0.7
    with pytest.raises(InputError):
        lookup_oracle("never-registered")


# ---------------------------------------------------------------------------
# descriptors and evaluation


def test_descriptor_validates_coefficient_and_order():
    with pytest.raises(InputError):
        unit_line({"op": "max"}, K=0.5)
    with pytest.raises(InputError):
        unit_line({"op": "max"}, K=float("nan"))
    with pytest.raises(InputError):
        unit_line({"op": "max"}, n=0)


def test_class_claims_constrain_shape():
    # order 1 forced for the b-metric claim, order 2 and K 1 for rectangular
    with pytest.raises(InputError):
        unit_line({"op": "max"}, n=2, claim=SpaceClass.PARTIAL_B_METRIC)
    with pytest.raises(InputError):
        unit_line({"op": "max"}, n=2, K=2.0, claim=SpaceClass.PARTIAL_RECTANGULAR)
    sp = unit_line({"op": "max"}, n=2, K=1.0, claim=SpaceClass.PARTIAL_RECTANGULAR)
    assert sp.class_claim is SpaceClass.PARTIAL_RECTANGULAR
    # string claims are coerced to the enum
    sp2 = unit_line({"op": "max"}, claim="KPMS")
    assert sp2.class_claim is SpaceClass.KPMS


def test_eval_distance_rejects_points_outside_domain():
    sp = unit_line({"op": "max"})
    with pytest.raises(DomainError):
        eval_distance(sp, -0.5, 0.5)
    open_sp = SpaceDescriptor(
        oracle=build_oracle({"op": "max"}),
        coeff_K=1.0,
        polygon_order_n=1,
        domain=Box.open(0.0, 1.0),
        class_claim=SpaceClass.KPMS,
    )
    with pytest.raises(DomainError):
        eval_distance(open_sp, 0.0, 0.5)


def test_eval_distance_flags_oracle_contract_breach():
    bad = SpaceDescriptor(
        oracle=oracle_from_callable(lambda a, b: a - b),
        coeff_K=1.0,
        polygon_order_n=1,
        domain=Box.closed(0.0, 1.0),
        class_claim=SpaceClass.KPMS,
    )
    with pytest.raises(PmtkError):
        eval_distance(bad, 0.0, 1.0)


def test_ball_membership_offsets_by_center_self_distance():
    sp = unit_line({"op": "max"}, claim=SpaceClass.PARTIAL_B_METRIC)
    # p(0.5, y) < r + p(0.5, 0.5) = r + 0.5
    assert ball_contains(sp, 0.5, 0.2, 0.6)
    assert not ball_contains(sp, 0.5, 0.2, 0.7)
    with pytest.raises(InputError):
        ball_contains(sp, 0.5, 0.0, 0.6)


# ---------------------------------------------------------------------------
# maps


def test_scalar_selfmap_and_family():
    half = SelfMap.scalar(lambda t: 0.5 * t, label="half")
    assert half(Point.of(0.8)).coords == (0.4,)
    assert half.label == "half"
    fam = MapFamily(lambda i: SelfMap.scalar(lambda t, i=i: t / (i + 1), label=f"T_{i}"))
    assert fam(3)(Point.of(1.0)).coords == (0.25,)
    with pytest.raises(InputError):
        fam(0)
    with pytest.raises(InputError):
        fam(1.5)


def test_selfmap_closure_scan_reports_escapes():
    sp = unit_line({"op": "absdiff"}, claim=SpaceClass.METRIC)
    shrink = SelfMap.scalar(lambda t: 0.5 * t)
    grow = SelfMap.scalar(lambda t: t + 0.7)
    s = Sampler(seed=7, region=sp.domain, grid_density=5, random_count=32)
    assert check_selfmap_closure(sp, shrink, s) == []
    escapes = check_selfmap_closure(sp, grow, s)
    assert escapes and all(p.coords[0] > 0.3 for p in escapes)


# ---------------------------------------------------------------------------
# samplers


def test_sampler_streams_are_reproducible():
    box = Box.closed(0.0, 1.0)
    a = Sampler(seed=11, region=box, grid_density=4, random_count=64)
    b = Sampler(seed=11, region=box, grid_density=4, random_count=64)
    assert a.points() == b.points()
    assert a.pairs() == b.pairs()
    assert a.chains(2) == b.chains(2)
    c = Sampler(seed=12, region=box, grid_density=4, random_count=64)
    assert a.pairs() != c.pairs()


def test_sampler_streams_differ_between_kinds():
    box = Box.closed(0.0, 1.0)
    s = Sampler(seed=11, region=box, grid_density=4, random_count=64)
    singles = [p.coords[0] for p in s.points()]
    firsts = [x.coords[0] for x, _ in s.pairs()]
    assert singles[-10:] != firsts[-10:]


def test_sampler_respects_open_endpoint_margin():
    box = Box.open(0.0, 1.0)
    s = Sampler(seed=3, region=box, grid_density=8, random_count=50, margin=1e-3)
    vals = [p.coords[0] for p in s.points()]
    assert min(vals) >= 1e-3
    assert max(vals) <= 1.0 - 1e-3


def test_sampler_grid_half_includes_boundary_combinations():
    box = Box.closed(0.0, 1.0)
    s = Sampler(seed=3, region=box, grid_density=4, random_count=100)
    pairs = s.pairs()
    assert len(pairs) == 100
    coords = {(x.coords[0], y.coords[0]) for x, y in pairs}
    assert (0.0, 0.0) in coords
    assert (1.0, 1.0) in coords


def test_sampler_chain_tuples_have_requested_length():
    box = Box.closed(0.0, 1.0)
    s = Sampler(seed=3, region=box, grid_density=4, random_count=16)
    chains = s.chains(3)
    assert len(chains) == 16
    assert all(len(c) == 5 for c in chains)
    with pytest.raises(InputError):
        s.chains(0)


# sha256 of each stream's coordinates: a change to how the sampler builds its
# streams must leave every coordinate bitwise identical
STREAM_CASES = [
    (11, ((0.0, 1.0, False, False),), 4, 64, {
        "points()": "77eb8be3dfaee5d4703da04314d36ab23c8cef942ab28551741fa9d95fd46f51",
        "points(256)": "edc507cb78f18571c9e74af3345c65f654696b2672b5a6c3aacf591e85985632",
        "pairs()": "95ec9c92123fdc157a0f4237c943625f5932399e1efca7697d907cdbd4dc4802",
        "pairs(33)": "c1c013d5d22e67c955c596dc6601c83ab9cf4e1b9a6699dcedf19c5a38da590b",
        "chains(1)": "2c167973a8f57769c167126cbd13d6955a528b67bd88603ddd45c61a5901b3ab",
        "chains(3)": "ff3dccd4c3624abd7379d3e311ce5066c13ba24ebb5a3b28c7356279951df770",
    }),
    (2**63 + 1, ((-1.0, 2.5, True, False), (0.25, 0.75, False, True)), 32, 300, {
        "points()": "f373627ae529f24cbb274897c78f5a06958cfe2b426d1996ce68af1b9379536e",
        "points(256)": "1b984e4c532e1c55a24888b407233346f4416108be6999f75fcbf6eada832b30",
        "pairs()": "50c5b81ca469cdc626483162be514529013b1617c7424adea630dfeb42584420",
        "pairs(33)": "f76cc3dfc1dc07d839d9fd39e9c7d2a53316a52e6e17fb6b02efa2c9bdb2ac40",
        "chains(1)": "210e51fd066d5039caf77ff130b293a270f72b89c6d0e68cb6c8b17dbf572d2d",
        "chains(3)": "38acfeff248f5bc21ac20e0622836bc9a518c995fa6f3275153d94911ae5487f",
    }),
    (0, ((0.0, 1.0, True, True), (1.0, 3.0, False, False), (-2.0, -1.0, False, True)), 5, 50, {
        "points()": "06e48c9414a3c0b3cdcc596362821fd40bb5d1073e09e4cab32f9b77e1cfbcb2",
        "points(256)": "a2afae84302e437f0f67c38fd191fe0c1d4e2977580f9d49df698083d1165cdf",
        "pairs()": "9f47a99eba9ae2af339b92fd8c7b25008e4a89d93ea8f9006dbaf41dd918e252",
        "pairs(33)": "8383b7b192c0893a5176fb1395f1fa081e6b554193736207a478ec354851c299",
        "chains(1)": "2bb5a35dd2740d44601eb7a83f341832a17d804de231e9a69b6903c5e79e6372",
        "chains(3)": "4560c1346e33674298c8ee95b17c71fd995f9dd5aef9e9cd7b5fa476eb20df3d",
    }),
    (7, tuple((0.0, 1.0 + a, False, False) for a in range(5)), 6, 40, {
        "points(256)": "5515e28bc74865690c638f0ba254d9de840ac509ee0044d3f98b2a93ec09f537",
        "pairs()": "ccf374d1c92aec02c1b7f7aa272e5302a479e59174553297fc34aa17831e5047",
        "pairs(33)": "6d0654d996b88ebb909dae8aa2ee8097f53acac007f2dac8f6c70b5d8e4bec9e",
        "chains(1)": "aebbbe84ccc1f6dbcdbe86a1ce42b5e29f73f11b409a30e1fddc563ad255f61e",
        "chains(3)": "e85545a22b4df7f54b5360a89188ade4cd005b2b15951550bf848c8e158cc922",
    }),
]


def _stream_digest(stream):
    rows = [[list(p.coords) for p in (t if isinstance(t, tuple) else (t,))] for t in stream]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("seed,bounds,density,count,digests", STREAM_CASES)
def test_sampler_streams_match_frozen_digests(seed, bounds, density, count, digests):
    s = Sampler(seed=seed, region=Box(bounds), grid_density=density, random_count=count)
    draws = {
        "points()": s.points,
        "points(256)": lambda: s.points(count=256),
        "pairs()": s.pairs,
        "pairs(33)": lambda: s.pairs(count=33),
        "chains(1)": lambda: s.chains(1),
        "chains(3)": lambda: s.chains(3),
    }
    assert {name: _stream_digest(draws[name]()) for name in digests} == digests


def test_sampler_arrays_hold_the_point_streams():
    s = Sampler(seed=4, region=Box(((0.0, 1.0, True, False), (2.0, 3.0, False, False))), random_count=30)
    assert [p.coords for p in s.points(count=20)] == [tuple(r) for r in s.point_array(count=20).tolist()]
    assert s.pair_array().shape == (30, 2, 2)
    assert s.chains(2) == [tuple(Point(tuple(c)) for c in row) for row in s.chain_array(2).tolist()]


def test_sampler_grid_is_exact_in_high_dimension():
    # 8 points of 8 axes make 64 grid digits: 2**64 flat indices, past
    # what a float spacing or an int64 index can hold
    box = Box(tuple((0.0, 1.0, False, False) for _ in range(8)))
    s = Sampler(seed=3, region=box, random_count=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chains = s.chains(6)
    assert len(chains) == 100
    assert len(set(chains)) == 100
    assert all(box.contains(p) for chain in chains for p in chain)


def test_sampler_validates_configuration():
    box = Box.closed(0.0, 1.0)
    with pytest.raises(InputError):
        Sampler(seed=-1, region=box)
    with pytest.raises(InputError):
        Sampler(seed=2**64, region=box)
    with pytest.raises(InputError):
        Sampler(seed=0, region=box, grid_density=1)
    with pytest.raises(InputError):
        Sampler(seed=0, region=box, random_count=0)


# ---------------------------------------------------------------------------
# serialization


def test_space_json_round_trip(tmp_path):
    sp = unit_line(
        {"op": "power", "base": {"op": "max"}, "q": 2.0},
        K=2.0,
        claim=SpaceClass.KPMS,
        hausdorff_asserted=True,
        complete_asserted=False,
        provenance={"construction": "test"},
    )
    doc = space_to_json(sp)
    assert doc["K"] == 2.0
    assert doc["class"] == "KPMS"
    assert doc["complete"] is False
    back = space_from_json(doc)
    assert space_to_json(back) == doc
    assert eval_distance(back, 0.3, 0.6) == eval_distance(sp, 0.3, 0.6)

    path = os.path.join(tmp_path, "space.json")
    save_space(sp, path)
    again = load_space(path)
    assert space_to_json(again) == doc


def test_space_json_rejects_unserializable_oracle():
    sp = SpaceDescriptor(
        oracle=oracle_from_callable(lambda a, b: abs(a - b)),
        coeff_K=1.0,
        polygon_order_n=1,
        domain=Box.closed(0.0, 1.0),
        class_claim=SpaceClass.METRIC,
    )
    with pytest.raises(InputError):
        space_to_json(sp)


def test_space_from_json_rejects_missing_fields_and_bad_class():
    with pytest.raises(InputError):
        space_from_json({"oracle": {"op": "max"}})
    doc = space_to_json(unit_line({"op": "max"}))
    doc["class"] = "NotAClass"
    with pytest.raises(InputError):
        space_from_json(doc)


def test_load_space_wraps_io_and_parse_errors(tmp_path):
    with pytest.raises(InputError):
        load_space(os.path.join(tmp_path, "missing.json"))
    bad = os.path.join(tmp_path, "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    with pytest.raises(InputError):
        load_space(bad)


def test_atomic_write_replaces_and_leaves_no_droppings(tmp_path):
    path = os.path.join(tmp_path, "doc.json")
    write_json_atomic(path, {"a": 1})
    write_json_atomic(path, {"a": 2})
    with open(path) as fh:
        assert json.load(fh) == {"a": 2}
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask_027):
    plain = os.path.join(tmp_path, "plain.txt")
    with open(plain, "w") as fh:
        fh.write("x")
    doc, space = os.path.join(tmp_path, "doc.json"), os.path.join(tmp_path, "space.json")
    write_json_atomic(doc, {"a": 1})
    save_space(unit_line({"op": "absdiff"}), space)
    want = os.stat(plain).st_mode
    assert want & 0o777 == 0o640
    assert os.stat(doc).st_mode == os.stat(space).st_mode == want


def test_atomic_write_output_is_stable():
    doc = {"b": 2, "a": [1.5, 0.1]}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert text.startswith('{\n  "a"')
    assert math.isclose(json.loads(text)["a"][1], 0.1)


def test_readme_space_document_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        space = space_from_json(json.loads(block))
        assert space_to_json(space)["domain"] == json.loads(block)["domain"]
