"""The batch uniqueness scan against the per-point residual loop.

Maps with an array form (geometric, scale, affine, const and the E5 jump)
are scanned as one batch; the same map built with SelfMap.scalar has none
and takes the loop.  Both must return the same point, or raise the same
error, and the per-map fixture checks must not tell the two apart.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmtk.solvers as solvers
from pmtk.errors import InputError, OracleValueError
from pmtk.fixtures import _delta, _e5_jump, _map, get_fixture, solve_from_config
from pmtk.solvers import DEFAULT_PROBES, per_map_fixed_point_check, uniqueness_scan
from pmtk.spaces import Box, MapFamily, Point, SelfMap, SpaceClass, SpaceDescriptor, build_oracle

ORACLES = [
    {"op": "absdiff"},
    {"op": "max"},
    {"op": "power", "base": {"op": "max"}, "q": 2},
]
params = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 1e308, float("inf")]),
                   st.floats(-3.0, 3.0))


@st.composite
def closed_form_maps(draw):
    """(map with an array form, the same map from SelfMap.scalar)."""
    kind = draw(st.sampled_from(["geometric", "scale", "affine", "const", "jump"]))
    if kind == "geometric":
        base, i = draw(st.floats(0.25, 20.0)), draw(st.integers(1, 8))
        return MapFamily.geometric(base, "g")(i), SelfMap.scalar(lambda t: t * base**-i)
    if kind == "scale":
        f = draw(params)
        return _map({"kind": "scale", "factor": f}), SelfMap.scalar(lambda t: f * t)
    if kind == "affine":
        a, b = draw(params), draw(params)
        return _map({"kind": "affine", "scale": a, "offset": b}), SelfMap.scalar(lambda t: a * t + b)
    if kind == "const":
        c = draw(st.one_of(params, st.just(float("nan"))))
        return _map({"kind": "const", "value": c}), SelfMap.scalar(lambda t: c)
    i = draw(st.integers(1, 12))
    plateau = _e5_jump(i)(Point.of(0.0)).coords[0]
    return _e5_jump(i), SelfMap.scalar(lambda t: 1.0 if t > 0.0 else plateau)


@st.composite
def spaces(draw):
    spec = draw(st.sampled_from(ORACLES + [None]))
    if spec is None:
        # a negative offset makes some distances invalid: every self distance
        # for a positive scale, only those past a threshold for a negative one
        spec = {"op": "affine", "arg": {"op": "max"}, "scale": draw(st.floats(-2.0, 2.0)),
                "offset": draw(st.floats(-1.0, -0.01))}
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (0.5, 2.0)]))
    opened = draw(st.booleans())
    return SpaceDescriptor(oracle=build_oracle(spec), coeff_K=2.0, polygon_order_n=1,
                           domain=Box(((lo, hi, opened, opened),)), class_claim=SpaceClass.PARTIAL_B_METRIC)


def outcome(space, T, x_star, grid_points):
    try:
        found = uniqueness_scan(space, T, x_star, grid_points)
    except Exception as exc:  # the two paths must fail alike, whatever the failure
        return type(exc), str(exc)
    return None if found is None else found.coords


@settings(max_examples=150, deadline=None)
@given(space=spaces(), maps=closed_form_maps(), grid_points=st.integers(2, 300), where=st.floats(0.0, 1.0))
def test_batch_scan_matches_the_residual_loop(space, maps, grid_points, where):
    batched, scalar = maps
    assert batched.array is not None and scalar.array is None
    lo, hi, _, _ = space.domain.bounds[0]
    x_star = Point.of(lo + where * (hi - lo))
    assert outcome(space, batched, x_star, grid_points) == outcome(space, scalar, x_star, grid_points)


@settings(max_examples=100, deadline=None)
@given(maps=closed_form_maps(), ts=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
def test_array_form_is_bitwise_the_scalar_form(maps, ts):
    batched, scalar = maps
    with np.errstate(all="ignore"):
        images = batched.array(np.array(ts)[:, None])
    assert images.shape == (len(ts), 1)
    for t, got in zip(ts, images[:, 0].tolist()):
        if math.isfinite(got):
            assert scalar.apply(Point.of(t)).coords[0].hex() == got.hex()
        else:
            with pytest.raises(InputError, match="non-finite"):
                scalar.apply(Point.of(t))


def test_invalid_distance_past_the_loop_answer_does_not_raise():
    # -max(x, y) - 0.01 is valid only where both points are below -0.01; the
    # loop returns the second grid point before it reaches the invalid rows
    spec = {"op": "affine", "arg": {"op": "max"}, "scale": -1.0, "offset": -0.01}
    space = SpaceDescriptor(oracle=build_oracle(spec), coeff_K=1.0, polygon_order_n=1,
                            domain=Box.closed(-1.0, 1.0), class_claim=SpaceClass.PARTIAL_B_METRIC)
    identity = _map({"kind": "scale", "factor": 1.0})
    assert uniqueness_scan(space, identity, Point.of(-1.0), grid_points=101) == Point.of(-0.98)
    with pytest.raises(OracleValueError):
        uniqueness_scan(space, identity, Point.of(1.0), grid_points=101)


def test_per_map_checks_agree_on_the_family_fixtures(monkeypatch):
    calls = []
    residual = solvers.residual
    monkeypatch.setattr(solvers, "residual", lambda *args: calls.append(1) or residual(*args))
    for name in ("E3-kannan-family", "E4-relaxed-family", "E5-chatterjea-family"):
        fx = get_fixture(name)
        report = solve_from_config(fx.space, "family", fx.scheme_config)
        delta = _delta(fx.scheme_config["delta"])
        calls.clear()
        batched = per_map_fixed_point_check(fx.space, fx.maps, report, delta=delta)
        # one residual at the limit per probe, none in the scans
        assert len(calls) == len(DEFAULT_PROBES)
        loop_family = MapFamily(generator=lambda i, fam=fx.maps: replace(fam(i), array=None))
        assert per_map_fixed_point_check(fx.space, loop_family, report, delta=delta) == batched
        assert all(c.verdict == "unique" for c in batched)
