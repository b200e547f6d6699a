"""Constructions that derive new spaces from existing ones.

Each constructor verifies the documented preconditions by sampling before it
builds anything, and re-checks the construction's claimed axioms afterwards
where the theory only covers part of the parameter range.  Checks that the
theory does not require but prudence suggests are recorded as warnings in
the derived descriptor's provenance instead of failing the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .axioms import AxiomCheck, _Battery, check_metric_type, check_pm4
from .errors import InputError
from .spaces import (
    DEFAULT_TOL,
    Point,
    Sampler,
    SpaceClass,
    SpaceDescriptor,
    as_point,
    build_oracle,
    eval_terms,
)


def _default_check_sampler(space: SpaceDescriptor, seed: int = 0) -> Sampler:
    # construction-time checks favour speed over exhaustiveness
    return Sampler(seed=seed, region=space.domain, grid_density=12, random_count=600)


def _require(checks: Iterable[AxiomCheck], what: str, needs: str) -> None:
    """Raise on the first failing check; needs may name the check's {axiom}."""
    for check in checks:
        if not check.passed:
            w = check.witnesses[0]
            raise InputError(
                f"{what} needs {needs.format(axiom=check.axiom)}; "
                f"violated at {tuple(p.coords for p in w.points)} (lhs={w.lhs}, rhs={w.rhs})"
            )


def _require_weighted_core(space: SpaceDescriptor, sampler: Sampler, tol: float, what: str,
                           polygon: tuple[float, int] | None = None) -> None:
    """pm1, pm2 and pm3 on the input, in that order, from one evaluation plan.

    With polygon = (K, chain_len) the polygon inequality at that coefficient
    and chain length follows on the same plan.
    """
    battery = _Battery(space, sampler, tol)
    _require((run() for run in (battery.pm1, battery.pm2, lambda: battery.symmetry("pm3"))),
             what, "axiom {axiom} on the input")
    if polygon is not None:
        K, chain_len = polygon
        check = battery.chain_check("pm4", [chain_len], K, weighted=True)
        _require((check,), what, "the polygon inequality on the input")


def _spec(space: SpaceDescriptor, what: str = "construction") -> dict | str:
    if space.oracle.spec is None:
        raise InputError(f"input oracle is not serializable; the {what} needs an expression or registered name")
    return space.oracle.spec


def _derive(space: SpaceDescriptor, note: dict, **changes) -> SpaceDescriptor:
    """space with the given fields replaced and note merged into its provenance."""
    provenance = dict(space.provenance or {})
    provenance.update(note)
    return replace(space, provenance=provenance, **changes)


def to_pt(space: SpaceDescriptor, sampler: Sampler | None = None, tol: float = DEFAULT_TOL) -> SpaceDescriptor:
    """Weighted-to-unweighted transform p^t(x,y) = 2p(x,y) - p(x,x) - p(y,y).

    For K = 1 the result is a true metric-type distance with the same
    polygon order.  For K > 1 that implication is unverified, so the
    construction always samples the unweighted axioms on the result and
    stores the verdict; a violation there is reported, not hidden.
    """
    if sampler is None:
        sampler = _default_check_sampler(space)
    _require_weighted_core(space, sampler, tol, "the weighted-to-unweighted transform")
    oracle = build_oracle({"op": "pt", "source": _spec(space, "transform")})

    # negativity scan: pm2 failures on unsampled points surface here, as the
    # ConstructionError the pt oracle raises on clearly negative values
    for x, y in sampler.pairs(count=400):
        oracle.fn(x, y)

    derived = _derive(space, {"construction": "pt"}, oracle=oracle, class_claim=SpaceClass.METRIC_TYPE)
    if space.coeff_K > 1.0:
        checks = check_metric_type(derived, sampler, tol=tol)
        note = {
            "coefficient_above_one": True,
            "posthoc_unweighted_axioms": {name: c.verdict for name, c in checks.items()},
        }
        if not all(c.passed for c in checks.values()):
            note["warning"] = "sampled unweighted axioms failed on the derived distance"
        derived = _derive(derived, note)
    return derived


def from_metric_with_basepoint(
    space: SpaceDescriptor,
    x0,
    sampler: Sampler | None = None,
    tol: float = DEFAULT_TOL,
) -> SpaceDescriptor:
    """Build a weighted distance from an unrelaxed metric-type distance:

        p(x,y) = [d(x,y) + d(x,x0) + d(y,x0)] / 2.

    The input must satisfy D1 through D3 at K = 1.  The classical
    sufficient condition d(x0, x) <= d(x, y) for all x != y is sampled; a
    violation downgrades to a provenance warning because the weighted
    axioms can still hold without it.
    """
    if sampler is None:
        sampler = _default_check_sampler(space)
    base = as_point(x0, space.dim)
    if not space.domain.contains(base):
        raise InputError(f"basepoint {base.coords} outside the domain")
    battery = _Battery(space, sampler, tol)
    _require((battery.d1(), battery.symmetry("D2"), battery.chain_check("D3", [1], 1.0, weighted=False)),
             "the basepoint construction", "axiom {axiom} at coefficient 1")
    # the domination scan reuses D2's pairs and their p(x, y); only p(x0, x) is new
    p = battery._pairs
    distinct = (p.rows[:, 0] != p.rows[:, 1]).any(axis=1)
    pairs = p.rows[distinct]
    rows = np.stack([np.broadcast_to(base.coords, pairs[:, 0].shape), pairs[:, 0]], axis=1)
    over = eval_terms(space, rows, ((0, 1),))[:, 0] > p.pxy[distinct] + tol
    note: dict = {"construction": "basepoint", "x0": list(base.coords)}
    if over.any():
        note["warning"] = "sampled basepoint domination hypothesis failed"
        note["hypothesis_violations"] = int(over.sum())
        note["hypothesis_witness"] = tuple(pairs[over.argmax()].tolist())
    oracle = build_oracle({"op": "basepoint", "source": _spec(space), "x0": list(base.coords)})
    return _derive(space, note, oracle=oracle, coeff_K=1.0, class_claim=SpaceClass.KPMS)


def induced_dp(space: SpaceDescriptor, sampler: Sampler | None = None, tol: float = DEFAULT_TOL) -> SpaceDescriptor:
    """Zero out the diagonal: d_p(x,y) = 0 when x = y, else p(x,y).

    Equality means exact coordinate equality.  The result satisfies the
    unweighted axioms with the same coefficient and polygon order.
    """
    if sampler is None:
        sampler = _default_check_sampler(space)
    _require_weighted_core(space, sampler, tol, "the induced unweighted distance",
                           polygon=(space.coeff_K, space.polygon_order_n))
    oracle = build_oracle({"op": "dp", "source": _spec(space)})
    return _derive(space, {"construction": "dp"}, oracle=oracle, class_claim=SpaceClass.METRIC_TYPE)


def power_pms(space: SpaceDescriptor, q: float, sampler: Sampler | None = None, tol: float = DEFAULT_TOL) -> SpaceDescriptor:
    """Raise an order-1, coefficient-1 weighted distance to the power q >= 1.

    Convexity of t^q gives the relaxed inequality with coefficient 2^(q-1)
    on the result.
    """
    if not (q >= 1.0):
        raise InputError(f"power exponent must be >= 1, got {q}")
    if sampler is None:
        sampler = _default_check_sampler(space)
    _require_weighted_core(space, sampler, tol, "the power construction", polygon=(1.0, 1))
    oracle = build_oracle({"op": "power", "base": _spec(space), "q": q})
    return _derive(space, {"construction": "power", "q": q}, oracle=oracle, coeff_K=2.0 ** (q - 1.0),
                   polygon_order_n=1, class_claim=SpaceClass.KPMS)


def sum_pm_bm(
    first: SpaceDescriptor,
    second: SpaceDescriptor,
    sampler: Sampler | None = None,
    tol: float = DEFAULT_TOL,
) -> SpaceDescriptor:
    """Sum a weighted distance with an unweighted one on the same domain.

    The first input must satisfy the weighted axioms at coefficient 1 and
    order 1, the second the unweighted axioms at its own coefficient.  The
    sum keeps the weights of the first and inherits the larger coefficient.
    The combined polygon inequality is re-sampled post hoc; failures become
    provenance warnings because the sum is still a useful distance when only
    the claimed coefficient is off.
    """
    if first.domain != second.domain:
        raise InputError("summands must share one domain")
    if sampler is None:
        sampler = _default_check_sampler(first)
    _require_weighted_core(first, sampler, tol, "the sum construction", polygon=(1.0, 1))
    _require(check_metric_type(second, sampler, chain_len=1, tol=tol).values(),
             "the sum construction", "axiom {axiom} on the second input")
    if first.oracle.spec is None or second.oracle.spec is None:
        raise InputError("both oracles must be serializable for the sum construction")
    derived = _derive(
        first,
        {"construction": "sum"},
        oracle=build_oracle({"op": "sum", "args": [first.oracle.spec, second.oracle.spec]}),
        coeff_K=max(1.0, second.coeff_K),
        polygon_order_n=1,
        class_claim=SpaceClass.KPMS,
        complete_asserted=first.complete_asserted and second.complete_asserted,
    )
    posthoc = check_pm4(derived, sampler, tol=tol)
    if not posthoc.passed:
        derived = _derive(derived, {
            "warning": "sampled polygon inequality failed on the sum",
            "polygon_witness": [list(p.coords) for p in posthoc.witnesses[0].points],
        })
    return derived


@dataclass(frozen=True)
class TransformSpec:
    """Parsed command-line request for one construction."""

    kind: str
    basepoint: tuple[float, ...] | None = None
    exponent: float | None = None
    second: SpaceDescriptor | None = None


def apply_transform(space: SpaceDescriptor, spec: TransformSpec,
                    sampler: Sampler | None = None, tol: float = DEFAULT_TOL) -> SpaceDescriptor:
    if spec.kind == "pt":
        return to_pt(space, sampler, tol)
    if spec.kind == "basepoint":
        if spec.basepoint is None:
            raise InputError("the basepoint construction needs --x0")
        return from_metric_with_basepoint(space, Point(spec.basepoint), sampler, tol)
    if spec.kind == "dp":
        return induced_dp(space, sampler, tol)
    if spec.kind == "power":
        if spec.exponent is None:
            raise InputError("the power construction needs --q")
        return power_pms(space, spec.exponent, sampler, tol)
    if spec.kind == "sum":
        if spec.second is None:
            raise InputError("the sum construction needs --space2")
        return sum_pm_bm(space, spec.second, sampler, tol)
    raise InputError(f"unknown transform kind {spec.kind!r}")
