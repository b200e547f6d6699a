"""Sampled axiom verification for distance oracles.

A "pass" here means no counterexample was found among the sampled points,
pairs, and chains; it is evidence, not proof.  A "fail" is definitive and
comes with concrete witness points that re-evaluate to the violation.

Axioms for a weighted distance p with relaxation coefficient K and polygon
order n:

  pm1  x = y  iff  p(x,x) = p(x,y) = p(y,y)
  pm2  p(x,x) <= p(x,y)
  pm3  p(x,y) = p(y,x)
  pm4  p(x,y) + sum_i p(z_i,z_i) <= K [p(x,z_1) + p(z_1,z_2) + ... + p(z_n,y)]

and for an unweighted metric-type distance D with the same K, n:

  D1   D(x,x) = 0
  D2   D(x,y) = D(y,x)
  D3   D(x,y) <= K [D(x,z_1) + ... + D(z_n,y)]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .spaces import (
    DEFAULT_TOL,
    Point,
    Sampler,
    SpaceClass,
    SpaceDescriptor,
    eval_terms,
)

# Cap stored witnesses per axiom; counts are still exact.
MAX_WITNESSES = 16


@dataclass(frozen=True)
class Witness:
    """Concrete points violating one axiom, with both sides of the inequality."""

    axiom: str
    points: tuple[Point, ...]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    verdict: str  # "pass" or "fail"
    witnesses: tuple[Witness, ...]
    samples_checked: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class ClassLabel:
    kind: SpaceClass
    polygon_order_n: int
    coeff_K: float


@dataclass
class AxiomReport:
    """Aggregate of every axiom check run against one space."""

    space_class_claim: SpaceClass
    checks: dict[str, AxiomCheck] = field(default_factory=dict)
    min_K_estimate: float | None = None
    chain_mode: str = "exact"
    labels: tuple[ClassLabel, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        out: list[Witness] = []
        for c in self.checks.values():
            out.extend(c.witnesses)
        return tuple(out)

    def claim_checks(self) -> dict[str, AxiomCheck]:
        """The subset of checks that substantiate the claimed class."""
        claim = self.space_class_claim
        if claim in (SpaceClass.KPMS, SpaceClass.PARTIAL_B_METRIC, SpaceClass.PARTIAL_RECTANGULAR):
            names = ("pm1", "pm2", "pm3", "pm4")
        elif claim is SpaceClass.METRIC_TYPE:
            names = ("D1", "D2", "D3")
        else:
            names = ("D1", "D2", "D3", "positivity")
        return {k: v for k, v in self.checks.items() if k in names}

    @property
    def claim_supported(self) -> bool:
        subset = self.claim_checks()
        return bool(subset) and all(c.passed for c in subset.values())

    def to_json_dict(self) -> dict:
        return {
            "claim": self.space_class_claim.value,
            "claim_supported": self.claim_supported,
            "all_passed": self.all_passed,
            "chain_mode": self.chain_mode,
            "min_K_estimate": self.min_K_estimate,
            "labels": [
                {"kind": lb.kind.value, "n": lb.polygon_order_n, "K": lb.coeff_K}
                for lb in self.labels
            ],
            "checks": {
                name: {
                    "verdict": c.verdict,
                    "samples": c.samples_checked,
                    "witnesses": [
                        {
                            "points": [list(p.coords) for p in w.points],
                            "lhs": w.lhs,
                            "rhs": w.rhs,
                        }
                        for w in c.witnesses
                    ],
                }
                for name, c in sorted(self.checks.items())
            },
        }


def _collect(axiom: str, witnesses: list[Witness], samples: int) -> AxiomCheck:
    verdict = "fail" if witnesses else "pass"
    return AxiomCheck(axiom, verdict, tuple(witnesses[:MAX_WITNESSES]), samples)


def _witnesses(axiom: str, rows: np.ndarray, mask: np.ndarray, lhs, rhs) -> list[Witness]:
    """Witnesses for the first MAX_WITNESSES rows where mask holds, in stream order."""
    idx = np.flatnonzero(mask)[:MAX_WITNESSES]
    lhs, rhs = np.broadcast_to(lhs, mask.shape), np.broadcast_to(rhs, mask.shape)
    return [
        Witness(axiom, tuple(Point(tuple(c)) for c in row), float(lhs[i]), float(rhs[i]))
        for i, row in zip(idx, rows[idx].tolist())
    ]


def _running_sum(columns: np.ndarray) -> np.ndarray:
    """Row sums added left to right from 0, as Python's sum() adds them."""
    total = np.zeros(len(columns))
    for j in range(columns.shape[1]):
        total = total + columns[:, j]
    return total


class _Pairs(NamedTuple):
    rows: np.ndarray  # (N, 2, d)
    pxx: np.ndarray
    pyy: np.ndarray
    pxy: np.ndarray
    pyx: np.ndarray
    distinct: np.ndarray  # clearly distinct at the tie tolerance


class _Chains(NamedTuple):
    rows: np.ndarray  # (N, length + 2, d): x, z_1, ..., z_length, y
    pxy: np.ndarray
    selfs: np.ndarray  # sum of p(z_i, z_i)
    bracket: np.ndarray  # p(x, z_1) + ... + p(z_length, y)


class _Battery:
    """One evaluation plan for the checks of one (space, sampler) pair.

    Each stream is drawn once, as a coordinate array, on first use: points(256)
    for pm1's determinism probe, pairs() for every two-point check,
    points(512) for D1 and chains(L) per chain length.  Each distance on a
    stream is evaluated once and stored, and every check derives its verdict
    from the stored values, so the checks of one report share all their work.
    """

    def __init__(self, space: SpaceDescriptor, sampler: Sampler, tol: float):
        self.space, self.sampler, self.tol = space, sampler, tol
        self._chains: dict[int, _Chains] = {}

    @cached_property
    def _repeated(self) -> tuple[np.ndarray, np.ndarray]:
        rows = self.sampler.point_array(count=256)[:, None]
        return rows, eval_terms(self.space, rows, ((0, 0), (0, 0)))

    @cached_property
    def _selfs(self) -> tuple[np.ndarray, np.ndarray]:
        rows = self.sampler.point_array(count=512)[:, None]
        return rows, eval_terms(self.space, rows, ((0, 0),))[:, 0]

    @cached_property
    def _pairs(self) -> _Pairs:
        rows = self.sampler.pair_array()
        v = eval_terms(self.space, rows, ((0, 0), (1, 1), (0, 1), (1, 0)))
        distinct = np.abs(rows[:, 0] - rows[:, 1]).max(axis=1) > 10.0 * self.tol
        return _Pairs(rows, v[:, 0], v[:, 1], v[:, 2], v[:, 3], distinct)

    def _chain(self, length: int) -> _Chains:
        if length not in self._chains:
            rows = self.sampler.chain_array(length)
            last = length + 1
            # p(x, y), the self-distances of z_1 .. z_length, then the legs
            terms = [(0, last)] + [(i, i) for i in range(1, last)] + [(i, i + 1) for i in range(last)]
            v = eval_terms(self.space, rows, terms)
            self._chains[length] = _Chains(rows, v[:, 0], _running_sum(v[:, 1:last]), _running_sum(v[:, last:]))
        return self._chains[length]

    def pm1(self) -> AxiomCheck:
        rows, v = self._repeated
        witnesses = _witnesses("pm1", rows[:, (0, 0)], np.abs(v[:, 0] - v[:, 1]) > self.tol, v[:, 0], v[:, 1])
        p = self._pairs
        plateau = p.distinct & (p.pxx == p.pxy) & (p.pyy == p.pxy)
        witnesses += _witnesses("pm1", p.rows, plateau, p.pxy, p.pxy)
        return _collect("pm1", witnesses, len(rows) + len(p.rows))

    def pm2(self) -> AxiomCheck:
        p = self._pairs
        return _collect("pm2", _witnesses("pm2", p.rows, p.pxx > p.pxy + self.tol, p.pxx, p.pxy), len(p.rows))

    def symmetry(self, axiom: str) -> AxiomCheck:
        """pm3 and D2: the same test under the weighted and unweighted names."""
        p = self._pairs
        return _collect(axiom, _witnesses(axiom, p.rows, np.abs(p.pxy - p.pyx) > self.tol, p.pxy, p.pyx),
                        len(p.rows))

    def d1(self) -> AxiomCheck:
        rows, v = self._selfs
        return _collect("D1", _witnesses("D1", rows, v > self.tol, v, 0.0), len(rows))

    def positivity(self) -> AxiomCheck:
        p = self._pairs
        return _collect("positivity", _witnesses("positivity", p.rows, p.distinct & (p.pxy <= self.tol), p.pxy, 0.0),
                        len(p.rows))

    def chain_check(self, axiom: str, lengths: Sequence[int], K: float, weighted: bool) -> AxiomCheck:
        """pm4 (weighted: self-distances join the left side) or D3 at coefficient K."""
        witnesses: list[Witness] = []
        n = 0
        for length in lengths:
            c = self._chain(length)
            lhs = c.pxy + c.selfs if weighted else c.pxy
            rhs = K * c.bracket
            witnesses += _witnesses(axiom, c.rows, lhs > rhs + self.tol, lhs, rhs)
            n += len(c.rows)
        return _collect(axiom, witnesses, n)

    def min_K(self, lengths: Sequence[int]) -> float:
        best = 1.0
        for length in lengths:
            c = self._chain(length)
            lhs, zero = c.pxy + c.selfs, c.bracket <= 0.0
            if (zero & (lhs > self.tol)).any():
                return float("inf")
            if not zero.all():
                best = max(best, float((lhs[~zero] / c.bracket[~zero]).max()))
        return best

    def core_checks(self, chain_mode: str) -> dict[str, AxiomCheck]:
        """pm1 through pm4 and D1 through D3 at the descriptor's K and order."""
        lengths = _chain_lengths(self.space, None, chain_mode)
        K = self.space.coeff_K
        return {
            "pm1": self.pm1(),
            "pm2": self.pm2(),
            "pm3": self.symmetry("pm3"),
            "pm4": self.chain_check("pm4", lengths, K, weighted=True),
            "D1": self.d1(),
            "D2": self.symmetry("D2"),
            "D3": self.chain_check("D3", lengths, K, weighted=False),
        }

    def labels(self, checks: Mapping[str, AxiomCheck]) -> tuple[ClassLabel, ...]:
        """classify() from the core checks, probing only what they leave open."""
        space = self.space
        labels: list[ClassLabel] = []
        if all(checks[k].passed for k in ("pm1", "pm2", "pm3")):
            declared = checks["pm4"].passed
            if declared:
                labels.append(ClassLabel(SpaceClass.KPMS, space.polygon_order_n, space.coeff_K))
            if space.polygon_order_n == 1:
                order_one = declared
            else:
                order_one = self.chain_check("pm4", (1,), space.coeff_K, weighted=True).passed
            if order_one:
                labels.append(ClassLabel(SpaceClass.PARTIAL_B_METRIC, 1, space.coeff_K))
            if self.chain_check("pm4", (2,), 1.0, weighted=True).passed:
                labels.append(ClassLabel(SpaceClass.PARTIAL_RECTANGULAR, 2, 1.0))
        if all(checks[k].passed for k in ("D1", "D2", "D3")):
            labels.append(ClassLabel(SpaceClass.METRIC_TYPE, space.polygon_order_n, space.coeff_K))
            pos = checks.get("positivity") or self.positivity()
            if pos.passed and self.chain_check("pm4", (1,), 1.0, weighted=True).passed:
                labels.append(ClassLabel(SpaceClass.METRIC, 1, 1.0))
        return tuple(labels)


def check_pm1(space: SpaceDescriptor, sampler: Sampler, tol: float = DEFAULT_TOL) -> AxiomCheck:
    """Indistinguishability: x = y iff all three distances coincide.

    The forward direction on sampled diagonals only exercises evaluation
    determinism.  The converse witness is a pair of clearly distinct points
    whose three distances are bitwise equal.  Equality is exact on purpose:
    every continuous oracle admits near-equal triples arbitrarily close to
    the diagonal, so a tolerance here would flag artifacts of continuity
    rather than genuine plateaus.  Collapses that sampling can actually
    certify (constant patches, zeroed-out regions) are exact in floats.
    """
    return _Battery(space, sampler, tol).pm1()


def check_pm2(space: SpaceDescriptor, sampler: Sampler, tol: float = DEFAULT_TOL) -> AxiomCheck:
    """Small self-distances: p(x,x) <= p(x,y)."""
    return _Battery(space, sampler, tol).pm2()


def check_pm3(space: SpaceDescriptor, sampler: Sampler, tol: float = DEFAULT_TOL) -> AxiomCheck:
    """Symmetry in both arguments."""
    return _Battery(space, sampler, tol).symmetry("pm3")


def _chain_lengths(space: SpaceDescriptor, chain_len: int | None, chain_mode: str) -> list[int]:
    top = space.polygon_order_n if chain_len is None else chain_len
    if top < 1:
        raise InputError(f"chain length must be >= 1, got {top}")
    if chain_mode == "exact":
        return [top]
    if chain_mode == "upto":
        return list(range(1, top + 1))
    raise InputError(f"chain mode must be 'exact' or 'upto', got {chain_mode!r}")


def check_pm4(
    space: SpaceDescriptor,
    sampler: Sampler,
    chain_len: int | None = None,
    K: float | None = None,
    chain_mode: str = "exact",
    tol: float = DEFAULT_TOL,
) -> AxiomCheck:
    """Polygon inequality over sampled chains x, z_1, ..., z_n, y."""
    coeff = space.coeff_K if K is None else float(K)
    lengths = _chain_lengths(space, chain_len, chain_mode)
    return _Battery(space, sampler, tol).chain_check("pm4", lengths, coeff, weighted=True)


def check_metric_type(
    space: SpaceDescriptor,
    sampler: Sampler,
    chain_len: int | None = None,
    K: float | None = None,
    chain_mode: str = "exact",
    tol: float = DEFAULT_TOL,
) -> dict[str, AxiomCheck]:
    """The unweighted axioms D1 through D3 for the same oracle."""
    coeff = space.coeff_K if K is None else float(K)
    lengths = _chain_lengths(space, chain_len, chain_mode)
    battery = _Battery(space, sampler, tol)
    return {
        "D1": battery.d1(),
        "D2": battery.symmetry("D2"),
        "D3": battery.chain_check("D3", lengths, coeff, weighted=False),
    }


def check_positivity(space: SpaceDescriptor, sampler: Sampler, tol: float = DEFAULT_TOL) -> AxiomCheck:
    """Distinct points must have strictly positive distance (metric claim)."""
    return _Battery(space, sampler, tol).positivity()


def estimate_min_K(
    space: SpaceDescriptor,
    sampler: Sampler,
    chain_len: int | None = None,
    chain_mode: str = "exact",
    tol: float = DEFAULT_TOL,
) -> float:
    """Smallest K consistent with the sampled chains (weighted inequality).

    Returns at least 1.0.  A chain with zero bracket but positive left side
    is incompatible with every finite K and yields inf.
    """
    return _Battery(space, sampler, tol).min_K(_chain_lengths(space, chain_len, chain_mode))


def classify(
    space: SpaceDescriptor,
    sampler: Sampler,
    chain_mode: str = "exact",
    tol: float = DEFAULT_TOL,
) -> tuple[ClassLabel, ...]:
    """Every class label consistent with the samples, most specific first.

    Weighted labels need pm1 through pm4; the polygon order and K come from
    the descriptor for the general label, with the order-1 and the
    rectangular specializations probed separately.  Unweighted labels need
    D1 through D3, plus positivity for the plain metric label.
    """
    battery = _Battery(space, sampler, tol)
    return battery.labels(battery.core_checks(chain_mode))


def build_report(
    space: SpaceDescriptor,
    sampler: Sampler,
    chain_mode: str = "exact",
    tol: float = DEFAULT_TOL,
    with_labels: bool = False,
) -> AxiomReport:
    """Run every axiom family against the space and aggregate the results.

    All checks, min-K and the labels come from one evaluation plan, so each
    sampled stream is drawn once and each distance on it evaluated once.
    """
    report = AxiomReport(space_class_claim=space.class_claim, chain_mode=chain_mode)
    battery = _Battery(space, sampler, tol)
    report.checks.update(battery.core_checks(chain_mode))
    if space.class_claim is SpaceClass.METRIC:
        report.checks["positivity"] = battery.positivity()
    if all(report.checks[k].passed for k in ("pm1", "pm2", "pm3")):
        report.min_K_estimate = battery.min_K(_chain_lengths(space, None, chain_mode))
    if with_labels:
        report.labels = battery.labels(report.checks)
    return report
