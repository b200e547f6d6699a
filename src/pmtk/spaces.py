"""Core data model: points, distance oracles, space descriptors, maps, samplers.

Everything here is immutable after construction.  Distance oracles and self
maps are pure functions, so descriptors can be shared freely between threads
or worker processes.  Oracles come either from a small JSON-serializable
expression language (rich enough for every bundled space) or from pure Python
callables registered under a name.

A space descriptor never proves anything about its oracle.  It pairs the
oracle with the *claimed* relaxation coefficient K, the polygon order n of the
chain inequality, a box domain, and asserted metadata (completeness,
Hausdorffness) that downstream checks echo but cannot verify.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, InputError, OracleValueError

# Global absolute comparison tolerance; every checker takes an override.
DEFAULT_TOL = 1e-9
# Samplers shrink open interval endpoints by this margin before drawing.
OPEN_ENDPOINT_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# points and domains


@dataclass(frozen=True, slots=True)
class Point:
    """A finite coordinate vector; length equals the ambient dimension."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise InputError("a point needs at least one coordinate")
        if any(not math.isfinite(c) for c in coords):
            raise InputError(f"non-finite coordinate in {coords!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *coords: float) -> "Point":
        return cls(tuple(coords))


def as_point(value, dim: int | None = None) -> Point:
    """Coerce a scalar, coordinate sequence, or Point into a Point."""
    if isinstance(value, Point):
        pt = value
    elif isinstance(value, (int, float)):
        pt = Point((float(value),))
    else:
        pt = Point(tuple(value))
    if dim is not None and pt.dim != dim:
        raise InputError(f"expected a {dim}-dimensional point, got {pt.coords!r}")
    return pt


def chebyshev(x: Point, y: Point) -> float:
    """Max-norm distance between coordinate vectors, used for tie checks."""
    return max(abs(a - b) for a, b in zip(x.coords, y.coords))


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned product of intervals with per-endpoint open flags.

    Each bound is (lo, hi, open_lo, open_hi).
    """

    bounds: tuple[tuple[float, float, bool, bool], ...]

    def __post_init__(self) -> None:
        norm = []
        for b in self.bounds:
            lo, hi, olo, ohi = b
            try:
                lo, hi = float(lo), float(hi)
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad interval bounds {b!r}") from exc
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise InputError(f"bad interval bounds {b!r}")
            if not math.isfinite(hi - lo):
                raise InputError(f"interval width overflows a float in {b!r}")
            norm.append((lo, hi, bool(olo), bool(ohi)))
        if not norm:
            raise InputError("a domain needs at least one axis")
        object.__setattr__(self, "bounds", tuple(norm))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, p: Point) -> bool:
        if p.dim != self.dim:
            return False
        for c, (lo, hi, olo, ohi) in zip(p.coords, self.bounds):
            if c < lo or c > hi:
                return False
            if olo and c == lo:
                return False
            if ohi and c == hi:
                return False
        return True

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """contains() for each row of an (N, d) array of finite coordinates."""
        inside = np.ones(len(rows), dtype=bool)
        for c, (lo, hi, olo, ohi) in zip(rows.T, self.bounds):
            inside &= (c > lo if olo else c >= lo) & (c < hi if ohi else c <= hi)
        return inside

    def effective_bounds(self, margin: float) -> tuple[tuple[float, float], ...]:
        """Closed sampling intervals, shrunk away from open endpoints."""
        out = []
        for lo, hi, olo, ohi in self.bounds:
            lo_e = lo + margin if olo else lo
            hi_e = hi - margin if ohi else hi
            if lo_e > hi_e:
                raise InputError(f"margin {margin} empties interval [{lo}, {hi}]")
            out.append((lo_e, hi_e))
        return tuple(out)

    def grid_axes(self, density: int, margin: float) -> list[np.ndarray]:
        """density evenly spaced values on each axis of effective_bounds(margin)."""
        return [np.linspace(lo, hi, density) for lo, hi in self.effective_bounds(margin)]

    def grid(self, density: int, margin: float) -> np.ndarray:
        """Every combination of grid_axes(density, margin), as a (density**d, d) array, last axis fastest."""
        mesh = np.meshgrid(*self.grid_axes(density, margin), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def to_json(self) -> list:
        return [[lo, hi, olo, ohi] for lo, hi, olo, ohi in self.bounds]

    @classmethod
    def from_json(cls, doc) -> "Box":
        """The list form that to_json writes: [[lo, hi, open_lo, open_hi], ...]."""
        if not isinstance(doc, list):
            raise InputError(f"malformed domain {doc!r}: expected a list of [lo, hi, open_lo, open_hi]")
        try:
            return cls(tuple((b[0], b[1], b[2], b[3]) for b in doc))
        except (TypeError, IndexError) as exc:
            raise InputError(f"malformed domain {doc!r}") from exc

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Box":
        return cls(((lo, hi, False, False),))

    @classmethod
    def open(cls, lo: float, hi: float) -> "Box":
        return cls(((lo, hi, True, True),))


# ---------------------------------------------------------------------------
# distance oracles


class SpaceClass(str, Enum):
    KPMS = "KPMS"
    PARTIAL_B_METRIC = "PartialBMetric"
    PARTIAL_RECTANGULAR = "PartialRectangular"
    METRIC_TYPE = "MetricType"
    METRIC = "Metric"


@dataclass(frozen=True)
class DistanceOracle:
    """Pure deterministic map from ordered point pairs to finite values.

    ``spec`` is the JSON form used for serialization: either a registered
    name or an expression tree.  Oracles built from raw callables without a
    registered name carry spec None and cannot be serialized.
    """

    fn: Callable[[Point, Point], float]
    spec: dict | str | None = None


_ORACLE_REGISTRY: dict[str, DistanceOracle] = {}


def register_oracle(name: str, oracle: DistanceOracle, overwrite: bool = False) -> DistanceOracle:
    if not overwrite and name in _ORACLE_REGISTRY and _ORACLE_REGISTRY[name] is not oracle:
        raise InputError(f"oracle name already registered: {name!r}")
    named = replace(oracle, spec=name)
    _ORACLE_REGISTRY[name] = named
    return named


def lookup_oracle(name: str) -> DistanceOracle:
    try:
        return _ORACLE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_ORACLE_REGISTRY)) or "(none)"
        raise InputError(f"unknown oracle name {name!r}; registered: {known}") from None


def _compile_expr(expr) -> Callable[[Point, Point], float]:
    if isinstance(expr, str):
        return lookup_oracle(expr).fn
    if not isinstance(expr, Mapping) or "op" not in expr:
        raise InputError(f"malformed oracle expression {expr!r}")
    op = expr["op"]

    if op == "absdiff":
        def _absdiff(x: Point, y: Point) -> float:
            xc, yc = x.coords, y.coords
            if len(xc) == 1:
                return abs(xc[0] - yc[0])
            return max(abs(a - b) for a, b in zip(xc, yc))
        return _absdiff

    if op == "max":
        def _maxcoord(x: Point, y: Point) -> float:
            # max keeps the first of equal values; + 0.0 maps -0.0 to 0.0 for symmetry
            return max(max(x.coords), max(y.coords)) + 0.0
        return _maxcoord

    if op == "const":
        value = float(expr["value"])
        return lambda x, y: value

    if op == "power":
        base = _compile_expr(expr["base"])
        q = float(expr["q"])
        return lambda x, y: base(x, y) ** q

    if op == "affine":
        arg = _compile_expr(expr["arg"])
        scale = float(expr.get("scale", 1.0))
        offset = float(expr.get("offset", 0.0))
        return lambda x, y: scale * arg(x, y) + offset

    if op == "sum":
        parts = [_compile_expr(a) for a in expr["args"]]
        return lambda x, y: sum(p(x, y) for p in parts)

    if op == "pt":
        src = _compile_expr(expr["source"])

        def _pt(x: Point, y: Point) -> float:
            # self-distance terms are summed before subtracting so the
            # result is bitwise symmetric in (x, y)
            v = 2.0 * src(x, y) - (src(x, x) + src(y, y))
            if v < 0.0:
                if v < -DEFAULT_TOL:
                    raise ConstructionError(
                        f"weighted transform went negative ({v}) at {x.coords}, {y.coords}",
                        witness=(x, y, v),
                    )
                v = 0.0
            return v
        return _pt

    if op == "dp":
        src = _compile_expr(expr["source"])

        def _dp(x: Point, y: Point) -> float:
            if x.coords == y.coords:
                return 0.0
            return src(x, y)
        return _dp

    if op == "basepoint":
        src = _compile_expr(expr["source"])
        x0 = Point(tuple(expr["x0"]))

        def _bp(x: Point, y: Point) -> float:
            legs = sorted((src(x, x0), src(y, x0)))  # keeps bitwise symmetry
            return 0.5 * (src(x, y) + legs[0] + legs[1])
        return _bp

    raise InputError(f"unknown oracle expression op {op!r}")


def build_oracle(spec) -> DistanceOracle:
    """Compile a JSON expression tree (or registered name) into an oracle."""
    return DistanceOracle(fn=_compile_expr(spec), spec=spec)


def oracle_from_callable(fn: Callable[[float, float], float], name: str | None = None) -> DistanceOracle:
    """Wrap a scalar two-argument function as a one-dimensional oracle."""
    oracle = DistanceOracle(fn=lambda x, y: float(fn(x.coords[0], y.coords[0])), spec=None)
    if name is not None:
        oracle = register_oracle(name, oracle)
    return oracle


# ---------------------------------------------------------------------------
# space descriptors


@dataclass(frozen=True)
class SpaceDescriptor:
    """A distance oracle plus its claimed axioms and domain.

    coeff_K is the relaxation constant of the chain inequality and
    polygon_order_n the number of interior chain points it quantifies over.
    The class claim is what the caller asserts; the axioms module checks it
    by sampling.  Completeness and Hausdorffness are unverifiable from
    samples and travel as asserted flags only.
    """

    oracle: DistanceOracle
    coeff_K: float
    polygon_order_n: int
    domain: Box
    class_claim: SpaceClass
    hausdorff_asserted: bool = False
    complete_asserted: bool = True
    provenance: Mapping | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.coeff_K, (int, float)) and math.isfinite(self.coeff_K)):
            raise InputError(f"coefficient K must be finite, got {self.coeff_K!r}")
        if self.coeff_K < 1.0:
            raise InputError(f"coefficient K must be >= 1, got {self.coeff_K}")
        if not (isinstance(self.polygon_order_n, int) and self.polygon_order_n >= 1):
            raise InputError(f"polygon order must be an integer >= 1, got {self.polygon_order_n!r}")
        claim = SpaceClass(self.class_claim)
        object.__setattr__(self, "class_claim", claim)
        object.__setattr__(self, "coeff_K", float(self.coeff_K))
        if claim is SpaceClass.PARTIAL_B_METRIC and self.polygon_order_n != 1:
            raise InputError("a partial b-metric claim forces polygon order 1")
        if claim is SpaceClass.PARTIAL_RECTANGULAR and (
            self.polygon_order_n != 2 or self.coeff_K != 1.0
        ):
            raise InputError("a partial rectangular claim forces polygon order 2 and K = 1")

    @property
    def dim(self) -> int:
        return self.domain.dim


def eval_distance(space: SpaceDescriptor, x, y) -> float:
    """Evaluate the oracle on two domain points.

    Rejects points outside the declared domain.  Non-finite or negative
    oracle output is an oracle contract breach, not an input problem.
    """
    px = as_point(x, space.dim)
    py = as_point(y, space.dim)
    if not space.domain.contains(px):
        raise domain_error(space, px.coords)
    if not space.domain.contains(py):
        raise domain_error(space, py.coords)
    v = space.oracle.fn(px, py)
    if _invalid_distance(v):
        raise oracle_value_error(v, px.coords, py.coords)
    return v


def domain_point(space: SpaceDescriptor, value) -> Point:
    """as_point, then the domain check of eval_distance, for one point."""
    p = as_point(value, space.dim)
    if not space.domain.contains(p):
        raise domain_error(space, p.coords)
    return p


def eval_row(space: SpaceDescriptor, x: Point, ys: Sequence[Point]) -> list:
    """eval_distance(space, x, y) for each y, on points that passed domain_point.

    The oracle runs once per y, in order; the output check of eval_distance
    runs once over the row and names the first invalid pair.
    """
    fn = space.oracle.fn
    values = [fn(x, y) for y in ys]
    # a finite sum rules out nan and inf, and the minimum rules out negatives
    if not (math.isfinite(sum(values)) and min(values, default=0.0) >= 0.0):
        for v, y in zip(values, ys):
            if _invalid_distance(v):
                raise oracle_value_error(v, x.coords, y.coords)
    return values


def _eval_column(space: SpaceDescriptor, xs: Sequence[Point], y: Point) -> list:
    """eval_row with the arguments swapped: p(x, y) for each x, x first."""
    fn = space.oracle.fn
    values = [fn(x, y) for x in xs]
    if not (math.isfinite(sum(values)) and min(values, default=0.0) >= 0.0):
        for v, x in zip(values, xs):
            if _invalid_distance(v):
                raise oracle_value_error(v, x.coords, y.coords)
    return values


def eval_terms(space: SpaceDescriptor, rows: np.ndarray, terms: Sequence[tuple[int, int]]) -> np.ndarray:
    """eval_distance over a batch: p(t[a], t[b]) for each point tuple t and term (a, b).

    rows is an (N, T, d) coordinate array, such as a Sampler stream; the
    result is an (N, len(terms)) array, evaluated row by row in term order.
    The domain and the output checks of eval_distance run once per batch.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    if rows.shape[-1] != space.dim and len(flat):
        raise InputError(f"expected a {space.dim}-dimensional point, got {tuple(flat[0].tolist())!r}")
    outside = ~space.domain.contains_rows(flat)
    if outside.any():
        raise domain_error(space, tuple(flat[outside][0].tolist()))
    fn = space.oracle.fn
    values = np.fromiter(
        (fn(t[a], t[b]) for t in _point_tuples(rows) for a, b in terms),
        dtype=float,
        count=len(rows) * len(terms),
    ).reshape(len(rows), len(terms))
    bad = ~np.isfinite(values) | (values < 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        a, b = terms[j]
        raise oracle_value_error(float(values[i, j]), tuple(rows[i, a].tolist()), tuple(rows[i, b].tolist()))
    return values


def _invalid_distance(v) -> bool:
    return not math.isfinite(v) or v < 0.0


def domain_error(space: SpaceDescriptor, coords: tuple[float, ...]) -> DomainError:
    return DomainError(f"point {coords} outside domain {space.domain.to_json()}")


def oracle_value_error(v, x: tuple[float, ...], y: tuple[float, ...]) -> OracleValueError:
    return OracleValueError(f"oracle returned invalid distance {v!r} at {x}, {y}")


def self_distance(space: SpaceDescriptor, x) -> float:
    return eval_distance(space, x, x)


def ball_contains(space: SpaceDescriptor, center, radius: float, y) -> bool:
    """Membership in the open ball: p(center, y) < radius + p(center, center)."""
    if not (radius > 0.0):
        raise InputError(f"ball radius must be positive, got {radius}")
    return eval_distance(space, center, y) < radius + self_distance(space, center)


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class SelfMap:
    """A pure map from the domain into itself, with a display label."""

    apply: Callable[[Point], Point]
    label: str = "T"

    def __call__(self, p: Point) -> Point:
        return as_point(self.apply(p))

    @classmethod
    def scalar(cls, fn: Callable[[float], float], label: str = "T") -> "SelfMap":
        return cls(apply=lambda p: Point((float(fn(p.coords[0])),)), label=label)


@dataclass(frozen=True)
class MapFamily:
    """Countable family of self maps indexed from 1."""

    generator: Callable[[int], SelfMap]
    label: str = "T_n"

    def __call__(self, index: int) -> SelfMap:
        if not (isinstance(index, int) and index >= 1):
            raise InputError(f"family index must be a positive integer, got {index!r}")
        return self.generator(index)

    @classmethod
    def geometric(cls, base: float, label: str) -> "MapFamily":
        """The scalar family T_i(t) = t * base**-i."""
        return cls(generator=lambda i: SelfMap.scalar(lambda t: t * base**-i, label=f"T_{i}"), label=label)


def check_selfmap_closure(space: SpaceDescriptor, m: SelfMap, sampler: "Sampler") -> list[Point]:
    """Sampled escape check: points whose image leaves the domain."""
    escapes = []
    for p in sampler.points():
        img = m(p)
        if not space.domain.contains(img):
            escapes.append(p)
    return escapes


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class Sampler:
    """Deterministic point, pair, and chain source for a box region.

    Streams mix a boundary-including grid with seeded uniform draws in a
    50/50 split.  Identical (seed, region, grid_density, random_count,
    margin) reproduce identical streams.
    """

    seed: int
    region: Box
    grid_density: int = 32
    random_count: int = 10_000
    margin: float = OPEN_ENDPOINT_MARGIN

    def __post_init__(self) -> None:
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise InputError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.grid_density < 2:
            raise InputError("grid density must be at least 2")
        if self.random_count < 1:
            raise InputError("random count must be positive")

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(stream,)))

    def _grid_rows(self, tuple_len: int, count: int) -> np.ndarray:
        """Up to count grid tuples as a (take, tuple_len, d) array."""
        d = self.region.dim
        if count <= 0:
            return np.empty((0, tuple_len, d))
        dims = tuple_len * d
        g = max(2, math.ceil(count ** (1.0 / dims)))
        axes = self.region.grid_axes(g, self.margin)
        total = g**dims
        take = min(count, total)
        # evenly spaced flat indices keep boundary combinations in the sample
        if total <= 2**53:
            flat = np.linspace(0, total - 1, take).round().astype(np.int64)
        else:
            # beyond 2**53 a float spacing merges neighbouring indices and
            # overflows int64, so round i (total - 1) / (take - 1) in integers
            span, steps = total - 1, max(take - 1, 1)
            flat = np.array([(2 * i * span + steps) // (2 * steps) for i in range(take)], dtype=object)
        digits = np.empty((take, dims), dtype=np.int64)
        for k in range(dims):
            digits[:, k] = flat % g
            flat = flat // g
        rows = np.empty((take, tuple_len, d))
        for a in range(d):
            # digit p * d + a picks axis a of tuple position p
            rows[:, :, a] = axes[a][digits[:, a::d]]
        return _finite(rows)

    def _random_rows(self, tuple_len: int, count: int, stream: int) -> np.ndarray:
        """count seeded uniform tuples as a (count, tuple_len, d) array."""
        if count <= 0:
            return np.empty((0, tuple_len, self.region.dim))
        rng = self._rng(stream)
        bounds = self.region.effective_bounds(self.margin)
        return _finite(np.stack([rng.uniform(lo, hi, size=(count, tuple_len)) for lo, hi in bounds], axis=-1))

    def _draw(self, tuple_len: int, count: int, stream: int) -> np.ndarray:
        grid = self._grid_rows(tuple_len, count // 2)
        return np.concatenate([grid, self._random_rows(tuple_len, count - len(grid), stream)])

    def point_array(self, count: int | None = None) -> np.ndarray:
        """The points() stream as an (N, d) coordinate array."""
        if count is None:
            grid = _finite(self.region.grid(self.grid_density, self.margin)[:, None])
            return np.concatenate([grid, self._random_rows(1, self.random_count, stream=0)])[:, 0]
        return self._draw(1, count, stream=0)[:, 0]

    def pair_array(self, count: int | None = None) -> np.ndarray:
        """The pairs() stream as an (N, 2, d) coordinate array."""
        return self._draw(2, self.random_count if count is None else count, stream=1)

    def chain_array(self, chain_len: int, count: int | None = None) -> np.ndarray:
        """The chains() stream as an (N, chain_len + 2, d) coordinate array."""
        if chain_len < 1:
            raise InputError(f"chain length must be >= 1, got {chain_len}")
        n = self.random_count if count is None else count
        return self._draw(chain_len + 2, n, stream=100 + chain_len)

    def points(self, count: int | None = None) -> list[Point]:
        return [t[0] for t in _point_tuples(self.point_array(count)[:, None])]

    def pairs(self, count: int | None = None) -> list[tuple[Point, Point]]:
        return list(_point_tuples(self.pair_array(count)))

    def chains(self, chain_len: int, count: int | None = None) -> list[tuple[Point, ...]]:
        """Tuples (x, z_1, ..., z_chain_len, y) for the polygon inequality."""
        return list(_point_tuples(self.chain_array(chain_len, count)))


def _finite(rows: np.ndarray) -> np.ndarray:
    """rows, once every coordinate in the batch is checked finite."""
    ok = np.isfinite(rows).all(axis=-1)
    if not ok.all():
        raise InputError(f"non-finite coordinate in {tuple(rows[~ok][0].tolist())!r}")
    return rows


def _point_tuples(rows: np.ndarray) -> Iterator[tuple[Point, ...]]:
    """Point tuples from an (N, T, d) array of finite coordinates, in row order.

    The rows were validated as a batch, so each Point skips its own
    coercion and finiteness check.  Rows are converted in blocks, which
    keeps a long stream from existing as Python objects all at once.
    """
    new, setattr_ = object.__new__, object.__setattr__
    for start in range(0, len(rows), 256):
        for row in rows[start:start + 256].tolist():
            pts = []
            for coords in row:
                p = new(Point)
                setattr_(p, "coords", tuple(coords))
                pts.append(p)
            yield tuple(pts)


# ---------------------------------------------------------------------------
# serialization


def space_to_json(space: SpaceDescriptor) -> dict:
    if space.oracle.spec is None:
        raise InputError("oracle has no serializable form; register it under a name")
    doc = {
        "oracle": space.oracle.spec,
        "K": space.coeff_K,
        "n": space.polygon_order_n,
        "domain": space.domain.to_json(),
        "class": space.class_claim.value,
        "hausdorff": space.hausdorff_asserted,
        "complete": space.complete_asserted,
    }
    if space.provenance is not None:
        doc["provenance"] = dict(space.provenance)
    return doc


def space_from_json(doc: Mapping) -> SpaceDescriptor:
    try:
        oracle_spec = doc["oracle"]
        coeff = doc["K"]
        order = doc["n"]
        domain = doc["domain"]
        claim = doc["class"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"space document missing field: {exc}") from exc
    if isinstance(oracle_spec, str):
        oracle = lookup_oracle(oracle_spec)
    else:
        oracle = build_oracle(oracle_spec)
    try:
        claim_enum = SpaceClass(claim)
    except ValueError as exc:
        raise InputError(f"unknown space class {claim!r}") from exc
    return SpaceDescriptor(
        oracle=oracle,
        coeff_K=float(coeff),
        polygon_order_n=int(order),
        domain=Box.from_json(domain),
        class_claim=claim_enum,
        hausdorff_asserted=bool(doc.get("hausdorff", False)),
        complete_asserted=bool(doc.get("complete", True)),
        provenance=doc.get("provenance"),
    )


def dump_json(doc) -> str:
    """The text of every pmtk JSON output: sorted keys, two-space indent, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename it over path.

    The temp file is created with mode 0o666 under the process umask, so the
    output gets the permissions that open(path, "w") would give a new file.
    """
    # O_EXCL: a name collision fails instead of writing through someone else's file
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, doc) -> None:
    write_text_atomic(path, dump_json(doc))


def save_space(space: SpaceDescriptor, path: str) -> None:
    write_json_atomic(path, space_to_json(space))


def load_space(path: str) -> SpaceDescriptor:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read space document {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return space_from_json(doc)
