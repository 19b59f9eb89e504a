"""Colored metric instances: data model, loaders, validation, distance queries.

An instance is a finite point set with one color per point and a metric given
either as an explicit distance table or derived from Euclidean coordinates.
All downstream solvers assume the metric axioms hold; validation enforces them
up to ``EPS_D`` times the table's largest distance, so a table passes or fails
them the same at every scale.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import FairclusError, ParseError, ValidationError

# relative tolerance of distance comparisons: to the largest distance in the
# metric checks, to the cap in a radius test (d <= r * (1 + EPS_D))
EPS_D = 1e-9

# Exhaustive triangle-inequality check up to this size; sampled above.
_EXHAUSTIVE_LIMIT = 200
_SAMPLED_TRIPLES_PER_POINT = 50


@dataclass(frozen=True)
class MetricInstance:
    """Immutable colored metric space.

    ``dist`` is always the full n x n table: either given explicitly, or
    derived once from the Euclidean ``coords``.
    """

    n: int
    m: int
    colors: np.ndarray  # shape (n,), int
    dist: np.ndarray  # shape (n, n)
    coords: np.ndarray | None = None  # shape (n, dim) or None
    color_names: tuple | None = None  # reporting only

    def distance(self, i: int, j: int) -> float:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"point id out of range: ({i}, {j}) with n={self.n}")
        return float(self.dist[i, j])

    def distance_matrix(self) -> np.ndarray:
        """Full n x n table, built once with the instance."""
        return self.dist

    def color_counts(self) -> np.ndarray:
        return np.bincount(self.colors, minlength=self.m)


def make_instance(colors, coords=None, dist=None, m=None,
                  color_names=None) -> MetricInstance:
    """Build and validate a MetricInstance from raw arrays. Each color
    label must be an integer (a bool is not), and ``color_names``, if
    given, must name the m colors."""
    if not (isinstance(colors, np.ndarray) and colors.dtype.kind in "iu"):
        for j, c in enumerate(colors.tolist() if isinstance(colors, np.ndarray) else colors):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValidationError(f"color label {c!r} of point {j} is not an integer")
    colors = np.asarray(colors, dtype=int)
    n = colors.shape[0]
    if n == 0:
        raise ValidationError("instance must contain at least one point")
    if m is None:
        m = int(colors.max()) + 1
    elif isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValidationError(f"color count m must be an integer, got {m!r}")
    if colors.min() < 0 or colors.max() >= m:
        bad = int(np.flatnonzero((colors < 0) | (colors >= m))[0])
        raise ValidationError(
            f"color label {colors[bad]} of point {bad} outside [0, {m})")
    if color_names is not None:
        color_names = tuple(color_names)
        if len(color_names) != m:
            raise ValidationError(
                f"color_names has {len(color_names)} names, expected m={m}")

    if (coords is None) == (dist is None):
        raise ValidationError("exactly one of coords/dist must be given")

    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] != n:
            raise ValidationError(f"coords must be (n, dim), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("coords contain non-finite values")
        table = _euclidean_table(coords)
        coords.flags.writeable = False
    else:
        table = np.asarray(dist, dtype=float)
        if table.shape != (n, n):
            raise ValidationError(f"dist must be (n, n), got {table.shape}")
        _check_metric_axioms(table)
        table = table.copy()
    table.flags.writeable = False

    colors = colors.copy()
    colors.flags.writeable = False
    return MetricInstance(n=n, m=int(m), colors=colors, coords=coords,
                          dist=table, color_names=color_names)


def _euclidean_table(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances of the rows of ``coords``, at any scale: the
    squares are taken on coordinates scaled by the power of two that brings
    the largest |coordinate| into [0.5, 1), so none over- or underflows,
    and the table is scaled back. A power of two changes no bits of a
    normal float, so the table is the one at unit scale, times the scale."""
    _, e = np.frexp(np.abs(coords).max())
    coords = np.ldexp(coords, -e)
    sq = np.sum(coords ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * coords @ coords.T
    np.maximum(d2, 0.0, out=d2)
    table = np.sqrt(d2)
    np.fill_diagonal(table, 0.0)
    # exact symmetry regardless of float noise in the gram product
    table = (table + table.T) / 2.0
    with np.errstate(over="ignore"):
        np.ldexp(table, e, out=table)
    if np.isinf(table.max()):
        i, j = np.argwhere(np.isinf(table))[0]
        raise ValidationError(f"distance d({i},{j}) overflows")
    return table


def _check_metric_axioms(d: np.ndarray) -> None:
    n = d.shape[0]
    if not np.all(np.isfinite(d)):
        i, j = np.argwhere(~np.isfinite(d))[0]
        raise ValidationError(f"non-finite distance at ({i}, {j})")
    tol = EPS_D * float(np.abs(d).max())
    if np.any(d < -tol):
        i, j = np.argwhere(d < -tol)[0]
        raise ValidationError(f"negative distance d({i},{j}) = {d[i, j]}")
    diag = np.abs(np.diag(d))
    if np.any(diag > tol):
        i = int(np.argmax(diag))
        raise ValidationError(f"d({i},{i}) = {d[i, i]} is not 0")
    asym = np.abs(d - d.T)
    if np.any(asym > tol):
        i, j = np.argwhere(asym > tol)[0]
        raise ValidationError(
            f"asymmetric distances d({i},{j}) = {d[i, j]} vs d({j},{i}) = {d[j, i]}")

    if n <= _EXHAUSTIVE_LIMIT:
        # d[i,l] + d[l,j] >= d[i,j] for all triples, vectorized over l
        for l in range(n):
            slack = d[:, l][:, None] + d[l, :][None, :] - d
            if np.any(slack < -tol):
                i, j = np.argwhere(slack < -tol)[0]
                raise ValidationError(
                    "triangle inequality violated for triple "
                    f"({i}, {l}, {j}): d({i},{j}) = {d[i, j]} > "
                    f"d({i},{l}) + d({l},{j}) = {d[i, l] + d[l, j]}")
    else:
        # random triples in one pass; the first violation in sample order
        i, l, j = np.random.default_rng(0).integers(
            0, n, size=(_SAMPLED_TRIPLES_PER_POINT * n, 3)).T
        bad = d[i, l] + d[l, j] - d[i, j] < -tol
        if bad.any():
            t = int(bad.argmax())
            raise ValidationError(
                f"triangle inequality violated for triple ({i[t]}, {l[t]}, {j[t]})")


def load_instance(source, format: str, colors_source=None) -> MetricInstance:
    """Load an instance from a byte/text stream or path.

    Formats: ``json`` (keys n, m, colors, and coords or dist),
    ``csv-points`` (header ``id,color,x0,x1,...``), and ``csv-matrix``
    (n rows of n reals; requires a companion ``colors_source``).
    """
    text = read_text_source(source)
    if format == "json":
        return _load_json(text)
    if format == "csv-points":
        return _load_csv_points(text)
    if format == "csv-matrix":
        if colors_source is None:
            raise ParseError("csv-matrix format requires a colors companion file")
        return _load_csv_matrix(text, read_text_source(colors_source))
    raise ParseError(f"unknown instance format: {format!r}")


def read_text_source(source) -> str:
    """Text from a path, PathLike, bytes, raw string, or file object. A
    PathLike is always opened; a str or bytes is read as a path only if that
    file exists."""
    import os
    if isinstance(source, os.PathLike) or (
            isinstance(source, (str, bytes)) and "\n" not in str(source)[:500]
            and _looks_like_path(source)):
        try:
            with open(source, "rb") as fh:
                return fh.read().decode("utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read {os.fsdecode(source)}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot read {os.fsdecode(source)}: not UTF-8 text") from exc
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def open_output(path, mode="w", newline=None):
    """``path`` opened for writing text, or for appending with ``mode="a"``.
    An OSError, say from a missing directory, becomes a FairclusError naming
    the path."""
    import os
    try:
        return open(path, mode, newline=newline)
    except OSError as exc:
        raise FairclusError(f"cannot write {os.fsdecode(path)}: {exc.strerror}") from exc


def _looks_like_path(source) -> bool:
    import os
    try:
        return os.path.exists(source)
    except (TypeError, ValueError):
        return False


def _load_json(text: str) -> MetricInstance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON instance: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("instance JSON must be an object")
    for key in ("n", "m", "colors"):
        if key not in obj:
            raise ParseError(f"instance JSON missing required key {key!r}")
    n, m, colors = obj["n"], obj["m"], obj["colors"]
    if not isinstance(colors, list):
        raise ParseError(f"instance 'colors' must be a list, got {colors!r}")
    if len(colors) != n:
        raise ParseError(f"colors has length {len(colors)}, expected n={n}")
    coords = obj.get("coords")
    dist = obj.get("dist")
    if coords is None and dist is None:
        raise ParseError("instance JSON needs one of 'coords' or 'dist'")
    try:  # e.g. non-numeric coordinates, a ragged distance table or a huge label
        return make_instance(colors, coords=coords, dist=dist, m=m,
                             color_names=obj.get("color_names"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid instance JSON: {exc}") from exc


def _load_csv_points(text: str) -> MetricInstance:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ParseError("empty csv-points input")
    header = [c.strip() for c in rows[0]]
    if header[:2] != ["id", "color"]:
        raise ParseError("csv-points header must start with 'id,color'")
    dim = len(header) - 2
    if dim < 1:
        raise ParseError("csv-points needs at least one coordinate column")
    records = []
    try:
        for r in rows[1:]:
            records.append((int(r[0]), int(r[1]), [float(v) for v in r[2:2 + dim]]))
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed csv-points row: {exc}") from exc
    records.sort(key=lambda t: t[0])
    ids = [t[0] for t in records]
    if ids != list(range(len(records))):
        raise ValidationError("point ids must form a contiguous 0-based range")
    colors = [t[1] for t in records]
    coords = [t[2] for t in records]
    return make_instance(colors, coords=coords)


def _load_csv_matrix(text: str, colors_text: str) -> MetricInstance:
    try:
        rows = [[float(v) for v in line.replace(",", " ").split()]
                for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        raise ParseError(f"malformed csv-matrix row: {exc}") from exc
    try:
        colors = [int(v) for v in colors_text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"malformed colors file: {exc}") from exc
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParseError("csv-matrix must be square")
    if len(colors) != n:
        raise ParseError(f"colors file has {len(colors)} entries, expected {n}")
    return make_instance(colors, dist=rows)


def pairwise_distance_set(inst: MetricInstance) -> np.ndarray:
    """Sorted distinct distance values of the instance, always including 0."""
    d = inst.distance_matrix()
    vals = np.unique(d)
    if vals[0] != 0.0:
        vals = np.concatenate(([0.0], vals))
    return vals


def random_instance(n: int, m: int, seed: int, dim: int = 2,
                    color_dist=None) -> MetricInstance:
    """Seeded random instance: uniform coords in the unit cube, i.i.d. colors."""
    if n < 1 or m < 1 or dim < 1:
        raise ValidationError(f"invalid generator parameters n={n}, m={m}, dim={dim}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if color_dist is None:
        color_dist = [1.0 / m] * m
    color_dist = np.asarray(color_dist, dtype=float)
    if color_dist.shape != (m,) or not np.all(np.isfinite(color_dist)) or np.any(color_dist < 0):
        raise ValidationError("color distribution must be m finite nonnegative weights")
    with np.errstate(over="ignore"):
        total = color_dist.sum()
    if not 0 < total < np.inf:
        raise ValidationError("color distribution must have positive finite mass")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n, dim))
    colors = rng.choice(m, size=n, p=color_dist / total)
    return make_instance(colors, coords=coords, m=m)


def instance_to_dict(inst: MetricInstance) -> dict:
    """JSON-ready representation (coords preferred when available)."""
    obj = {"n": inst.n, "m": inst.m, "colors": inst.colors.tolist()}
    if inst.coords is not None:
        obj["coords"] = inst.coords.tolist()
    else:
        obj["dist"] = inst.dist.tolist()
    if inst.color_names:
        obj["color_names"] = list(inst.color_names)
    return obj
