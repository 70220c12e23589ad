"""TSPLIB .tsp parsing, distance conventions, and best-known tour lengths.

Supports the coordinate-based symmetric instances used throughout:
``EDGE_WEIGHT_TYPE`` of EUC_2D, CEIL_2D, or ATT, with a ``NODE_COORD_SECTION``.
Explicit weight matrices are rejected. The grammar accepted is the standard
one: ``KEYWORD : value`` header lines in any order, a coordinate section of
``id x y`` triples, and an optional ``EOF`` marker.

Distances follow the published TSPLIB rounding conventions and are therefore
integers; ``distance_matrix`` applies them to all pairs at once, in float64,
where integer-valued sums are exact. Parse errors are structured and carry
the 1-based line number of the offending input line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_EDGE_WEIGHT_TYPES = ("EUC_2D", "CEIL_2D", "ATT")

# Optimal tour lengths from the TSPLIB registry, used for solution-error
# percentages. Override with --best-known on the CLI for other instances.
BEST_KNOWN = {
    "u159": 42080,
    "pcb442": 50778,
    "p654": 34643,
    "u724": 41910,
    "pcb1173": 56892,
    "pr2392": 378032,
    "berlin52": 7542,
    "kroA100": 21282,
    "eil51": 426,
}


class TsplibParseError(ValueError):
    """Base for structured parse failures; ``line`` is 1-based (0 = EOF)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class UnsupportedEdgeWeightType(TsplibParseError):
    """EDGE_WEIGHT_TYPE outside EUC_2D / CEIL_2D / ATT (e.g. EXPLICIT)."""


class MissingSection(TsplibParseError):
    """A required specification or section never appeared."""


class DuplicateNodeId(TsplibParseError):
    """The same node id occurred twice in NODE_COORD_SECTION."""


class DimensionMismatch(TsplibParseError):
    """Coordinate count or node ids disagree with DIMENSION."""


class CoordinateOutOfRange(TsplibParseError):
    """A coordinate is not finite, or two cities lie so far apart that
    their squared distance overflows."""


@dataclass(frozen=True)
class RawTspFile:
    """A validated .tsp file: header fields plus coordinates sorted by id.

    ``node_coords`` holds (id, x, y) with ids exactly 1..dimension.
    """

    name: str
    dimension: int
    edge_weight_type: str
    node_coords: tuple[tuple[int, float, float], ...]
    comment: str = ""


def parse_instance(text: str) -> RawTspFile:
    """Parse TSPLIB .tsp text into a RawTspFile.

    Raises UnsupportedEdgeWeightType, MissingSection, DuplicateNodeId, or
    DimensionMismatch; every failure is structured, no partial instance is
    ever returned.
    """
    name = ""
    comment_parts: list[str] = []
    dimension: int | None = None
    ewt: str | None = None
    coords: list[tuple[int, float, float]] = []
    seen_ids: dict[int, int] = {}
    in_coords = False
    coord_section_line = 0

    lines = text.splitlines()
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.strip()
        if not line:
            continue
        if line == "EOF":
            break

        if in_coords:
            parts = line.split()
            if len(parts) != 3:
                # a stray keyword after the section ends coordinate mode
                if parts and parts[0].isupper() and not _is_number(parts[0]):
                    in_coords = False
                else:
                    raise DimensionMismatch(
                        f"expected 'id x y', got {line!r}", lineno
                    )
            if in_coords:
                try:
                    node_id = int(parts[0])
                    x = float(parts[1])
                    y = float(parts[2])
                except ValueError:
                    raise DimensionMismatch(
                        f"expected 'id x y', got {line!r}", lineno
                    ) from None
                if node_id in seen_ids:
                    raise DuplicateNodeId(
                        f"node id {node_id} already given on line {seen_ids[node_id]}",
                        lineno,
                    )
                seen_ids[node_id] = lineno
                coords.append((node_id, x, y))
                continue

        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "NODE_COORD_SECTION":
            in_coords = True
            coord_section_line = lineno
        elif key == "NAME":
            name = value
        elif key == "COMMENT":
            comment_parts.append(value)
        elif key == "DIMENSION":
            try:
                dimension = int(value)
            except ValueError:
                raise DimensionMismatch(
                    f"DIMENSION is not an integer: {value!r}", lineno
                ) from None
        elif key == "EDGE_WEIGHT_TYPE":
            if value not in SUPPORTED_EDGE_WEIGHT_TYPES:
                raise UnsupportedEdgeWeightType(
                    f"edge weight type {value!r} not supported "
                    f"(supported: {', '.join(SUPPORTED_EDGE_WEIGHT_TYPES)})",
                    lineno,
                )
            ewt = value
        elif key in ("EDGE_WEIGHT_SECTION", "DISPLAY_DATA_SECTION"):
            raise UnsupportedEdgeWeightType(
                f"{key} instances are not supported", lineno
            )
        # other specification keywords (TYPE, CAPACITY, ...) are ignored

    if dimension is None:
        raise MissingSection("DIMENSION never specified")
    if ewt is None:
        raise MissingSection("EDGE_WEIGHT_TYPE never specified")
    if not in_coords and not coords:
        raise MissingSection("NODE_COORD_SECTION never appeared")
    if len(coords) != dimension:
        raise DimensionMismatch(
            f"DIMENSION says {dimension} but {len(coords)} coordinates given",
            coord_section_line,
        )
    for node_id, _, _ in coords:
        if not 1 <= node_id <= dimension:
            raise DimensionMismatch(
                f"node id {node_id} outside 1..{dimension}", seen_ids[node_id]
            )

    coords.sort(key=lambda c: c[0])
    return RawTspFile(
        name=name,
        dimension=dimension,
        edge_weight_type=ewt,
        node_coords=tuple(coords),
        comment=" ".join(comment_parts),
    )


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def distance_matrix(xy: np.ndarray, edge_weight_type: str) -> np.ndarray:
    """(n, n) float64 integer-valued distances under a TSPLIB convention.

    ``xy`` holds one (x, y) row per city. EUC_2D rounds the Euclidean
    distance half-up (TSPLIB ``nint``, floor(r + 0.5)); CEIL_2D takes the
    ceiling; ATT is the pseudo-Euclidean rule (r = sqrt(d2 / 10), rounded
    half-up, then bumped up by one when rounding went below r). Each rule
    runs in place in the two (n, n) difference arrays, so a load holds at
    most those two (and ATT's (n, n) bool comparison) at once.

    Raises CoordinateOutOfRange, naming the cities, for a coordinate that is
    not finite and for coordinate spans whose squares sum past the largest
    double, checked in O(n) before any (n, n) pass.
    """
    x, y = np.asarray(xy, dtype=np.float64).reshape(-1, 2).T
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise CoordinateOutOfRange(
            f"city {i} has coordinates ({float(x[i])}, {float(y[i])}); "
            "coordinates must be finite")
    if x.size:
        # in Python floats, which overflow to inf without a numpy warning
        sx, sy = (float(c.max()) - float(c.min()) for c in (x, y))
        if not math.isfinite(sx * sx + sy * sy):
            c = x if sx >= sy else y
            raise CoordinateOutOfRange(
                f"cities {int(c.argmin())} and {int(c.argmax())} lie {max(sx, sy):.3g} "
                "apart on one axis; their squared distance overflows")
    dx = x[:, None] - x
    dy = y[:, None] - y
    dx *= dx
    dy *= dy
    dx += dy  # the squared distances
    if edge_weight_type == "EUC_2D":
        np.sqrt(dx, out=dx)
        dx += 0.5
        return np.floor(dx, out=dx)
    if edge_weight_type == "CEIL_2D":
        np.sqrt(dx, out=dx)
        return np.ceil(dx, out=dx)
    if edge_weight_type == "ATT":
        dx /= 10.0
        r = np.sqrt(dx, out=dx)
        t = np.floor(np.add(r, 0.5, out=dy), out=dy)
        t += t < r
        return t
    raise UnsupportedEdgeWeightType(f"edge weight type {edge_weight_type!r} not supported")


def serialize_instance(raw: RawTspFile) -> str:
    """Render a RawTspFile back to .tsp text (parse round-trip identity)."""
    out = [f"NAME : {raw.name}", "TYPE : TSP"]
    if raw.comment:
        out.append(f"COMMENT : {raw.comment}")
    out.append(f"DIMENSION : {raw.dimension}")
    out.append(f"EDGE_WEIGHT_TYPE : {raw.edge_weight_type}")
    out.append("NODE_COORD_SECTION")
    for node_id, x, y in raw.node_coords:
        out.append(f"{node_id} {x!r} {y!r}")
    out.append("EOF")
    return "\n".join(out) + "\n"


def parse_tour(text: str) -> list[int]:
    """Parse a .opt.tour file's TOUR_SECTION into 0-based city indices.

    Only the plain permutation list is understood: one 1-based id per line,
    terminated by -1, EOF, or end of input.
    """
    ids: list[int] = []
    in_tour = False
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line:
            continue
        if line == "TOUR_SECTION":
            in_tour = True
            continue
        if line in ("-1", "EOF"):
            if in_tour:
                break
            continue
        if in_tour:
            try:
                ids.append(int(line))
            except ValueError:
                raise TsplibParseError(
                    f"expected a node id, got {line!r}", lineno
                ) from None
    if not ids:
        raise MissingSection("TOUR_SECTION never appeared or was empty")
    return [i - 1 for i in ids]
