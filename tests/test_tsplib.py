import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antbatch.tsplib import (
    BEST_KNOWN,
    CoordinateOutOfRange,
    DimensionMismatch,
    DuplicateNodeId,
    MissingSection,
    RawTspFile,
    TsplibParseError,
    UnsupportedEdgeWeightType,
    distance_matrix,
    parse_instance,
    parse_tour,
    serialize_instance,
)

from conftest import read_fixture

GOOD = """NAME : tiny
TYPE : TSP
COMMENT : three points
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 3.0 0.0
3 0.0 4.0
EOF
"""


def test_parses_minimal_instance():
    raw = parse_instance(GOOD)
    assert raw.name == "tiny"
    assert raw.dimension == 3
    assert raw.edge_weight_type == "EUC_2D"
    assert raw.comment == "three points"
    assert raw.node_coords == ((1, 0.0, 0.0), (2, 3.0, 0.0), (3, 0.0, 4.0))


def test_keyword_order_is_irrelevant_and_ids_get_sorted():
    scrambled = """DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NAME : shuffled
NODE_COORD_SECTION
3 0.0 4.0
1 0.0 0.0
2 3.0 0.0
"""
    raw = parse_instance(scrambled)
    assert [c[0] for c in raw.node_coords] == [1, 2, 3]


def test_multiple_comment_lines_are_joined():
    text = GOOD.replace("COMMENT : three points",
                        "COMMENT : three\nCOMMENT : points")
    assert parse_instance(text).comment == "three points"


def test_content_after_eof_marker_is_ignored():
    assert parse_instance(GOOD + "garbage that is not parseable\n") == parse_instance(GOOD)


def test_unknown_specification_keywords_are_ignored():
    text = GOOD.replace("TYPE : TSP", "TYPE : TSP\nCAPACITY : 99")
    assert parse_instance(text).dimension == 3


def test_unsupported_edge_weight_type():
    text = GOOD.replace("EUC_2D", "EXPLICIT")
    with pytest.raises(UnsupportedEdgeWeightType) as ei:
        parse_instance(text)
    assert ei.value.line == 5
    assert "EXPLICIT" in str(ei.value)


def test_edge_weight_section_rejected():
    text = "DIMENSION : 2\nEDGE_WEIGHT_SECTION\n0 1\n1 0\n"
    with pytest.raises(UnsupportedEdgeWeightType):
        parse_instance(text)


def test_missing_dimension():
    text = GOOD.replace("DIMENSION : 3\n", "")
    with pytest.raises(MissingSection) as ei:
        parse_instance(text)
    assert "DIMENSION" in str(ei.value)
    assert ei.value.line == 0


def test_missing_edge_weight_type():
    text = GOOD.replace("EDGE_WEIGHT_TYPE : EUC_2D\n", "")
    with pytest.raises(MissingSection) as ei:
        parse_instance(text)
    assert "EDGE_WEIGHT_TYPE" in str(ei.value)


def test_missing_coord_section():
    text = "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
    with pytest.raises(MissingSection) as ei:
        parse_instance(text)
    assert "NODE_COORD_SECTION" in str(ei.value)


def test_duplicate_node_id_reports_both_lines():
    text = GOOD.replace("3 0.0 4.0", "2 0.0 4.0")
    with pytest.raises(DuplicateNodeId) as ei:
        parse_instance(text)
    assert ei.value.line == 9
    assert "line 8" in str(ei.value)


def test_coordinate_count_mismatch():
    text = GOOD.replace("DIMENSION : 3", "DIMENSION : 4")
    with pytest.raises(DimensionMismatch):
        parse_instance(text)


def test_node_id_out_of_range():
    text = GOOD.replace("3 0.0 4.0", "7 0.0 4.0")
    with pytest.raises(DimensionMismatch) as ei:
        parse_instance(text)
    assert "7" in str(ei.value)


def test_malformed_coordinate_line():
    text = GOOD.replace("2 3.0 0.0", "2 3.0")
    with pytest.raises(DimensionMismatch) as ei:
        parse_instance(text)
    assert ei.value.line == 8


def test_non_numeric_coordinate():
    text = GOOD.replace("2 3.0 0.0", "2 east north")
    with pytest.raises(DimensionMismatch):
        parse_instance(text)


def test_non_integer_dimension():
    text = GOOD.replace("DIMENSION : 3", "DIMENSION : three")
    with pytest.raises(DimensionMismatch):
        parse_instance(text)


def test_structured_errors_are_valueerrors():
    # callers that just want "bad file" can catch one base type
    assert issubclass(TsplibParseError, ValueError)
    for exc in (UnsupportedEdgeWeightType, MissingSection, DuplicateNodeId,
                DimensionMismatch):
        assert issubclass(exc, TsplibParseError)


# distance conventions ------------------------------------------------------

def _d(a, b, edge_weight_type: str) -> float:
    return distance_matrix([a, b], edge_weight_type)[0, 1]


def test_euc2d_rounds_half_up():
    assert _d((0.0, 0.0), (1.4, 0.0), "EUC_2D") == 1
    assert _d((0.0, 0.0), (1.5, 0.0), "EUC_2D") == 2
    assert _d((0.0, 0.0), (3.0, 4.0), "EUC_2D") == 5


def test_ceil2d_takes_ceiling():
    assert _d((0.0, 0.0), (1.1, 0.0), "CEIL_2D") == 2
    assert _d((0.0, 0.0), (2.0, 0.0), "CEIL_2D") == 2


def test_att_pseudo_euclidean():
    # (0,0)-(10,0): sqrt(100/10) = 3.1623, rounds to 3, bumped to 4
    assert _d((0.0, 0.0), (10.0, 0.0), "ATT") == 4
    # exact multiple: sqrt(1000/10) = 10 exactly, no bump
    d = _d((0.0, 0.0), (math.sqrt(1000.0), 0.0), "ATT")
    assert d == 10


def test_distance_unknown_type_raises():
    with pytest.raises(UnsupportedEdgeWeightType):
        _d((0.0, 0.0), (1.0, 1.0), "GEO")


def test_distance_is_symmetric():
    for ewt in ("EUC_2D", "CEIL_2D", "ATT"):
        assert (_d((1.0, 2.0), (5.0, 7.0), ewt)
                == _d((5.0, 7.0), (1.0, 2.0), ewt))


def _pair_reference(a, b, edge_weight_type: str) -> int:
    """The TSPLIB rules for one pair, in scalar Python floats."""
    dx, dy = a[0] - b[0], a[1] - b[1]
    if edge_weight_type == "EUC_2D":
        return int(math.sqrt(dx * dx + dy * dy) + 0.5)
    if edge_weight_type == "CEIL_2D":
        return math.ceil(math.sqrt(dx * dx + dy * dy))
    r = math.sqrt((dx * dx + dy * dy) / 10.0)
    t = int(r + 0.5)
    return t + 1 if t < r else t


@st.composite
def _points(draw):
    """2-9 points with 0-2 decimals, some at exact half-way distances
    (on the x axis at multiples of 1/2) and some at exact ATT integers
    (multiples of (3, 1), whose d2 / 10 is a perfect square)."""
    scale = 10 ** draw(st.integers(0, 2))
    grid = st.tuples(st.integers(-10**5, 10**5), st.integers(-10**5, 10**5)).map(
        lambda k: (k[0] / scale, k[1] / scale))
    half = st.integers(-400, 400).map(lambda j: (j / 2, 0.0))
    att = st.integers(-400, 400).map(lambda j: (3.0 * j, float(j)))
    return draw(st.lists(st.one_of(grid, half, att), min_size=2, max_size=9))


@given(_points(), st.sampled_from(["EUC_2D", "CEIL_2D", "ATT"]))
@settings(max_examples=200, deadline=None)
def test_distance_matrix_matches_pair_reference(pts, ewt):
    got = distance_matrix(pts, ewt)
    assert got.dtype == np.float64 and got.shape == (len(pts), len(pts))
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert got[i, j] == _pair_reference(a, b, ewt), (i, j)


@pytest.mark.parametrize("ewt", ["EUC_2D", "CEIL_2D", "ATT"])
def test_distance_matrix_peaks_at_two_square_arrays(ewt):
    # every rule runs in place in the two (n, n) difference arrays; ATT's
    # comparison adds an (n, n) bool, an eighth of one more
    n = 400
    xy = np.random.default_rng(0).uniform(0.0, 1000.0, size=(n, 2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        distance_matrix(xy, ewt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * 8 * n * n


@pytest.mark.parametrize("xy, message", [
    ([(0.0, 0.0), (1.0, math.nan), (2.0, 2.0)],
     "city 1 has coordinates (1.0, nan); coordinates must be finite"),
    ([(0.0, 0.0), (2.0, 2.0), (-math.inf, 1.0)],
     "city 2 has coordinates (-inf, 1.0); coordinates must be finite"),
    ([(0.0, 0.0), (1e200, 1.0), (2.0, 2.0)],
     "cities 0 and 1 lie 1e+200 apart on one axis; their squared distance overflows"),
    # each span squares to 1e308, finite; their sum overflows
    ([(0.0, 0.0), (1e154, 1e154), (2.0, 2.0)],
     "cities 0 and 1 lie 1e+154 apart on one axis; their squared distance overflows"),
], ids=["nan", "inf", "1e200", "sum"])
@pytest.mark.parametrize("ewt", ["EUC_2D", "CEIL_2D", "ATT"])
def test_distance_matrix_rejects_coordinates_out_of_range(xy, message, ewt):
    # checked before any (n, n) pass, so numpy warns of no overflow first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoordinateOutOfRange, match=f"^{re.escape(message)}$"):
            distance_matrix(xy, ewt)


def test_distance_matrix_accepts_spans_whose_squares_sum_in_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = distance_matrix([(0.0, 0.0), (1e153, 1e153), (0.0, 1e153)], "EUC_2D")
    assert np.isfinite(d).all() and d[0, 1] > 1e153


# round-trips ----------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["mini5.tsp", "u159.tsp", "pcb442.tsp"])
def test_golden_file_round_trip(fixture):
    raw = parse_instance(read_fixture(fixture))
    assert parse_instance(serialize_instance(raw)) == raw


def test_real_header_fields_survive():
    u159 = parse_instance(read_fixture("u159.tsp"))
    assert u159.name == "u159"
    assert u159.dimension == 159
    assert u159.edge_weight_type == "EUC_2D"
    pcb = parse_instance(read_fixture("pcb442.tsp"))
    assert pcb.name == "pcb442"
    assert pcb.dimension == 442
    assert BEST_KNOWN["u159"] == 42080
    assert BEST_KNOWN["pcb442"] == 50778


def test_serialize_uses_repr_floats():
    raw = RawTspFile(name="t", dimension=3, edge_weight_type="EUC_2D",
                     node_coords=((1, 0.1, 0.2), (2, 1.0 / 3.0, 0.0),
                                  (3, 2.0, 3.0)))
    again = parse_instance(serialize_instance(raw))
    assert again.node_coords[1][1] == 1.0 / 3.0  # exact, not truncated


# tour files -----------------------------------------------------------------

def test_parse_tour_zero_based():
    assert parse_tour(read_fixture("mini5.opt.tour")) == [0, 1, 2, 3, 4]


def test_parse_tour_terminators():
    assert parse_tour("TOUR_SECTION\n3\n1\n2\n-1\n") == [2, 0, 1]
    assert parse_tour("TOUR_SECTION\n3\n1\n2\nEOF\n") == [2, 0, 1]
    assert parse_tour("TOUR_SECTION\n3\n1\n2\n") == [2, 0, 1]


def test_parse_tour_errors():
    with pytest.raises(MissingSection):
        parse_tour("NAME : x\n")
    with pytest.raises(TsplibParseError) as ei:
        parse_tour("TOUR_SECTION\n1\nbanana\n")
    assert ei.value.line == 3
