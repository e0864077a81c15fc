"""SL(3) cell census, face poset, limits toward boundary cells, and the figure."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tnnflow.cells import (
    _pattern_dim,
    _pattern_witness,
    bruhat_interval_counts,
    census_payload,
    enumerate_cells,
    face_poset,
    figure_svg,
    label_of,
    limit_report,
    validate_poset,
    witness_toward,
)
from tnnflow.totpos import Membership, sl3_membership


EXPECTED_VERTEX_LABELS = {"12,13", "23,13", "13,12", "13,23", "12,23", "23,12"}


def test_census_counts(census3):
    assert len(census3.cells) == 19
    assert census3.f_vector == (6, 8, 4, 1)


def test_census_matches_bruhat_oracle(census3):
    # independently enumerated Bruhat intervals in S3, graded by length drop
    assert bruhat_interval_counts(3) == (6, 8, 4, 1)
    assert census3.f_vector == bruhat_interval_counts(3)


def test_euler_characteristics(census3):
    assert census3.euler(max_dim=2) == 6 - 8 + 4 == 2
    assert census3.euler() == 1  # the closed ball


def test_vertex_labels(census3):
    assert set(census3.vertex_labels()) == EXPECTED_VERTEX_LABELS


def test_witnesses_lie_in_their_cells(census3):
    for cell in census3.cells:
        w = cell.witness
        assert sl3_membership(w) is not Membership.OUTSIDE
        for k in range(3):
            assert (w.v[k] == 0) == ((k + 1) in cell.vzeros)
            assert (w.w[k] == 0) == ((k + 1) in cell.wzeros)


def test_top_cell_is_open_positive_part(census3):
    # three positive factorization parameters: the interior is a 3-cell
    top = census3.by_pattern((), ())
    assert top is not None and top.dim == 3
    assert sl3_membership(top.witness) is Membership.POSITIVE_PART


def test_label_of_roundtrip(census3):
    for cell in census3.cells:
        assert label_of(cell.witness, census=census3).key == cell.key


def test_label_of_perturbed_interior(census3, rng):
    top = census3.by_pattern((), ())
    got = label_of(top.witness, census=census3)
    assert got.dim == 3


def test_face_poset_structure(census3, poset3):
    checks = validate_poset(poset3)
    assert all(checks.values()), checks
    # the closure of the top cell is everything else
    top = next(i for i, c in enumerate(census3.cells) if c.dim == 3)
    assert len(poset3.faces_of(top)) == 18


def test_poset_covers_raise_dimension_by_one(census3, poset3):
    # covers are stored (face, coface)
    for a, b in poset3.covers:
        assert census3.cells[b].dim == census3.cells[a].dim + 1


def test_limits_reach_boundary_cells(census3, poset3):
    report = limit_report(census3, poset3)
    assert report["passed"], report
    assert report["covering_pairs"] == len(poset3.covers)
    assert report["worst_final_distance"] < 0.02


def test_witness_toward_interpolates(census3):
    top = census3.by_pattern((), ())
    vertex = next(c for c in census3.cells if c.dim == 0)
    w = witness_toward(top, vertex.witness, Fraction(1, 100))
    assert w is not None
    assert sl3_membership(w) is Membership.POSITIVE_PART


def test_census_payload_schema(census3, poset3):
    doc = census_payload(census3, poset3)
    assert doc["cell_count"] == 19
    assert doc["f_vector"] == [6, 8, 4, 1]
    assert doc["euler_boundary"] == 2
    assert len(doc["cells"]) == 19
    for entry in doc["cells"]:
        assert set(entry) >= {"key", "zeros", "dim", "witness_v", "witness_w"}
        assert set(entry["zeros"]) == {"v", "w"}
        assert ("vertex_label" in entry) == (entry["dim"] == 0)
    assert all(len(pair) == 2 for pair in doc["relations"])
    assert doc["meta"] == {"tol": 1e-9}
    # the attractor sits in the open top cell; decimals match the closed form
    fp = doc["fixed_point"]
    assert fp["cell"] == "v|w"
    assert abs(fp["v"][0] - (1 - 1 / math.sqrt(2.0))) < 1e-12
    assert abs(fp["v"][1] - (math.sqrt(2.0) - 1)) < 1e-12
    # the fixed flag is self-dual in this chart, up to eigensolver round-off
    assert max(abs(a - b) for a, b in zip(fp["v"], fp["w"])) < 1e-14


def test_figure_svg_structure(census3, poset3):
    svg = figure_svg(census3, poset3)
    assert svg.startswith("<svg")
    assert svg.count("data-vertex=") == 6
    assert svg.count("data-edge=") == 10  # 8 one-cells, two drawn split in half
    assert svg.count("data-face=") == 4
    for label in EXPECTED_VERTEX_LABELS:
        assert f"{{{label.replace(',', '},{')}}}" in svg or label in svg
    assert "v1 = 0" in svg and "w3 = 0" in svg


def test_census_deterministic():
    census_a, census_b = enumerate_cells(), enumerate_cells()
    a = census_payload(census_a, face_poset(census_a))
    b = census_payload(census_b, face_poset(census_b))
    assert a == b


@pytest.mark.parametrize("seed", range(5))
def test_hinted_witnesses_have_their_cell_dimension(census3, seed):
    """Witnesses steered by random positive hints realize each cell's pattern
    and give the Jacobian rank count the same dimension as the census's own
    witness: the dimension belongs to the cell, not to the point."""
    rng = np.random.default_rng(seed)

    def hint():
        return {i: Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 30))) for i in (1, 2, 3)}

    for cell in census3.cells:
        for _ in range(2):
            witness = _pattern_witness(cell.vzeros, cell.wzeros, v_hint=hint(), w_hint=hint())
            assert witness is not None, cell.key
            assert label_of(witness, census=census3) is cell
            assert _pattern_dim(witness) == cell.dim, cell.key
