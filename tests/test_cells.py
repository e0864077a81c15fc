"""SL(3) cell census, face poset, limits toward boundary cells, and the figure."""

import itertools
import math
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import jacobian_pattern_dim
from tnnflow import cells, cli, suite
from tnnflow.cells import (
    _limit_path,
    _pattern_dim,
    _sign_rule,
    bruhat_interval_counts,
    census_payload,
    enumerate_cells,
    face_poset,
    figure_svg,
    label_of,
    limit_report,
    validate_poset,
)
from tnnflow.chevalley import RATIONAL
from tnnflow.totpos import Membership, Sl3Coords, sl3_membership


EXPECTED_VERTEX_LABELS = {"12,13", "23,13", "13,12", "13,23", "12,23", "23,12"}


def test_census_counts(census3):
    assert len(census3.cells) == 19
    assert census3.f_vector == (6, 8, 4, 1)


def grid_points(m: int) -> list:
    """Every point of the variety whose coordinates are multiples of 1/m, exact."""
    simplex = [(i, j, m - i - j) for i in range(m + 1) for j in range(m + 1 - i)]
    return [
        Sl3Coords(tuple(Fraction(x, m) for x in v), tuple(Fraction(x, m) for x in w), RATIONAL)
        for v in simplex
        for w in simplex
        if v[0] * w[0] - v[1] * w[1] + v[2] * w[2] == 0
    ]


def zero_pattern(point: Sl3Coords) -> tuple:
    return tuple(frozenset(i + 1 for i, x in enumerate(vec) if x == 0) for vec in (point.v, point.w))


def normalized(v, w) -> Sl3Coords:
    """The chart point of int vectors v and w, each up to scale, exact."""
    return Sl3Coords(tuple(Fraction(x, sum(v)) for x in v), tuple(Fraction(x, sum(w)) for x in w), RATIONAL)


def test_sign_rule_is_the_grid_verdict():
    """Over all 49 patterns (and the 15 with an empty support), a pattern is realizable
    by the sign rule exactly where a point of the 1/6 grid on both simplices lies on
    the variety with that pattern; the census keeps the 19 of them, each witness one
    of those grid points, uniform on its supports but for the top cell's w."""
    grid = grid_points(6)
    on_grid = {zero_pattern(point) for point in grid}
    subsets = [frozenset(s) for k in range(4) for s in itertools.combinations((1, 2, 3), k)]
    verdicts = {(vz, wz): _sign_rule(vz, wz) for vz in subsets for wz in subsets}
    assert verdicts == {key: key in on_grid for key in verdicts}
    realizable = [key for key, ok in verdicts.items() if ok]
    assert len(realizable) == 19
    census = enumerate_cells()
    assert {(c.vzeros, c.wzeros) for c in census.cells} == set(realizable)
    assert all(c.witness in grid and zero_pattern(c.witness) == (c.vzeros, c.wzeros) for c in census.cells)
    top = census.by_pattern((), ())
    assert top.witness.w == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    uniform = [c.witness.v for c in census.cells] + [c.witness.w for c in census.cells if c is not top]
    assert all(len(set(vec) - {0}) == 1 for vec in uniform)


def test_census_raises_where_a_witness_leaves_its_pattern(monkeypatch):
    """A pattern the sign rule admits but whose witness is off the variety, or on it
    with another pattern, is an error, not a missing cell."""
    uniform = (Fraction(1, 3),) * 3
    real = cells._uniform_witness
    off_variety = lambda vz, wz: Sl3Coords(uniform, uniform, RATIONAL) if not vz and not wz else real(vz, wz)
    other_pattern = lambda vz, wz: real(vz, frozenset()) if vz == {1} and wz == {1} else real(vz, wz)
    for fake in (off_variety, other_pattern):
        monkeypatch.setattr(cells, "_uniform_witness", fake)
        with pytest.raises(AssertionError, match="is not a point of its pattern"):
            enumerate_cells()


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


@pytest.mark.parametrize("limits_pass", [True, False])
def test_make_census_script_exits_on_the_cells_verdict(monkeypatch, capsys, limits_pass):
    """The script exits 1 on a failed limit, as ``tnnflow cells`` does, and 0 otherwise."""
    real = cells.limit_report
    monkeypatch.setattr(cells, "limit_report", lambda census, poset: real(census, poset) | {"passed": limits_pass})
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_census.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_.value.code == (0 if limits_pass else 1)
    assert f"census passed: {limits_pass}" in capsys.readouterr().err


def test_each_census_run_walks_the_bruhat_intervals_once(monkeypatch, capsys):
    """``verify``'s census section, ``tnnflow cells`` and the census script each take the
    Bruhat interval counts once, and their verdicts pass: the counts are passed to
    ``census_verdict``, which walks no tableau of its own."""
    walks = []
    real = cells.bruhat_interval_counts

    def counted(n=3):
        walks.append(n)
        return real(n)

    monkeypatch.setattr(cells, "bruhat_interval_counts", counted)
    monkeypatch.setattr(suite, "bruhat_interval_counts", counted)
    rows = [row for row in suite.CASES if row.gate == "census"]
    assert suite.GATES["census"].section(rows, {}, None, None)["passed"] is True
    assert walks == [3]
    assert cli.main(["cells", "--format", "json"]) == 0
    assert walks == [3, 3]
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_census.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_.value.code == 0 and walks == [3, 3, 3]
    capsys.readouterr()


def test_limit_path_interpolates(census3):
    top = census3.by_pattern((), ())
    vertex = next(c for c in census3.cells if c.dim == 0)
    v, w = _limit_path(vertex.witness, top.witness)[1]  # eps = 1/100
    assert sl3_membership(normalized(v, w)) is Membership.POSITIVE_PART


def test_limit_path_of_every_cover(census3, poset3):
    """On each of the 36 covers, exactly: every path point lies on the variety with the
    coface's pattern, and lies strictly nearer the face's witness as eps falls."""
    assert len(poset3.covers) == 36
    for a, b in poset3.covers:
        face, coface = census3.cells[a], census3.cells[b]
        path = _limit_path(face.witness, coface.witness)
        assert path is not None and len(path) == 3, (face.key, coface.key)
        distances = []
        for v, w in path:
            point = normalized(v, w)
            assert sl3_membership(point) is not Membership.OUTSIDE, (face.key, coface.key)
            assert zero_pattern(point) == (coface.vzeros, coface.wzeros), (face.key, coface.key)
            distances.append(max(abs(x - y) for x, y in zip(point.as_vector(), face.witness.as_vector())))
        assert distances[0] > distances[1] > distances[2] > 0, (face.key, coface.key)


def test_limit_report_fails_a_spurious_cover(census3, poset3):
    """A cover between cells that are not comparable lands in ``failures``: the path's
    supports are then not the coface's."""
    vertex = next(i for i, c in enumerate(census3.cells) if c.dim == 0)
    edge = next(i for i, c in enumerate(census3.cells) if c.dim == 1 and not poset3.leq[vertex, i])
    spurious = cells.FacePoset(census3, poset3.leq, poset3.covers + ((vertex, edge),))
    report = limit_report(census3, spurious)
    assert report["failures"] == [(census3.cells[vertex].key, census3.cells[edge].key)]
    assert report["covering_pairs"] == 37 and not report["passed"]


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


def test_closed_form_dimension_is_the_jacobian_rank(census3):
    """On the witness of each of the 19 cells, |V| + |W| - 2 - [V & W nonempty]
    is the free coordinates minus the exact Jacobian rank, and the census's
    dimension; the f-vector (6, 8, 4, 1) counts them."""
    dims = []
    for cell in census3.cells:
        assert _pattern_dim(cell.witness) == jacobian_pattern_dim(cell.witness) == cell.dim, cell.key
        dims.append(cell.dim)
    assert [dims.count(d) for d in range(4)] == [6, 8, 4, 1]


@pytest.mark.parametrize("shard", range(5))
def test_hinted_witnesses_have_their_cell_dimension(census3, shard):
    """Every point of the variety on the 1/12 grid, a fifth of them per shard, lies in
    the cell of its pattern, and the closed form and the Jacobian rank count give it
    the census's dimension: the dimension belongs to the cell, not to the point."""
    points = grid_points(12)[shard::5]
    assert len(points) >= 40
    for point in points:
        cell = label_of(point, census=census3)
        assert zero_pattern(point) == (cell.vzeros, cell.wzeros)
        assert _pattern_dim(point) == jacobian_pattern_dim(point) == cell.dim, cell.key
