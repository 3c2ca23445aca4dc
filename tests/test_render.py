"""Diagram rendering: text alignment, overlays, SVG structure."""

import xml.etree.ElementTree as ET

import pytest

from pcalab.lattice import (PARTICLE, Configuration, Model, Trajectory,
                            evolve, trace_merges)
from pcalab.render import HIGHLIGHT_COLOR, render
from pcalab.stream import RIGHT, UP, UpdateStream

from scalar_walk import FixedRows


def test_alternating_run_renders_shifted_rows():
    traj = evolve(Model.A, Configuration(0, (0, 1) * 5), UpdateStream(1), 3)
    lines = "".join(render(traj)).splitlines()
    assert len(lines) == 4  # initial row plus one per step
    assert lines[0] == "0101010101"
    for k in range(1, 4):
        assert lines[k][:k] == " " * k  # the window sheds one site per step
        # each row is the previous one slid one column to the right
        assert all(lines[k][j] == lines[k - 1][j - 1] for j in range(k, 10))


def test_particle_rows_never_gain_particles():
    traj = evolve(Model.C, Configuration(0, (PARTICLE,) * 30), UpdateStream(4),
                  12)
    lines = "".join(render(traj)).splitlines()
    counts = [line.count("#") for line in lines]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_arrow_overlay_interleaves_rows():
    traj = evolve(Model.B, Configuration(0, (PARTICLE,) * 8), UpdateStream(2),
                  2)
    plain = "".join(render(traj)).splitlines()
    overlaid = "".join(render(traj, arrows=True)).splitlines()
    assert len(overlaid) == len(plain) + 2
    assert set(overlaid[1]) <= {"↑", "↗", " "}


def test_genealogy_overlay_marks_all_ancestors():
    init = Configuration(0, (1, 1, 0))
    traj = evolve(Model.C, init, FixedRows([(RIGHT, UP, UP)]), 1)
    marked = trace_merges(traj).lineage(2)
    # the two leaves at step 0 and their merged child at step 1
    assert marked == {(0, 0), (0, 1), (1, 0)}
    text = "".join(render(traj, marked=marked))
    assert text.count("*") == 3

    svg = "".join(render(traj, fmt="svg", marked=marked))
    assert svg.count(HIGHLIGHT_COLOR) == 3


def test_empty_trajectory_is_rejected():
    # raised at the call, before any chunk is drawn
    hollow = Trajectory(Model.C, "line", [])
    with pytest.raises(ValueError):
        render(hollow)
    with pytest.raises(ValueError):
        render(hollow, fmt="svg")
    with pytest.raises(ValueError):
        render(evolve(Model.A, Configuration(0, (0, 1) * 2), UpdateStream(0),
                      1), fmt="gif")


def test_svg_is_wellformed_and_counts_cells():
    traj = evolve(Model.D, Configuration(0, (1, 2, 0, 1, 2, 0)),
                  UpdateStream(3), 2)
    svg = "".join(render(traj, fmt="svg"))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    cells = sum(len(c) for c in traj.configs)
    assert len(rects) == cells + 1  # one background rect

    arrows = "".join(render(traj, fmt="svg", arrows=True))
    lines = [el for el in ET.fromstring(arrows).iter()
             if el.tag.endswith("line")]
    assert len(lines) == sum(len(r) for r in traj.rows)


def test_rendering_is_deterministic():
    traj = evolve(Model.C, Configuration(0, (PARTICLE,) * 16), UpdateStream(9),
                  5)
    assert "".join(render(traj, fmt="svg")) == "".join(render(traj, fmt="svg"))
    assert "".join(render(traj)) == "".join(render(traj))
