"""Diagram rendering: text alignment, overlays, SVG structure."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcalab.lattice import (PARTICLE, Configuration, Model, Trajectory,
                            evolve)
from pcalab.render import HIGHLIGHT_COLOR, render
from pcalab.stream import RIGHT, UP, UpdateStream

import render_reference
from scalar_walk import FixedRows, trace_merges


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


#: Hand-built trajectories holding a symbol no glyph draws, by case.
BAD_CELLS = {
    "negative": (Model.C, (1, -1, 0)),
    "past-the-alphabet": (Model.C, (1, 2, 0)),
    "past-a-byte": (Model.A, (0, 256, 1)),
    "past-model-d": (Model.D, (2, 3, 1)),
}


@pytest.mark.parametrize("case", BAD_CELLS)
@pytest.mark.parametrize("fmt", ["text", "svg"])
def test_symbols_outside_the_alphabet_are_refused_at_the_call(case, fmt):
    model, cells = BAD_CELLS[case]
    good = Configuration(0, (0, 1, 0))
    traj = Trajectory(model, "cycle", [good, Configuration(0, cells)],
                      [(UP, RIGHT, UP)])
    with pytest.raises(ValueError, match="outside the alphabet"):
        render(traj, fmt)


#: Arrow rows that are not one UP or RIGHT per cell of the step's window.
BAD_ROWS = {
    "arrow-2": (UP, 2, RIGHT),
    "arrow-negative": (UP, -1, RIGHT),
    "short": (UP, RIGHT),
    "long": (UP, RIGHT, UP, RIGHT),
}


@pytest.mark.parametrize("case", BAD_ROWS)
@pytest.mark.parametrize("fmt", ["text", "svg"])
def test_arrow_rows_that_cannot_be_drawn_are_refused_at_the_call(case, fmt):
    cfg = Configuration(0, (0, 1, 0))
    traj = Trajectory(Model.C, "cycle", [cfg, cfg], [BAD_ROWS[case]])
    with pytest.raises(ValueError, match="one UP or RIGHT arrow"):
        render(traj, fmt, arrows=True)
    # without the overlay the rows are not drawn
    assert "".join(render(traj, fmt)) == "".join(
        (render_reference.text if fmt == "text" else render_reference.svg)(
            traj, False, frozenset()))


@st.composite
def marked_runs(draw):
    """A run of any model and boundary, with a ``marked`` set mixing cells
    of its windows (for ``c`` and ``d`` a particle's lineage) and pairs
    that name no cell."""
    model = draw(st.sampled_from(list(Model)))
    boundary = draw(st.sampled_from(["line", "cycle"]))
    width = draw(st.integers(2 if boundary == "cycle" else 1, 70))
    cap = 40 if boundary == "cycle" else min(40, width - 1)
    steps = draw(st.integers(0, cap))
    cells = draw(st.lists(st.sampled_from(model.alphabet), min_size=width,
                          max_size=width))
    init = Configuration(draw(st.integers(-5, 5)), tuple(cells))
    traj = evolve(model, init, UpdateStream(draw(st.integers(0, 2 ** 32))),
                  steps, boundary=boundary)
    marked = set()
    if model in (Model.C, Model.D) and draw(st.booleans()):
        forest = trace_merges(traj)
        ids = [pid for pid in forest.id_rows[-1] if pid >= 0]
        if ids:
            marked |= forest.lineage(draw(st.sampled_from(ids)))
    for _ in range(draw(st.integers(0, 12))):
        step = draw(st.integers(0, steps))
        marked.add((step, draw(st.integers(0, len(traj.configs[step]) - 1))))
    width_at = {step: len(cfg) for step, cfg in enumerate(traj.configs)}
    off_window = st.one_of(
        st.tuples(st.integers(0, steps), st.integers(-5, -1)),
        st.integers(0, steps).flatmap(lambda step: st.tuples(
            st.just(step), st.integers(width_at[step], width_at[step] + 5))),
        st.tuples(st.integers(steps + 1, steps + 5), st.integers(0, 70)))
    marked |= set(draw(st.lists(off_window, max_size=8)))
    return traj, draw(st.booleans()), frozenset(marked)


@settings(max_examples=300, deadline=None)
@given(marked_runs())
def test_rows_equal_the_per_cell_writers(run):
    traj, arrows, marked = run
    assert "".join(render(traj, "text", arrows, marked)) == "".join(
        render_reference.text(traj, arrows, marked))
    assert "".join(render(traj, "svg", arrows, marked)) == "".join(
        render_reference.svg(traj, arrows, marked))


def test_a_window_left_of_the_first_is_drawn_as_before():
    # hand-built: the later windows start left of the first and end past it
    traj = Trajectory(Model.D, "line",
                      [Configuration(3, (1, 2)), Configuration(0, (2, 0, 1)),
                       Configuration(1, (0, 1, 2, 1, 2))],
                      [(RIGHT, UP), (UP, RIGHT, RIGHT)])
    marked = frozenset({(0, 1), (1, 0), (2, 4), (2, 5)})
    for arrows in (False, True):
        assert "".join(render(traj, "svg", arrows, marked)) == "".join(
            render_reference.svg(traj, arrows, marked))
        assert "".join(render(traj, "text", arrows, marked)) == "".join(
            render_reference.text(traj, arrows, marked))
