"""End-to-end command-line behavior: outputs, formats, exit codes."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from depthkit.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def write_csv(tmp_path, points, name="cloud.csv"):
    path = tmp_path / name
    rows = "\n".join(",".join(repr(float(v)) for v in p) for p in points)
    path.write_text(rows + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def centered(seed, n):
    pts = np.random.default_rng(seed).standard_normal((n, 2))
    return pts - pts.mean(axis=0)


# ---------------------------------------------------------------------------
# depth
# ---------------------------------------------------------------------------


def test_depth_point_on_bundled_data(capsys):
    rc, out, err = run(capsys, "depth", "mahalanobis", "--data", "eu27",
                       "--point", "80.6,10.9")
    assert rc == 0 and err == ""
    assert out.strip() == "0.820536759"


def test_depth_all_uses_labels(capsys):
    rc, out, err = run(capsys, "depth", "mahalanobis", "--data", "eu27", "--all")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 27
    assert "Hungary,0.820536759" in lines
    assert all("," in line for line in lines)


def test_depth_all_indexes_unlabelled_rows(tmp_path, capsys):
    path = write_csv(tmp_path, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rc, out, err = run(capsys, "depth", "halfspace", "--data", path)
    assert rc == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines] == ["0", "1", "2", "3"]
    assert all(line.endswith("0.25") for line in lines)


def test_depth_unknown_name(capsys):
    rc, out, err = run(capsys, "depth", "nonesuch", "--data", "eu27")
    assert rc == 2
    assert err.startswith("error: UNKNOWN_DEPTH:")
    assert out == ""


def test_depth_point_arity_error(capsys):
    rc, out, err = run(capsys, "depth", "mahalanobis", "--data", "eu27",
                       "--point", "1,2,3")
    assert rc == 2
    assert err.startswith("error: INVALID_ARGUMENT:")


def test_depth_missing_file(capsys, tmp_path):
    rc, out, err = run(capsys, "depth", "mahalanobis", "--data",
                       str(tmp_path / "gone.csv"))
    assert rc == 2
    assert err.startswith("error: IO_ERROR:")


def test_depth_skip_bad_warns(tmp_path, capsys):
    path = tmp_path / "dirty.csv"
    path.write_text("x,y\n1,2\n3\n4,5\n6,7\n", encoding="utf-8")
    rc, out, err = run(capsys, "depth", "halfspace", "--data", str(path),
                       "--skip-bad")
    assert rc == 0
    assert "warning: skipped row 3" in err
    assert len(out.strip().splitlines()) == 3


def test_depth_no_header_flag(tmp_path, capsys):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n5,6\n", encoding="utf-8")
    rc, out, err = run(capsys, "depth", "halfspace", "--data", str(path),
                       "--no-header")
    assert rc == 0
    assert len(out.strip().splitlines()) == 3


def test_depth_seed_env_matches_flag(tmp_path, capsys, monkeypatch):
    path = write_csv(tmp_path, np.random.default_rng(3).standard_normal((12, 2)))
    rc, flagged, _ = run(capsys, "depth", "projection", "--data", path,
                         "--point", "0.1,0.2", "--seed", "7")
    assert rc == 0
    monkeypatch.setenv("DEPTHKIT_SEED", "7")
    rc, env_out, _ = run(capsys, "depth", "projection", "--data", path,
                         "--point", "0.1,0.2")
    assert rc == 0
    assert env_out == flagged


def test_bogus_seed_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("DEPTHKIT_SEED", "banana")
    rc, out, err = run(capsys, "depth", "mahalanobis", "--data", "eu27",
                       "--point", "80.6,10.9")
    assert rc == 2
    assert err.startswith("error: INVALID_ARGUMENT:")


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def test_region_svg_and_json_outputs(tmp_path, capsys):
    svg = str(tmp_path / "zones.svg")
    js = str(tmp_path / "zones.json")
    rc, out, err = run(capsys, "region", "zonoid", "--data", "eu27",
                       "--alpha-list", "0.2,0.5", "--svg", svg, "--json", js)
    assert rc == 0 and err == ""
    assert f"svg: {svg}" in out and f"json: {js}" in out
    with open(svg, encoding="utf-8") as fh:
        body = fh.read()
    assert body.lstrip().startswith(("<?xml", "<svg"))
    assert "</svg>" in body
    with open(js, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"labels", "layers", "points", "title"}
    assert len(doc["points"]) == 27
    assert [layer["alpha"] for layer in doc["layers"]] == [0.2, 0.5]
    for layer in doc["layers"]:
        assert layer["polygons"], "expected a nonempty polygon list"
        ring = layer["polygons"][0]
        assert len(ring[0]) == 2


def test_region_output_is_byte_deterministic(tmp_path, capsys):
    paths = [str(tmp_path / f"r{i}.svg") for i in (1, 2)]
    for p in paths:
        rc, *_ = run(capsys, "region", "halfspace", "--data", "eu27",
                     "--alpha-list", "0.1,0.2", "--svg", p)
        assert rc == 0
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()


def test_region_rejects_bad_alpha(tmp_path, capsys):
    rc, out, err = run(capsys, "region", "zonoid", "--data", "eu27",
                       "--alpha-list", "0.0,0.5", "--svg",
                       str(tmp_path / "x.svg"))
    assert rc == 2
    assert err.startswith("error: INVALID_ALPHA:")


def test_region_requires_planar_data(tmp_path, capsys):
    path = write_csv(tmp_path, [[0.0], [1.0], [2.0]])
    rc, out, err = run(capsys, "region", "zonoid", "--data", path,
                       "--alpha-list", "0.5", "--svg", str(tmp_path / "x.svg"))
    assert rc == 2
    assert err.startswith("error: DIMENSION_MISMATCH:")


# ---------------------------------------------------------------------------
# order and metric
# ---------------------------------------------------------------------------


def test_order_dilation_and_translation(tmp_path, capsys):
    pts = centered(11, 9)
    small = write_csv(tmp_path, pts, "small.csv")
    big = write_csv(tmp_path, 2.0 * pts, "big.csv")
    moved = write_csv(tmp_path, pts + np.array([4.0, 1.0]), "moved.csv")
    alphas = "0.2,0.6,1.0"
    rc, out, _ = run(capsys, "order", "zonoid", "--data1", small,
                     "--data2", big, "--alpha-list", alphas)
    assert rc == 0 and out.strip() == "leq"
    rc, out, _ = run(capsys, "order", "zonoid", "--data1", big,
                     "--data2", small, "--alpha-list", alphas)
    assert rc == 0 and out.strip() == "geq"
    rc, out, _ = run(capsys, "order", "zonoid", "--data1", small,
                     "--data2", small, "--alpha-list", alphas)
    assert rc == 0 and out.strip() == "equal"
    rc, out, _ = run(capsys, "order", "zonoid", "--data1", small,
                     "--data2", moved, "--alpha-list", alphas)
    assert rc == 0 and out.strip() == "incomparable"


def test_metric_translation_distance(tmp_path, capsys):
    pts = centered(12, 8)
    a = write_csv(tmp_path, pts, "a.csv")
    b = write_csv(tmp_path, pts + np.array([5.0, 0.0]), "b.csv")
    rc, out, _ = run(capsys, "metric", "zonoid", "--data1", a, "--data2", b,
                     "--alpha-list", "0.5,1.0")
    assert rc == 0
    assert float(out.strip()) == pytest.approx(5.0, abs=1e-9)
    rc, out, _ = run(capsys, "metric", "zonoid", "--data1", a, "--data2", a,
                     "--alpha-list", "0.5,1.0")
    assert rc == 0 and out.strip() == "0"


def test_order_refuses_unliftable_depth(tmp_path, capsys):
    pts = centered(13, 8)
    a = write_csv(tmp_path, pts, "a.csv")
    rc, out, err = run(capsys, "order", "halfspace", "--data1", a, "--data2", a)
    assert rc == 2
    assert err.startswith("error: UNSUPPORTED:")


# ---------------------------------------------------------------------------
# fdepth
# ---------------------------------------------------------------------------


@pytest.fixture()
def constant_curves(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("t,a,b,c\n0,0,1,2\n0.5,0,1,2\n1,0,1,2\n", encoding="utf-8")
    return str(path)


def test_fdepth_graph_rows(constant_curves, capsys):
    rc, out, err = run(capsys, "fdepth", "graph", "--curves", constant_curves)
    assert rc == 0
    assert out.strip().splitlines() == [
        "0,0.333333333",
        "1,0.666666667",
        "2,0.333333333",
    ]


def test_fdepth_single_index(constant_curves, capsys):
    rc, out, _ = run(capsys, "fdepth", "graph", "--curves", constant_curves,
                     "--index", "1")
    assert rc == 0 and out.strip() == "0.666666667"
    rc, out, err = run(capsys, "fdepth", "graph", "--curves", constant_curves,
                       "--index", "9")
    assert rc == 2
    assert err.startswith("error: INVALID_ARGUMENT:")


def test_fdepth_grid_collapses_on_constant_curves(constant_curves, capsys):
    rc, out, _ = run(capsys, "fdepth", "grid", "--curves", constant_curves,
                     "--index", "1", "--directions", "200")
    assert rc == 0 and out.strip() == "0.666666667"


def test_fdepth_t_indices(constant_curves, capsys):
    rc, out, _ = run(capsys, "fdepth", "graph", "--curves", constant_curves,
                     "--t-indices", "0,2")
    assert rc == 0
    assert len(out.strip().splitlines()) == 3
    rc, out, err = run(capsys, "fdepth", "graph", "--curves", constant_curves,
                       "--t-indices", ",")
    assert rc == 2
    assert err.startswith("error: EMPTY_T:")


def test_fdepth_inadmissible_base(constant_curves, capsys):
    rc, out, err = run(capsys, "fdepth", "graph", "--curves", constant_curves,
                       "--base", "random-tukey")
    assert rc == 2
    assert err.startswith("error: UNKNOWN_DEPTH:")


def test_flags_that_nothing_reads_are_refused(tmp_path, constant_curves):
    a = write_csv(tmp_path, centered(14, 8), "a.csv")
    for argv in (["order", "zonoid", "--data1", a, "--data2", a, "--seed", "1"],
                 ["metric", "zonoid", "--data1", a, "--data2", a, "--directions", "9"],
                 ["fdepth", "graph", "--curves", constant_curves, "--skip-bad"],
                 ["fdepth", "graph", "--curves", constant_curves, "--label-column", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _readme_commands():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("depthkit ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


# ---------------------------------------------------------------------------
# check-postulates
# ---------------------------------------------------------------------------


def test_check_postulates_passes_on_bundled_data(capsys):
    rc, out, err = run(capsys, "check-postulates", "mahalanobis",
                       "--data", "eu27", "--trials", "20")
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert "overall" in lines[-1]
    assert all("pass" in line for line in lines)


def test_check_postulates_flags_l2_affine_failure(tmp_path, capsys):
    pts = np.random.default_rng(2).standard_normal((12, 2)) * np.array([3.0, 0.5])
    path = write_csv(tmp_path, pts, "aniso.csv")
    rc, out, err = run(capsys, "check-postulates", "l2", "--data", path,
                       "--variant", "affine", "--trials", "50", "--seed", "5")
    assert rc == 3
    assert err.startswith("error: POSTULATE_VIOLATION:")
    assert "D2" in err
    assert "FAIL" in out
