"""Config parsing, OBJ/CSV round trips, diagnostics and the CLI."""
import copy
import json
import logging
import math
import re

import numpy as np
import pytest

from ksurf import (
    ConfigError,
    CurvatureFamily,
    CurvatureSpec,
    IterationConfig,
    SurgerySpec,
    build_report,
    export_mesh,
    fast_march,
    import_mesh,
    insert_branch_point,
    parse_config,
    trimesh_from_obj,
    validate_complex,
)
import ksurf.cli
from ksurf.cli import main

import lelieuvre_oracle as oracle
from conftest import build_patched, build_surgery_m3


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg.curvature.family is CurvatureFamily.CONSTANT
    assert cfg.curvature.epsilon == 0.0
    assert cfg.schedule is None
    assert (cfg.n, cfg.I, cfg.J) == (2, 20, 20)
    assert cfg.angles is None
    assert cfg.surgery == []
    assert cfg.out_mesh == "surface.obj"
    it = cfg.iteration_config()
    assert isinstance(it, IterationConfig)
    assert it.tol == 1e-4 and it.max_iters == 100


FULL_CONFIG = """
curvature:
  family: RING
  epsilon: 2.0
  schedule: [0.5, 1.0, 2.0]
  params:
    ring_radius: 0.4
    ring_gain: 10.0
sectors:
  n: 3
  angles: [1.0, 1.0, 1.0, 1.0, 1.0, 1.2831853071795862]
grid:
  I: 8
  J: 8
  u_max: 0.75
  v_max: 0.5
iteration:
  tol: 0.00001
  max_iters: 40
surgery:
  - {sector: 1, b: 3, m: 5, size: 3}
output:
  mesh: m.obj
  csv: m.csv
  report: m.txt
"""


def test_parse_config_full():
    cfg = parse_config(FULL_CONFIG)
    assert cfg.curvature.family is CurvatureFamily.RING
    assert cfg.curvature.ring_radius == 0.4
    assert cfg.curvature.ring_gain == 10.0
    assert cfg.schedule == [0.5, 1.0, 2.0]
    assert cfg.n == 3 and len(cfg.angles) == 6
    assert (cfg.I, cfg.J, cfg.u_max, cfg.v_max) == (8, 8, 0.75, 0.5)
    assert cfg.tol == 1e-5 and cfg.max_iters == 40
    assert cfg.surgery == [SurgerySpec(sector=1, b=3, m=5, spacing=None, size=3)]
    assert (cfg.out_mesh, cfg.out_csv, cfg.out_report) == ("m.obj", "m.csv", "m.txt")


@pytest.mark.parametrize("text,fragment", [
    ("bogus: 1", "unknown top-level"),
    ("curvature: {family: SPHERICAL}", "curvature.family"),
    ("curvature: {epsilon: -1.0}", "nonnegative"),
    ("curvature: {epsilon: 2.0, schedule: [2.0, 1.0]}", "nondecreasing"),
    ("curvature: {epsilon: 2.0, schedule: [1.0]}", "end at epsilon"),
    ("sectors: {n: 1}", "at least 2"),
    ("sectors: {n: 2, angles: [1.0, 1.0]}", "2*n"),
    ("grid: {I: 0}", "at least 1"),
    ("grid: {u_max: -0.5}", "positive"),
    ("iteration: {tol: 0.0}", "positive"),
    ("iteration: {max_iters: 0}", "at least 1"),
    ("surgery: [{b: 2, m: 4}]", "odd"),
    ("surgery: [{m: 3}]", "missing required"),
    ("grid: {I: true}", "expected int"),
    ("- a\n- b", "mapping"),
    ("curvature: {family: [1,2}", "cannot parse"),
    ("sectors: {n: 2, angles: [1, 1, 1, 1]}", "sectors.angles: .*sum to 2"),
    ("curvature: {epsilon: .nan}", "curvature: epsilon .* got nan"),
    ("curvature: {epsilon: 1.0, schedule: [-1.0, 1.0]}", "curvature.schedule: .*got -1.0"),
    ("grid: {u_max: .nan}", "grid: .*u_max=nan"),
    ("iteration: {tol: .nan}", "iteration: tol .* got nan"),
    ("curvature: {params: {ring_radius: .nan}}", "curvature: .*ring_radius=nan"),
    ("surgery: [{b: 2, m: 3, spacing: .nan}]", r"surgery\[0\]: .*got nan"),
    pytest.param(f"curvature: {{epsilon: {'9' * 400}}}",
                 "curvature.epsilon: integer too large", id="epsilon-400-digits"),
    pytest.param(f"curvature: {{epsilon: 1.0, schedule: [{'9' * 400}, 1.0]}}",
                 "curvature.schedule: integer too large", id="schedule-400-digits"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_export_import_roundtrip(tmp_path):
    cx = build_patched("LINEAR", 1.0, 2, 0.5, 6)
    obj1 = tmp_path / "a.obj"
    csv1 = tmp_path / "a.csv"
    export_mesh(cx, obj1, csv1)

    back = import_mesh(obj1, csv1)
    assert len(back.sectors) == len(cx.sectors)
    for s, t in zip(cx.sectors, back.sectors):
        assert s.parity is t.parity
        np.testing.assert_array_equal(s.positions, t.positions)
        np.testing.assert_array_equal(s.normals, t.normals)
        np.testing.assert_array_equal(s.rho, t.rho)
        np.testing.assert_array_equal(s.geo_dist, t.geo_dist)
    rep = validate_complex(back)
    assert rep.passed, [c.detail for c in rep.checks if not c.passed]

    obj2 = tmp_path / "b.obj"
    csv2 = tmp_path / "b.csv"
    export_mesh(back, obj2, csv2)
    assert obj1.read_bytes() == obj2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()


def test_export_meta_and_branch_points(tmp_path):
    base = build_patched("CONSTANT", 0.0, 2, 1.0, 8, tol=1e-8)
    cx = insert_branch_point(
        base, SurgerySpec(sector=0, b=4, m=3),
        CurvatureSpec(CurvatureFamily.CONSTANT),
        IterationConfig(tol=1e-8, max_iters=100, epsilon_schedule=[0.0]))
    obj = tmp_path / "s.obj"
    export_mesh(cx, obj, tmp_path / "s.csv")
    meta = json.loads(obj.read_text().splitlines()[0].removeprefix("#meta "))
    assert meta["version"] == 1
    assert len(meta["sectors"]) == 7
    assert meta["branch_points"] == [{
        "sector": 0, "i": 4, "j": 4, "incident_sectors": 4, "expected_quads": 6}]
    back = import_mesh(obj, tmp_path / "s.csv")
    assert back.branch_points == cx.branch_points
    assert validate_complex(back).passed


def test_trimesh_from_obj_matches_export(tmp_path):
    cx = build_patched("LINEAR", 1.0, 2, 0.5, 6)
    obj = tmp_path / "m.obj"
    export_mesh(cx, obj, tmp_path / "m.csv")
    m = trimesh_from_obj(obj)
    from ksurf import global_vertex_ids, triangulate_complex
    direct = triangulate_complex(cx)
    assert m.n_vertices == direct.n_vertices
    assert m.tris.shape == direct.tris.shape
    np.testing.assert_array_equal(m.vertices, direct.vertices)


def _export_lines(tmp_path):
    """Export a small complex; returns its paths and the OBJ and CSV lines."""
    obj, csv_path = tmp_path / "r.obj", tmp_path / "r.csv"
    export_mesh(build_patched("LINEAR", 1.0, 2, 0.5, 6), obj, csv_path)
    return obj, csv_path, obj.read_text().splitlines(), csv_path.read_text().splitlines()


def _complex_bits(cx):
    grids = [(s.positions.tobytes(), s.normals.tobytes(), s.rho.tobytes(),
              s.geo_dist.tobytes(), s.valid.tobytes()) for s in cx.sectors]
    return grids, cx.gluings, cx.origin, cx.history


def test_import_reads_crlf_and_a_trailing_blank_line(tmp_path):
    obj, csv_path, _, csv_lines = _export_lines(tmp_path)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(("\r\n".join(csv_lines) + "\r\n\r\n").encode())
    assert _complex_bits(import_mesh(obj, crlf)) == _complex_bits(import_mesh(obj, csv_path))


def test_history_keeps_the_upwind_passes_and_reads_a_file_without_them(tmp_path):
    obj, csv_path, obj_lines, _ = _export_lines(tmp_path)
    cx = build_patched("LINEAR", 1.0, 2, 0.5, 6)
    assert import_mesh(obj, csv_path).history == cx.history
    (rec,) = cx.history
    assert f"stage epsilon 1: {len(rec.upwind_changes)} upwind passes, {rec.iterations} " \
        "iterations" in build_report(cx).to_text()
    # an export written before the field existed
    meta = json.loads(obj_lines[0][len("#meta "):])
    del meta["history"][0]["upwind_changes"]
    old = tmp_path / "old.obj"
    old.write_text("\n".join(["#meta " + json.dumps(meta), *obj_lines[1:]]) + "\n")
    (back,) = import_mesh(old, csv_path).history
    assert (back.epsilon, back.iterations, back.changes, back.upwind_changes) == \
        (rec.epsilon, rec.iterations, rec.changes, [])


@pytest.mark.parametrize("form", ["{a}", "{a}/{a}", "{a}//{a}", "{a}/{a}/{a}"])
def test_trimesh_from_obj_reads_every_face_form(tmp_path, form):
    obj, _, obj_lines, _ = _export_lines(tmp_path)
    rewritten = tmp_path / "faces.obj"
    rewritten.write_text("".join(
        "f " + " ".join(form.format(a=tok.split("/")[0]) for tok in line.split()[1:]) + "\n"
        if line.startswith("f ") else line + "\n" for line in obj_lines))
    assert np.array_equal(trimesh_from_obj(rewritten).tris, trimesh_from_obj(obj).tris)


def test_trimesh_from_obj_ignores_a_vertex_weight(tmp_path):
    obj, _, obj_lines, _ = _export_lines(tmp_path)
    weighted = tmp_path / "w.obj"
    weighted.write_text("".join(line + (" 1.0\n" if line.startswith("v ") else "\n")
                                for line in obj_lines))
    want = trimesh_from_obj(obj)
    got = trimesh_from_obj(weighted)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(got.tris, want.tris)


def test_build_report_on_clean_complex(pseudosphere_n2):
    rep = build_report(pseudosphere_n2)
    assert rep.max_compatibility < 1e-12
    assert rep.max_tangency < 1e-12
    assert rep.max_edge_length < 1e-12
    assert rep.gluing_pos_max == 0.0
    assert rep.gluing_normal_max == 0.0
    assert rep.boundary_arc_err < 1e-6
    I = pseudosphere_n2.sectors[0].I
    assert rep.n_quads == 4 * I * I
    text = rep.to_text()
    for token in ("compatibility", "gluing", "boundary arc"):
        assert token in text
    d = rep.to_dict()
    assert d["n_vertices"] == rep.n_vertices


def test_report_sees_tampering(pseudosphere_n2):
    cx = copy.deepcopy(pseudosphere_n2)
    cx.sectors[2].positions[5, 0] += np.array([0.0, 2e-4, 0.0])
    rep = build_report(cx)
    assert rep.gluing_pos_max == pytest.approx(2e-4, rel=1e-9)


def _report_bits(report):
    return {k: repr(v) for k, v in report.to_dict().items()}


def test_build_report_matches_per_quad_oracle(pseudosphere_n2):
    tampered = copy.deepcopy(build_patched("LINEAR", 1.0, 2, 0.5, 8))
    tampered.sectors[1].normals[3, 3] = np.nan
    tampered.sectors[2].positions[0, 4] = np.nan
    tampered.sectors[0].rho[5, 5] = np.nan
    for cx in (pseudosphere_n2, build_patched("LINEAR", 10.0, 3, 0.5, 8),
               build_surgery_m3(), tampered):
        assert _report_bits(build_report(cx)) == _report_bits(oracle.build_report(cx))


BASE_CLI_CONFIG = """
curvature:
  family: LINEAR
  epsilon: 1.0
grid:
  I: 6
  u_max: 0.5
  v_max: 0.5
iteration:
  tol: 0.0001
  max_iters: 100
"""


def _write_cfg(tmp_path, text=BASE_CLI_CONFIG, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_cli_generate_and_validate(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    obj = tmp_path / "out.obj"
    assert main(["generate", "--config", str(cfg), "--out", str(obj), "--quiet"]) == 0
    csv_path = tmp_path / "out.csv"
    report_path = tmp_path / "out.report.txt"
    assert obj.exists() and csv_path.exists() and report_path.exists()
    assert main(["validate", "--mesh", str(obj), "--csv", str(csv_path),
                 "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "gluing_coincidence: ok" in out


def test_cli_generate_is_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    assert main(["generate", "--config", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_overrides(tmp_path):
    cfg = _write_cfg(tmp_path)
    obj = tmp_path / "o.obj"
    code = main(["generate", "--config", str(cfg), "--out", str(obj),
                 "--grid", "5", "--sectors", "3", "--epsilon", "0.5", "--quiet"])
    assert code == 0
    meta = json.loads(obj.read_text().splitlines()[0].removeprefix("#meta "))
    assert len(meta["sectors"]) == 6
    assert all(s["shape"] == [5, 5] for s in meta["sectors"])
    assert meta["history"][-1]["epsilon"] == 0.5


def test_cli_validate_flags_tampered_csv(tmp_path):
    cfg = _write_cfg(tmp_path)
    obj = tmp_path / "t.obj"
    assert main(["generate", "--config", str(cfg), "--out", str(obj), "--quiet"]) == 0
    csv_path = tmp_path / "t.csv"
    lines = csv_path.read_text().splitlines()
    parts = lines[40].split(",")
    parts[7] = "%.17g" % (float(parts[7]) + 0.5)
    lines[40] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--mesh", str(obj), "--csv", str(csv_path),
                 "--quiet"]) == 2


def test_cli_config_errors(tmp_path):
    bad = _write_cfg(tmp_path, "curvature: {family: NOPE}\n", "bad.yaml")
    assert main(["generate", "--config", str(bad), "--quiet"]) == 1
    assert main(["generate", "--config", str(tmp_path / "missing.yaml"),
                 "--quiet"]) == 1
    # flag validation
    cfg = _write_cfg(tmp_path)
    assert main(["generate", "--config", str(cfg), "--tol", "-1", "--quiet"]) == 1
    assert main(["generate", "--config", str(cfg), "--grid", "abc", "--quiet"]) == 1


def test_cli_numerical_failure(tmp_path):
    coarse = _write_cfg(tmp_path, """
curvature: {family: CONSTANT}
grid: {I: 2, u_max: 3.0, v_max: 3.0}
""", "coarse.yaml")
    assert main(["generate", "--config", str(coarse),
                 "--out", str(tmp_path / "c.obj"), "--quiet"]) == 2


@pytest.mark.parametrize("command,config", [
    ("generate", ""),
    ("surgery", "grid: {I: 2, u_max: 2.0, v_max: 2.0}\nsurgery:\n  - {sector: 0, b: 1, m: 3}\n"),
], ids=["generate", "surgery"])
def test_cli_degenerate_generation_exits_2(tmp_path, caplog, monkeypatch, command, config):
    # spacing equal to rho turns each ray's normal by pi/2: node (1, 1) of a
    # sector lands on the origin and its triangles have a zero-length edge
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, config, "flat.yaml")
    flags = ["--grid", "1"] if command == "generate" else []
    code, errors = _cli_error(caplog, [command, "--config", str(cfg), "--quiet", *flags])
    assert code == 2 and len(errors) == 1
    assert errors[0] == "generation: degenerate triangle with a zero-length edge"


def test_cli_distance(tmp_path):
    cfg = _write_cfg(tmp_path)
    obj = tmp_path / "d.obj"
    assert main(["generate", "--config", str(cfg), "--out", str(obj), "--quiet"]) == 0
    out_csv = tmp_path / "dist.csv"
    assert main(["distance", "--mesh", str(obj), "--out", str(out_csv),
                 "--quiet"]) == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "vertex_index,D"
    d = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert d.min() == 0.0
    assert np.isfinite(d).all()
    # a second source pins its own vertex to zero
    two_csv = tmp_path / "dist2.csv"
    assert main(["distance", "--mesh", str(obj), "--source", "0",
                 "--source", str(len(d) - 1), "--out", str(two_csv),
                 "--quiet"]) == 0
    d2 = np.array([float(r.split(",")[1]) for r in two_csv.read_text().splitlines()[1:]])
    assert d2[0] == 0.0 and d2[-1] == 0.0
    assert len(d2) == len(d)
    assert main(["distance", "--mesh", str(obj), "--source", "999999",
                 "--quiet"]) == 1


def test_cli_surgery(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CLI_CONFIG + """
surgery:
  - {sector: 0, b: 3, m: 3}
""", "surgery.yaml")
    obj = tmp_path / "s.obj"
    assert main(["surgery", "--config", str(cfg), "--out", str(obj), "--quiet"]) == 0
    meta = json.loads(obj.read_text().splitlines()[0].removeprefix("#meta "))
    assert len(meta["branch_points"]) == 1
    assert len(meta["sectors"]) == 7
    # surgery subcommand requires cuts in the config
    plain = _write_cfg(tmp_path, BASE_CLI_CONFIG, "plain.yaml")
    assert main(["surgery", "--config", str(plain), "--quiet"]) == 1


def test_cli_writes_json_report(tmp_path):
    cfg = _write_cfg(tmp_path)
    obj = tmp_path / "j.obj"
    assert main(["generate", "--config", str(cfg), "--out", str(obj), "--quiet"]) == 0
    written = json.loads((tmp_path / "j.report.json").read_text())
    cx = import_mesh(obj, tmp_path / "j.csv")
    assert written == json.loads(json.dumps(build_report(cx).to_dict()))


def _cli_error(caplog, argv):
    """Exit code and the ERROR lines of one CLI run that must not raise."""
    caplog.clear()
    code = main(argv)
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    return code, errors


@pytest.mark.parametrize("cut,fragment", [
    ("{sector: 9, b: 3, m: 3}", "no sector 9"),
    ("{sector: 0, b: 6, m: 3}", "1 <= b < 6"),
    ("{sector: 0, b: 3, m: 3, size: 2}\n  - {sector: 4, b: 1, m: 3}", "3x2"),
    ("{sector: 0, b: 3, m: 4}", "must be odd"),
    ("{sector: 0, b: 3, m: 3}\n  - {sector: 0, b: 2, m: 3}", "already cut"),
])
def test_cli_rejects_bad_cut_before_generating(tmp_path, caplog, monkeypatch, cut, fragment):
    generated = []
    monkeypatch.setattr(ksurf.cli, "patch_sectors", lambda *a, **k: generated.append(a))
    cfg = _write_cfg(tmp_path, BASE_CLI_CONFIG + f"surgery:\n  - {cut}\n", "cut.yaml")
    code, errors = _cli_error(caplog, ["surgery", "--config", str(cfg), "--quiet"])
    assert code == 1 and len(errors) == 1 and fragment in errors[0]
    assert generated == []


@pytest.mark.parametrize("flags,fragment", [
    (["--tol", "nan"], "iteration: tol"),
    (["--epsilon", "nan"], "curvature: epsilon"),
    (["--epsilon", "inf"], "curvature: epsilon"),
    (["--sectors", "1"], "sectors.n: "),
    (["--grid", "0"], "grid: "),
])
def test_cli_rejects_bad_flag_before_generating(tmp_path, caplog, monkeypatch, flags, fragment):
    generated = []
    monkeypatch.setattr(ksurf.cli, "patch_sectors", lambda *a, **k: generated.append(a))
    code, errors = _cli_error(caplog, ["generate", "--config", str(_write_cfg(tmp_path)),
                                       "--quiet", *flags])
    assert code == 1 and len(errors) == 1 and fragment in errors[0]
    assert generated == []


@pytest.mark.parametrize("command,output,flags,fragment", [
    ("generate", "", ["--out", "nodir/x.obj"], "--out: directory nodir does not exist"),
    ("surgery", "", ["--out", "nodir/x.obj"], "--out: directory nodir does not exist"),
    ("generate", "output: {csv: nodir/x.csv}\n", [], "output.csv: directory nodir"),
    ("generate", "output: {report: nodir/r.txt}\n", [], "output.report: directory nodir"),
    ("generate", "", ["--out", "run.yaml/x.obj"], "--out: directory run.yaml does not"),
])
def test_cli_rejects_missing_output_directory(tmp_path, caplog, monkeypatch, command, output,
                                              flags, fragment):
    monkeypatch.chdir(tmp_path)
    generated = []
    monkeypatch.setattr(ksurf.cli, "patch_sectors", lambda *a, **k: generated.append(a))
    cfg = _write_cfg(tmp_path, BASE_CLI_CONFIG + "surgery:\n  - {sector: 0, b: 3, m: 3}\n"
                     + output)
    code, errors = _cli_error(caplog, [command, "--config", str(cfg), "--quiet", *flags])
    assert code == 1 and len(errors) == 1 and fragment in errors[0]
    assert generated == []


@pytest.mark.parametrize("command,output,flags,fragment", [
    ("generate", "", ["--out", "taken"], "--out: taken is a directory"),
    ("surgery", "", ["--out", "taken"], "--out: taken is a directory"),
    ("generate", "", ["--out", "x.obj"], "--out: x.csv is a directory"),
    ("generate", "output: {mesh: taken}\n", [], "output.mesh: taken is a directory"),
    ("generate", "output: {csv: taken}\n", [], "output.csv: taken is a directory"),
    ("generate", "output: {report: taken}\n", [], "output.report: taken is a directory"),
    # the JSON report goes beside the text report, with a .json suffix
    ("generate", "output: {report: taken.txt}\n", [], "output.report: taken.json is a"),
])
def test_cli_rejects_output_path_that_is_a_directory(tmp_path, caplog, monkeypatch, command,
                                                     output, flags, fragment):
    monkeypatch.chdir(tmp_path)
    for name in ("taken", "x.csv", "taken.json"):
        (tmp_path / name).mkdir()
    generated = []
    monkeypatch.setattr(ksurf.cli, "patch_sectors", lambda *a, **k: generated.append(a))
    cfg = _write_cfg(tmp_path, BASE_CLI_CONFIG + "surgery:\n  - {sector: 0, b: 3, m: 3}\n"
                     + output)
    code, errors = _cli_error(caplog, [command, "--config", str(cfg), "--quiet", *flags])
    assert code == 1 and len(errors) == 1 and fragment in errors[0]
    assert generated == []


@pytest.mark.parametrize("out,message", [
    ("nodir/d.csv", "--out: directory nodir does not exist"),
    ("taken", "--out: taken is a directory"),
])
def test_cli_distance_checks_its_output_before_marching(tmp_path, caplog, monkeypatch, out,
                                                        message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    (tmp_path / "a.obj").write_text(SQUARE_VERTICES + "f 1 2 4 3\n")
    marched = []
    monkeypatch.setattr(ksurf.cli, "fast_march", lambda *a: marched.append(a))
    code, errors = _cli_error(caplog, ["distance", "--mesh", "a.obj", "--out", out, "--quiet"])
    assert code == 1 and errors == [message]
    assert marched == []


def test_cli_reports_a_failed_write_as_one_config_error(tmp_path, caplog, monkeypatch):
    def refused(*args):
        raise PermissionError(13, "Permission denied", str(tmp_path / "out.report.txt"))

    monkeypatch.setattr(ksurf.cli, "write_report", refused)
    code, errors = _cli_error(caplog, ["generate", "--config", str(_write_cfg(tmp_path)),
                                       "--out", str(tmp_path / "out.obj"), "--quiet"])
    assert code == 1 and errors == [
        f"cannot write output: [Errno 13] Permission denied: '{tmp_path / 'out.report.txt'}'"]
    (tmp_path / "a.obj").write_text(SQUARE_VERTICES + "f 1 2 4 3\n")
    real_open = open

    def read_only(path, mode="r", *args, **kwargs):
        if "w" in mode:
            raise OSError(28, "No space left on device", str(path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", read_only)
    code, errors = _cli_error(caplog, ["distance", "--mesh", str(tmp_path / "a.obj"),
                                       "--out", str(tmp_path / "d.csv"), "--quiet"])
    assert code == 1 and errors == [
        f"cannot write output: [Errno 28] No space left on device: '{tmp_path / 'd.csv'}'"]


def test_out_without_extension_keeps_siblings_beside_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    assert main(["generate", "--config", str(_write_cfg(tmp_path)), "--out",
                 "run.v2/surface", "--quiet"]) == 0
    assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == [
        "surface", "surface.csv", "surface.report.json", "surface.report.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2", "run.yaml"]
    cx = import_mesh("run.v2/surface", "run.v2/surface.csv")
    assert export_mesh(cx, "run.v2/copy") == ("run.v2/copy", "run.v2/copy.csv")


def test_cli_rechecks_cuts_against_grid_override(tmp_path, caplog):
    cfg = _write_cfg(tmp_path, BASE_CLI_CONFIG + "surgery:\n  - {sector: 0, b: 3, m: 3}\n",
                     "cut.yaml")
    code, errors = _cli_error(caplog, ["surgery", "--config", str(cfg), "--grid", "3",
                                       "--quiet"])
    assert code == 1 and errors == ["surgery[0].b: must satisfy 1 <= b < 3, got 3"]


def test_cli_distance_on_degenerate_obj(tmp_path, caplog):
    obj = tmp_path / "flat.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0 0 0\nv 1 1 0\nf 1 2 4 3\n")
    code, errors = _cli_error(caplog, ["distance", "--mesh", str(obj), "--quiet"])
    assert code == 2 and len(errors) == 1 and "zero-length edge" in errors[0]
    garbled = tmp_path / "garbled.obj"
    garbled.write_text("v 0 0 zero\nf 1 1 1 1\n")
    code, errors = _cli_error(caplog, ["distance", "--mesh", str(garbled), "--quiet"])
    assert code == 1 and len(errors) == 1 and "cannot parse" in errors[0]


SQUARE_VERTICES = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"


@pytest.mark.parametrize("lines,line,what", [
    ("v 0 0 0\nv 1 0\nv 0 1 0\nv 1 1 0\nf 1 2 4 3\n", "v 1 0", "a vertex with 3 coordinates"),
    (SQUARE_VERTICES + "f 1 2 4\n", "f 1 2 4", "a quad face"),
    (SQUARE_VERTICES + "f 1 2 4 3\nf 1 2 4 3 1\n", "f 1 2 4 3 1", "a quad face"),
    (SQUARE_VERTICES + "f 1 2 4 x/1\n", "f 1 2 4 x/1", "a quad face"),
], ids=["two-coordinates", "triangle", "pentagon", "non-integer-index"])
def test_cli_distance_names_the_line_it_cannot_parse(tmp_path, caplog, lines, line, what):
    obj = tmp_path / "bad.obj"
    obj.write_text(lines)
    lineno = lines.splitlines().index(line) + 1
    code, errors = _cli_error(caplog, ["distance", "--mesh", str(obj), "--quiet"])
    assert code == 1 and errors == [f"{obj}: line {lineno}: cannot parse {line!r} as {what}"]


def test_cli_distance_writes_one_line_per_vertex(tmp_path, capsys):
    # two quads without a common vertex: the second is unreachable from the source
    obj = tmp_path / "two.obj"
    obj.write_text(SQUARE_VERTICES + "v 5 0 0\nv 6 0 0\nv 5 1 0\nv 6 1.5 0\n"
                   "f 1 2 4 3\nf 5 6 8 7\n")
    d = fast_march(trimesh_from_obj(obj), [(1, 0.0)]).d
    want = "vertex_index,D\n" + "".join("%d,%.17g\n" % (v, d[v]) for v in range(len(d)))
    assert want.splitlines()[2] == "1,0"
    assert want.splitlines()[5:] == ["4,inf", "5,inf", "6,inf", "7,inf"]
    assert main(["distance", "--mesh", str(obj), "--source", "1", "--quiet"]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "d.csv"
    assert main(["distance", "--mesh", str(obj), "--source", "1", "--out", str(out),
                 "--quiet"]) == 0
    assert out.read_bytes() == want.encode()


def test_cli_validate_on_degenerate_geometry(tmp_path, caplog):
    # node (0, 4, 3) moved onto (0, 3, 3): every structural check still
    # passes, and the report's triangulation meets a degenerate triangle
    obj = tmp_path / "d.obj"
    assert main(["generate", "--config", str(_write_cfg(tmp_path)), "--out", str(obj),
                 "--quiet"]) == 0
    csv_path = tmp_path / "d.csv"
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    node = {tuple(r[:3]): r for r in rows[1:]}
    node["0", "4", "3"][4:7] = node["0", "3", "3"][4:7]
    csv_path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    # the OBJ moves the vertex too, so that the two files still agree
    obj_lines = obj.read_text().splitlines()
    obj_lines[1 + int(node["0", "4", "3"][3])] = "v " + " ".join(node["0", "3", "3"][4:7])
    obj.write_text("\n".join(obj_lines) + "\n")
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv",
                                       str(csv_path), "--quiet"])
    assert code == 2 and len(errors) == 1 and "degenerate triangle" in errors[0]


def test_cli_validate_passes_an_untouched_export(tmp_path, capsys):
    obj, csv_path, obj_lines, csv_lines = _export_lines(tmp_path)
    crlf_csv, crlf_obj = tmp_path / "crlf.csv", tmp_path / "crlf.obj"
    crlf_csv.write_bytes(("\r\n".join(csv_lines) + "\r\n").encode())
    crlf_obj.write_bytes(("\r\n".join(obj_lines) + "\r\n").encode())
    n_lines = sum(line.startswith(("v ", "vn ", "f ")) for line in obj_lines)
    for mesh, sidecar in ((obj, csv_path), (obj, crlf_csv), (crlf_obj, csv_path)):
        assert main(["validate", "--mesh", str(mesh), "--csv", str(sidecar), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"obj_geometry: ok ({n_lines} v, vn and f lines match the "
                              "import)\nvertex_states: ok")


def _tampered(lines):
    """Every vertex moved to (5, 5, 5) and every face onto vertex 1."""
    return [("v 5 5 5" if line.startswith("v ") else "f 1 1 1 1" if line.startswith("f ")
             else line) for line in lines]


@pytest.mark.parametrize("edit,detail", [
    (_tampered, "line 2: 'v 5 5 5', the import exports 'v 0 0 0'"),
    (lambda lines: lines[:-1], "the file ends before 'f "),
    (lambda lines: lines + ["vn 0 0 1"], "'vn 0 0 1', the import exports no such line"),
], ids=["every-vertex-and-face", "face-missing", "extra-normal"])
def test_cli_validate_flags_obj_geometry_the_csv_does_not_give(tmp_path, caplog, capsys,
                                                              edit, detail):
    obj, csv_path, obj_lines, _ = _export_lines(tmp_path)
    obj.write_text("\n".join(edit(obj_lines)) + "\n")
    # the structural checks and the report pass: they read only the CSV and #meta
    assert validate_complex(import_mesh(obj, csv_path)).passed
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 2 and errors == ["validation failed"]
    out = capsys.readouterr().out
    assert out.startswith("obj_geometry: FAIL (") and detail in out.splitlines()[0]
    assert "diagnostics report" not in out


def test_cli_validate_ends_each_report_with_a_newline(tmp_path, capsys):
    obj, csv_path = tmp_path / "n.obj", tmp_path / "n.csv"
    export_mesh(build_patched("LINEAR", 1.0, 2, 0.5, 6), obj, csv_path)
    assert main(["validate", "--mesh", str(obj), "--csv", str(csv_path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "1 boundary loop(s))\ndiagnostics report\n" in out
    assert out.endswith("\n") and out.count("quad_incidence:") == out.count("disk_topology:") == 1


@pytest.mark.parametrize("faces,line,face", [
    ("f 1 2 4 0\n", 5, "[1, 2, 4, 0]"),
    ("f 1 2 4 3\nf 1 2 5 3\n", 6, "[1, 2, 5, 3]"),
    ("f 1//1 2//2 4//4 -1//1\n", 5, "[1, 2, 4, -1]"),
])
def test_cli_distance_rejects_face_index_outside_the_vertices(tmp_path, caplog, monkeypatch,
                                                              faces, line, face):
    marched = []
    monkeypatch.setattr(ksurf.cli, "fast_march", lambda *a: marched.append(a))
    obj = tmp_path / "bad.obj"
    obj.write_text(SQUARE_VERTICES + faces)
    with pytest.raises(ConfigError, match=f"line {line}: face"):
        trimesh_from_obj(obj)
    code, errors = _cli_error(caplog, ["distance", "--mesh", str(obj), "--quiet"])
    assert code == 1 and errors == [f"{obj}: line {line}: face {face} has an index "
                                    "outside 1..4"]
    assert marched == []


@pytest.mark.parametrize("what", ["missing", "directory"])
def test_cli_distance_on_unreadable_mesh(tmp_path, caplog, what):
    path = tmp_path / "m.obj"
    if what == "directory":
        path.mkdir()
    code, errors = _cli_error(caplog, ["distance", "--mesh", str(path), "--quiet"])
    assert code == 1 and len(errors) == 1
    assert errors[0].startswith(f"cannot read {path}: ")


@pytest.mark.parametrize("missing", ["mesh", "csv"])
def test_cli_validate_on_missing_file(tmp_path, caplog, missing):
    obj, csv_path = tmp_path / "v.obj", tmp_path / "v.csv"
    export_mesh(build_patched("LINEAR", 1.0, 2, 0.5, 6), obj, csv_path)
    gone = {"mesh": obj, "csv": csv_path}[missing]
    gone.unlink()
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and errors == [f"cannot read {gone}: No such file or directory"]


def _damaged_export(tmp_path, damage):
    """Export a small complex, apply ``damage`` to (obj lines, csv lines), write both back."""
    obj, csv_path = tmp_path / "x.obj", tmp_path / "x.csv"
    export_mesh(build_patched("LINEAR", 1.0, 2, 0.5, 6), obj, csv_path)
    obj_lines, csv_lines = obj.read_text().splitlines(), csv_path.read_text().splitlines()
    damage(obj_lines, csv_lines)
    obj.write_text("\n".join(obj_lines) + "\n")
    csv_path.write_text("\n".join(csv_lines) + "\n")
    return obj, csv_path


def _set_csv_field(lines, lineno, column, value):
    parts = lines[lineno - 1].split(",")
    parts[column] = value
    lines[lineno - 1] = ",".join(parts)


def test_cli_validate_on_malformed_meta(tmp_path, caplog):
    def damage(obj_lines, _):
        obj_lines[0] = obj_lines[0].replace("#meta {", "#meta {{", 1)

    obj, csv_path = _damaged_export(tmp_path, damage)
    with pytest.raises(ConfigError, match="line 1: malformed #meta JSON"):
        import_mesh(obj, csv_path)
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and len(errors) == 1
    assert errors[0].startswith(f"{obj}: line 1: malformed #meta JSON: ")


def _edit_meta(edit):
    """A damage for ``_damaged_export`` that rewrites the parsed #meta JSON with ``edit``."""
    def damage(obj_lines, _):
        meta = json.loads(obj_lines[0][len("#meta "):])
        obj_lines[0] = "#meta " + json.dumps(edit(meta))
    return damage


def _without_sectors(meta):
    return {"version": meta["version"]}


def _bad_parity(meta):
    meta["sectors"][2]["parity"] = "ODDISH"
    return meta


def _single_shape(meta):
    meta["sectors"][1]["shape"] = [6]
    return meta


def test_cli_validate_on_meta_of_wrong_shape(tmp_path, caplog):
    for edit, detail in ((_without_sectors, "missing key 'sectors'"),
                         (_bad_parity, "'ODDISH' is not a valid Parity"),
                         (_single_shape, "not enough values to unpack")):
        (tmp_path / edit.__name__).mkdir()
        obj, csv_path = _damaged_export(tmp_path / edit.__name__, _edit_meta(edit))
        message = f"{obj}: line 1: #meta JSON of the wrong shape: {detail}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            import_mesh(obj, csv_path)
        code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj),
                                           "--csv", str(csv_path), "--quiet"])
        assert code == 1 and len(errors) == 1
        assert errors[0].startswith(message)


def _origin(value):
    def edit(meta):
        meta["origin"] = value
        return meta
    return edit


def _branch_point(sector, i, j):
    def edit(meta):
        meta["branch_points"] = [{"sector": sector, "i": i, "j": j,
                                  "incident_sectors": 3, "expected_quads": 3}]
        return meta
    return edit


@pytest.mark.parametrize("edit,detail", [
    (_origin([0, 0]), "origin [0, 0] is not a (sector, i, j) triple of integers"),
    (_origin([0, 0.0, 0]), "origin [0, 0.0, 0] is not a (sector, i, j) triple of integers"),
    (_origin([7, 0, 0]), "origin [7, 0, 0] names no node of the 4 sectors of the #meta line"),
    (_origin([0, 0, 7]), "origin [0, 0, 7] names no node of the 4 sectors of the #meta line"),
    (_branch_point(9, 0, 0),
     "branch point [9, 0, 0] names no node of the 4 sectors of the #meta line"),
    (_branch_point(0, -1, 0),
     "branch point [0, -1, 0] names no node of the 4 sectors of the #meta line"),
])
def test_cli_validate_on_meta_naming_no_node(tmp_path, caplog, edit, detail):
    obj, csv_path = _damaged_export(tmp_path, _edit_meta(edit))
    message = f"{obj}: line 1: #meta {detail}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        import_mesh(obj, csv_path)
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and errors == [message]


def test_cli_validate_on_meta_origin_missing_from_the_csv(tmp_path, caplog):
    def damage(_, rows):
        rows.remove("0,0,0,0,0,0,0,0,0,1,0,-1,1")

    obj, csv_path = _damaged_export(tmp_path, damage)
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and errors == [
        f"{obj}: line 1: #meta origin [0, 0, 0] is not a node listed in {csv_path}"]


@pytest.mark.parametrize("sid", ["9", "-1"])
def test_cli_validate_on_unknown_sector(tmp_path, caplog, sid):
    obj, csv_path = _damaged_export(tmp_path, lambda _, rows: _set_csv_field(rows, 3, 0, sid))
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and errors == [
        f"{csv_path}: line 3: sector_id {sid} is not a sector of the #meta line (0..3)"]


@pytest.mark.parametrize("column,value,node", [(1, "7", "(7, 2)"), (2, "-1", "(0, -1)")])
def test_cli_validate_on_node_outside_its_sector(tmp_path, caplog, column, value, node):
    def damage(_, rows):
        _set_csv_field(rows, 4, 1, "0")
        _set_csv_field(rows, 4, 2, "2")
        _set_csv_field(rows, 4, column, value)

    obj, csv_path = _damaged_export(tmp_path, damage)
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and errors == [
        f"{csv_path}: line 4: node {node} lies outside sector 0, whose nodes are (0..6, 0..6)"]


CSV_ROW_FORM = "13 comma-separated values, 4 integers then 9 numbers"


@pytest.mark.parametrize("damage", ["non-numeric", "one-cell-short", "integer-as-float"])
def test_cli_validate_names_the_csv_line_it_cannot_parse(tmp_path, caplog, damage):
    def edit(_, rows):
        if damage == "non-numeric":
            _set_csv_field(rows, 5, 6, "abc")
        elif damage == "one-cell-short":
            rows[4] = rows[4].rsplit(",", 1)[0]
        else:
            _set_csv_field(rows, 5, 3, "7.0")

    obj, csv_path = _damaged_export(tmp_path, edit)
    row = csv_path.read_text().splitlines()[4]
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and errors == [
        f"{csv_path}: line 5: cannot parse {row!r} as {CSV_ROW_FORM}"]


def test_cli_validate_counts_blank_lines_in_the_csv(tmp_path, caplog):
    def damage(_, rows):
        _set_csv_field(rows, 4, 0, "9")
        rows.insert(2, "")

    obj, csv_path = _damaged_export(tmp_path, damage)
    code, errors = _cli_error(caplog, ["validate", "--mesh", str(obj), "--csv", str(csv_path),
                                       "--quiet"])
    assert code == 1 and errors == [
        f"{csv_path}: line 5: sector_id 9 is not a sector of the #meta line (0..3)"]
