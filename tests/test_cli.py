import csv
import json
from fractions import Fraction

import pytest

from dendro.cli import main
from dendro.metric_tree import Dendrite
from dendro.serialize import load_json

F = Fraction


def run(args):
    return main(args)


# ---------------------------------------------------------------- gen


def test_gen_comb_roundtrip(tmp_path):
    out = tmp_path / "comb8.json"
    assert run(["gen", "comb", "--depth", "8", "-o", str(out)]) == 0
    d = load_json(out)
    D = Dendrite.from_dict(d)
    assert D.to_dict()["edges"] == d["edges"]
    assert d["descriptor"]["ideal_properties"]["in_theorem_class"] is True


def test_gen_riemann_tooth_count(tmp_path):
    from oracles import farey_count

    out = tmp_path / "r7.json"
    assert run(["gen", "riemann", "--qmax", "7", "-o", str(out)]) == 0
    D = Dendrite.from_dict(load_json(out))
    teeth = [e for e in D.edges if e.v.startswith("t@")]
    assert len(teeth) == farey_count(7)


def test_gen_omega_star(tmp_path):
    out = tmp_path / "w12.json"
    assert run(["gen", "omega_star", "--arms", "12", "--q", "1/2", "-o", str(out)]) == 0
    D = Dendrite.from_dict(load_json(out))
    assert len(D.edges) == 12
    assert not load_json(out)["descriptor"]["ideal_properties"]["all_orders_finite"]


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "comb", "--depth", "4", "-o", str(a)])
    run(["gen", "comb", "--depth", "4", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_unknown_family_fails(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "klein", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 1  # malformed input, not the inconclusive code


@pytest.mark.parametrize("family, option, value", [
    ("star", "--arms", "5"),
    ("arc", "--depth", "4"),
    ("comb", "--qmax", "3"),
    ("omega_star", "--length", "2"),
    ("gehman", "--q", "1/3"),
])
def test_gen_refuses_an_option_its_family_does_not_read(tmp_path, capsys, family,
                                                         option, value):
    out = tmp_path / "x.json"
    assert run(["gen", family, option, value, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: gen {family} does not read {option}\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["gen", "omega_star", "--arms", "0"],
    ["gen", "omega_star", "--arms", "-3"],
    ["build", "omega_star_gch", "--arms", "0"],
])
def test_an_omega_star_without_arms_is_refused(tmp_path, capsys, args):
    out = tmp_path / "x.json"
    assert run([*args, "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: omega_star arms must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("args, params", [
    (["arc", "--length", "2"], {"length": "2"}),
    (["star"], {}),
    (["cantor_comb", "--rank", "2"], {"rank": 2}),
    (["gehman", "--depth", "3"], {"depth": 3}),
])
def test_gen_reads_its_family_options(tmp_path, args, params):
    out = tmp_path / "x.json"
    assert run(["gen", *args, "-o", str(out)]) == 0
    assert load_json(out)["descriptor"]["params"] == params


# ---------------------------------------------------------------- run options


@pytest.mark.parametrize("scenario, option, value", [
    ("odometer-diam", "--rho", "2"),
    ("odometer-diam", "--map", "nofile.json"),
    ("odometer-diam", "--seed", "0"),
    ("gch-verdict", "--steps", "3"),
    ("gch-verdict", "--map-out", "map.json"),
    ("exactness", "--N", "4"),
    ("exactness", "--family", "free_arcs"),
    ("exactness", "--alpha", "1^inf"),
])
def test_run_refuses_an_option_its_scenario_does_not_read(tmp_path, capsys, scenario,
                                                          option, value):
    out = tmp_path / "out"
    assert run(["run", "--scenario", scenario, option, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: run {scenario} does not read {option}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- odometer scenario


def test_run_odometer_diam(tmp_path):
    out = tmp_path / "diam.csv"
    code = run([
        "run", "--scenario", "odometer-diam", "--alpha", "1^inf",
        "--steps", "2187", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "ell", "diam"]
    assert len(rows) - 1 == 2188
    assert rows[1] == ["0", "0", "1"]
    assert rows[2] == ["1", "1", "1/3"]


def test_run_odometer_diam_rejects_negative_steps(tmp_path, capsys):
    out = tmp_path / "diam.csv"
    code = run([
        "run", "--scenario", "odometer-diam", "--steps", "-5", "--out", str(out),
    ])
    assert code == 1
    assert "step count must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- verdict scenario


def test_run_gch_verdict_omega12(tmp_path):
    mapfile = tmp_path / "omega12.json"
    assert run(["build", "omega_star_gch", "--arms", "12", "-o", str(mapfile)]) == 0
    report_file = tmp_path / "report.json"
    code = run([
        "run", "--scenario", "gch-verdict", "--map", str(mapfile),
        "--family", "subdendrites", "--N", "200", "--out", str(report_file),
    ])
    report = load_json(report_file)
    assert report["prox_pass"] is True
    assert code == 0


def test_run_gch_verdict_inconclusive_for_identity(tmp_path):
    from dendro.gallery import FamilyDescriptor, generate
    from dendro.serialize import dump_json
    from dendro.tree_map import identity_map

    arc = generate(FamilyDescriptor("arc", {}))
    dump_json(identity_map(arc).to_dict(), tmp_path / "id.json")
    code = run([
        "run", "--scenario", "gch-verdict", "--map", str(tmp_path / "id.json"),
        "--family", "balls", "--N", "16", "--out", str(tmp_path / "rep.json"),
    ])
    assert code == 2


def _point_map_dict():
    """The dict of a point-based glued map with two branched bushes."""
    from dendro.exact_builder import build_exact
    from dendro.metric_tree import PointRef

    D = Dendrite(
        ["c", "m1", "x1", "y1", "m2", "x2", "y2"],
        [("c", "m1", F(1, 4)), ("m1", "x1", F(1, 8)), ("m1", "y1", F(1, 8)),
         ("c", "m2", F(1, 4)), ("m2", "x2", F(1, 8)), ("m2", "y2", F(1, 8))],
    )
    d = build_exact(D, PointRef(vertex="c")).to_dict()
    assert d["kind"] == "glued_point" and len(d["parts"]) == 2
    return d


def _point_map_with_laps(laps):
    """A point-based glued map file whose manifest gives the first bush
    ``laps`` laps, its parts keeping the laps they were built with."""
    from dendro.serialize import dumps_json

    d = _point_map_dict()
    d["manifest"]["parts"][0]["laps"] = laps
    return dumps_json(d)


def _comb8_map_with(value, *keys):
    """The comb 8 exactness map file with one field of part 0, reached
    through ``keys``, set to ``value`` or to ``value(file)`` if callable."""
    from dendro.exact_builder import build_exact
    from dendro.gallery import FamilyDescriptor, generate
    from dendro.serialize import dumps_json

    d = build_exact(generate(FamilyDescriptor("comb", {"depth": 8})), "A").to_dict()
    *path, last = keys
    node = d["parts"][0]
    for key in path:
        node = node[key]
    node[last] = value(d) if callable(value) else value
    return dumps_json(d)


def _glued_map_with(name, edit):
    """The depth-3 ``comb`` exactness map (``comb_gch`` for ``"comb_gch"``)
    as a file, after ``edit`` has changed its dict in place."""
    from dendro.exact_builder import build_exact
    from dendro.gallery import FamilyDescriptor, build_counterexample, generate
    from dendro.serialize import dumps_json

    if name == "comb_gch":
        Fm = build_counterexample("comb_gch", depth=3)[1]
    else:
        Fm = build_exact(generate(FamilyDescriptor("comb", {"depth": 3})), "A")
    d = Fm.to_dict()
    edit(d)
    return dumps_json(d)


def _tent_map_with(edit):
    """The unit-arc tent map (0 and 1 to 0, the midpoint to 1) as a file,
    after ``edit`` has changed its dict in place."""
    from dendro.length_expanding import unit_arc
    from dendro.metric_tree import PointRef
    from dendro.serialize import dumps_json
    from dendro.tree_map import TreeMap

    arc = unit_arc()
    d = TreeMap(arc, arc, {"0": PointRef(vertex="0"), "1": PointRef(vertex="0")},
                {0: ((F(1, 2), PointRef(vertex="1")),)}).to_dict()
    edit(d)
    return dumps_json(d)


def _breaks_moved_to(key):
    def edit(d):
        d["edge_breaks"] = {key: d["edge_breaks"]["0"]}
    return edit


def _every_target_one(d):
    for entry in d["manifest"]["parts"]:
        entry["target"] = 1


def _last_part_dropped(d):
    d["parts"].pop()
    d["manifest"]["parts"].pop()


@pytest.mark.parametrize("content,message", [
    ("[1, 2]\n", "JSON object"),
    ('{"kind": "spiral"}\n', "unknown map kind 'spiral'"),
    ('{"kind": ["glued_exact"]}\n', "unknown map kind ['glued_exact']"),
    ('{"kind": "piecewise", "domain": {"vertices": ["a"]}}\n',
     "malformed piecewise map: missing field 'edges'"),
    ('{"kind": "glued_exact", "space": [], "base": {}, "parts": []}\n',
     "malformed glued_exact map"),
    (lambda: _glued_map_with(
        "comb_gch", lambda d: d["manifest"]["pieces"][0].update(arc_radius="7")),
     'manifest.pieces[0].arc_radius reads "7" but loads as "1"'),
    (lambda: _comb8_map_with(["x"], "psi", "root"), "malformed glued_exact map"),
    (lambda: _comb8_map_with("7/3", "psi", "reach"),
     'parts[0].psi.reach reads "7/3" but loads as "1/4"'),
    (lambda: _comb8_map_with({"vertices": ["zz"], "intervals": {}}, "psi", "bush"),
     "missing field parts[0].psi.bush.intervals.9"),
    (lambda: _comb8_map_with(lambda d: d["parts"][1]["root"], "root"),
     'parts[0].root reads "b@1" but loads as "b@0"'),
    (lambda: _comb8_map_with("7", "nu", "codomain_length"),
     'parts[0].nu.codomain_length reads "7" but loads as "1023/1024"'),
    (lambda: _comb8_map_with("nonsense", "psi", "kind"),
     'parts[0].psi.kind reads "nonsense" but loads as "bush_zigzag"'),
    (lambda: _glued_map_with("comb", lambda d: d["base"]["vertices"].append("zz")),
     "base vertex 'zz' is not a vertex of the space"),
    (lambda: _glued_map_with(
        "comb", lambda d: d["base"]["intervals"].update({"99": ["0", "1/2"]})),
     "base edge 99 is not an edge of the space"),
    (lambda: _glued_map_with(
        "comb_gch", lambda d: d["manifest"]["pieces"][0].update(bush_roots=["nonsense"])),
     "manifest.pieces[0].bush_roots reads an array of 1 but loads as an array of 2"),
    (lambda: _glued_map_with("comb_gch", lambda d: d["manifest"].update(q="7")),
     "q is 7, but must lie strictly between 0 and 1"),
    (lambda: _glued_map_with(
        "comb", lambda d: d["parts"][0]["g"]["codomain"]["edges"][0].update(len="7")),
     'parts[0].g.codomain.edges[0].len reads "7" but loads as "1/4"'),
    (lambda: _glued_map_with(
        "comb", lambda d: d["base"]["intervals"].update({"5": ["1/64", "1/48"]})),
     "base is not connected"),
    # the manifest and the lap counts are laid out at load, as at build
    (lambda: _glued_map_with("comb", _every_target_one),
     "manifest.parts[0].target reads 1 but loads as null"),
    (lambda: _glued_map_with("comb", lambda d: d["parts"][0]["psi"].update(laps=2)),
     "parts[0].psi.laps reads 2 but loads as 4"),
    (lambda: _glued_map_with(
        "comb", lambda d: d["manifest"]["parts"][0].update(phi_laps=6)),
     "manifest.parts[0].phi_laps reads 6 but loads as 4"),
    (lambda: _glued_map_with(
        "comb", lambda d: d["manifest"]["parts"][0].update(nu_laps=2)),
     "manifest.parts[0].nu_laps reads 2 but loads as 6"),
    (lambda: _glued_map_with("comb", lambda d: d["parts"][1]["nu"].update(start="1/9")),
     'parts[1].nu.start reads "1/9" but loads as'),
    (lambda: _glued_map_with("comb", _last_part_dropped),
     "the file has 3 parts, but its base has 4 bushes"),
    (lambda: _glued_map_with("comb", lambda d: d["parts"][0]["g"].update(kind="xyz")),
     'parts[0].g.kind reads "xyz" but loads as "piecewise"'),
    (lambda: _glued_map_with("comb", lambda d: d.update(extra=1)),
     "malformed glued_exact map: unknown field extra"),
    (lambda: _glued_map_with(
        "comb", lambda d: d["parts"][1]["g"]["domain"]["edges"][0].update(len="7")),
     "part 1 g.domain is not its blown-up interval"),
    (lambda: _glued_map_with(
        "comb", lambda d: d["parts"][1]["g"]["vertex_images"].update({"J2:0": {"vertex": "t@0"}})),
     "part 1 does not fix its root 'b@1'"),
    # a glued_point file is read as its space, base point and lap counts
    (lambda: _point_map_with_laps(6), "parts[0].nu.laps reads 4 but loads as 6"),
    (lambda: _point_map_with_laps(0),
     "manifest.parts[0].laps is 0, but must be a positive integer"),
    # breakpoints and images are read only on the domain's own edges and
    # vertices, in a piecewise map and in a glued part's g alike
    (lambda: _tent_map_with(_breaks_moved_to("-1")), "breakpoints on unknown edge -1"),
    (lambda: _tent_map_with(_breaks_moved_to("9")), "breakpoints on unknown edge 9"),
    (lambda: _tent_map_with(lambda d: d["vertex_images"].update(zz={"vertex": "1"})),
     "image for unknown vertex 'zz'"),
    (lambda: _glued_map_with(
        "comb", lambda d: d["parts"][0]["g"]["vertex_images"].update(zz={"vertex": "b@0"})),
     "image for unknown vertex 'zz'"),
], ids=["top_level_list", "unknown_kind", "list_kind", "missing_field", "wrong_shape",
        "pieces_arc_radius_7", "psi_root_list", "psi_reach_differs", "psi_bush_differs",
        "root_differs", "nu_codomain_length_differs", "psi_kind_unknown",
        "base_vertex_unknown", "base_edge_unknown", "pieces_bush_roots_nonsense", "pieces_q_7",
        "g_codomain_differs", "base_not_connected", "every_target_one", "psi_laps_2",
        "phi_laps_differs", "nu_laps_differs", "nu_start_differs", "last_part_dropped",
        "g_kind_unknown", "unknown_key", "g_domain_length_differs", "g_moves_root",
        "point_laps_differs", "point_laps_zero", "breaks_on_edge_minus_1",
        "breaks_on_edge_9", "image_of_unknown_vertex", "g_image_of_unknown_vertex"])
def test_run_gch_verdict_rejects_bad_map(tmp_path, capsys, content, message):
    mapfile = tmp_path / "bad.json"
    mapfile.write_text(content() if callable(content) else content)
    code = run([
        "run", "--scenario", "gch-verdict", "--map", str(mapfile),
        "--out", str(tmp_path / "rep.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "rep.json").exists()


def test_run_gch_verdict_refuses_radii_levels_below_one(tmp_path, capsys):
    mapfile = tmp_path / "omega4.json"
    assert run(["build", "omega_star_gch", "--arms", "4", "-o", str(mapfile)]) == 0
    capsys.readouterr()
    code = run([
        "run", "--scenario", "gch-verdict", "--map", str(mapfile),
        "--family", "subdendrites", "--radii-levels", "-3",
        "--out", str(tmp_path / "rep.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: radii_levels must be >= 1\n"
    assert not (tmp_path / "rep.json").exists()


def test_run_gch_verdict_rejects_non_self_map(tmp_path, capsys):
    # a valid piecewise map from a star onto an arc has no set orbits
    from dendro.gallery import FamilyDescriptor, generate
    from dendro.length_expanding import unit_arc
    from dendro.metric_tree import PointRef
    from dendro.serialize import dump_json
    from dendro.tree_map import TreeMap

    star = generate(FamilyDescriptor("star", {}))
    images = {v: PointRef(vertex="0" if v == "c" else "1") for v in star.vertices}
    mapfile = tmp_path / "onto_arc.json"
    dump_json(TreeMap(star, unit_arc(), images).to_dict(), mapfile)
    code = run([
        "run", "--scenario", "gch-verdict", "--map", str(mapfile),
        "--out", str(tmp_path / "rep.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: set orbits need a selfmap: codomain differs from domain\n"
    assert not (tmp_path / "rep.json").exists()


# ---------------------------------------------------------------- exactness scenario


def test_run_exactness_comb4(tmp_path):
    dfile = tmp_path / "comb4.json"
    run(["gen", "comb", "--depth", "4", "-o", str(dfile)])
    cert_file = tmp_path / "cert.json"
    code = run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile),
        "--arc", "A", "--q", "1/2", "--rho", "6/5", "--nmax", "64",
        "--out", str(cert_file),
    ])
    assert code == 0
    cert = load_json(cert_file)
    assert cert["certificate"]["all_bush_pieces_covered"] is True
    assert cert["certificate"]["chain_ok"] is True
    assert cert["manifest"]["q"] == "1/2"


def test_run_exactness_y_bush(tmp_path):
    # a Y-shaped bush is not an arc rooted at an end: psi needs the fold
    # lemma's 6 laps, not phi's 4, for every bush piece to cover
    from dendro.metric_tree import PointRef
    from dendro.serialize import dump_json

    arms = [("c", "y", F(1, 4)), ("y", "y1", F(1, 2)), ("y", "y2", F(1, 3)),
            ("y", "y3", F(1, 5))]
    D = Dendrite(["l", "c", "r"] + [v for _, v, _ in arms],
                 [("l", "c", F(1)), ("c", "r", F(1)), *arms],
                 marked={"A_left": PointRef(vertex="l"), "A_right": PointRef(vertex="r")})
    dfile, cert_file = tmp_path / "y.json", tmp_path / "cert.json"
    dump_json(D.to_dict(), dfile)
    code = run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile), "--arc", "A",
        "--nmax", "64", "--out", str(cert_file),
    ])
    assert code == 0
    cert = load_json(cert_file)
    assert cert["certificate"]["all_bush_pieces_covered"] is True


def test_run_exactness_rejects_cyclic_dendrite(tmp_path, capsys):
    d = {"vertices": ["a", "b", "c"],
         "edges": [{"u": "a", "v": "b", "len": "1"}, {"u": "b", "v": "c", "len": "1"},
                   {"u": "c", "v": "a", "len": "1"}],
         "marked": {}}
    dfile = tmp_path / "cycle.json"
    dfile.write_text(json.dumps(d))
    code = run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile), "--arc", "A",
        "--out", str(tmp_path / "cert.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: edge graph contains a cycle\n"
    assert not (tmp_path / "cert.json").exists()


# ---------------------------------------------------------------- pattern export


@pytest.mark.parametrize("length,message", [
    ("1/0", "zero denominator in rational '1/0'"),
    (True, "refusing bool rational True"),
], ids=["zero_denominator", "bool"])
def test_run_exactness_rejects_bad_edge_length(tmp_path, capsys, length, message):
    d = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "len": length}],
         "marked": {}}
    dfile = tmp_path / "bad.json"
    dfile.write_text(json.dumps(d))
    code = run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile), "--arc", "A",
        "--out", str(tmp_path / "cert.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.parametrize("field,value,kind", [
    ("vertices", "ab", "array"),
    ("edges", {"u": "a", "v": "b", "len": "1"}, "array"),
    ("marked", [], "object"),
])
def test_run_exactness_rejects_mistyped_dendrite(tmp_path, capsys, field, value,
                                                 kind):
    d = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "len": "1"}],
         "marked": {}}
    d[field] = value
    dfile = tmp_path / "bad.json"
    dfile.write_text(json.dumps(d))
    code = run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile), "--arc", "A",
        "--out", str(tmp_path / "cert.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"dendrite field {field!r} must be a JSON {kind}" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "cert.json").exists()


def test_export_pattern_depth1(tmp_path):
    out = tmp_path / "x1.csv"
    assert run(["export-pattern", "--depth", "1", "-o", str(out)]) == 0
    with open(out) as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    assert rows["1"][1:] == ["2/5", "3/5", "0", "1"]
    assert rows["0"][1:] == ["0", "1/5", "0", "1/3"]


def test_export_pattern_depth0(tmp_path):
    out = tmp_path / "x0.csv"
    assert run(["export-pattern", "--depth", "0", "-o", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1:] == ["0", "1", "0", "1"]


def test_export_pattern_cap(tmp_path):
    assert run(["export-pattern", "--depth", "12", "-o", str(tmp_path / "x.csv")]) == 1


# ---------------------------------------------------------------- misc


def test_gallery_list(capsys):
    assert run(["gallery", "list"]) == 0
    out = capsys.readouterr().out
    assert "riemann" in out and "omega_star" in out


def test_missing_args_error(tmp_path):
    code = run([
        "run", "--scenario", "gch-verdict", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1


def test_map_roundtrip_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["build", "omega_star_gch", "--arms", "4", "-o", str(a)])
    run(["build", "omega_star_gch", "--arms", "4", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_default(tmp_path, monkeypatch):
    from dendro.cli import default_seed

    monkeypatch.setenv("DENDRO_SEED", "42")
    assert default_seed() == 42
    monkeypatch.delenv("DENDRO_SEED")
    assert default_seed() == 0


def test_exactness_map_out_roundtrip(tmp_path):
    from dendro.cli import load_map
    from dendro.metric_tree import full_subtree

    dfile = tmp_path / "comb3.json"
    run(["gen", "comb", "--depth", "3", "-o", str(dfile)])
    cert_file, map_file = tmp_path / "cert.json", tmp_path / "map.json"
    code = run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile),
        "--arc", "A", "--nmax", "16", "--out", str(cert_file),
        "--map-out", str(map_file),
    ])
    assert code == 0
    Fm = load_map(str(map_file))
    img = Fm.image(Fm.parts[0].region)
    assert img == full_subtree(Fm.domain)


@pytest.mark.parametrize("rho", ["0", "-1", "1/2", "1"])
def test_exactness_refuses_rho_at_most_one(tmp_path, capsys, rho):
    # the arc-form layout expands by rho: a rho <= 1 expands nothing
    dfile = tmp_path / "comb3.json"
    run(["gen", "comb", "--depth", "3", "-o", str(dfile)])
    capsys.readouterr()
    cert_file, map_file = tmp_path / "cert.json", tmp_path / "map.json"
    assert run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile), "--arc", "A",
        "--rho", rho, "--out", str(cert_file), "--map-out", str(map_file),
    ]) == 1
    assert capsys.readouterr().err == f"error: rho is {rho}, but must exceed 1\n"
    assert not cert_file.exists() and not map_file.exists()


@pytest.mark.parametrize("descriptor, message", [
    ({"family": "comb", "q": 0.5},
     "malformed dendrite: descriptor.q reads the float 0.5, which no file holds"),
    ({"family": "comb", "qs": ["1/2", 0.5]},
     "malformed dendrite: descriptor.qs[1] reads the float 0.5, which no file holds"),
    ("comb", "dendrite field 'descriptor' must be a JSON object"),
    (["comb"], "dendrite field 'descriptor' must be a JSON object"),
], ids=["float", "float_in_list", "string", "list"])
def test_exactness_refuses_a_descriptor_no_file_holds(tmp_path, capsys, descriptor,
                                                      message):
    # a descriptor is copied through as it is read, so it must already be
    # what a file may hold: an object free of floats
    dfile = tmp_path / "comb3.json"
    run(["gen", "comb", "--depth", "3", "-o", str(dfile)])
    d = load_json(dfile)
    d["descriptor"] = descriptor
    dfile.write_text(json.dumps(d))
    capsys.readouterr()
    cert_file, map_file = tmp_path / "cert.json", tmp_path / "map.json"
    assert run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile), "--arc", "A",
        "--out", str(cert_file), "--map-out", str(map_file),
    ]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not cert_file.exists() and not map_file.exists()


@pytest.mark.parametrize("edit, err", [
    # q outside (0, 1), with the deficit q^(K+1) that it implies
    ({"q": "5", "deficit": "3125"},
     "error: q = 5 does not give the space's measures: base 1-q and bush k "
     "(1-q) q^k with 0 < q < 1\n"),
    # a q in (0, 1) that is not the q the space's measures were scaled by
    ({"q": "1/3", "deficit": "1/243"},
     "error: q = 1/3 does not give the space's measures: base 1-q and bush k "
     "(1-q) q^k with 0 < q < 1\n"),
    ({"rho": "-1"}, "error: rho is -1, but must exceed 1\n"),
], ids=["q5", "q1/3", "rho-1"])
def test_glued_exact_load_refuses_a_false_q_or_rho(tmp_path, capsys, edit, err):
    dfile, map_file = tmp_path / "comb3.json", tmp_path / "map.json"
    run(["gen", "comb", "--depth", "3", "-o", str(dfile)])
    assert run([
        "run", "--scenario", "exactness", "--dendrite", str(dfile), "--arc", "A",
        "--out", str(tmp_path / "cert.json"), "--map-out", str(map_file),
    ]) == 0
    d = load_json(map_file)
    assert len(d["parts"]) == 4
    d["manifest"].update(edit)
    map_file.write_text(json.dumps(d))
    capsys.readouterr()
    report = tmp_path / "rep.json"
    assert run([
        "run", "--scenario", "gch-verdict", "--map", str(map_file),
        "--family", "free_arcs", "--N", "5", "--out", str(report),
    ]) == 1
    assert capsys.readouterr().err == err
    assert not report.exists()


# ---------------------------------------------------------------- golden bytes

GOLDEN_SHA256 = {
    "map": "2ae71fae7cfd099c6f9e1704a0a3618bb979c81d5fbc170de0ad4621541d82cf",
    "certificate": "4ffddb4d6862740821d5334d2d2f662b7b1f866242c35a4367517bc8a3ed3e62",
    "balls": "787bdf8992dad241b7612967c27e1ab2a1f57748330f95d9628d1d75cba5e2b5",
    "subdendrites": "6978ef563da328197cd7f4d8b9d4b370f95862e49bed28074fdd761464ee32fd",
    "free_arcs": "3799b080685617baff7c7b581d73ded80917d6af512111eecabefd1b0fcc933a",
}


# The README's free-arc verdict on the comb 8 map above at N=20, recorded
# before set distances were read off the bridge: the only verdict pinned on
# a glued space.  The arcs inside the fixed base never meet, so it exits 2.
COMB8_REPORT_SHA256 = "d0e8d27ea5aeae6ebdcb282efbd59fc2909802b6d9274d4e942cfcd58f47af4a"


def test_golden_output_bytes(tmp_path):
    # speedups must keep every emitted byte: the comb 8 exactness map and
    # certificate at seed 0 and the free-arc verdict on that map, and the
    # omega12 verdict reports at N=200, seed 7
    import hashlib

    out = {name: tmp_path / f"{name}.json" for name in GOLDEN_SHA256}
    comb8, omega12 = tmp_path / "comb8.json", tmp_path / "omega12.json"
    assert run(["gen", "comb", "--depth", "8", "-o", str(comb8)]) == 0
    assert run([
        "run", "--scenario", "exactness", "--dendrite", str(comb8), "--arc", "A",
        "--seed", "0", "--out", str(out["certificate"]),
        "--map-out", str(out["map"]),
    ]) == 0
    assert run(["build", "omega_star_gch", "--arms", "12", "-o", str(omega12)]) == 0
    for family in ("balls", "subdendrites", "free_arcs"):
        assert run([
            "run", "--scenario", "gch-verdict", "--map", str(omega12),
            "--family", family, "--N", "200", "--seed", "7",
            "--out", str(out[family]),
        ]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in out.items()}
    assert digests == GOLDEN_SHA256
    report = tmp_path / "comb8_report.json"
    assert run([
        "run", "--scenario", "gch-verdict", "--map", str(out["map"]),
        "--family", "free_arcs", "--N", "20", "--out", str(report),
    ]) == 2
    assert hashlib.sha256(report.read_bytes()).hexdigest() == COMB8_REPORT_SHA256


GLUED_SHA256 = {
    "comb_gch8_map": "1a0c633019640112b0bdf18bb1d1bbdbecf0e3d61bd7b5e1b07984e3c1759d77",
    "gehman3_point_map":
        "a11dd3aed31725399320c9f1617c5898dec99bde32bf4381338e847a42e675c5",
    "riemann4_map": "0bca39be34e4db8d4fa64ddf2dfb8c3fb66a310ac1cfc635bb76cba79601498c",
    "riemann4_certificate":
        "9b76fbf1c3f7ba938bfd3888879aaf96e80303b08dbdf8b862834dbb75422f37",
}


def test_glued_output_bytes():
    # the glued kinds the table above leaves out: the comb_gch 8 map
    # (glued_pieces), the gehman 3 build at its point g (glued_point), and
    # the riemann 4 arc build (glued_exact) with its certificate at n_max 64
    import hashlib

    from dendro.exact_builder import build_exact, verify_exact
    from dendro.gallery import FamilyDescriptor, build_counterexample, generate
    from dendro.metric_tree import PointRef
    from dendro.serialize import dumps_json

    comb_gch8 = build_counterexample("comb_gch", depth=8)[1]
    gehman3 = build_exact(generate(FamilyDescriptor("gehman", {"depth": 3})),
                          PointRef(vertex="g"))
    riemann4 = build_exact(generate(FamilyDescriptor("riemann", {"qmax": 4})), "A")
    assert [m.kind for m in (comb_gch8, gehman3, riemann4)] == [
        "glued_pieces", "glued_point", "glued_exact"]
    payloads = {
        "comb_gch8_map": comb_gch8.to_dict(),
        "gehman3_point_map": gehman3.to_dict(),
        "riemann4_map": riemann4.to_dict(),
        "riemann4_certificate": verify_exact(riemann4, 64).to_dict(),
    }
    digests = {name: hashlib.sha256(dumps_json(d).encode()).hexdigest()
               for name, d in payloads.items()}
    assert digests == GLUED_SHA256


ODOMETER_SHA256 = {
    "diam_ones": "e9e555ba4813f7e3e01d6618fc7e78839dba91c17466710a6786c35fd7b4932b",
    "diam_0202021": "eb3914d0b971c96cd823693994544b99c6d6c42d80a04fbe311a831a8c846d0b",
    "diam_2221": "ca939e1802315b41099c73cbf5c51d15c1eab73c5125ca1463d45db41a51053c",
    "pattern4": "8944e80b82835a6bdfde6b745611d1caa09184ae48b473f5b1f9b60d70b0cb81",
}


def test_odometer_output_bytes(tmp_path):
    # the odometer's emitted bytes: the README diam window from 1^inf, the
    # same 3^7 steps from a high start and from one whose first +1 carries,
    # and the depth 4 rectangle stages
    import hashlib

    out = {name: tmp_path / f"{name}.csv" for name in ODOMETER_SHA256}
    for name, alpha in (("diam_ones", "1^inf"), ("diam_0202021", "0202021^inf"),
                        ("diam_2221", "2221^inf")):
        assert run([
            "run", "--scenario", "odometer-diam", "--alpha", alpha,
            "--steps", "2187", "--out", str(out[name]),
        ]) == 0
    assert run(["export-pattern", "--depth", "4", "-o", str(out["pattern4"])]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in out.items()}
    assert digests == ODOMETER_SHA256
