import gc
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sodlab
from sodlab import linprog, report, reps, rootdata, sod
from sodlab.cli import main
from sodlab.linalg import vsub, zero_vec
from sodlab.linprog import LATTICE_BOX_CAP, InputError, enumerate_lattice
from sodlab.partition import window_box
from sodlab.reps import REP_DIM_CAP, SYM_TABLE_CAP, construct_rep
from sodlab.report import (build_objects, parse_config, parse_rational,
                           rational_str, render, run_job, weight_json)
from sodlab.rootdata import (GROUP_DEPTH_CAP, GROUP_RANK_CAP, build_group,
                             full_levi, is_dominant)
from sodlab.zonotope import REL_INT, member


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


PFAFFIAN_CFG = {
    "group": "Sp(2)",
    "representation": [{"kind": "vector_power", "h": 3}],
    "mode": "quasi_symmetric",
    "epsilon": ["0"],
    "r_max": "3",
    "box_radius": 5,
    "genericity_assertion": True,
}


GL2_CFG = {"group": "GL(2)",
           "representation": [{"kind": "vector_power", "h": 2},
                              {"kind": "dual_vector_power", "h": 2}]}


class TestRationals:
    def test_roundtrip(self):
        for s in ("3", "-2", "1/2", "-7/3"):
            assert rational_str(parse_rational(s)) == s

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            parse_rational(0.5)

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_rational("a/b")

    def test_decimals_but_no_exponents(self):
        assert parse_rational(" 1.5 ") == Fraction(3, 2)
        for s in ("1e3", "1E3", "2.5e-1", "1/2e1"):
            with pytest.raises(InputError, match="exponents are not accepted"):
                parse_rational(s)


def test_integral_rationals_render_as_their_ints(tmp_path):
    """Weight entries written "2/1" and "-4/2" give every report the bytes of
    one written with the ints 2 and -2."""
    def config(two, minus_two):
        return {"group": "Torus(2)", "representation": [
            {"kind": "weights", "weights": [
                {"weight": [two, minus_two]}, {"weight": [minus_two, two]},
                {"weight": [1, 1]}, {"weight": [-1, -1]}]}]}

    written = write_config(tmp_path, config("2/1", "-4/2"), "written.json")
    ints = write_config(tmp_path, config(2, -2), "ints.json")
    for sub in ("analyze", "partition", "sod", "nccr", "hilbert"):
        reports = []
        for cfg in (written, ints):
            out = tmp_path / f"{sub}.out"
            assert main([sub, "--config", cfg, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b'"-4/2"' not in reports[0] and b'"2/1"' not in reports[0]


class TestConfigValidation:
    def test_minimal_valid(self):
        cfg = parse_config(PFAFFIAN_CFG)
        assert cfg.group == "Sp(2)" and cfg.mode == "quasi_symmetric"

    def test_unknown_key(self):
        bad = dict(PFAFFIAN_CFG, surprise=1)
        with pytest.raises(InputError):
            parse_config(bad)

    def test_missing_rep(self):
        with pytest.raises(InputError):
            parse_config({"group": "Sp(2)"})

    def test_bad_mode(self):
        with pytest.raises(InputError):
            parse_config(dict(PFAFFIAN_CFG, mode="fast"))

    def test_bad_multiplicity(self):
        bad = dict(PFAFFIAN_CFG, representation=[
            {"kind": "weights", "weights": [{"weight": [1], "mult": 0}]}])
        with pytest.raises(InputError):
            parse_config(bad)


class TestRunJob:
    def test_nccr_document(self):
        cfg = parse_config(PFAFFIAN_CFG)
        doc = run_job("nccr", cfg)
        tail = [c for c in doc["nccr"] if c["component_index"] == 0]
        assert tail[0]["certificate"]["verdict"] == "TwistedNCCR"
        assert tail[0]["certificate"]["prazno_empty"] is True

    def test_hilbert_document(self):
        cfg = parse_config(dict(PFAFFIAN_CFG, degree_bound=6))
        doc = run_job("hilbert", cfg)
        blocks = doc["hilbert"]["blocks"]
        assert blocks == [{"source": [0], "target": [0],
                           "dims_by_degree": [1, 0, 3, 0, 6, 0, 10]}]

    def test_analyze_document(self):
        cfg = parse_config(PFAFFIAN_CFG)
        doc = run_job("analyze", cfg)
        a = doc["analysis"]
        assert a["quasi_symmetric"] and a["has_t_stable_point"]
        assert a["destabilizer"]["case"] == "HasStablePoint"

    def test_render_roundtrip_stable(self):
        cfg = parse_config(PFAFFIAN_CFG)
        doc = run_job("sod", cfg)
        blob = render(doc, "json")
        parsed = json.loads(blob)
        assert render(parsed, "json") == blob

    def test_text_render(self):
        cfg = parse_config(PFAFFIAN_CFG)
        text = render(run_job("sod", cfg), "text").decode()
        assert "components" in text and "algebra" in text


# what a report holds: strings (non-ASCII included), ints, booleans, None,
# and nested lists and str-keyed dicts, empty ones among them
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


class TestRenderJson:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(), DOCUMENTS, max_size=5))
    def test_bytes_match_json_dumps(self, doc):
        want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert render(doc, "json") == want.encode()

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"x": {2}},
                                       Fraction(1, 2)])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            render({"value": value}, "json")

    def test_render_leaves_no_garbage(self):
        doc = run_job("nccr", parse_config(PFAFFIAN_CFG))
        blob = render(doc, "json")  # warm any lazy module state first
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert render(doc, "json") == blob
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []


class TestCliProcess:
    def test_exit_zero_and_deterministic(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, PFAFFIAN_CFG)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["sod", "--config", cfgp, "--out", str(out1)]) == 0
        assert main(["sod", "--config", cfgp, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_equivalence(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["nccr", "--preset", "pfaffian:n=1,h=3",
                     "--out", str(out1)]) == 0
        assert main(["nccr", "--preset", "pfaffian:n=1,h=3",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        tail = [c for c in doc["nccr"] if c["component_index"] == 0][0]
        assert tail["certificate"]["verdict"] == "TwistedNCCR"

    def test_preset_job_builds_its_group_once(self, tmp_path, monkeypatch):
        """The preset's parse and the job itself share one datum."""
        built = []
        build_gl = rootdata._build_gl

        def counted(n):
            built.append(n)
            return build_gl(n)

        monkeypatch.setattr(rootdata, "_build_gl", counted)
        rootdata.build_group.cache_clear()
        try:
            assert main(["hilbert", "--preset", "determinantal:n=2,h=3",
                         "--out", str(tmp_path / "report.json")]) == 0
        finally:
            rootdata.build_group.cache_clear()
        assert built == [2]

    def test_rank_four_pfaffian_preset_is_a_twisted_nccr(self, tmp_path):
        """The odd Pfaffian at n = 4, h = 9 at the preset's box radius 6,
        whose 13^4-point box is over the lattice cap as a whole: all 7
        nccr certificates read TwistedNCCR with an empty prazno set."""
        out = tmp_path / "nccr.json"
        assert main(["nccr", "--preset", "pfaffian:n=4,h=9",
                     "--out", str(out)]) == 0
        certs = [c["certificate"] for c in json.loads(out.read_text())["nccr"]]
        assert len(certs) == 7
        assert all(c["verdict"] == "TwistedNCCR" and c["prazno_empty"] is True
                   for c in certs)

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sod", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err

    @pytest.mark.parametrize("key", ["box_radius", "degree_bound"])
    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys,
                                                    key):
        # json.loads refuses an integer of more than 4,300 digits with a
        # ValueError that is not a JSONDecodeError
        path = tmp_path / "big.json"
        path.write_text(json.dumps(GL2_CFG)[:-1] + f', "{key}": '
                        + "9" * 5001 + "}")
        assert main(["partition", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "sodlab: configuration error")

    @pytest.mark.parametrize("key", ["representation", "nu"])
    def test_nesting_past_the_recursion_limit_exits_two(self, tmp_path,
                                                        capsys, key):
        # json.loads raises RecursionError on arrays 100,000 deep
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"group": "GL(2)", ' + f'"{key}": '
                        + "[" * depth + "]" * depth + "}")
        assert main(["sod", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "sodlab: configuration error")

    @pytest.mark.parametrize("key, value", [
        ("r_max", "1e5000"),
        ("r_max", "1e-5000"),
        ("nu", ["1e5000", "0"]),
        ("epsilon", ["0", "1E-5000"]),
        ("twist", {"sublattice_basis": [["1e5000", "0"], ["0", "2"]],
                   "coset_offset": ["0", "0"]}),
        ("twist", {"sublattice_basis": [["2", "0"], ["0", "2"]],
                   "coset_offset": ["1e-5000", "0"]}),
    ])
    def test_exponent_notation_exits_two(self, tmp_path, capsys, key, value):
        # Fraction accepts "1e5000", and the report could not echo it
        cfg = dict(GL2_CFG, box_radius=1, **{key: value})
        assert main(["sod", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sodlab: configuration error")
        assert "exponents are not accepted" in err

    def test_huge_exponent_exits_two_fast(self, tmp_path, capsys):
        # refused before Fraction would build 10**1000000
        cfg = dict(GL2_CFG, box_radius=1, r_max="1e1000000")
        start = time.perf_counter()
        assert main(["sod", "--config", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 0.1
        assert "exponents are not accepted" in capsys.readouterr().err

    def test_unknown_preset_exits_two(self):
        assert main(["sod", "--preset", "octonion:n=1"]) == 2

    @pytest.mark.parametrize("spec", ["sl2:a", "toric:1.5", "pfaffian:n=x,h=3"])
    def test_non_integer_preset_exits_two(self, spec, capsys):
        assert main(["nccr", "--preset", spec]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, key", [("pfaffian:n=1,h=3,n=2", "n"),
                                           ("determinantal:h=3,n=1,h=3", "h")])
    def test_repeated_preset_parameter_exits_two(self, spec, key, capsys):
        assert main(["analyze", "--preset", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"preset parameter '{key}' is given twice" in err

    @pytest.mark.parametrize("key, value", [
        ("nu", ["1"]),
        ("epsilon", ["1", "2", "3"]),
        ("twist", {"sublattice_basis": [["2"]], "coset_offset": ["1"]}),
        ("twist", {"sublattice_basis": [["2", "0", "0"], ["0", "2", "0"],
                                        ["0", "0", "2"]],
                   "coset_offset": ["1", "0", "0"]}),
    ])
    def test_vector_of_wrong_rank_exits_two(self, tmp_path, capsys, key, value):
        cfg = {"group": "GL(2)",
               "representation": [{"kind": "vector_power", "h": 2},
                                  {"kind": "dual_vector_power", "h": 2}],
               "box_radius": 1, key: value}
        assert main(["sod", "--config", write_config(tmp_path, cfg)]) == 2
        assert "rank" in capsys.readouterr().err

    def test_wrong_rank_names_the_catalog_label(self, tmp_path, capsys):
        # the message names the group as built, not the tag as written
        cfg = {"group": " gl(2) ",
               "representation": [{"kind": "vector_power", "h": 2},
                                  {"kind": "dual_vector_power", "h": 2}],
               "box_radius": 1, "nu": ["1"]}
        assert main(["sod", "--config", write_config(tmp_path, cfg)]) == 2
        assert "nu has 1 entries, but GL(2) has rank 2" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("box_radius", True),
        ("degree_bound", False),
        ("representation", [{"kind": "vector_power", "h": True}]),
        ("representation", [{"kind": "sym_power", "d": True}]),
        ("representation", [{"kind": "trivial", "copies": True}]),
        ("representation", [{"kind": "weights", "weights": [
            {"weight": [1, 0], "mult": True}, {"weight": [-1, 0]}]}]),
    ])
    def test_boolean_for_integer_exits_two(self, tmp_path, capsys, key, value):
        cfg = {"group": "GL(2)",
               "representation": [{"kind": "vector_power", "h": 2},
                                  {"kind": "dual_vector_power", "h": 2}],
               "box_radius": 1, key: value}
        assert main(["partition", "--config", write_config(tmp_path, cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("group, key, value", [
        ("GL(2)", "nu", "00"),
        ("GL(2)", "nu", 5),
        ("GL(2)", "epsilon", "11"),
        ("GL(2)", "representation", [{"kind": "weights", "weights": [
            {"weight": 5}, {"weight": [-1, 0]}]}]),
        ("GL(2)", "twist", {"sublattice_basis": ["20", "02"],
                            "coset_offset": ["0", "0"]}),
        ("GL(2)", "twist", {"sublattice_basis": [2, 2],
                            "coset_offset": ["0", "0"]}),
        ("SL(3)", "representation", [{"kind": "weights", "weights": [
            {"weight": [1, 0]}, {"weight": [-1, 0]}]}]),
    ])
    def test_malformed_vector_exits_two(self, tmp_path, capsys, group, key,
                                        value):
        cfg = {"group": group,
               "representation": [{"kind": "vector_power", "h": 2}]
               if group == "SL(3)" else
               [{"kind": "vector_power", "h": 2},
                {"kind": "dual_vector_power", "h": 2}],
               "box_radius": 1, key: value}
        assert main(["sod", "--config", write_config(tmp_path, cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["analyze", "partition", "sod",
                                            "nccr", "hilbert"])
    def test_weights_that_are_not_weyl_symmetric_exit_two(
            self, tmp_path, capsys, subcommand):
        cfg = {"group": "GL(2)", "representation": [
            {"kind": "weights", "weights": [
                {"weight": [-2, 0]}, {"weight": [1, -1]},
                {"weight": [2, 2], "mult": 2}]}], "box_radius": 1}
        assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 2
        assert "not Weyl-symmetric" in capsys.readouterr().err

    def test_long_epsilon_on_rank_one_exits_two(self, tmp_path, capsys):
        cfg = {"group": "Torus(1)", "representation": [{"kind": "weights", "weights": [
            {"weight": [1], "mult": 1}, {"weight": [-1], "mult": 1}]}],
            "epsilon": ["1", "2"], "box_radius": 1}
        assert main(["sod", "--config", write_config(tmp_path, cfg)]) == 2
        assert "rank" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["sod", "nccr"])
    def test_window_box_past_the_cap_exits_two_fast(self, tmp_path, capsys,
                                                    subcommand):
        # weights +-n with n even: the half-size tail window box is
        # [-n/2, n/2], which holds n + 1 = LATTICE_BOX_CAP + 1 points
        n = LATTICE_BOX_CAP
        assert n % 2 == 0
        cfg = {"group": "Torus(1)", "representation": [{"kind": "weights", "weights": [
            {"weight": [n]}, {"weight": [-n]}]}],
            "mode": "quasi_symmetric", "epsilon": ["0"]}
        cfgp = write_config(tmp_path, cfg)
        start = time.perf_counter()
        assert main([subcommand, "--config", cfgp]) == 2
        assert time.perf_counter() - start < 1
        assert f"holds {n + 1} points" in capsys.readouterr().err

    def test_window_box_over_the_cap_walks_step_by_step(self, tmp_path,
                                                        monkeypatch):
        """Sp(6) V^15 at box radius 0: the box of the tail window (the unit
        relative interior of the zonotope of all the weights) holds 31^3 =
        29,791 points, over the cap as a whole, but the dominance rows
        leave at most 14,415 points to one step of the walk.  The window is
        the full-box scan with the dominance test in the predicate, run
        with the cap raised for that reference alone."""
        cfg = {"group": "Sp(6)", "box_radius": 0, "representation": [
            {"kind": "vector_power", "h": 15}]}
        out = tmp_path / "nccr.json"
        assert main(["nccr", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        [tail] = json.loads(out.read_text())["sod"]["components"]
        datum, rep, _ = build_objects(parse_config(cfg))
        lv = full_levi(datum)
        shift = vsub(zero_vec(datum.rank), lv.rho_bar_lambda)
        inside = member(rep.expanded, 1, shift, REL_INT,
                        datum.central_directions)
        box = window_box(datum, rep.expanded, 1, shift)
        monkeypatch.setattr(linprog, "LATTICE_BOX_CAP", 31 ** 3)
        want = enumerate_lattice(
            lambda p: is_dominant(datum, p, lv) and inside(p), box)
        assert tail["window"] == [weight_json(p) for p in want]
        assert len(want) == 364

    def test_partition_box_past_the_cap_exits_two_fast(self, tmp_path,
                                                       capsys):
        # 601^2 = 361,201 dominant-box points, each a face-signature problem
        cfg = {"group": "Torus(2)", "representation": [{"kind": "weights", "weights": [
            {"weight": [1, 0]}, {"weight": [-1, 0]},
            {"weight": [0, 1]}, {"weight": [0, -1]}]}], "box_radius": 300}
        cfgp = write_config(tmp_path, cfg)
        start = time.perf_counter()
        assert main(["partition", "--config", cfgp]) == 2
        assert time.perf_counter() - start < 1
        assert "holds 361201 points" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, cfg, count", [
        ("partition", dict(GL2_CFG, box_radius=10 ** 20), 2 * 10 ** 20 + 1),
        ("sod", {"group": "Torus(1)", "representation": [
            {"kind": "weights", "weights": [{"weight": [10 ** 20]},
                                            {"weight": [-10 ** 20]}]}],
                 "mode": "quasi_symmetric", "epsilon": ["0"]}, 10 ** 20 + 1),
    ])
    def test_box_past_the_index_range_exits_two(self, tmp_path, capsys,
                                                subcommand, cfg, count):
        # len() of a range past sys.maxsize raises OverflowError, so the
        # partition and window boxes are counted without it
        assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 2
        assert f"holds {count} points" in capsys.readouterr().err

    def test_destabilizer_search_past_the_cap_exits_two_fast(self, tmp_path,
                                                             capsys):
        # no torus-stable point, and the only destabilizing direction is
        # -(65, 1, 0), past the sup-norm the integral search scans
        cfg = {"group": "Torus(3)", "representation": [{"kind": "weights", "weights": [
            {"weight": [1, -65, 0]}, {"weight": [-1, 65, 0]},
            {"weight": [0, 1, 0]}, {"weight": [0, 0, 1]},
            {"weight": [0, 0, -1]}]}]}
        cfgp = write_config(tmp_path, cfg)
        start = time.perf_counter()
        assert main(["analyze", "--config", cfgp]) == 2
        assert time.perf_counter() - start < 1
        assert "candidates, above the cap" in capsys.readouterr().err

    def test_huge_degree_bound_exits_two_fast(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, dict(PFAFFIAN_CFG, degree_bound=10 ** 9))
        start = time.perf_counter()
        assert main(["hilbert", "--config", cfgp]) == 2
        assert time.perf_counter() - start < 1
        assert "table entries, above the cap" in capsys.readouterr().err

    def test_sym_power_piece_past_the_cap_exits_two(self, tmp_path, capsys):
        # the program to degree d on the 2 weights of GL(2) writes d + 1
        # tables, d + 1 updates for the first weight and (d + 1)(d + 2) / 2
        # for the second
        def work(d):
            return 2 * (d + 1) + (d + 1) * (d + 2) // 2
        d = 629
        assert work(d - 1) <= SYM_TABLE_CAP < work(d)
        assert construct_rep(build_group("GL(2)"),
                             [("sym_power", d - 1)]).dim == d
        cfg = {"group": "GL(2)",
               "representation": [{"kind": "sym_power", "d": d}]}
        start = time.perf_counter()
        assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "table entries" in err

    @pytest.mark.parametrize("group", [
        f"GL({GROUP_RANK_CAP + 1})", f"SL({GROUP_RANK_CAP + 1})",
        f"Sp({2 * GROUP_RANK_CAP + 2})", f"Torus({GROUP_RANK_CAP + 1})",
        "Product(" + "GL(4)," * (GROUP_RANK_CAP // 4) + "Torus(1))",
        "GL(" + "9" * 5000 + ")",
    ], ids=["GL", "SL", "Sp", "Torus", "Product", "5000 digits"])
    def test_group_past_the_rank_cap_exits_two_fast(self, tmp_path, capsys,
                                                    group):
        # refused before any vector is built; int() would refuse the
        # 5,000-digit parameter with a ValueError
        cfg = {"group": group,
               "representation": [{"kind": "trivial", "copies": 1}]}
        start = time.perf_counter()
        assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("sodlab: configuration error") == 1
        assert f"cap of {GROUP_RANK_CAP}" in err

    @pytest.mark.parametrize("depth", [2000, 100_000])
    def test_deeply_nested_group_tag_exits_two_fast(self, tmp_path, capsys,
                                                    depth):
        # refused before any recursion: one recursive build per level
        # would overflow the stack at 500 levels
        cfg = {"group": "Product(" * depth + "GL(1)" + ")" * depth,
               "representation": [{"kind": "trivial", "copies": 1}]}
        start = time.perf_counter()
        assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("sodlab: configuration error") == 1
        assert f"past the cap of {GROUP_DEPTH_CAP}" in err

    @pytest.mark.parametrize("group", [
        "GL(" + "(" * 100_000 + "1",
        "Product(GL(1)," + "X" * 100_000 + ")",
    ], ids=["unknown tag", "unknown factor"])
    def test_long_group_tag_gives_a_short_error_line(self, tmp_path, capsys,
                                                     group):
        # the message quotes a prefix of the tag and its length, not the
        # whole tag
        cfg = {"group": group,
               "representation": [{"kind": "trivial", "copies": 1}]}
        assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("sodlab: configuration error: unknown group tag")
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("key, value", [
        ("nu", ["9" * 5000, "0"]),
        ("r_max", "1/" + "9" * 5000),
        ("epsilon", ["0", "x" * 100_000]),
        ("r_max", "1" + "0" * 5000 + "/0"),
    ], ids=["nu digits", "r_max digits", "garbage", "zero denominator"])
    def test_long_rational_gives_a_short_error_line(self, tmp_path, capsys,
                                                    key, value):
        # the message quotes a prefix of the entry and its length
        cfg = dict(GL2_CFG, **{key: value})
        assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("sodlab: configuration error: bad rational")
        assert "characters)" in err
        assert len(err.encode()) < 300

    def test_fractional_weight_is_quoted_as_its_entries(self, tmp_path,
                                                        capsys):
        cfg = {"group": "GL(1)", "representation": [
            {"kind": "weights",
             "weights": [{"weight": ["1/2"]}, {"weight": ["-1/2"]}]}]}
        assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "sodlab: configuration error: weight ['-1/2'] is not a lattice "
            "element\n")

    @pytest.mark.parametrize("subcommand", ["sod", "nccr", "hilbert"])
    def test_epsilon_that_is_not_weyl_invariant_exits_two(
            self, tmp_path, capsys, subcommand):
        cfg = dict(GL2_CFG, representation=[
            {"kind": "vector_power", "h": 3},
            {"kind": "dual_vector_power", "h": 3}],
            mode="quasi_symmetric", epsilon=["1", "0"], box_radius=1)
        assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 2
        assert "epsilon is not Weyl-invariant" in capsys.readouterr().err
        cfg["epsilon"] = ["1", "1"]
        assert main([subcommand, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out.json")]) == 0

    def test_short_twist_row_exits_two(self, tmp_path, capsys):
        cfg = dict(GL2_CFG, twist={"sublattice_basis": [[1], [0, 1]],
                                   "coset_offset": [0, 0]})
        assert main(["sod", "--config", write_config(tmp_path, cfg)]) == 2
        assert "sublattice basis row has length 1, not 2" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, args, dim", [
        ("partition", ["--config", {"group": "GL(1)", "representation": [
            {"kind": "weights", "weights": [
                {"weight": [1], "mult": REP_DIM_CAP // 2 + 1},
                {"weight": [-1], "mult": REP_DIM_CAP // 2}]}]}],
         REP_DIM_CAP + 1),
        ("nccr", ["--config", dict(GL2_CFG, representation=[
            {"kind": "vector_power", "h": 10 ** 21},
            {"kind": "dual_vector_power", "h": 10 ** 21}])], 4 * 10 ** 21),
        ("analyze", ["--preset", "pfaffian:n=1,h=1000000000000000000000"],
         2 * 10 ** 21),
    ], ids=["mult", "h", "pfaffian h"])
    def test_representation_past_the_dimension_cap_exits_two_fast(
            self, tmp_path, capsys, subcommand, args, dim):
        # refused before the weight list is expanded: [w] * 10**21 would
        # raise OverflowError
        if isinstance(args[1], dict):
            args = [args[0], write_config(tmp_path, args[1])]
        start = time.perf_counter()
        assert main([subcommand, *args]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("sodlab: configuration error") == 1
        assert f"dimension {dim} is above the cap of {REP_DIM_CAP}" in err

    def test_pfaffian_preset_past_the_rank_cap_exits_two_fast(self, capsys):
        start = time.perf_counter()
        assert main(["hilbert", "--preset", "pfaffian:n=10000000000000000000"
                     "00,h=10000000000000000000000"]) == 2
        assert time.perf_counter() - start < 1
        assert f"past the rank cap of {GROUP_RANK_CAP}" in \
            capsys.readouterr().err

    def test_precondition_exits_three_with_report(self, tmp_path, capsys):
        cfg = {
            "group": "Torus(1)",
            "representation": [{"kind": "weights", "weights": [
                {"weight": [1], "mult": 1}, {"weight": [2], "mult": 1}]}],
        }
        cfgp = write_config(tmp_path, cfg)
        out = tmp_path / "err.json"
        assert main(["sod", "--config", cfgp, "--out", str(out)]) == 3
        doc = json.loads(out.read_text())
        assert "torus-stable" in doc["error"]["message"]
        assert doc["error"]["destabilizer"]["sigma"] == [-1]

    def test_job_leaves_no_parser_or_shell_cycles(self, tmp_path):
        """A partition job (its cells search integral subgroups through
        ``integral_shell``) leaves no argparse object and no shell closure
        for the cycle collector."""
        args = ["partition", "--preset", "pfaffian:n=1,h=3",
                "--out", str(tmp_path / "report.json")]
        assert main(args) == 0  # the first call builds the process's parser
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(args) == 0
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not [o for o in garbage if type(o).__module__ == "argparse"]
        assert not [o for o in garbage
                    if "shell" in getattr(o, "__qualname__", "")]

    def test_config_and_preset_conflict(self, tmp_path):
        cfgp = write_config(tmp_path, PFAFFIAN_CFG)
        assert main(["sod", "--config", cfgp, "--preset", "toric"]) == 2

    @pytest.mark.parametrize("where", ["missing dir", "directory"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "r.json" if where == "missing dir" \
            else tmp_path
        assert main(["analyze", "--preset", "toric", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("sodlab: configuration error: cannot write "
                              "report: ")

    def test_stdout_output(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, PFAFFIAN_CFG)
        assert main(["analyze", "--config", cfgp]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["analysis"]["has_t_stable_point"] is True


def test_preset_job_builds_its_representation_once(tmp_path, monkeypatch):
    """A --preset job builds its representation once, in ``sod.preset``:
    ``run_job`` takes the preset's instead of building it again from the
    config, and the report is the config job's, byte for byte."""
    calls = []
    original = reps.construct_rep

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in (reps, report, sod):
        monkeypatch.setattr(mod, "construct_rep", counting)
    out = tmp_path / "preset.json"
    assert main(["hilbert", "--preset", "determinantal:n=2,h=3",
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    cfg = json.loads(out.read_bytes())["input"]
    again = tmp_path / "config.json"
    assert main(["hilbert", "--config", write_config(tmp_path, cfg),
                 "--out", str(again)]) == 0
    assert len(calls) == 2 and again.read_bytes() == out.read_bytes()


def _project_version(pyproject: Path) -> str:
    """The version key of the [project] table (tomllib needs Python 3.11)."""
    table = None
    for line in pyproject.read_text().splitlines():
        header = re.fullmatch(r"\s*\[([^\]]+)\]\s*", line)
        if header:
            table = header.group(1).strip()
        elif table == "project":
            m = re.fullmatch(r'\s*version\s*=\s*"([^"]*)"\s*', line)
            if m:
                return m.group(1)
    raise AssertionError("no version in the [project] table")


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert _project_version(pyproject) == sodlab.__version__
    doc = run_job("analyze", parse_config(PFAFFIAN_CFG))
    assert doc["tool"]["version"] == sodlab.__version__


@pytest.mark.parametrize("group, invariants", [
    ("GL(7)", [["1"] * 7]),
    ("Sp(10)", []),
])
def test_analyze_high_rank_is_fast(tmp_path, group, invariants):
    # |W| is 5,040 for GL(7) and 3,840 for Sp(10); the fixed space comes
    # from the simple reflections, so no group element is enumerated.
    cfgp = write_config(tmp_path, {
        "group": group,
        "representation": [{"kind": "vector_power", "h": 1},
                           {"kind": "dual_vector_power", "h": 1}]})
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(["analyze", "--config", cfgp, "--out", str(out)]) == 0
    assert time.perf_counter() - start < 5
    analysis = json.loads(out.read_text())["analysis"]
    assert analysis["invariant_subspace"] == invariants
