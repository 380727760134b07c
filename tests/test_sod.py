import json
import random
import sys
from fractions import Fraction as F

import pytest

from oracles import random_generators, zonotope_vertices_reference
from sodlab import partition, report, reps, rootdata, sod, zonotope
from sodlab.cli import main
from sodlab.linalg import vadd, vec, vscale, vsub
from sodlab.linprog import InputError, enumerate_lattice
from sodlab.partition import PreconditionError, make_profile, window_box
from sodlab.report import build_objects, preset_config, run_job
from sodlab.reps import rep_spec
from sodlab.rootdata import build_group, is_dominant, levi
from sodlab.sod import (certify_nccr, enumerate_sod, preset,
                        refine_lambda_combination)
from sodlab.zonotope import CLOSED, ZonotopeQuery, member

T1 = build_group("Torus(1)")


class TestEnumerateSod:
    def test_torus_component_layout(self):
        p = preset("toric")
        prof = make_profile(p.datum)
        res = enumerate_sod(p.rep, prof, r_max=F(2), box_radius=4)
        radii = [c.signature.r for c in res.components if not c.is_d0]
        assert radii == [F(2), F(2), F(3, 2), F(3, 2), F(1), F(1)]
        keys = [c.index for c in res.components]
        assert keys == [-6, -5, -4, -3, -2, -1, 0]
        tail = res.components[-1]
        assert tail.is_d0 and tail.window == (vec([-1]), vec([0]), vec([1]))
        assert [str(c.signature.r) for c in res.absorbed] == ["0", "1/2", "1/2"]

    def test_descending_order_and_single_tail(self):
        p = preset("pfaffian", n=1, h=3)
        prof = make_profile(p.datum, threshold="half_open")
        res = enumerate_sod(p.rep, prof, box_radius=5)
        keys = [c.signature.r for c in res.components if not c.is_d0]
        assert keys == sorted(keys, reverse=True)
        assert sum(c.is_d0 for c in res.components) == 1
        assert res.components[-1].is_d0

    def test_pfaffian_tail_window(self):
        p = preset("pfaffian", n=1, h=3)
        prof = make_profile(p.datum, threshold="half_open")
        res = enumerate_sod(p.rep, prof, box_radius=5)
        tail = res.components[-1]
        assert tail.window == (vec([0]),)
        assert tail.u_summands == ((vec([0]), 1),)
        assert tail.window_kind == ("half_size_eps", vec([0]))

    def test_empty_rep_single_trivial_component(self):
        t0 = build_group("Torus(0)")
        rep = rep_spec(t0, [])
        res = enumerate_sod(rep, make_profile(t0), box_radius=0)
        assert len(res.components) == 1
        assert res.components[0].is_d0
        assert res.components[0].window == ((),)

    def test_no_stable_point_raises_with_report(self):
        rep = rep_spec(T1, [((1,), 1), ((2,), 1)])
        with pytest.raises(PreconditionError) as exc:
            enumerate_sod(rep, make_profile(T1), box_radius=3)
        assert exc.value.report is not None

    def test_half_open_requires_quasi_symmetric(self):
        rep = rep_spec(T1, [((1,), 2), ((-1,), 1), ((-2, ), 1)])
        # stable but not quasi-symmetric
        with pytest.raises(PreconditionError):
            enumerate_sod(rep, make_profile(T1, threshold="half_open"),
                          box_radius=3)

    def test_r_max_truncation_recorded(self):
        p = preset("toric")
        res = enumerate_sod(p.rep, make_profile(p.datum), r_max=F(1),
                            box_radius=4)
        beyond = sorted(c.signature.r for c in res.frontier)
        assert beyond == [F(3, 2), F(3, 2), F(2), F(2)]

    def test_nu_levi_invariance(self):
        p = preset("pfaffian", n=2, h=5)
        prof = make_profile(p.datum, threshold="half_open")
        res = enumerate_sod(p.rep, prof, box_radius=3)
        for c in res.components:
            lv = levi(p.datum, c.lam)
            assert lv.is_invariant(c.nu)


class TestCertify:
    def test_pfaffian_odd(self):
        p = preset("pfaffian", n=1, h=3)
        cert = certify_nccr(p.rep, vec([0]), vec([0]), vec([0]),
                            genericity_assertion=True)
        assert cert.quasi_symmetric and cert.eps_status == "WeaklyGeneric"
        assert cert.window == (vec([0]),)
        assert cert.prazno_empty and cert.verdict == "TwistedNCCR"

    def test_pfaffian_even(self):
        p = preset("pfaffian", n=1, h=4)
        cert = certify_nccr(p.rep, vec([0]), vec([0]), vec([0]),
                            genericity_assertion=True)
        assert not cert.prazno_empty
        assert cert.prazno_points == (vec([1]),)
        assert cert.verdict == "FiniteGlobalDimOnly"

    def test_determinantal_window_equality(self):
        p = preset("determinantal", n=1, h=2)
        cert = certify_nccr(p.rep, vec([0]), vec([0]), p.recommended_eps)
        assert cert.eps_status in ("Generic", "WeaklyGeneric")
        assert cert.genericity == "CheckedToricRule"
        assert cert.prazno_empty and cert.verdict == "TwistedNCCR"

    def test_eps_scaling_invariance(self):
        p = preset("determinantal", n=2, h=3)
        base = certify_nccr(p.rep, vec([0, 0]), vec([0, 0]),
                            p.recommended_eps, genericity_assertion=True)
        scaled = certify_nccr(p.rep, vec([0, 0]), vec([0, 0]),
                              vscale(F(5, 3), p.recommended_eps),
                              genericity_assertion=True)
        assert (base.eps_status, base.window_nonempty, base.window,
                base.prazno_empty, base.verdict) == \
            (scaled.eps_status, scaled.window_nonempty, scaled.window,
             scaled.prazno_empty, scaled.verdict)

    def test_invariance_precondition(self):
        p = preset("determinantal", n=2, h=3)
        with pytest.raises(InputError):
            certify_nccr(p.rep, vec([0, 0]), vec([1, 0]), p.recommended_eps)
        with pytest.raises(InputError):
            certify_nccr(p.rep, vec([0, 0]), vec([0, 0]), vec([1, 0]))

    def test_nonzero_lambda_component(self):
        p = preset("pfaffian", n=1, h=3)
        cert = certify_nccr(p.rep, vec([-1]), vec([2]), vec([0]))
        assert cert.window == (vec([2]),)
        assert cert.prazno_empty
        assert cert.genericity == "CheckedToricRule"  # empty neutral rep
        assert cert.verdict == "TwistedNCCR"

    def test_twist_filter(self):
        from sodlab.reps import TwistData

        p = preset("pfaffian", n=1, h=4)
        odd = TwistData(((F(2),),), (F(1),))
        cert = certify_nccr(p.rep, vec([0]), vec([0]), vec([0]), twist=odd,
                            genericity_assertion=True)
        # the boundary point 1 is odd, so it survives the coset filter
        assert cert.prazno_points == (vec([1]),)
        even = TwistData(((F(2),),), (F(0),))
        cert = certify_nccr(p.rep, vec([0]), vec([0]), vec([0]), twist=even,
                            genericity_assertion=True)
        assert cert.prazno_empty

    def test_minkowski_mode_flag(self):
        p = preset("pfaffian", n=1, h=3)
        cert = certify_nccr(p.rep, vec([0]), vec([0]), vec([0]),
                            genericity_assertion=True,
                            prazno_mode="minkowski")
        assert cert.prazno_mode == "minkowski"
        assert cert.prazno_empty  # nu - rho is half-integral here

    @pytest.mark.parametrize("spec", ["sl2:1", "sl2:3"])
    def test_window_without_neutral_weights_is_the_sod_window(self, spec,
                                                              tmp_path):
        # with no lam-neutral weight both windows are the shift point modulo
        # the SL directions, whose raw coordinates need not be integral
        out = tmp_path / "report.json"
        assert main(["nccr", "--preset", spec, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        certs = {c["component_index"]: c["certificate"] for c in doc["nccr"]}
        bare = [c for c in doc["sod"]["components"]
                if not c["coinvariant_weights"]]
        assert bare
        for comp in bare:
            assert certs[comp["index"]]["window"] == comp["window"] != []


def _logging(log, fn):
    """fn, appending the name of each caller's function to log."""
    def wrapper(*args, **kwargs):
        log.append(sys._getframe(1).f_code.co_name)
        return fn(*args, **kwargs)
    return wrapper


class TestLambdaDataOnce:
    def test_nccr_job_builds_levi_and_flats_once(self, monkeypatch):
        """One nccr job enumerates the proper flats once per facet table
        built, and neither the windows, the components nor the report
        rebuild a component's Levi: each component carries the one its cell
        was built with."""
        cfg = preset_config(preset("determinantal", n=2, h=3))
        monkeypatch.setattr(zonotope, "_FACET_TABLES", {})
        builds, flats, levi_callers = [], [], []
        monkeypatch.setattr(zonotope, "_build_facet_table",
                            _logging(builds, zonotope._build_facet_table))
        monkeypatch.setattr(zonotope, "_proper_flats",
                            _logging(flats, zonotope._proper_flats))
        original = rootdata.levi
        for mod in (rootdata, partition, sod, report):
            if hasattr(mod, "levi"):
                monkeypatch.setattr(mod, "levi",
                                    _logging(levi_callers, original))
        doc = run_job("nccr", cfg)
        assert doc["nccr"] and builds
        assert len(flats) == len(builds)
        assert "build_cell" in levi_callers
        assert not {"cell_members", "_component", "run_job"} & set(levi_callers)

        datum, rep, profile = build_objects(cfg)
        result = enumerate_sod(rep, profile, r_max=cfg.r_max,
                               box_radius=cfg.box_radius, epsilon=cfg.epsilon)
        assert len(result.components) > 1
        for comp in result.components:
            assert comp.levi == original(datum, comp.lam)


class TestStabilityLpOnce:
    @pytest.mark.parametrize("subcommand", ["analyze", "partition"])
    def test_job_solves_the_stability_lp_once(self, subcommand, monkeypatch):
        """toric:1,1 has no torus-stable point: analyze reports its
        destabilizer, and partition refuses the job with it.  Either way
        the stability LP is solved once per job."""
        cfg = preset_config(preset("toric", weights=[((1,), 1), ((1,), 1)]))
        calls = []
        monkeypatch.setattr(reps, "_destabilizer_lp_feasible",
                            _logging(calls, reps._destabilizer_lp_feasible))
        if subcommand == "analyze":
            doc = run_job(subcommand, cfg)
            assert doc["analysis"]["has_t_stable_point"] is False
        else:
            with pytest.raises(PreconditionError):
                run_job(subcommand, cfg)
        assert len(calls) == 1


class TestPresets:
    def test_pfaffian_weights(self):
        p = preset("pfaffian", n=2, h=5)
        assert p.datum.rho_bar == vec([2, 1])
        assert dict(p.rep.weights) == {
            vec([1, 0]): 5, vec([-1, 0]): 5, vec([0, 1]): 5, vec([0, -1]): 5}

    def test_pfaffian_parameter_check(self):
        with pytest.raises(InputError):
            preset("pfaffian", n=2, h=4)

    def test_determinantal_parameter_check(self):
        with pytest.raises(InputError):
            preset("determinantal", n=3, h=3)

    def test_sl2_part_sums(self):
        assert preset("sl2", degrees=[3]).expected["s"] == 4
        assert preset("sl2", degrees=[1]).expected["s"] == 1
        assert preset("sl2", degrees=[4]).expected["s"] == 6
        assert preset("sl2", degrees=[1, 2]).expected["s"] == 3

    def test_sl2_case_a_list(self):
        for degrees in ([1], [2], [1, 1], [1, 2], [2, 2], [3], [4],
                        [0, 1, 2], [0, 0, 3]):
            assert preset("sl2", degrees=degrees).expected["case"] == "A"

    def test_sl2_case_b(self):
        assert preset("sl2", degrees=[1, 1, 1]).expected["case"] == "B"
        assert preset("sl2", degrees=[2, 2, 1]).expected["case"] == "B"

    def test_sl2_counts_trivial_summands(self):
        assert preset("sl2", degrees=[0, 0, 3]).expected["c"] == 2


class TestRefineLambda:
    def test_zero_inner(self):
        rep = preset("toric").rep
        lam = refine_lambda_combination(rep, vec([-1]), vec([0]))
        assert lam == vec([-1])

    def test_zero_outer(self):
        rep = preset("toric").rep
        lam = refine_lambda_combination(rep, vec([0]), vec([-1]))
        assert lam == vec([-1])

    def test_rank_two_halving(self):
        t2 = build_group("Torus(2)")
        rep = rep_spec(t2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 1),
                            ((0, -1), 1), ((1, -1), 1), ((-1, 1), 1)])
        lam = refine_lambda_combination(rep, vec([-1, 0]), vec([0, -1]))
        assert lam == vec([-2, -1])

    def test_signs_refine(self):
        from sodlab.reps import weight_signs

        t2 = build_group("Torus(2)")
        rep = rep_spec(t2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 1),
                            ((0, -1), 1), ((1, -1), 1), ((-1, 1), 1)])
        outer, inner = vec([-1, 0]), vec([0, -1])
        lam = refine_lambda_combination(rep, outer, inner)
        combined = weight_signs(rep, lam)
        outer_signs = weight_signs(rep, outer)
        inner_signs = weight_signs(rep, inner)
        for i in outer_signs.t_plus:
            assert i in combined.t_plus
        for i in outer_signs.t_minus:
            assert i in combined.t_minus
        for i in outer_signs.t_zero:
            if i in inner_signs.t_plus:
                assert i in combined.t_plus
            elif i in inner_signs.t_minus:
                assert i in combined.t_minus
            else:
                assert i in combined.t_zero


MINKOWSKI_GROUPS = ("Torus(1)", "Torus(2)", "SL(2)", "SL(3)",
                    "Product(SL(2),Torus(1))", "Product(SL(2),SL(2))")


def minkowski_reference(datum, gens, central, x):
    """Whether x + v lies in the closed unit zonotope plus span(central) for
    every vertex v of that zonotope."""
    closed = ZonotopeQuery(tuple(gens), F(1), (F(0),) * datum.rank, CLOSED,
                           central)
    return all(member(closed, vadd(x, v))
               for v in zonotope_vertices_reference(gens, central))


class TestMinkowski:
    def test_closed_form_matches_vertices(self):
        rng = random.Random(17)
        verdicts = set()
        for tag in MINKOWSKI_GROUPS:
            datum = build_group(tag)
            n = datum.rank
            central = datum.central_directions
            zero = (F(0),) * n
            for _ in range(4):
                # normalized, as certify_nccr receives them: a nonzero
                # generator inside span(central) would leave the reference
                # without vertices
                gens = tuple(datum.normalize_weight(g) for g in
                             random_generators(rng, datum, max_lines=4))
                if all(g == zero for g in gens):
                    continue  # no vertex; the box is the shift point
                points = [zero]
                for den in (1, 1, 2, 2):
                    points.append(tuple(F(rng.randint(-3, 3), den)
                                        for _ in range(n)))
                for c in central:
                    points.append(vscale(F(rng.randint(1, 3)), c))
                for x in points:
                    want = minkowski_reference(datum, gens, central, x)
                    assert (datum.normalize_weight(x) == zero) == want, \
                        (tag, gens, x)
                    verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("group, weights, nu", [
        ("Torus(1)", [((1,), 2), ((-1,), 2)], (0,)),
        ("Torus(1)", [((1,), 2), ((-1,), 2)], (F(1, 2),)),
        ("Torus(2)", [((1, 0), 1), ((-1, 0), 1), ((1, 1), 1), ((-1, -1), 1)],
         (1, 0)),
        ("SL(2)", [((2, 0), 1), ((0, 0), 1), ((-2, 0), 1)], (0, 0)),
        ("GL(2)", [((1, 0), 2), ((0, 1), 2), ((-1, 0), 2), ((0, -1), 2)],
         (F(1, 2), F(1, 2))),
    ])
    def test_certificate_matches_vertex_test(self, group, weights, nu):
        datum = build_group(group)
        rep = rep_spec(datum, weights)
        lam = (F(0),) * datum.rank
        cert = certify_nccr(rep, lam, vec(nu), lam, prazno_mode="minkowski")
        lv = levi(datum, lam)
        shift = vsub(vec(nu), lv.rho_bar_lambda)
        central = datum.central_directions

        def in_boundary(p):
            x = vscale(F(2), vsub(p, shift))
            return (is_dominant(datum, p, lv)
                    and minkowski_reference(datum, rep.expanded, central, x))

        box = window_box(datum, rep.expanded, F(1, 2), shift)
        assert cert.prazno_points == tuple(enumerate_lattice(in_boundary, box))
