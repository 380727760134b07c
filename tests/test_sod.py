import json
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from oracles import (member_reference, random_generators,
                     zonotope_vertices_reference)
from sodlab import partition, report, reps, rootdata, sod, zonotope
from sodlab.cli import _parse_preset_spec, main
from sodlab.linalg import rank, vadd, vec, vscale, vsub
from sodlab.linprog import InputError, enumerate_lattice
from sodlab.partition import (PreconditionError, make_profile, window_box,
                              window_points)
from sodlab.report import build_objects, preset_config, run_job
from sodlab.reps import coinvariant_rep, rep_spec
from sodlab.rootdata import build_group, full_levi, is_dominant, levi
from sodlab.sod import certify_nccr, enumerate_sod, preset
from sodlab.zonotope import (CLOSED, HALF_OPEN, REL_INT, EpsShift, member,
                             member_eps)
from test_golden import PRESETS
from test_rootdata import SMALL_CATALOG, _standard_levis

T1 = build_group("Torus(1)")


class TestEnumerateSod:
    def test_torus_component_layout(self):
        p = preset("toric")
        prof = make_profile(p.rep.datum)
        res = enumerate_sod(p.rep, prof, r_max=F(2), box_radius=4)
        radii = [c.signature.r for c in res.components if not c.signature.trivial]
        assert radii == [F(2), F(2), F(3, 2), F(3, 2), F(1), F(1)]
        keys = [c.index for c in res.components]
        assert keys == [-6, -5, -4, -3, -2, -1, 0]
        tail = res.components[-1]
        assert tail.signature.trivial and tail.window == (vec([-1]), vec([0]), vec([1]))
        assert [str(c.signature.r) for c in res.absorbed] == ["0", "1/2", "1/2"]

    def test_descending_order_and_single_tail(self):
        p = preset("pfaffian", n=1, h=3)
        prof = make_profile(p.rep.datum, threshold="half_open")
        res = enumerate_sod(p.rep, prof, box_radius=5)
        keys = [c.signature.r for c in res.components if not c.signature.trivial]
        assert keys == sorted(keys, reverse=True)
        assert sum(c.signature.trivial for c in res.components) == 1
        assert res.components[-1].signature.trivial

    def test_pfaffian_tail_window(self):
        p = preset("pfaffian", n=1, h=3)
        prof = make_profile(p.rep.datum, threshold="half_open")
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
        assert res.components[0].signature.trivial
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
        res = enumerate_sod(p.rep, make_profile(p.rep.datum), r_max=F(1),
                            box_radius=4)
        beyond = sorted(c.signature.r for c in res.frontier)
        assert beyond == [F(3, 2), F(3, 2), F(2), F(2)]

    def test_nu_levi_invariance(self):
        p = preset("pfaffian", n=2, h=5)
        prof = make_profile(p.rep.datum, threshold="half_open")
        res = enumerate_sod(p.rep, prof, box_radius=3)
        for c in res.components:
            lv = levi(p.rep.datum, c.levi.lam)
            assert lv.is_invariant(c.nu)


def _neutral(rep, lam):
    """The lam-neutral weights of rep, which ``certify_nccr`` takes."""
    return coinvariant_rep(rep, vec(lam))


class TestCertify:
    def test_pfaffian_odd(self):
        p = preset("pfaffian", n=1, h=3)
        cert = certify_nccr(p.rep, full_levi(p.rep.datum), _neutral(p.rep, [0]),
                            vec([0]), vec([0]), genericity_assertion=True)
        assert cert.quasi_symmetric and cert.eps_status == "WeaklyGeneric"
        assert cert.window == (vec([0]),)
        assert cert.prazno_empty and cert.verdict == "TwistedNCCR"

    def test_pfaffian_even(self):
        p = preset("pfaffian", n=1, h=4)
        cert = certify_nccr(p.rep, full_levi(p.rep.datum), _neutral(p.rep, [0]),
                            vec([0]), vec([0]), genericity_assertion=True)
        assert not cert.prazno_empty
        assert cert.prazno_points == (vec([1]),)
        assert cert.verdict == "FiniteGlobalDimOnly"

    def test_determinantal_window_equality(self):
        p = preset("determinantal", n=1, h=2)
        cert = certify_nccr(p.rep, full_levi(p.rep.datum), _neutral(p.rep, [0]),
                            vec([0]), p.recommended_eps)
        assert cert.eps_status in ("Generic", "WeaklyGeneric")
        assert cert.genericity == "CheckedToricRule"
        assert cert.prazno_empty and cert.verdict == "TwistedNCCR"

    def test_eps_scaling_invariance(self):
        p = preset("determinantal", n=2, h=3)
        coinv = _neutral(p.rep, [0, 0])
        base = certify_nccr(p.rep, full_levi(p.rep.datum), coinv, vec([0, 0]),
                            p.recommended_eps, genericity_assertion=True)
        scaled = certify_nccr(p.rep, full_levi(p.rep.datum), coinv, vec([0, 0]),
                              vscale(F(5, 3), p.recommended_eps),
                              genericity_assertion=True)
        assert (base.eps_status, base.window_nonempty, base.window,
                base.prazno_empty, base.verdict) == \
            (scaled.eps_status, scaled.window_nonempty, scaled.window,
             scaled.prazno_empty, scaled.verdict)

    def test_invariance_precondition(self):
        p = preset("determinantal", n=2, h=3)
        coinv = _neutral(p.rep, [0, 0])
        with pytest.raises(InputError):
            certify_nccr(p.rep, full_levi(p.rep.datum), coinv, vec([1, 0]),
                         p.recommended_eps)
        with pytest.raises(InputError):
            certify_nccr(p.rep, full_levi(p.rep.datum), coinv, vec([0, 0]),
                         vec([1, 0]))

    def test_nonzero_lambda_component(self):
        p = preset("pfaffian", n=1, h=3)
        cert = certify_nccr(p.rep, levi(p.rep.datum, vec([-1])),
                            _neutral(p.rep, [-1]), vec([2]), vec([0]))
        assert cert.window == (vec([2]),)
        assert cert.prazno_empty
        assert cert.genericity == "CheckedToricRule"  # empty neutral rep
        assert cert.verdict == "TwistedNCCR"

    def test_twist_filter(self):
        from sodlab.reps import TwistData

        p = preset("pfaffian", n=1, h=4)
        odd = TwistData(((F(2),),), (F(1),))
        cert = certify_nccr(p.rep, full_levi(p.rep.datum), _neutral(p.rep, [0]),
                            vec([0]), vec([0]), twist=odd,
                            genericity_assertion=True)
        # the boundary point 1 is odd, so it survives the coset filter
        assert cert.prazno_points == (vec([1]),)
        even = TwistData(((F(2),),), (F(0),))
        cert = certify_nccr(p.rep, full_levi(p.rep.datum), _neutral(p.rep, [0]),
                            vec([0]), vec([0]), twist=even,
                            genericity_assertion=True)
        assert cert.prazno_empty

    def test_minkowski_mode_flag(self):
        p = preset("pfaffian", n=1, h=3)
        cert = certify_nccr(p.rep, full_levi(p.rep.datum), _neutral(p.rep, [0]),
                            vec([0]), vec([0]), genericity_assertion=True,
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

    def test_default_eps_of_an_sl_component_is_not_the_sl_direction(
            self, tmp_path):
        """SL(3) V^3 + V*^3: the neutral weights of component -1 (lam =
        (-1, 0, 1), Levi T2) span one line modulo the determinant, so its
        default epsilon is the section form (0, 1, 0) of that line, generic,
        and the certificate a twisted NCCR; the SL direction (1, 1, 1) is
        zero in the quotient and generic for no zonotope."""
        cfg = {"group": "SL(3)", "box_radius": 2, "mode": "quasi_symmetric",
               "representation": [{"kind": "vector_power", "h": 3},
                                  {"kind": "dual_vector_power", "h": 3}]}
        path, out = tmp_path / "sl3.json", tmp_path / "nccr.json"
        path.write_text(json.dumps(cfg))
        assert main(["nccr", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        [comp] = [c for c in doc["sod"]["components"] if c["index"] == -1]
        assert (comp["lambda"], comp["levi"]) == ([-1, 0, 1], "T2")
        [cert] = [c["certificate"] for c in doc["nccr"]
                  if c["component_index"] == -1]
        assert (cert["epsilon"], cert["eps_status"], cert["verdict"]) == \
            (["0", "1", "0"], "Generic", "TwistedNCCR")


def _logging(log, fn):
    """fn, appending the name of each caller's function to log."""
    def wrapper(*args, **kwargs):
        log.append(sys._getframe(1).f_code.co_name)
        return fn(*args, **kwargs)
    return wrapper


class TestLambdaDataOnce:
    def test_nccr_job_builds_levi_and_flats_once(self, monkeypatch):
        """One nccr job scans for the hyperplane flats once per facet table
        built, and neither the windows, the components nor the report
        rebuild a component's Levi: each component carries the one its cell
        was built with."""
        cfg = preset_config(preset("determinantal", n=2, h=3))
        monkeypatch.setattr(zonotope, "_FACET_TABLES", {})
        builds, flats, levi_callers = [], [], []
        monkeypatch.setattr(zonotope, "_build_facet_table",
                            _logging(builds, zonotope._build_facet_table))
        monkeypatch.setattr(zonotope, "_hyperplane_normals",
                            _logging(flats, zonotope._hyperplane_normals))
        original = rootdata.levi
        for mod in (rootdata, partition, sod, report):
            if hasattr(mod, "levi"):
                monkeypatch.setattr(mod, "levi",
                                    _logging(levi_callers, original))
        doc = run_job("nccr", cfg)
        assert doc["nccr"] and builds
        assert len(flats) == len(builds)
        assert "face_levi" in levi_callers
        assert not {"cell_members", "enumerate_sod", "_tail_component",
                    "run_job"} & set(levi_callers)

        datum, rep, profile = build_objects(cfg)
        result = enumerate_sod(rep, profile, r_max=cfg.r_max,
                               box_radius=cfg.box_radius, epsilon=cfg.epsilon)
        assert len(result.components) > 1
        for comp in result.components:
            assert comp.levi == original(datum, comp.levi.lam)

    @pytest.mark.parametrize("preset_name", ["determinantal", "toric"])
    def test_nccr_job_builds_coinvariants_once(self, preset_name,
                                               monkeypatch):
        """One nccr job restricts the weights to the neutral ones of lam
        once per distinct lam: the windows, components and certificates of
        every component at lam share one ``coinvariants``."""
        kwargs = {"n": 2, "h": 3} if preset_name == "determinantal" else {}
        cfg = preset_config(preset(preset_name, **kwargs))
        calls = {}
        original = reps.coinvariant_rep

        def counting(rep, lam):
            calls[rep, lam] = calls.get((rep, lam), 0) + 1
            return original(rep, lam)
        for mod in (reps, partition, sod, report):
            if hasattr(mod, "coinvariant_rep"):
                monkeypatch.setattr(mod, "coinvariant_rep", counting)
        doc = run_job("nccr", cfg)
        per_lambda = Counter(tuple(c["lambda"]) for c in doc["nccr"])
        got = Counter()
        for (_, lam), n in calls.items():
            got[tuple(report.weight_json(lam))] += n
        assert len(per_lambda) > 1 and max(per_lambda.values()) > 1
        assert got == Counter(set(per_lambda))
        assert len({rep for rep, _ in calls}) == 1


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


def prazno_reference(rep, lv, coinv, nu, eps, twist=None):
    """The set-mode boundary window with the half-open test on the LP: the
    points of the plus-minus epsilon window that the per-point strict sweep
    puts outside the half-open window."""
    datum = rep.datum
    gens = coinv.expanded
    half = F(1, 2)
    shift = vsub(nu, lv.rho_bar_lambda)
    section = datum.normalize_weight(shift)
    both_ways = member_eps(gens, half, section, EpsShift(
        datum.normalize_weight(eps), "plus_minus"))
    return tuple(window_points(
        lv, gens, half, section,
        lambda p: both_ways(p) and not member_reference(
            gens, half, shift, HALF_OPEN, p, datum.central_directions),
        twist))


def random_quasi_symmetric_torus2(rng):
    """A quasi-symmetric Torus(2) weight multiset whose lines span the
    plane, so that it has a stable point."""
    while True:
        pairs = []
        for _ in range(rng.randint(2, 4)):
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
            if w != (0, 0):
                m = rng.randint(1, 2)
                pairs += [(w, m), ((-w[0], -w[1]), m)]
        if rank([vec(w) for w, _ in pairs]) == 2:
            return rep_spec(build_group("Torus(2)"), pairs)


class TestPraznoFromFacets:
    """Set-mode ``certify_nccr`` decides the half-open part of the boundary
    window from the facet table, with the verdicts of the LP."""

    @pytest.mark.parametrize("name, kwargs", [
        ("pfaffian", {"n": 2, "h": 5}), ("determinantal", {"n": 2, "h": 3}),
        ("sl2", {"degrees": [3]}),
        ("toric", {"weights": [((1,), 1), ((1,), 1), ((-1,), 1),
                               ((-1,), 1)]}),
    ], ids=["pfaffian:n=2,h=5", "determinantal:n=2,h=3", "sl2:3",
            "toric:1,1,-1,-1"])
    def test_presets_match_the_lp_composition(self, name, kwargs):
        cfg = preset_config(preset(name, **kwargs))
        datum, rep, profile = build_objects(cfg)
        result = enumerate_sod(rep, profile, r_max=cfg.r_max,
                               box_radius=cfg.box_radius, epsilon=cfg.epsilon)
        for comp in result.components:
            cert = certify_nccr(rep, comp.levi, comp.coinvariants, comp.nu,
                                result.epsilon if comp.signature.trivial else None)
            assert cert.prazno_points == prazno_reference(
                rep, comp.levi, comp.coinvariants, comp.nu, cert.epsilon), \
                comp.index

    def test_random_torus2_sets_match_the_lp_composition(self):
        """Every component of random quasi-symmetric Torus(2) sets, and the
        lam = 0 certificate at epsilons that are generic, along a weight
        (on a facet) or zero, with Fraction nu."""
        rng = random.Random(27)
        sizes = Counter()
        for _ in range(12):
            rep = random_quasi_symmetric_torus2(rng)
            datum = rep.datum
            nu = vec([F(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                      for _ in range(2)])
            profile = make_profile(datum, nu, threshold="half_open")
            result = enumerate_sod(rep, profile, r_max=F(2), box_radius=2)
            cases = [(comp.levi, comp.coinvariants, comp.nu,
                      result.epsilon if comp.signature.trivial else None)
                     for comp in result.components]
            lam = vec([0, 0])
            for eps in (vec([0, 0]), rep.weights[0][0],
                        vec([F(1, 7), F(1, 11)])):
                cases.append((full_levi(datum), coinvariant_rep(rep, lam),
                              nu, eps))
            for lv, coinv, comp_nu, eps in cases:
                cert = certify_nccr(rep, lv, coinv, comp_nu, eps)
                want = prazno_reference(rep, lv, coinv, comp_nu, cert.epsilon)
                assert cert.prazno_points == want, (rep.weights, comp_nu, eps)
                sizes[bool(want)] += 1
        assert sizes[True] and sizes[False], sizes

    def test_prazno_check_solves_no_lp(self, monkeypatch):
        """During a set-mode nccr job no strict sweep comes from a
        half-open predicate; the relative-interior windows still solve
        theirs."""
        cfg = preset_config(preset("determinantal", n=2, h=3))
        assert cfg.prazno_mode == "set"
        built, solved, running = [], [], []
        original_member, original_sweep = sod.member, zonotope.strict_feasible

        def building(*args, **kwargs):
            variant = args[3]
            built.append(variant)
            inside = original_member(*args, **kwargs)

            def deciding(p):
                running.append(variant)
                try:
                    return inside(p)
                finally:
                    running.pop()
            return deciding

        def sweeping(*args, **kwargs):
            # the variant of the predicate deciding a point right now
            solved.append(running[-1] if running else None)
            return original_sweep(*args, **kwargs)

        for module in (sod, partition):
            monkeypatch.setattr(module, "member", building)
        monkeypatch.setattr(zonotope, "strict_feasible", sweeping)
        doc = run_job("nccr", cfg)
        assert doc["nccr"] and HALF_OPEN in built
        assert set(solved) == {REL_INT}


class TestPresets:
    def test_pfaffian_weights(self):
        p = preset("pfaffian", n=2, h=5)
        assert p.rep.datum.rho_bar == vec([2, 1])
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


def _ints(vectors) -> bool:
    return all(type(v) is tuple and all(type(x) is int for x in v)
               for v in vectors)


def _root_data_are_ints(tag) -> bool:
    """Whether the positive and simple roots and SL directions of the datum
    of ``tag``, and the positive and simple roots of each of its standard
    Levis, are int tuples."""
    datum, standard = _standard_levis(tag)
    return _ints(datum.positive_roots + full_levi(datum).simple_roots
                 + datum.central_directions) and \
        all(_ints(lv.phi_lambda_plus + lv.simple_roots) for lv in standard)


class TestLatticeVectorsAreInts:
    @pytest.mark.parametrize("tag", SMALL_CATALOG)
    def test_every_catalog_tag(self, tag):
        assert _root_data_are_ints(tag)
        datum = build_group(tag)
        assert _ints(datum.central_directions) and \
            len(datum.central_directions) == len(datum.quotient_pairs)
        assert _ints([full_levi(datum).lam])

    @pytest.mark.parametrize("spec", PRESETS)
    def test_every_preset(self, spec):
        """The root data, the weights, the dominant box, the cell members
        and subgroups, every component's subgroup and window, the NCCR
        windows and the destabilizer are int tuples."""
        cfg = preset_config(_parse_preset_spec(spec))
        _, rep, profile = build_objects(cfg)
        assert _root_data_are_ints(rep.datum.label)
        assert _ints(w for w, _ in rep.weights) and _ints(rep.expanded)
        assert _ints(partition.dominant_box_points(rep, cfg.box_radius))
        sigma = reps.find_destabilizer(rep).sigma
        if sigma is not None:
            assert _ints([sigma])
            return
        result = enumerate_sod(rep, profile, r_max=cfg.r_max,
                               box_radius=cfg.box_radius, epsilon=cfg.epsilon)
        for cell in result.absorbed + result.frontier:
            assert _ints(cell.members) and _ints([cell.levi.lam])
        for cell in partition.partition_region(rep, profile, cfg.box_radius):
            assert _ints([cell.levi.lam])
        for comp in result.components:
            assert _ints([comp.levi.lam])
            assert comp.window and _ints(comp.window)
            assert _ints(comp.coinvariants.expanded)
            cert = certify_nccr(rep, comp.levi, comp.coinvariants, comp.nu,
                                result.epsilon if comp.signature.trivial else None,
                                genericity_assertion=True)
            assert _ints(cert.window) and _ints(cert.prazno_points)


MINKOWSKI_GROUPS = ("Torus(1)", "Torus(2)", "SL(2)", "SL(3)",
                    "Product(SL(2),Torus(1))", "Product(SL(2),SL(2))")


def minkowski_reference(datum, gens, central, x):
    """Whether x + v lies in the closed unit zonotope plus span(central) for
    every vertex v of that zonotope."""
    closed = member(tuple(map(datum.normalize_weight, gens)), F(1),
                    (F(0),) * datum.rank, CLOSED)
    return all(closed(datum.normalize_weight(vadd(x, v)))
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
        lv = levi(datum, lam)
        cert = certify_nccr(rep, lv, coinvariant_rep(rep, lam), vec(nu), lam,
                            prazno_mode="minkowski")
        shift = vsub(vec(nu), lv.rho_bar_lambda)
        central = datum.central_directions

        def in_boundary(p):
            x = vscale(F(2), vsub(p, shift))
            return (is_dominant(lv, p)
                    and minkowski_reference(datum, rep.expanded, central, x))

        box = window_box(rep.expanded, F(1, 2), datum.normalize_weight(shift))
        assert cert.prazno_points == tuple(enumerate_lattice(in_boundary, box))
