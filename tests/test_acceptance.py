"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances beyond the stated wall-clock budgets) and
prints a single PASS/FAIL line so the suite can be read as a checklist.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from oracles import (brute_force_signature, grid_strict_search,
                     random_bounded_program, signature_to_value_counts,
                     vertex_forced, vertex_optimize)
from sodlab.characters import hom_block_dims
from sodlab.cli import main as cli_main
from sodlab.linalg import vec, vsub
from sodlab.linprog import LpBuilder, feasible_point, forced_tight, \
    lp_optimize, strict_feasible
from sodlab.partition import (build_cell, cell_members, dominant_box_points,
                              face_levi, make_profile, order_key,
                              partition_region, signature_of,
                              validate_reduction_setting)
from sodlab.reps import coinvariant_rep, construct_rep, \
    is_quasi_symmetric, rep_spec, weight_signs
from sodlab.rootdata import build_group, full_levi, is_dominant, pairing, \
    star_dominate
from sodlab.sod import certify_nccr, enumerate_sod, preset
from sodlab.zonotope import (HALF_OPEN, EpsShift, is_weakly_generic, member,
                             member_eps)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_s:
        print(f"[FAIL] criterion {number}: {description} "
              f"(too slow: {elapsed:.1f}s >= {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_s}s")
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_pfaffian_parity():
    with criterion(1, "pfaffian boundary-window parity for 2n < h <= 7", 10):
        for n in (1, 2, 3):
            for h in range(2 * n + 1, 8):
                p = preset("pfaffian", n=n, h=h)
                zero = vec([0] * n)
                cert = certify_nccr(p.rep, full_levi(p.rep.datum),
                                    coinvariant_rep(p.rep, zero), zero, zero,
                                    genericity_assertion=True)
                assert cert.prazno_empty == (h % 2 == 1), (n, h)


def test_criterion_2_determinantal_windows():
    with criterion(2, "determinantal weak genericity and window equality", 10):
        for n, h in ((1, 2), (1, 3), (2, 3)):
            p = preset("determinantal", n=n, h=h)
            datum, rep = p.rep.datum, p.rep
            eps = p.recommended_eps
            gens = rep.expanded
            assert is_weakly_generic(eps, datum, gens)
            zero = vec([0] * n)
            cert = certify_nccr(rep, full_levi(datum),
                                coinvariant_rep(rep, zero), zero, eps,
                                genericity_assertion=True)
            assert cert.prazno_empty, (n, h)
            # double enumeration: +-eps-restricted half window versus the
            # half-open half window, over the same candidate box
            from sodlab.partition import window_box

            shift = vsub(vec([0] * n), datum.rho_bar)
            box = window_box(datum, gens, F(1, 2), shift)
            pm = EpsShift(eps, "plus_minus")
            ho = member(gens, F(1, 2), shift, HALF_OPEN)
            lo = [int(a) - 1 for a, _ in box]
            hi = [int(b) + 1 for _, b in box]
            pm_points = []
            ho_points = []
            for point in itertools.product(*(range(a, b + 1)
                                             for a, b in zip(lo, hi))):
                q = vec(point)
                if not is_dominant(datum, q):
                    continue
                if member_eps(gens, F(1, 2), shift, pm)(q):
                    pm_points.append(q)
                if ho(q):
                    ho_points.append(q)
            assert pm_points == ho_points, (n, h)


SL2_S_ODD_CASES = ([1, 2], [1, 1, 1], [1, 2, 2], [1, 1, 1, 1, 1], [1, 3],
                   [1, 2, 3], [3, 3, 1], [1, 2, 4])


def test_criterion_3_sl2_catalog():
    with criterion(3, "sl2 catalog classification and half-window counts", 5):
        for degrees in ([1], [2], [1, 1], [1, 2], [2, 2], [3], [4],
                        [0, 1, 2], [0, 0, 4]):
            assert preset("sl2", degrees=degrees).expected["case"] == "A", degrees
        for degrees in SL2_S_ODD_CASES:
            p = preset("sl2", degrees=degrees)
            s = p.expected["s"]
            assert s % 2 == 1 and s <= 9, degrees
            # independent oracle: the window is a scalar interval
            scalar_total = sum(abs(int(w[0] - w[1])) * m
                               for w, m in p.rep.weights) // 2
            assert scalar_total == s
            oracle_count = sum(1 for x in range(0, s)
                               if F(x) <= F(s, 2) - 1)
            assert oracle_count == (s - 1) // 2
            prof = make_profile(p.rep.datum, threshold="half_open")
            res = enumerate_sod(p.rep, prof, box_radius=6,
                                epsilon=vec([0, 0]))
            tail = res.components[-1]
            assert tail.signature.trivial
            assert len(tail.window) == (s - 1) // 2, degrees


CRITERION_4_INSTANCES = [
    # (rep builder, box radius, number of draws)
    (lambda: rep_spec(build_group("Torus(1)"), [((1,), 2), ((-1,), 2)]), 8, 100),
    (lambda: rep_spec(build_group("Torus(1)"),
                      [((1,), 1), ((2,), 1), ((-1,), 1), ((-2,), 1)]), 8, 80),
    (lambda: rep_spec(build_group("Torus(2)"),
                      [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]), 3, 80),
    (lambda: rep_spec(build_group("Torus(2)"),
                      [((1, 1), 1), ((-1, -1), 1), ((1, 0), 1), ((-1, 0), 1)]), 3, 60),
    (lambda: construct_rep(build_group("SL(2)"),
                           [("sym_power", 3), ("trivial", 1)]), 6, 50),
    (lambda: construct_rep(build_group("SL(2)"),
                           [("sym_power", 1), ("sym_power", 2)]), 6, 50),
    (lambda: construct_rep(build_group("Sp(4)"), [("vector_power", 1)]), 3, 40),
    (lambda: construct_rep(build_group("Sp(2)"), [("vector_power", 3)]), 6, 40),
]


def test_criterion_4_partition_property_suite():
    with criterion(4, "partition properties on 500 random dominant weights", 60):
        rng = random.Random(20240808)
        total = 0
        for build, radius, draws in CRITERION_4_INSTANCES:
            rep = build()
            datum = rep.datum
            prof = make_profile(datum)
            quasi = is_quasi_symmetric(rep)
            box = dominant_box_points(rep, radius)
            shift = vsub(prof.nu_global, datum.rho_bar)
            cells = partition_region(rep, prof, radius)
            signature = signature_of(rep, prof)
            # disjoint cover of the box
            members = [m for c in cells for m in c.members]
            assert sorted(members) == sorted(box)
            assert len(members) == len(set(members))
            cache = {}
            for _ in range(draws):
                total += 1
                chi = rng.choice(box)
                if chi not in cache:
                    sig = signature(chi)
                    cell = build_cell(rep, sig, prof, face_levi(rep, sig))
                    # uniqueness against exhaustive sign-pattern minimization
                    oracle = brute_force_signature(
                        rep, shift, chi, central=datum.central_directions)
                    if sig.trivial:
                        assert oracle == "trivial", chi
                    else:
                        plus, minus = signature_to_value_counts(rep, sig)
                        assert oracle == (sig.r, plus, minus), chi
                        # supporting-subgroup round trip
                        signs = weight_signs(rep, cell.levi.lam)
                        assert signs.t_plus == sig.s_plus
                        assert signs.t_minus == sig.s_minus
                        assert signs.t_zero == sig.s_zero
                        # window members are fully dominant
                        coinv = coinvariant_rep(rep, cell.levi.lam)
                        for mu in cell_members(rep, cell, coinv):
                            assert is_dominant(datum, mu)
                            assert signature(mu) == sig
                    cache[chi] = (sig, cell)
                sig, cell = cache[chi]
                if sig.trivial:
                    continue
                threshold_ok = sig.r >= 1 or (quasi and sig.r > F(1, 2))
                if not threshold_ok:
                    continue
                # monotonicity under random attracted subset sums
                signs = weight_signs(rep, cell.levi.lam)
                plus_idx = list(signs.t_plus)
                for _ in range(3):
                    size = rng.randint(1, len(plus_idx))
                    combo = rng.sample(plus_idx, size)
                    mu = chi
                    for i in combo:
                        mu = vec([a + b for a, b in
                                  zip(mu, rep.expanded[i])])
                    out = star_dominate(datum, mu)
                    if out is None:
                        continue
                    mu_plus = out[0]
                    sig2 = signature(mu_plus)
                    assert (sig2.r, len(sig2.s_plus), len(sig2.s_minus),
                            len(sig2.s_zero)) < \
                        (sig.r, len(sig.s_plus), len(sig.s_minus),
                         len(sig.s_zero)), (chi, combo)
                    assert pairing(cell.levi.lam, mu_plus) > pairing(cell.levi.lam, chi)
        assert total == 500


def _validate_components(rep, prof, radius):
    cells = partition_region(rep, prof, radius)
    result = enumerate_sod(rep, prof, box_radius=radius)
    for comp in result.components:
        if comp.signature.trivial:
            # nothing sits below the tail and its subgroup attracts no
            # weights, so the condition set is empty
            for chi in comp.window:
                out = validate_reduction_setting(rep, [], chi, comp.levi.lam)
                assert out.status == "ok" and out.valid
            continue
        key = order_key(comp.signature)
        window_below = [m for c in cells if order_key(c.signature) < key
                        for m in c.members]
        for chi in comp.window:
            out = validate_reduction_setting(rep, window_below, chi, comp.levi.lam)
            assert out.status == "ok", (comp.index, chi, out.detail)
            assert out.valid, (comp.index, chi, out.violations)


def test_criterion_5_reduction_settings():
    with criterion(5, "reduction-setting validation over emitted components", 30):
        toric = preset("toric")
        _validate_components(toric.rep, make_profile(toric.rep.datum), 6)
        sl2 = preset("sl2", degrees=[3, 0])
        _validate_components(sl2.rep, make_profile(sl2.rep.datum), 6)


def test_criterion_6_hilbert_cross_check():
    with criterion(6, "pfaffian tail Hom block against monomial oracle", 5):
        # independent oracle first: count monomials of each total weight in
        # Sym^d of three copies of the +-1 weight pair, then apply the rank
        # one alternating correction N(0) - N(-2).
        scalars = [1, 1, 1, -1, -1, -1]
        expected = []
        for d in range(7):
            counts = {}
            for combo in itertools.combinations_with_replacement(range(6), d):
                s = sum(scalars[i] for i in combo)
                counts[s] = counts.get(s, 0) + 1
            expected.append(counts.get(0, 0) - counts.get(-2, 0))
        assert expected == [1, 0, 3, 0, 6, 0, 10]
        sp2 = build_group("Sp(2)")
        w = construct_rep(sp2, [("vector_power", 3)])
        [dims] = hom_block_dims(sp2, [vec([0])], w, up_to=6)
        assert list(dims) == expected


def test_criterion_7_kernel_oracle_equivalence():
    with criterion(7, "kernel vs vertex and grid oracles on 300 programs", 60):
        rng = random.Random(7071)
        for _ in range(150):
            p = random_bounded_program(rng, nvars=rng.randint(2, 6))
            feasible = feasible_point(p) is not None
            feas_v, lf, uf = vertex_forced(p)
            assert feasible == feas_v
            sense = rng.choice(("min", "max"))
            res = lp_optimize(p, sense)
            status, value = vertex_optimize(p, sense)
            assert res.status == status
            if status == "optimal":
                assert res.value == value
            if feasible and rng.random() < 0.5:
                rep = forced_tight(p)
                assert rep.lower_forced == lf and rep.upper_forced == uf
        for _ in range(150):
            b = LpBuilder()
            n = rng.randint(2, 3)
            for _ in range(n):
                lo = F(rng.randint(-3, 0), rng.choice([1, 2, 4]))
                hi = lo + F(rng.randint(0, 5), rng.choice([1, 2]))
                b.add_var(lower=lo, upper=hi,
                          lower_open=rng.random() < 0.6,
                          upper_open=rng.random() < 0.6)
            b.add_eq({j: F(rng.randint(-2, 2)) for j in range(n)},
                     F(rng.randint(-3, 3), 2))
            p = b.build()
            got = strict_feasible(p)
            found = grid_strict_search(p, max_den=8)
            if found is not None:
                assert got


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical reports for repeated runs", 60):
        for spec in ("pfaffian:n=1,h=3", "determinantal:n=1,h=2",
                     "sl2:3", "toric"):
            a = tmp_path / "a.json"
            b = tmp_path / "b.json"
            assert cli_main(["sod", "--preset", spec, "--out", str(a)]) == 0
            assert cli_main(["sod", "--preset", spec, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), spec
