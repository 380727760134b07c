"""Property test of the CLI contract: whatever the configuration, ``main``
returns 0, 2 or 3 and lets no exception escape.

Each example is a well-formed job on a catalog group of rank at most 4 with
up to two of its fields replaced by malformed values: bools, strings
(exponent notation among them), floats, vectors of the wrong length, bad
group tags."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from sodlab.cli import main
from sodlab.report import SUBCOMMANDS

RANKS = {"Torus(0)": 0, "Torus(1)": 1, "Torus(2)": 2, "Torus(3)": 3,
         "GL(1)": 1, "GL(2)": 2, "GL(3)": 3, "SL(2)": 2, "SL(3)": 3,
         "Sp(2)": 1, "Sp(4)": 2, "Sp(6)": 3,
         "GL(4)": 4, "SL(4)": 4, "Sp(8)": 4,
         "Product(SL(2),Torus(1))": 3, "Product(GL(1),Sp(2))": 2}
BAD_GROUPS = ("", "GL(0)", "SL(1)", "Sp(3)", "Torus(-1)", "Foo(2)", "GL(2",
              "Product()", "Product(SL(2),)", "Product(SL(2)")

rational = st.one_of(st.integers(-2, 2).map(str),
                     st.sampled_from(("1/2", "-3/2")), st.integers(-2, 2))
junk = st.one_of(st.booleans(), st.none(),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from(("", "x", "00", "1/0", "1.5", "1e5000")),
                 st.integers(-3, 3), st.just({}), st.just([[1]]),
                 st.lists(rational, max_size=4))


def vectors(n):
    return st.one_of(st.just(["0"] * n),
                     st.lists(rational, min_size=n, max_size=n))


def pieces(n, defining):
    """Representation pieces.  The powers need a group with a defining
    representation (not a torus or a product); with ``defining`` weights
    above 3 they stay at the first power, so that every job stays small."""
    weight = st.fixed_dictionaries(
        {"weight": st.lists(st.integers(-2, 2), min_size=n, max_size=n)},
        optional={"mult": st.integers(1, 2)})
    out = [st.fixed_dictionaries({"kind": st.just("weights"),
                                  "weights": st.lists(weight, min_size=1,
                                                      max_size=3)}),
           st.fixed_dictionaries({"kind": st.just("trivial"),
                                  "copies": st.integers(1, 2)})]
    if defining:
        top = 2 if defining <= 3 else 1
        out[:0] = [st.fixed_dictionaries({
                       "kind": st.sampled_from(("vector_power",
                                                "dual_vector_power")),
                       "h": st.integers(1, top)}),
                   st.fixed_dictionaries({"kind": st.just("sym_power"),
                                          "d": st.integers(1, top)})]
    return st.one_of(out)


def dual(piece):
    """The piece of the dual representation, so that most jobs have a
    torus-stable point and run to the end."""
    kind = piece["kind"]
    if kind == "weights":
        return {"kind": kind, "weights": [
            dict(e, weight=[-int(x) for x in e["weight"]])
            for e in piece["weights"]]}
    swap = {"vector_power": "dual_vector_power",
            "dual_vector_power": "vector_power"}
    return dict(piece, kind=swap.get(kind, kind))


@st.composite
def configs(draw):
    group = draw(st.sampled_from(sorted(RANKS)))
    n = RANKS[group]
    defining = n if group.startswith(("GL", "SL")) else \
        2 * n if group.startswith("Sp") else 0
    rep = draw(st.lists(pieces(n, defining), min_size=1, max_size=2))
    if draw(st.integers(0, 3)):
        rep += [dual(p) for p in rep]
    cfg = {"group": group, "representation": rep,
           "box_radius": draw(st.integers(0, 1)),
           "degree_bound": draw(st.integers(0, 2))}
    optional = {
        "nu": vectors(n),
        "epsilon": vectors(n),
        "twist": st.fixed_dictionaries({
            "sublattice_basis": st.just([["2" if i == j else "0"
                                          for j in range(n)]
                                         for i in range(n)]),
            "coset_offset": st.lists(st.sampled_from(("0", "1")),
                                     min_size=n, max_size=n)}),
        "r_max": rational,
        "mode": st.sampled_from(("standard", "quasi_symmetric")),
        "genericity_assertion": st.booleans(),
        "prazno_mode": st.sampled_from(("set", "minkowski")),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(strategy)
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.one_of(junk, st.sampled_from(BAD_GROUPS)))
        key = draw(st.sampled_from(sorted(cfg) + ["a piece"]))
        if key != "a piece":
            cfg[key] = bad
            continue
        target = draw(st.sampled_from(rep))
        if target["kind"] == "weights" and draw(st.booleans()):
            target = draw(st.sampled_from(target["weights"]))
        target[draw(st.sampled_from(sorted(target) + ["mult"]))] = bad
    return cfg


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(subcommand=st.sampled_from(SUBCOMMANDS), cfg=configs())
def test_cli_exit_codes(subcommand, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(cfg))
        code = main([subcommand, "--config", str(path),
                     "--out", str(Path(tmp) / "out.json")])
    assert code in (0, 2, 3)
