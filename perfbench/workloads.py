"""Seeded job lists of the three benchmark workloads.

A job is one CLI call, ``sodlab <sub> --config <file> --out <file>``.  The
seed chooses among variants of equal size: it draws the torus weight sets
(and the epsilon of the toric certification job) and the order of the list.
All other jobs are the same for every seed, so their pinned report digests
check them whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    sub: str
    config: dict
    expect_code: int = 0
    # ("pfaffian", n, h) | ("determinantal", n, h) | ("toric", weights):
    # the job mirrors a sodlab.sod.preset and its d0 certificate must agree
    # with the preset's expected verdict.
    preset: tuple | None = None
    # compare sampled face signatures with the brute-force oracle
    oracle: bool = False

    @property
    def key(self) -> str:
        """Content key of the job; pinned digests are stored under it."""
        text = json.dumps([self.sub, self.config], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        cfg = self.config
        rep = "+".join(_piece_label(p) for p in cfg["representation"])
        extra = "".join(f" {k}={cfg[k]}" for k in ("box_radius", "degree_bound",
                                                 "prazno_mode", "nu", "epsilon")
                        if k in cfg)
        return f"{self.sub} {cfg['group']} {rep}{extra}"


def _piece_label(p: dict) -> str:
    kind = p["kind"]
    if kind == "vector_power":
        return f"V^{p['h']}"
    if kind == "dual_vector_power":
        return f"V*^{p['h']}"
    if kind == "sym_power":
        return f"Sym{p['d']}"
    return f"{len(p['weights'])}w"


def _vd(h: int) -> list:
    return [{"kind": "vector_power", "h": h},
            {"kind": "dual_vector_power", "h": h}]


def _v(h: int) -> list:
    return [{"kind": "vector_power", "h": h}]


def _sym(*degrees: int) -> list:
    return [{"kind": "sym_power", "d": d} for d in degrees]


def _weights(pairs) -> list:
    return [{"kind": "weights",
             "weights": [{"weight": list(w), "mult": m} for w, m in pairs]}]


def _qs(group: str, rep: list, radius: int, eps: list, **extra) -> dict:
    """A quasi-symmetric certification config, preset conventions."""
    cfg = {"group": group, "representation": rep, "box_radius": radius,
           "mode": "quasi_symmetric", "genericity_assertion": True,
           "epsilon": eps, "r_max": "3"}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# Seeded torus weight sets.
# ---------------------------------------------------------------------------

def _primitive(w):
    g = gcd(*w)
    return tuple(x // g for x in w)


def _antipodal_lines(rng: random.Random, lines: int):
    """``lines`` distinct primitive lines of Z^2 with entries in [-2, 2] that
    span the plane.  A weight set made of +-pairs on them is quasi-symmetric
    (the weights on each line sum to zero) and has a torus-stable point (0 is
    interior to their convex hull), so no draw needs to be rejected."""
    while True:
        out = []
        while len(out) < lines:
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
            if w == (0, 0):
                continue
            p = _primitive(w)
            if p[0] < 0 or (p[0] == 0 and p[1] < 0):
                p = (-p[0], -p[1])
            if p not in out:
                out.append(p)
        if any(a[0] * b[1] - a[1] * b[0] for a in out for b in out):
            return out


def torus_partition_weights(rng: random.Random):
    """Weights w and -w on three lines, each pair scaled by a drawn factor
    1 or 2 when its primitive vector has entries in [-1, 1]."""
    out = []
    for p in _antipodal_lines(rng, 3):
        k = rng.choice((1, 2)) if max(abs(x) for x in p) == 1 else 1
        out += [((k * p[0], k * p[1]), 1), ((-k * p[0], -k * p[1]), 1)]
    return out


# Square symmetries: they map the search box onto itself, so every image of
# one weight set is a certification problem of the same size.
_SQUARE = [((a, 0), (0, b)) for a in (1, -1) for b in (1, -1)] + \
          [((0, a), (b, 0)) for a in (1, -1) for b in (1, -1)]
_TORIC_WINDOW = ([(1, -2), (1, 0)], (0, 2))


def torus_window_data(rng: random.Random):
    """A two-per-side quasi-symmetric weight set (each weight doubled) and a
    generic epsilon (parallel to no generator line, hence to no proper face
    of the plane zonotope): a drawn square symmetry of one fixed set."""
    (r0, r1) = rng.choice(_SQUARE)
    lines, eps = _TORIC_WINDOW

    def image(w):
        return (r0[0] * w[0] + r0[1] * w[1], r1[0] * w[0] + r1[1] * w[1])
    pairs = []
    for p in map(image, lines):
        pairs += [(p, 2), ((-p[0], -p[1]), 2)]
    return pairs, image(eps)


def destabilized_weights(rng: random.Random):
    """Weights in an open half-plane: no torus-stable point (exit 3)."""
    a = rng.randint(1, 3)
    return [((a, rng.randint(-2, 2)), 1), ((1, rng.randint(-2, 2)), 1),
            ((2, 1), 1)]


# ---------------------------------------------------------------------------
# Job lists.
# ---------------------------------------------------------------------------

def _faces(rng: random.Random) -> list[Job]:
    def part(group, rep, radius, **extra):
        return Job("partition", dict({"group": group, "representation": rep,
                                      "box_radius": radius}, **extra))
    jobs = [
        part("GL(2)", _vd(3), 2),
        part("GL(2)", _vd(3), 2, nu=["1/2", "1/2"]),
        part("GL(2)", _vd(2), 2),
        part("GL(2)", _vd(4), 2),
        part("GL(3)", _vd(4), 1),
        part("Sp(6)", _v(7), 1),
        part("Sp(4)", _v(5), 2),
        part("Sp(4)", _v(6), 2),
        part("SL(2)", _sym(1, 2, 3), 4),
        part("SL(2)", _sym(2, 4), 4),
        part("Sp(2)", _v(5), 10),
        Job("partition", {"group": "Torus(2)", "box_radius": 1,
                          "representation": _weights(torus_partition_weights(rng))},
            oracle=True),
    ]
    return jobs


def _windows(rng: random.Random) -> list[Job]:
    jobs = [
        Job("nccr", _qs("Sp(4)", _v(9), 1, ["0", "0"]), preset=("pfaffian", 2, 9)),
        Job("nccr", _qs("Sp(4)", _v(10), 1, ["0", "0"]), preset=("pfaffian", 2, 10)),
        Job("nccr", _qs("Sp(2)", _v(5), 3, ["0"]), preset=("pfaffian", 1, 5)),
    ]
    for h in (6, 7):
        for mode in ("set", "minkowski"):
            jobs.append(Job("nccr", _qs("GL(2)", _vd(h), 0, ["1", "1"],
                                        prazno_mode=mode),
                            preset=("determinantal", 2, h)))
    jobs.append(Job("nccr", _qs("GL(3)", _vd(6), 0, ["1", "1", "1"]),
                    preset=("determinantal", 3, 6)))
    pairs, eps = torus_window_data(rng)
    jobs.append(Job("nccr", {"group": "Torus(2)", "representation": _weights(pairs),
                             "box_radius": 1, "mode": "quasi_symmetric",
                             "epsilon": [str(x) for x in eps]},
                    preset=("toric", tuple(pairs))))
    for group, rep in (("GL(2)", _vd(3)), ("Sp(4)", _v(5))):
        jobs.append(Job("sod", {"group": group, "representation": rep,
                                "box_radius": 1, "mode": "standard",
                                "r_max": "6"}))
    jobs.append(Job("nccr", _qs("Sp(4)", _v(5), 2, ["0", "0"], twist={
        "sublattice_basis": [[2, 0], [0, 2]], "coset_offset": [1, 0]})))
    jobs.append(Job("nccr", {"group": "Torus(2)",
                             "representation": _weights(destabilized_weights(rng)),
                             "box_radius": 1}, expect_code=3))
    return jobs


def _roots(rng: random.Random) -> list[Job]:
    def analyze(group, rep):
        return Job("analyze", {"group": group, "representation": rep})
    product_weights = []
    for i in range(5):
        e = [0] * 5
        e[i] = 1
        product_weights += [(tuple(e), 2), (tuple(-x for x in e), 2)]
    jobs = [
        analyze("GL(5)", _vd(2)),
        analyze("GL(5)", _v(3)),
        analyze("Sp(8)", _v(9)),
        analyze("Sp(8)", _v(4)),
        analyze("SL(4)", _v(5)),
        analyze("SL(4)", _vd(2)),
        analyze("Product(GL(3),Sp(4))", _weights(product_weights)),
        analyze("GL(4)", _vd(3)),
        analyze("Sp(6)", _v(7)),
    ]

    def hilbert(group, rep, eps, degree):
        return Job("hilbert", {"group": group, "representation": rep,
                               "box_radius": 0, "mode": "quasi_symmetric",
                               "epsilon": eps, "degree_bound": degree})
    jobs += [
        hilbert("GL(2)", _vd(3), ["1", "1"], 8),
        hilbert("Sp(4)", _v(5), ["0", "0"], 12),
        hilbert("SL(2)", _sym(3), ["0", "0"], 12),
        hilbert("GL(3)", _vd(4), ["1", "1", "1"], 5),
    ]
    return jobs


WORKLOADS = {"faces": _faces, "windows": _windows, "roots": _roots}


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
