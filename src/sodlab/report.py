"""Job configuration, report assembly and deterministic rendering.

Reports are plain dictionaries with rationals serialized as "p" or "p/q"
strings and integral weights as integer arrays; JSON rendering sorts keys, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, fields
from fractions import Fraction

from . import __version__
from .linalg import Vec, frac, is_integral, vec
from .linprog import InputError
from .characters import hom_block_dims
from .partition import (HALF_OPEN_MODE, STANDARD, PreconditionError,
                        make_profile, partition_region)
from .reps import (TwistData, construct_rep, find_destabilizer,
                   is_quasi_symmetric)
from .rootdata import build_group, invariant_subspace
from .sod import (NccrCertificate, Preset, SodComponent, certify_nccr,
                  enumerate_sod)

TOOL_NAME = "sodlab"

SUBCOMMANDS = ("analyze", "partition", "sod", "nccr", "hilbert")


def rational_str(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise InputError("expected a rational, got a boolean")
    if isinstance(s, str) and any(c in s for c in "eE"):
        # Fraction would build 10**exp before any size check
        raise InputError(f"bad rational {s!r} (exponents are not accepted)")
    if isinstance(s, (int, str, Fraction)):
        try:
            return frac(s if not isinstance(s, str) else s.strip())
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational {s!r}: {e}") from None
    raise InputError(f"bad rational {s!r} (floats are not accepted)")


def _parse_vector(raw, name: str) -> tuple[Fraction, ...]:
    """A JSON array of rationals; anything else (a string, a number) is an
    InputError rather than being iterated or indexed."""
    if not isinstance(raw, list):
        raise InputError(f"{name} must be a JSON array of rationals")
    return tuple(parse_rational(x) for x in raw)


def weight_json(w: Vec):
    if is_integral(w):
        return [int(x) for x in w]
    return [rational_str(x) for x in w]


def vector_json(v: Vec):
    return [rational_str(x) for x in v]


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobConfig:
    group: str
    representation: tuple
    nu: tuple | None
    epsilon: tuple | None
    twist: TwistData | None
    r_max: Fraction | None
    box_radius: int
    mode: str
    genericity_assertion: bool | None
    degree_bound: int
    prazno_mode: str


_ALLOWED_KEYS = {f.name for f in fields(JobConfig)}

# The integer key of each representation piece kind other than "weights".
_PIECE_KEYS = {"vector_power": "h", "dual_vector_power": "h",
               "sym_power": "d", "trivial": "copies"}


def parse_config(raw: dict) -> JobConfig:
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    if "group" not in raw or "representation" not in raw:
        raise InputError("config needs 'group' and 'representation'")
    group = raw["group"]
    if not isinstance(group, str):
        raise InputError("'group' must be a catalog tag string")
    rep_pieces = _parse_rep(raw["representation"])
    nu = _parse_vector(raw["nu"], "'nu'") if raw.get("nu") is not None else None
    epsilon = _parse_vector(raw["epsilon"], "'epsilon'") \
        if raw.get("epsilon") is not None else None
    twist = _parse_twist(raw.get("twist"))
    r_max = parse_rational(raw["r_max"]) if raw.get("r_max") is not None else None
    box_radius = raw.get("box_radius", 6)
    if not _is_int(box_radius) or box_radius < 0:
        raise InputError("'box_radius' must be a nonnegative integer")
    mode = raw.get("mode", "standard")
    if mode not in ("standard", "quasi_symmetric"):
        raise InputError(f"unknown mode {mode!r}")
    assertion = raw.get("genericity_assertion")
    if assertion is not None and not isinstance(assertion, bool):
        raise InputError("'genericity_assertion' must be a boolean or null")
    degree_bound = raw.get("degree_bound", 6)
    if not _is_int(degree_bound) or degree_bound < 0:
        raise InputError("'degree_bound' must be a nonnegative integer")
    prazno_mode = raw.get("prazno_mode", "set")
    if prazno_mode not in ("set", "minkowski"):
        raise InputError(f"unknown prazno_mode {prazno_mode!r}")
    return JobConfig(group, rep_pieces, nu, epsilon, twist, r_max, box_radius,
                     mode, assertion, degree_bound, prazno_mode)


def _parse_rep(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise InputError("'representation' must be a nonempty list of pieces")
    pieces = []
    for item in raw:
        if not isinstance(item, dict) or "kind" not in item:
            raise InputError("representation pieces are objects with a 'kind'")
        kind = item["kind"]
        if kind == "weights":
            entries = item.get("weights")
            if not isinstance(entries, list) or not entries:
                raise InputError("'weights' piece needs a weight list")
            pairs = []
            for e in entries:
                if not isinstance(e, dict) or "weight" not in e:
                    raise InputError("weight entries are {'weight': [...], 'mult': n}")
                w = _parse_vector(e["weight"], "'weight'")
                m = e.get("mult", 1)
                if not _is_int(m) or m < 1:
                    raise InputError("weight multiplicities are positive integers")
                pairs.append((w, m))
            pieces.append(("weights", tuple(pairs)))
        elif isinstance(kind, str) and kind in _PIECE_KEYS:
            pieces.append((kind, _positive_int(item, _PIECE_KEYS[kind])))
        else:
            raise InputError(f"unknown representation piece kind {kind!r}")
    return tuple(pieces)


def _is_int(v) -> bool:
    """JSON integers only: ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _positive_int(item: dict, key: str) -> int:
    v = item.get(key)
    if not _is_int(v) or v < 1:
        raise InputError(f"piece {item.get('kind')!r} needs a positive integer {key!r}")
    return v


def _parse_twist(raw) -> TwistData | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise InputError("'twist' must be an object")
    basis = raw.get("sublattice_basis")
    if not isinstance(basis, list):
        raise InputError("'sublattice_basis' must be a JSON array of rows")
    return TwistData(tuple(_parse_vector(row, "a sublattice_basis row")
                           for row in basis),
                     _parse_vector(raw.get("coset_offset"), "'coset_offset'"))


def config_json(cfg: JobConfig) -> dict:
    rep = []
    for kind, arg in cfg.representation:
        if kind == "weights":
            rep.append({"kind": kind,
                        "weights": [{"weight": weight_json(vec(w)), "mult": m}
                                    for w, m in arg]})
        else:
            rep.append({"kind": kind, _PIECE_KEYS[kind]: arg})
    out = {
        "group": cfg.group,
        "representation": rep,
        "box_radius": cfg.box_radius,
        "mode": cfg.mode,
        "degree_bound": cfg.degree_bound,
        "prazno_mode": cfg.prazno_mode,
    }
    if cfg.nu is not None:
        out["nu"] = vector_json(cfg.nu)
    if cfg.epsilon is not None:
        out["epsilon"] = vector_json(cfg.epsilon)
    if cfg.twist is not None:
        out["twist"] = {
            "sublattice_basis": [weight_json(r) for r in cfg.twist.sublattice_basis],
            "coset_offset": weight_json(cfg.twist.coset_offset)}
    if cfg.r_max is not None:
        out["r_max"] = rational_str(cfg.r_max)
    if cfg.genericity_assertion is not None:
        out["genericity_assertion"] = cfg.genericity_assertion
    return out


def preset_config(p: Preset, box_radius: int = 6) -> JobConfig:
    """A JobConfig mirroring a preset's worked-example conventions."""
    assertion = True if p.family in ("pfaffian", "determinantal") else None
    return JobConfig(
        group=p.datum.label, representation=p.pieces, nu=None,
        epsilon=p.recommended_eps, twist=None, r_max=Fraction(3),
        box_radius=box_radius, mode="quasi_symmetric"
        if is_quasi_symmetric(p.rep) else "standard",
        genericity_assertion=assertion, degree_bound=6, prazno_mode="set")


# ---------------------------------------------------------------------------
# Report assembly.
# ---------------------------------------------------------------------------

def _signature_json(sig) -> dict:
    return {"r": rational_str(sig.r), "trivial": sig.trivial,
            "s_plus": list(sig.s_plus), "s_minus": list(sig.s_minus),
            "s_zero": list(sig.s_zero)}


def _cell_json(cell) -> dict:
    return {
        "signature": _signature_json(cell.signature),
        "lambda": weight_json(cell.lam),
        "nu": vector_json(cell.nu_levi),
        "chi_p": vector_json(cell.chi_p),
        "members_in_box": [weight_json(w) for w in cell.members],
    }


def _component_json(c: SodComponent) -> dict:
    kind, arg = c.window_kind
    return {
        "index": c.index,
        "is_d0": c.is_d0,
        "signature": _signature_json(c.signature),
        "lambda": weight_json(c.lam),
        "levi": c.levi.label(),
        "nu": vector_json(c.nu),
        "window_kind": {"kind": kind,
                        "r" if kind == "rel_int_scaled" else "epsilon":
                        rational_str(arg) if kind == "rel_int_scaled"
                        else vector_json(arg)},
        "window": [weight_json(w) for w in c.window],
        "module_summands": [{"highest_weight": weight_json(w), "dim": d}
                            for w, d in c.u_summands],
        "coinvariant_weights": [{"weight": weight_json(w), "mult": m}
                                for w, m in c.coinvariants.weights],
        "algebra": c.algebra,
    }


def _certificate_json(cert: NccrCertificate) -> dict:
    return {
        "quasi_symmetric": cert.quasi_symmetric,
        "epsilon": vector_json(cert.epsilon),
        "eps_status": cert.eps_status,
        "window_nonempty": cert.window_nonempty,
        "window": [weight_json(w) for w in cert.window],
        "prazno_empty": cert.prazno_empty,
        "prazno_points": [weight_json(w) for w in cert.prazno_points],
        "genericity": cert.genericity,
        "verdict": cert.verdict,
        "prazno_mode": cert.prazno_mode,
    }


def _destabilizer_json(report) -> dict:
    return {
        "case": report.case,
        "sigma": None if report.sigma is None else weight_json(report.sigma),
        "nu": vector_json(report.nu),
        "sigma_annihilates_all": report.sigma_annihilates_all,
    }


def _base_document(subcommand: str, cfg: JobConfig) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "subcommand": subcommand,
        "input": config_json(cfg),
    }


def _check_rank(cfg: JobConfig, rank: int) -> None:
    """Every configured weight-space vector must have one entry per rank.
    TwistData already holds its basis square, so its offset speaks for it."""
    offset = None if cfg.twist is None else cfg.twist.coset_offset
    for name, v in (("nu", cfg.nu), ("epsilon", cfg.epsilon),
                    ("twist coset_offset", offset)):
        if v is not None and len(v) != rank:
            raise InputError(f"{name} has {len(v)} entries, but "
                             f"{cfg.group} has rank {rank}")


def build_objects(cfg: JobConfig):
    datum = build_group(cfg.group)
    _check_rank(cfg, datum.rank)
    rep = construct_rep(datum, cfg.representation)
    threshold = STANDARD if cfg.mode == "standard" else HALF_OPEN_MODE
    profile = make_profile(datum, cfg.nu, threshold)
    return datum, rep, profile


def run_job(subcommand: str, cfg: JobConfig) -> dict:
    """Execute a subcommand; raises InputError / PreconditionError."""
    if subcommand not in SUBCOMMANDS:
        raise InputError(f"unknown subcommand {subcommand!r}")
    datum, rep, profile = build_objects(cfg)
    doc = _base_document(subcommand, cfg)
    if subcommand == "analyze":
        destabilizer = find_destabilizer(rep)
        doc["analysis"] = {
            "group": datum.label,
            "rank": datum.rank,
            "dim": rep.dim,
            "weights": [{"weight": weight_json(w), "mult": m}
                        for w, m in rep.weights],
            "quasi_symmetric": is_quasi_symmetric(rep),
            "has_t_stable_point": destabilizer.sigma is None,
            "destabilizer": _destabilizer_json(destabilizer),
            "invariant_subspace": [vector_json(v)
                                   for v in invariant_subspace(datum)],
        }
        return doc
    if subcommand == "partition":
        cells = partition_region(rep, profile, cfg.box_radius)
        doc["partition"] = {"cells": [_cell_json(c) for c in cells]}
        return doc
    result = enumerate_sod(rep, profile, r_max=cfg.r_max,
                           box_radius=cfg.box_radius, epsilon=cfg.epsilon,
                           twist=cfg.twist)
    doc["sod"] = {
        "epsilon": vector_json(result.epsilon),
        "threshold": result.threshold,
        "components": [_component_json(c) for c in result.components],
        "absorbed_cells": [_cell_json(c) for c in result.absorbed],
        "truncation_frontier": {
            "r_max": None if result.r_max is None else rational_str(result.r_max),
            "box_radius": result.box_radius,
            "cells_beyond": [_cell_json(c) for c in result.frontier],
        },
    }
    if subcommand == "sod":
        return doc
    if subcommand == "nccr":
        certs = []
        for comp in result.components:
            # the tail keeps the SOD epsilon, the others take their default
            cert = certify_nccr(
                rep, comp.levi, comp.coinvariants, comp.nu,
                result.epsilon if comp.is_d0 else None, twist=cfg.twist,
                genericity_assertion=cfg.genericity_assertion,
                prazno_mode=cfg.prazno_mode)
            certs.append({"component_index": comp.index,
                          "lambda": weight_json(comp.lam),
                          "certificate": _certificate_json(cert)})
        doc["nccr"] = certs
        return doc
    # hilbert: graded Hom blocks of the tail component
    tail = result.components[-1]
    blocks = []
    for mu in tail.window:
        for mu2 in tail.window:
            dims = hom_block_dims(datum, mu, mu2, tail.coinvariants,
                                  tail.levi, up_to=cfg.degree_bound)
            blocks.append({
                "source": weight_json(mu), "target": weight_json(mu2),
                "dims_by_degree": [d for _, d in dims.entries]})
    doc["hilbert"] = {"component_index": tail.index, "blocks": blocks}
    return doc


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def render(doc: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        out: list[str] = []
        _write_json(doc, "\n", out)
        out.append("\n")
        return "".join(out).encode()
    if fmt != "text":
        raise InputError(f"unknown format {fmt!r}")
    return _render_text(doc).encode()


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append obj to out as ``json.dumps(obj, sort_keys=True, indent=2)``
    writes it, ``newline`` being the line break and indentation of its own
    line.  Only strings, ints, booleans, None, lists and str-keyed dicts are
    written; anything else is a TypeError.  It builds no encoder object, so
    a render leaves no cyclic garbage behind (``json``'s pure-Python indent
    encoder leaves its closures)."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report key {key!r} is not a string")
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(obj[key], inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "["
        for item in obj:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(newline + "]")
    else:
        raise TypeError(f"{type(obj).__name__} is not written to a report")


def _render_text(doc: dict) -> str:
    lines = [f"{doc['tool']['name']} {doc['tool']['version']} :: {doc['subcommand']}"]
    if "analysis" in doc:
        a = doc["analysis"]
        lines.append(f"group {a['group']} rank {a['rank']} dim {a['dim']}")
        lines.append(f"quasi_symmetric={a['quasi_symmetric']} "
                     f"t_stable={a['has_t_stable_point']}")
        d = a["destabilizer"]
        lines.append(f"destabilizer: case={d['case']} sigma={d['sigma']} nu={d['nu']}")
    if "partition" in doc:
        lines.append(f"{len(doc['partition']['cells'])} cells")
        for c in doc["partition"]["cells"]:
            s = c["signature"]
            lines.append(f"  r={s['r']:>6} |S+|={len(s['s_plus'])} "
                         f"|S-|={len(s['s_minus'])} |S0|={len(s['s_zero'])} "
                         f"lambda={c['lambda']} members={c['members_in_box']}")
    if "sod" in doc:
        comps = doc["sod"]["components"]
        lines.append(f"{len(comps)} components (epsilon={doc['sod']['epsilon']})")
        lines.append("  index      r  S+/S-/S0  lambda           |L|  algebra")
        for c in comps:
            s = c["signature"]
            kind = c["window_kind"]
            rtxt = kind.get("r", "eps") if kind["kind"] == "rel_int_scaled" else "1/2+e"
            lines.append(
                f"  {c['index']:>5}  {rtxt:>5}  {len(s['s_plus'])}/{len(s['s_minus'])}"
                f"/{len(s['s_zero'])}       {str(c['lambda']):<15} "
                f"{len(c['window']):>4}  {c['algebra']}")
    if "nccr" in doc:
        for entry in doc["nccr"]:
            c = entry["certificate"]
            lines.append(
                f"  component {entry['component_index']}: verdict={c['verdict']} "
                f"eps={c['eps_status']} window_nonempty={c['window_nonempty']} "
                f"prazno_empty={c['prazno_empty']} genericity={c['genericity']}")
    if "hilbert" in doc:
        for b in doc["hilbert"]["blocks"]:
            lines.append(f"  Hom({b['source']}, {b['target']}): "
                         f"{b['dims_by_degree']}")
    if "error" in doc:
        lines.append(f"error: {doc['error']['message']}")
        if doc["error"].get("destabilizer"):
            d = doc["error"]["destabilizer"]
            lines.append(f"destabilizer: case={d['case']} sigma={d['sigma']}")
    return "\n".join(lines) + "\n"


def error_document(subcommand: str, cfg: JobConfig | None, exc: Exception) -> dict:
    doc = {"tool": {"name": TOOL_NAME, "version": __version__},
           "subcommand": subcommand,
           "error": {"message": str(exc)}}
    if cfg is not None:
        doc["input"] = config_json(cfg)
    if isinstance(exc, PreconditionError) and exc.report is not None:
        doc["error"]["destabilizer"] = _destabilizer_json(exc.report)
    return doc
