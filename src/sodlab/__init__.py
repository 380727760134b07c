"""Exact-rational combinatorics of windowed ordered decompositions.

Submodules:
    linalg      exact vectors and Gaussian elimination
    linprog     rational simplex, forced tightness, lattice enumeration
    rootdata    catalog root data, Levi subdata, descent and orbits by the
                integer simple reflections
    reps        weight multisets, stability, quasi-symmetry, twists
    zonotope    scaled weight zonotopes, face signatures, genericity,
                facet tables for epsilon-shifted windows
    partition   the dominant-weight partition by face signatures
    characters  Freudenthal multiplicities, Weyl dimension, Hom blocks
    sod         decomposition components, NCCR certificates, presets
    report/cli  deterministic reporting and the command line tool
"""

__version__ = "0.1.0"  # pyproject.toml must match (tests/test_cli.py)

from .linprog import (BoxedLinearProgram, InputError, LpBuilder,
                      enumerate_lattice, lp_optimize)
from .rootdata import (LeviDatum, RootDatum, build_group, invariant_subspace,
                       is_dominant, levi, make_dominant, pairing,
                       star_dominate)
from .reps import (DestabilizerReport, RepSpec, SignPartition, TwistData,
                   coinvariant_rep, construct_rep, find_destabilizer,
                   has_t_stable_point, is_quasi_symmetric, rep_spec,
                   twist_member, weight_signs)
from .zonotope import (EpsShift, FaceSignature, face_signature_at,
                       is_generic, is_weakly_generic, member, member_eps,
                       min_radius, supporting_lambda)
from .partition import (PartitionCell, PreconditionError, ShiftProfile,
                        cell_members, make_profile, order_key,
                        partition_region, signature_of,
                        validate_reduction_setting)
from .characters import (CharacterTable, hom_block_dims, irr_character,
                         sym_power_character, weyl_dim)
from .sod import (NccrCertificate, SodComponent, SodResult, certify_nccr,
                  enumerate_sod, preset)
