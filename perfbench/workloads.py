"""The benchmark's workloads: ordered lists of ``tl2b`` CLI invocations.

Every invocation runs in a fresh process with ``--seed`` set to the point
seed that the benchmark seed selects.  The reasons for each choice are in
``perfbench/README.md``.
"""

from __future__ import annotations

CRITICAL_TWISTS = ("+,1,-,+", "+,3,-,+", "+,5,-,+")

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "operators": (
        ("relations", "--n", "6"),
        ("spinchain", "--n", "6"),
        ("basis", "--n", "6"),
    ),
    "determinants": (
        ("gram", "--n", "6"),
        ("gram", "--n", "7"),
    ),
    "critical": tuple(
        inv for twist in CRITICAL_TWISTS
        for inv in (("gram", "--n", "6", f"--theta={twist}"),
                    ("irreps", "--n", "6", f"--theta={twist}"))
    ) + (
        ("irreps", "--n", "4"),
        ("modules", "--n", "7"),
    ),
}

#: The benchmark seed selects one of these ``tl2b --seed`` values per
#: workload.  The cost of exact arithmetic follows the heights of the
#: parameter point: over seeds 1-10 one pass of ``determinants`` took
#: 18-28 s and one of ``critical`` 14-19 s, a spread wider than a regression
#: bound can be.  Each workload therefore draws from points whose measured
#: cost agrees within 4%.  Every report of every one of them has
#: a stored digest.
POINT_SEEDS: dict[str, tuple[int, ...]] = {
    "operators": (2, 4, 7),
    "determinants": (4, 6, 7),
    "critical": (4, 5, 7),
}

#: commands whose summed wall time is reported as ``<command>_s``
TIMED_COMMANDS = ("relations", "spinchain", "basis", "gram", "irreps")

OPS, DET, CRIT = "operators", "determinants", "critical"
EVERY = (OPS, DET, CRIT)

#: Every layer and every span that a per-layer metric reads -> the workloads
#: on which it must record at least one traced call: those where the table
#: in README.md says its metrics should move.  A layer (no dot) is matched by
#: any span of that layer, a span name exactly.  The traced run fails when a
#: metric reads a name missing here, or when a name records no call on a
#: workload listed for it, so that a rename in the package cannot silently
#: zero a metric.
REQUIRED_CALLS: dict[str, tuple[str, ...]] = {
    "scalars": EVERY, "diagrams": EVERY, "wordrep": EVERY, "linalg": EVERY,
    "hecke": (OPS,), "pathbasis": EVERY, "spinchain": (OPS,),
    "irreps": (CRIT,), "cli": EVERY,
    "linalg.matmul": (OPS,),
    "linalg.det": (DET, CRIT),
    "linalg.invert": (OPS, CRIT),
    "linalg.rank": (CRIT,),
    "scalars.q_power": (OPS,),
    "scalars.point": EVERY,
    "diagrams.compose": (DET, CRIT),
    "diagrams.act_on_half": (OPS,),
    "wordrep.enumerate_basis": (OPS,),
    "wordrep.action_table": (OPS,),
    "wordrep.generator_matrix": (OPS,),
    "wordrep.gram_matrix": (DET, CRIT),
    "wordrep.relation_audit": (OPS,),
    **{f"hecke.{fn}": (OPS,) for fn in (
        "lift_to_hecke", "murphy", "hecke_relation_audit",
        "murphy_commutation_audit", "equivalent_presentation_audit",
        "centre_audit", "iji_audit")},
    "pathbasis.apply_e": (OPS, CRIT),
    "pathbasis.build_b1": (OPS, CRIT),
    "pathbasis.in_coordinates": (OPS,),
    **{f"pathbasis.{fn}": (OPS,) for fn in (
        "ybe_audit", "idempotent_identities", "action_audit_b1",
        "murphy_audit_b1")},
    **{f"spinchain.{fn}": (OPS,) for fn in (
        "apply_e", "spin_relation_audit", "twist_symmetry_audit",
        "equivalence_audit")},
    **{f"irreps.{fn}": (CRIT,) for fn in (
        "detect_invariant", "family_relation_audit", "central_character",
        "murphy_spectrum_match", "traces_agree_all_words")},
}


def point_seed(workload: str, seed: int) -> int:
    pool = POINT_SEEDS[workload]
    return pool[seed % len(pool)]


def label(invocation: tuple[str, ...]) -> str:
    """The invocation as it is written on a command line, without the seed."""
    return " ".join(invocation)


def argv(invocation: tuple[str, ...], seed: int) -> list[str]:
    return [*invocation, "--seed", str(seed)]
