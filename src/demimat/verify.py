"""The identity registry, and the seeded battery that runs it on random demimatroids.

Every algebraic law the package promises is a plain predicate
``check(table) -> bool`` in ``IDENTITIES``, and every second route is run:
each checks itself against its primary route and raises on a disagreement,
which the battery records as a failure with its message.  A check that needs
partners (a subset, two more demimatroids) draws them from a generator seeded
by the table's own ranks, so a failure records a witness (the offending
ranks) that reproduces it alone, without the battery's seed.  The recovery
identity is the last law, ``recovery_identity``, and the report's
``conjecture_census`` repeats its counts.

Several identities are decided on basis coordinates, not on expanded
polynomials.  For each element, the coordinates of the deletion-contraction
side (``tutte.recurrence_counts``, which T and the Whitney function share)
are compared with the table's own.  T, f and W relabel one count, the
subsets by (size, rank), injectively, so each fact about it is decided once:
the minors' profiles by T's recurrence, which is W's too, and the dual's
profile by MacWilliams, which is the T/f duality swap too.  The MacWilliams
involution compares ``hamming.macwilliams_coordinates`` of the dual's W with
the table's subset-sum coordinates; and the Tutte, P_j and Betti routes,
MacWilliams, the Tutte recovery and the recovery identity decide their own
routes on coordinates, and f(x-1, y-1) == T and W(x, y, 1) == x^n read term
dicts.  Equal coordinates give equal polynomials, and a polynomial
comparison could only miss what they show.

No law repeats another's fact: ``operator_group`` and ``macwilliams``
decide rank(M) + rank(M*) = n, ``hamming_routes`` W^(0) = W(x, y, 1) = x^n,
and the upper Wei bound implies the lower (d_r <= d^r).  The elongation
law reads d_(i+1) = d_1 of the i-th elongation off the tables it builds.
"""

from __future__ import annotations

import random
import zlib

from . import core, hamming, ops, simplicial, tutte, weights
from ._layout import mask_sizes
from .poly import monomial, term_sum


def _partners(m: core.RankTable) -> random.Random:
    """A generator seeded by the ranks alone, the same in every process
    (``hash`` of a str is not: it follows ``PYTHONHASHSEED``)."""
    return random.Random(zlib.crc32(repr(m.ranks).encode()))


def _operator_group(m: core.RankTable) -> bool:
    # A pair with the identity would compare an image with itself.
    klein = (ops.DUAL, ops.NULLITY, ops.SUPPLEMENT)
    for a in klein:
        for b in klein:
            ops.compose_check(a, b, m)  # raises on a mismatch
    return True


def _minor_duality(m: core.RankTable) -> bool:
    a = core.random_subset(m.n, _partners(m))
    left = ops.dual(ops.delete(m, a)).ranks == ops.contract(ops.dual(m), a).ranks
    right = ops.dual(ops.contract(m, a)).ranks == ops.delete(ops.dual(m), a).ranks
    return left and right


def _lattice_laws(m: core.RankTable) -> bool:
    partners = _partners(m)
    b = core.random_demimatroid(m.n, partners)
    c = core.random_demimatroid(m.n, partners)
    # Each table that several laws share is built once.
    join_mb, meet_mb = ops.join(m, b), ops.meet(m, b)
    join_bc, meet_bc = ops.join(b, c), ops.meet(b, c)
    checks = [
        join_mb.ranks == ops.join(b, m).ranks,
        meet_mb.ranks == ops.meet(b, m).ranks,
        ops.join(m, join_bc).ranks == ops.join(join_mb, c).ranks,
        ops.meet(m, meet_bc).ranks == ops.meet(meet_mb, c).ranks,
        ops.join(m, meet_mb).ranks == m.ranks,
        ops.meet(m, join_mb).ranks == m.ranks,
        ops.meet(m, join_bc).ranks == ops.join(meet_mb, ops.meet(m, c)).ranks,
        ops.join(m, ops.lattice_bottom(m.n)).ranks == m.ranks,
        ops.meet(m, ops.lattice_top(m.n)).ranks == m.ranks,
    ]
    return all(checks)


def _wei_bounds(m: core.RankTable) -> bool:
    profile = weights.wei_hierarchy(m)
    n, k = m.n, m.rank
    # The largest subset of the dual with rank k* - r is its upper Wei number.
    star = weights.wei_hierarchy(ops.dual(m))
    for r in range(m.total_nullity + 1):
        if weights.min_size_at_nullity(m, r) + star.d_up[star.k - r] != m.n:
            return False
    # d_r <= d^r, so the upper bound implies the lower one.
    return all(k + d <= n + r for r, d in enumerate(profile.d_up))


def _wei_sequence_roundtrip(m: core.RankTable) -> bool:
    # Every strictly increasing sequence is the Wei sequence of the table
    # ``from_wei_sequence`` builds for it, so over all tables this round trip
    # meets every sequence, the empty one included.
    d = weights.wei_hierarchy(m).d
    return weights.wei_hierarchy(core.from_wei_sequence(m.n, d)).d == d


def _elongation_laws(m: core.RankTable) -> bool:
    eta = m.total_nullity
    if ops.elongate(m, eta).ranks != ops.lattice_top(m.n).ranks:
        return False
    sizes = mask_sizes(m.n)
    step = previous = m
    for i in range(1, eta + 1):
        step = ops.elongate(step, 1)
        elongated = ops.elongate(m, i)
        if step.ranks != elongated.ranks:
            return False
        # The i-th elongation is independent exactly where eta(X) <= i.
        if any((s - e == 0) != (s - r <= i) for s, r, e in zip(sizes, m.ranks, elongated.ranks)):
            return False
        # d_i of the nullity table is d_1 of the (i-1)-th elongation's.
        if weights.min_size_at_nullity(m, i) != weights.min_size_at_nullity(previous, 1):
            return False
        previous = elongated
    return True


def _tutte_identities(m: core.RankTable) -> bool:
    # The recurrences for T and f are one comparison: their sides share the
    # coordinates ``recurrence_counts`` gives.
    own = tutte.corank_nullity_counts(m)
    if any(tutte.recurrence_counts(m, p) != own for p in range(1, m.n + 1)):
        return False
    # f(x-1, y-1) == T: f's monomials x^a y^b are T's coordinates (a, b, 0).
    if tutte.whitney_f(m).terms() != {(a, b, 0): c for (a, b), c in own.items()}:
        return False
    tutte.characteristic(m)  # internally cross-checked
    return True


def _hamming_routes(m: core.RankTable) -> bool:
    # Each second route checks itself against the subset sum and raises.
    hamming.hamming_via_tutte(m)
    hamming.w_from_pj(m)
    simplicial.w_via_betti(m, simplicial.RATIONALS)
    w = hamming.hamming_subset_sum(m).terms()  # W(x, y, 1) == x^n: sum over t per (x, y)
    return term_sum(((a, b, 0), c) for (a, b, _), c in w.items()) == monomial(1, x=m.n)


def _macwilliams_pair(m: core.RankTable) -> bool:
    star = hamming.macwilliams(m)  # checked against the dual's subset sum
    # The transform is an involution: applied to the dual, it gives W back.
    back = hamming.macwilliams_coordinates(star, ops.dual(m).total_nullity)
    if back != hamming.subset_sum_coordinates(m):
        return False
    hamming.tutte_from_hamming(m)  # checked against the Tutte polynomial
    return True


def _coefficient_structure(m: core.RankTable) -> bool:
    if m.total_nullity == 0:
        return True
    hamming.a_coefficients(m)  # raises if the A_j structure is off
    hamming.generalized_w(m, 1)  # checked against the subset route
    return True


def _recovery_identity(m: core.RankTable) -> bool:
    hamming.conjecture_check(m)  # the q-enumerator route of T, checked against T
    return True


IDENTITIES = {
    "operator_group": _operator_group,
    "minor_duality": _minor_duality,
    "lattice_laws": _lattice_laws,
    "wei_duality": weights.check_wei_duality,
    "wei_bounds": _wei_bounds,
    "wei_sequence_roundtrip": _wei_sequence_roundtrip,
    "elongation_laws": _elongation_laws,
    "tutte_identities": _tutte_identities,
    "hamming_routes": _hamming_routes,
    "macwilliams": _macwilliams_pair,
    "coefficient_structure": _coefficient_structure,
    # Last, so that its ``hamming.conjecture_check`` is each sample's last
    # library call: the ``battery`` benchmark workload times a sample up to it.
    "recovery_identity": _recovery_identity,
}


def run_battery(seed: int, n: int, samples: int) -> dict:
    """The battery's report, as ``verify`` prints it after its manifest:
    seed, n, samples, ok, each identity's passes and failures (by name) and
    the ``recovery_identity`` law's counts again as the census, ``holds``
    and ``fails``."""
    rng = random.Random(seed)
    identities = {name: {"passes": 0, "failures": []} for name in sorted(IDENTITIES)}
    for _ in range(samples):
        m = core.random_demimatroid(n, rng)
        for name, check in IDENTITIES.items():
            result = identities[name]
            try:
                passed = check(m)
            except Exception as exc:  # count the witness, keep the run going
                result["failures"].append({"ranks": list(m.ranks), "error": str(exc)})
                continue
            if passed:
                result["passes"] += 1
            else:
                result["failures"].append({"ranks": list(m.ranks)})
    ok = not any(result["failures"] for result in identities.values())
    recovery = identities["recovery_identity"]
    census = {"holds": recovery["passes"], "fails": len(recovery["failures"])}
    return {"seed": seed, "n": n, "samples": samples, "ok": ok,
            "identities": identities, "conjecture_census": census}
