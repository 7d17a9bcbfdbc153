"""The bridge between fixed-observable stages and extended stages.

At an extended stage (e, rho) the arrows that stay at rho form a copy of the
plain stage at e.  Flattening keeps exactly those arrows; sharpening rebuilds
the smallest extended sieve around their lifts.  The round trip down-then-up
is a deflationary idempotent whose fixpoints — the natural sieves — form a
Heyting algebra isomorphic to the plain stage's sieve lattice.

Sieves are bitmasks (see `sieves`): sharpening ORs the extended principal
masks of the lifted arrows, flattening relabels the fixed-observable bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, NotASubPresheaf, UnknownObjectError
from .sieves import (
    Presheaf,
    Sieve,
    bottom_sieve,
    build_presheaf,
    characteristic_unchecked,
    enumerate_sieves,
    heyting_implies,
    is_subpresheaf,
    omega_transition,
    top_sieve,
)
from .sites import ExtendedSite, PlainSite


@dataclass(frozen=True)
class BridgeContext:
    """A fixed extended stage paired with its plain counterpart.

    Arrow correspondence: a plain arrow out of the stage ray matches the
    extended arrow with the same operator that stays at the stage observable.
    """

    extended: ExtendedSite
    stage: int  # extended object index
    rho: int
    plain: PlainSite
    plain_stage: int  # plain object index of the same ray
    plain_to_ext: dict[int, int]
    ext_to_plain: dict[int, int]


def make_bridge_context(
    extended: ExtendedSite, stage: int, plain: PlainSite, op_map: tuple[int, ...]
) -> BridgeContext:
    rho = extended.object_rho(stage)
    ray = extended.object_ray(stage)
    plain_stage = plain.ray_index(ray)
    plain_to_ext: dict[int, int] = {}
    ext_to_plain: dict[int, int] = {}
    ext_by_op = {
        extended.arrow_op(a): a
        for a in extended.arrows_from(stage)
        if extended.arrow_cod_rho(a) == rho
    }
    for a in plain.arrows_from(plain_stage):
        full_op = op_map[plain.arrow_op(a)]
        twin = ext_by_op.get(full_op)
        if twin is None:
            raise InternalCheckError("plain arrow without an extended twin")
        plain_to_ext[a] = twin
        ext_to_plain[twin] = a
    if len(ext_to_plain) != len(ext_by_op):
        raise InternalCheckError("extended fixed-rho arrow without a plain twin")
    return BridgeContext(extended, stage, rho, plain, plain_stage, plain_to_ext, ext_to_plain)


def _lift_mask(ctx: BridgeContext, s_e: Sieve) -> int:
    if s_e.base != ctx.plain_stage:
        raise UnknownObjectError("plain sieve is not based at the bridge stage")
    lifted = 0
    for a in s_e:
        lifted |= 1 << ctx.plain_to_ext[a]
    return lifted


def lift_eta(ctx: BridgeContext, s_e: Sieve) -> frozenset[int]:
    """Relabel a plain sieve as fixed-rho extended arrows; usually not a sieve."""
    return Sieve(ctx.stage, _lift_mask(ctx, s_e)).arrows


def sharp(ctx: BridgeContext, s_e: Sieve) -> Sieve:
    """Smallest extended sieve containing the lift: postcomposites of lifts."""
    principal = ctx.extended.principal_masks
    members = 0
    for a in Sieve(ctx.stage, _lift_mask(ctx, s_e)):
        members |= principal[a]
    return Sieve(ctx.stage, members)


def sharp_by_intersection(ctx: BridgeContext, s_e: Sieve, cap: int) -> Sieve:
    """Oracle for `sharp`: intersect every enumerated sieve containing the lift."""
    lifted = _lift_mask(ctx, s_e)
    candidates = [
        s.mask for s in enumerate_sieves(ctx.extended, ctx.stage, cap) if not lifted & ~s.mask
    ]
    if not candidates:  # pragma: no cover - the top sieve always qualifies
        raise InternalCheckError("no sieve contains the lift")
    members = candidates[0]
    for mask in candidates[1:]:
        members &= mask
    return Sieve(ctx.stage, members)


def flat(ctx: BridgeContext, s: Sieve) -> Sieve:
    """Keep the arrows that stay at the stage observable, read as plain arrows."""
    if s.base != ctx.stage:
        raise UnknownObjectError("extended sieve is not based at the bridge stage")
    ext_to_plain = ctx.ext_to_plain
    members = 0
    for a in s:
        plain = ext_to_plain.get(a)
        if plain is not None:
            members |= 1 << plain
    return Sieve(ctx.plain_stage, members)


def natural_map_at(site: ExtendedSite, obj: int, s: Sieve) -> Sieve:
    """Down-and-up at an arbitrary stage: regenerate from the fixed-rho part."""
    rho = site.object_rho(obj)
    principal = site.principal_masks
    members = 0
    for a in s:
        if site.arrow_cod_rho(a) == rho:
            members |= principal[a]
    return Sieve(obj, members)


def natural_map(ctx: BridgeContext, s: Sieve) -> Sieve:
    return natural_map_at(ctx.extended, ctx.stage, s)


def is_natural(ctx: BridgeContext, s: Sieve) -> bool:
    return natural_map(ctx, s) == s


def is_natural_at(site: ExtendedSite, obj: int, s: Sieve) -> bool:
    return natural_map_at(site, obj, s) == s


def natural_sieves_at(site: ExtendedSite, obj: int, cap: int) -> tuple[Sieve, ...]:
    return tuple(
        s for s in enumerate_sieves(site, obj, cap) if is_natural_at(site, obj, s)
    )


def natural_omega(site: ExtendedSite, cap: int) -> Presheaf:
    """The fixpoint subfunctor of the classifier; transitions are inherited."""
    return build_presheaf(
        site,
        lambda o: natural_sieves_at(site, o, cap),
        lambda a, s: omega_transition(site, a, s),
    )


def natural_implies(ctx: BridgeContext, s1: Sieve, s2: Sieve) -> Sieve:
    """The pseudocomplement inside the fixpoint lattice."""
    return sharp(ctx, heyting_implies(ctx.plain, flat(ctx, s1), flat(ctx, s2)))


def heyting_iso_check(ctx: BridgeContext, cap: int) -> dict:
    """Exhaustive audit of the stage isomorphism and its implication transport."""
    plain_sieves = enumerate_sieves(ctx.plain, ctx.plain_stage, cap)
    ext_sieves = enumerate_sieves(ctx.extended, ctx.stage, cap)
    fixpoints = tuple(s for s in ext_sieves if is_natural(ctx, s))

    round_trip_down_up = all(flat(ctx, sharp(ctx, s)) == s for s in plain_sieves)
    round_trip_up_down = all(sharp(ctx, flat(ctx, s)) == s for s in fixpoints)
    bijection = len(fixpoints) == len(plain_sieves)
    image_is_fixpoints = {sharp(ctx, s).mask for s in plain_sieves} == {
        s.mask for s in fixpoints
    }

    plain_top = top_sieve(ctx.plain, ctx.plain_stage)
    ext_top = top_sieve(ctx.extended, ctx.stage)
    tops_and_bottoms = (
        sharp(ctx, plain_top) == ext_top
        and flat(ctx, ext_top) == plain_top
        and sharp(ctx, bottom_sieve(ctx.plain_stage)) == bottom_sieve(ctx.stage)
        and flat(ctx, bottom_sieve(ctx.stage)) == bottom_sieve(ctx.plain_stage)
    )

    # The pairs and triples below work on masks: every sieve here is based
    # at the plain stage or at the extended stage.
    lattice_preserved = True
    for s1 in plain_sieves:
        for s2 in plain_sieves:
            join_mask, meet_mask = s1.mask | s2.mask, s1.mask & s2.mask
            if sharp(ctx, Sieve(ctx.plain_stage, join_mask)).mask != (
                sharp(ctx, s1).mask | sharp(ctx, s2).mask
            ):
                lattice_preserved = False
            if sharp(ctx, Sieve(ctx.plain_stage, meet_mask)).mask != (
                sharp(ctx, s1).mask & sharp(ctx, s2).mask
            ):
                lattice_preserved = False
    for s1 in ext_sieves:
        for s2 in ext_sieves:
            join_mask, meet_mask = s1.mask | s2.mask, s1.mask & s2.mask
            if flat(ctx, Sieve(ctx.stage, join_mask)).mask != (
                flat(ctx, s1).mask | flat(ctx, s2).mask
            ):
                lattice_preserved = False
            if flat(ctx, Sieve(ctx.stage, meet_mask)).mask != (
                flat(ctx, s1).mask & flat(ctx, s2).mask
            ):
                lattice_preserved = False

    implies_transport = True
    implies_dominates = True
    fixpoint_adjunction = True
    strict_somewhere = False
    closure_failures = 0
    fixpoint_masks = [s.mask for s in fixpoints]
    for s1 in fixpoints:
        for s2 in fixpoints:
            fixpoint_implies = natural_implies(ctx, s1, s2)
            plain_implies = heyting_implies(ctx.plain, flat(ctx, s1), flat(ctx, s2))
            if flat(ctx, fixpoint_implies) != plain_implies:
                implies_transport = False
            ambient = heyting_implies(ctx.extended, s1, s2)
            imp, amb = fixpoint_implies.mask, ambient.mask
            if imp & ~amb:
                implies_dominates = False
            elif imp != amb:
                strict_somewhere = True
            if not is_natural(ctx, ambient):
                closure_failures += 1
            # s1 ∧ x <= s2 iff x misses s1 \ s2; x <= imp iff x misses ~imp.
            outside, not_imp = s1.mask & ~s2.mask, ~imp
            for x in fixpoint_masks:
                if (not x & outside) != (not x & not_imp):
                    fixpoint_adjunction = False

    pseudo_inequality = True
    for s1 in plain_sieves:
        for s2 in plain_sieves:
            lhs = sharp(ctx, heyting_implies(ctx.plain, s1, s2))
            rhs = heyting_implies(ctx.extended, sharp(ctx, s1), sharp(ctx, s2))
            if lhs.mask & ~rhs.mask:
                pseudo_inequality = False
    for s1 in ext_sieves:
        for s2 in ext_sieves:
            lhs = flat(ctx, heyting_implies(ctx.extended, s1, s2))
            rhs = heyting_implies(ctx.plain, flat(ctx, s1), flat(ctx, s2))
            if lhs.mask & ~rhs.mask:
                pseudo_inequality = False

    return {
        "plain_count": len(plain_sieves),
        "extended_count": len(ext_sieves),
        "fixpoint_count": len(fixpoints),
        "round_trip_down_up": round_trip_down_up,
        "round_trip_up_down": round_trip_up_down,
        "bijection": bijection,
        "image_is_fixpoints": image_is_fixpoints,
        "tops_and_bottoms": tops_and_bottoms,
        "lattice_preserved": lattice_preserved,
        "implies_transport": implies_transport,
        "implies_dominates": implies_dominates,
        "fixpoint_adjunction": fixpoint_adjunction,
        "implies_strict_somewhere": strict_somewhere,
        "implies_closure_failures": closure_failures,
        "pseudocomplement_inequality": pseudo_inequality,
        "passed": all(
            [
                round_trip_down_up,
                round_trip_up_down,
                bijection,
                image_is_fixpoints,
                tops_and_bottoms,
                lattice_preserved,
                implies_transport,
                implies_dominates,
                fixpoint_adjunction,
                pseudo_inequality,
            ]
        ),
    }


def is_projective(
    site: ExtendedSite, n: Presheaf, m: Presheaf, obj: int, x, *, checked: bool = True
) -> tuple[bool, list[int]]:
    """Membership along a rho-raising arrow must imply membership along its
    fixed-rho twin.  Returns the verdict and the witnessing arrows."""
    if checked and not is_subpresheaf(n, m):
        raise NotASubPresheaf("projectivity is asked of a subfunctor")
    witnesses: list[int] = []
    for a in site.arrows_from(obj):
        twin = site.rho_arrow_twin(a)
        if m.map(a, x) in n.value_set(site.arrow_cod(a)):
            if m.map(twin, x) not in n.value_set(site.arrow_cod(twin)):
                witnesses.append(a)
    return (not witnesses, witnesses)


def projectivity_matches_naturality(
    site: ExtendedSite, n: Presheaf, m: Presheaf
) -> tuple[bool, list[tuple[int, object]]]:
    """The two detectors of the same property must agree on every (stage, x)."""
    mismatches: list[tuple[int, object]] = []
    sub_ok = is_subpresheaf(n, m)
    if not sub_ok:
        raise NotASubPresheaf("detector comparison needs a subfunctor")
    for o in range(site.n_objects):
        for x in m.values[o]:
            projective, _ = is_projective(site, n, m, o, x, checked=False)
            natural = is_natural_at(site, o, characteristic_unchecked(site, n, m, o, x))
            if projective != natural:
                mismatches.append((o, x))
    return (not mismatches, mismatches)


def natural_characteristic(
    site: ExtendedSite, n: Presheaf, m: Presheaf, candidate_budget: int = 10_000
) -> dict:
    """The classifying map with the fixpoint subfunctor as target.

    Validates: stage maps land on natural sieves, the squares commute, the
    inclusion recovers the plain characteristic map, the pullback against the
    fixpoint 'true' holds per object, and uniqueness (enumerated under the
    budget, otherwise pointwise-forced).
    """
    if not is_subpresheaf(n, m):
        raise NotASubPresheaf("characteristic factoring needs a subfunctor")
    chi = {
        (o, x): characteristic_unchecked(site, n, m, o, x)
        for o in range(site.n_objects)
        for x in m.values[o]
    }
    projective = all(
        is_projective(site, n, m, o, x, checked=False)[0]
        for o in range(site.n_objects)
        for x in m.values[o]
    )
    natural_chi = {
        key: natural_map_at(site, key[0], value) for key, value in chi.items()
    }
    factorization = all(natural_chi[key] == chi[key] for key in chi)
    naturality = True
    for a in range(len(site.arrows)):
        dom, cod = site.arrow_dom(a), site.arrow_cod(a)
        for x in m.values[dom]:
            lhs = omega_transition(site, a, natural_chi[(dom, x)])
            rhs = natural_chi[(cod, m.map(a, x))]
            if lhs != rhs:
                naturality = False
    tau = tuple(top_sieve(site, o) for o in range(site.n_objects))
    pullback = all(
        set(n.values[o]) == {x for x in m.values[o] if natural_chi[(o, x)] == tau[o]}
        for o in range(site.n_objects)
    )
    return {
        "projective": projective,
        "factorization": factorization,
        "naturality": naturality,
        "pullback": pullback,
        "chi": chi,
        "natural_chi": natural_chi,
        "passed": projective and factorization and naturality and pullback,
    }


def equivalence_check(
    ctx: BridgeContext, r, universe, valuation_fn
) -> dict:
    """The two valuation families agree through the stage isomorphism.

    For every proposition: flattening the extended value gives the plain
    value; the fixpoint image of the extended value flattens to the plain
    value; and sharpening the plain value gives the fixpoint image.
    """
    rows = []
    all_ok = True
    for p in universe:
        plain_value = valuation_fn(ctx.plain, ctx.plain_stage, r, p)
        ext_value = valuation_fn(ctx.extended, ctx.stage, r, p)
        nat_value = natural_map(ctx, ext_value)
        a_ok = flat(ctx, ext_value) == plain_value
        b_ok = flat(ctx, nat_value) == plain_value
        c_ok = sharp(ctx, plain_value) == nat_value
        all_ok = all_ok and a_ok and b_ok and c_ok
        rows.append(
            {
                "proposition": p,
                "plain": plain_value,
                "extended": ext_value,
                "natural_image": nat_value,
                "a": a_ok,
                "b": b_ok,
                "c": c_ok,
            }
        )
    return {"rows": rows, "passed": all_ok}
