"""The bridge between fixed-observable stages and extended stages.

At an extended stage (e, rho) the arrows that stay at rho form a copy of the
plain stage at e.  Flattening keeps exactly those arrows; sharpening rebuilds
the smallest extended sieve around their lifts.  The round trip down-then-up
is a deflationary idempotent whose fixpoints — the natural sieves — form a
Heyting algebra isomorphic to the plain stage's sieve lattice.

Sieves are bitmasks local to their base (see `sieves`).  The plain arrows
out of the stage ray are, in order, the extended arrows out of the stage
that stay at its observable: both sites filter the build monoid in index
order by the same commutant test and a nonzero image.  So plain bit i is
the i-th set bit of the extended stage's `Stage.fixed`: sharpening ORs the
extended principal masks of the lifted bits, flattening reads the fixed
bits in order.  Each stage's sieve list, top, implication table and
round-trip table (`Stage.natural`) live as long as its site (`Site.stage`).
Every reader of the round trip reads that table: the fixpoint subfunctor
♮Ω, cut from the extended classifier, keeps the sieves it fixes.  The
stage-isomorphism audit (`heyting_iso_check`) reads the two stages' tables
and `sieves.LazyTable`s of sharp and flat, local to the call.

Prop 5.10's two detectors are tabulated once per closed cut of the extended
propositions (`detector_tables`, from the cut alone); Thm 5.11 reads the
same tables, and its map's naturality from the position tables of Ω.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import InternalCheckError, NotASubPresheaf, UnknownObjectError
from .sieves import (
    Cut,
    LazyTable,
    Presheaf,
    Sieve,
    is_closed,
    is_heyting_family,
    lands_in,
    naturality_holds,
    principal_union,
    pullback_holds,
    subpresheaf,
    tau_values,
)
from .sites import ExtendedSite, PlainSite


class BridgeContext(NamedTuple):
    """A fixed extended stage paired with its plain counterpart.

    Arrow correspondence: the i-th plain arrow out of the stage ray is the
    extended arrow at position `fixed[i]` out of the stage, the i-th that
    stays at the stage observable (the set bits of `Stage.fixed`).
    """

    extended: ExtendedSite
    stage: int  # extended object index
    rho: int
    plain: PlainSite
    plain_stage: int  # plain object index of the same ray
    fixed: tuple[int, ...]  # per plain arrow, the position of its extended twin


def make_bridge_context(extended: ExtendedSite, stage: int, plain: PlainSite) -> BridgeContext:
    plain_stage = plain.ray_index(extended.object_ray(stage))
    mask = extended.stage(stage).fixed
    fixed = tuple([i for i in range(mask.bit_length()) if mask >> i & 1])
    ext_arrows, plain_arrows = extended.arrows_from(stage), plain.arrows_from(plain_stage)
    ext_ops = [extended.operator_matrix(extended.arrow_op(ext_arrows[i])) for i in fixed]
    if ext_ops != [plain.operator_matrix(plain.arrow_op(a)) for a in plain_arrows]:
        raise InternalCheckError("the plain arrows and the fixed extended arrows name different operators")
    return BridgeContext(extended, stage, extended.object_rho(stage), plain, plain_stage, fixed)


def _lift_mask(ctx: BridgeContext, s_e: Sieve) -> int:
    if s_e.base != ctx.plain_stage:
        raise UnknownObjectError("plain sieve is not based at the bridge stage")
    return sum(1 << ctx.fixed[i] for i in s_e)


def sharp(ctx: BridgeContext, s_e: Sieve) -> Sieve:
    """Smallest extended sieve containing the lift: postcomposites of lifts."""
    return Sieve(ctx.stage, principal_union(ctx.extended.stage(ctx.stage).principals, _lift_mask(ctx, s_e)))


def sharp_by_intersection(ctx: BridgeContext, s_e: Sieve, cap: int) -> Sieve:
    """Oracle for `sharp`: intersect every enumerated sieve containing the lift."""
    lifted = _lift_mask(ctx, s_e)
    candidates = [m for m in ctx.extended.stage(ctx.stage).sieves(cap, ctx.stage) if not lifted & ~m]
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
    return Sieve(ctx.plain_stage, sum(1 << i for i, j in enumerate(ctx.fixed) if s.mask >> j & 1))


def natural_omega(omega: Presheaf) -> Cut:
    """The fixpoint subfunctor ♮Ω, cut from the extended classifier Ω: the
    sieves that the round trip of their stage (`Stage.natural`) fixes."""
    site = omega.site
    return subpresheaf(omega, [
        sum(1 << i for i, s in enumerate(stage) if site.stage(o).natural[s.mask] == s.mask)
        for o, stage in enumerate(omega.values)
    ])


def _preserves_lattice(f: LazyTable, masks: list[int]) -> bool:
    """f preserves the join and the meet of every pair, compared row by row,
    once per unordered pair, as `|` and `&` commute."""
    images = [f[t] for t in masks]
    return all(
        [f[s | t] for t in masks[i:]] == [fs | ft for ft in images[i:]]
        and [f[s & t] for t in masks[i:]] == [fs & ft for ft in images[i:]]
        for i, (s, fs) in enumerate(zip(masks, images))
    )


def _dominates_transport(f: LazyTable, implies_from, implies_to, masks: list[int]) -> bool:
    """f(s ⇒ t) lies below f(s) ⇒ f(t) for every pair, compared row by row
    (a <= b iff a | b == b); both implications are keyed on s minus t
    (`sieves.Stage.implies`)."""
    images = [f[t] for t in masks]
    for s, fs in zip(masks, images):
        bounds = [implies_to[fs & ~ft] for ft in images]
        if [f[implies_from[s & ~t]] | b for t, b in zip(masks, bounds)] != bounds:
            return False
    return True


def heyting_iso_check(ctx: BridgeContext, cap: int) -> dict:
    """Exhaustive audit of the stage isomorphism and its implication transport.

    `sharp` and `flat` are tables filled once per distinct mask, local to
    this call; each stage implication is its stage's table keyed on
    `s & ~t` (`Stage.implies`), and the round trip ♮ is the extended
    stage's table (`Stage.natural`).  Every sieve here is based at the
    plain stage or at the extended stage, so the pair loops are table reads
    on masks.  The fixpoints are the sieves ♮ fixes, so the up-down round
    trip is a check, and `deflation` says ♮ shrinks every extended sieve
    (Prop 5.3).  The transported implication `y ↦ up[plain[down[y]]]` is
    keyed on `y = s & ~t` too (flat commutes with `&` and `~`), so the
    transport, domination and closure clauses run once per distinct y of
    the fixpoint pairs (closure failures counted per pair), and
    `is_heyting_family` audits the fixpoints under it.
    """
    plain, ext = ctx.plain.stage(ctx.plain_stage), ctx.extended.stage(ctx.stage)
    plain_masks, ext_masks = plain.sieves(cap, ctx.plain_stage), ext.sieves(cap, ctx.stage)
    up = LazyTable(lambda m: sharp(ctx, Sieve(ctx.plain_stage, m)).mask)
    down = LazyTable(lambda m: flat(ctx, Sieve(ctx.stage, m)).mask)
    fixpoints = [m for m in ext_masks if ext.natural[m] == m]
    # The plain implication carried to the fixpoints, keyed like the others.
    fix = LazyTable(lambda y: up[plain.implies[down[y]]])
    pairs = Counter(s1 & ~s2 for s1 in fixpoints for s2 in fixpoints)
    verdicts = {
        "round_trip_down_up": all(down[up[s]] == s for s in plain_masks),
        "round_trip_up_down": all(up[down[s]] == s for s in fixpoints),
        "deflation": all(not ext.natural[m] & ~m for m in ext_masks),
        "bijection": len(fixpoints) == len(plain_masks),
        "image_is_fixpoints": {up[s] for s in plain_masks} == set(fixpoints),
        "tops_and_bottoms": (up[plain.top], down[ext.top], up[0], down[0]) == (ext.top, plain.top, 0, 0),
        "lattice_preserved": (
            _preserves_lattice(up, plain_masks) and _preserves_lattice(down, ext_masks)
        ),
        "implies_transport": all(down[fix[y]] == plain.implies[down[y]] for y in pairs),
        "implies_dominates": all(not fix[y] & ~ext.implies[y] for y in pairs),
        "fixpoint_adjunction": is_heyting_family(fixpoints, fix, fixpoints),
        "pseudocomplement_inequality": (
            _dominates_transport(up, plain.implies, ext.implies, plain_masks)
            and _dominates_transport(down, ext.implies, plain.implies, ext_masks)
        ),
    }
    return {
        "plain_count": len(plain_masks),
        "extended_count": len(ext_masks),
        "fixpoint_count": len(fixpoints),
        **verdicts,
        "implies_strict_somewhere": any(
            fix[y] != ext.implies[y] and not fix[y] & ~ext.implies[y] for y in pairs
        ),
        "implies_closure_failures": sum(
            count for y, count in pairs.items() if ext.natural[ext.implies[y]] != ext.implies[y]
        ),
        "passed": all(verdicts.values()),
    }


def _projective_at(n: Cut, obj: int, i: int) -> list[int]:
    """Projectivity of the cut n at its parent's value at position i of stage
    obj: membership along a rho-raising arrow must imply membership along
    its fixed-rho twin.  Returns the arrows that break it (none if it holds)."""
    site = n.site
    return [
        a
        for a in site.arrows_from(obj)
        if lands_in(n, a, i) and not lands_in(n, site.rho_arrow_twin(a), i)
    ]


def detector_tables(n: Cut, chi) -> dict:
    """Prop 5.10's two detectors at every value of n's parent, once each,
    for a subfunctor n with characteristic table chi, laid out like chi:
    `witnesses`, the arrows along which n fails projectivity there
    (`_projective_at`), and `natural_chi`, chi's value after the round trip
    (`Stage.natural`), equal to it iff it is natural.  `mismatches` lists
    the (stage, value) pairs where the detectors disagree.  n must be a
    closed cut (`is_closed`)."""
    if not is_closed(n):
        raise NotASubPresheaf("the detectors are asked of a subfunctor")
    witnesses = tuple([
        tuple([_projective_at(n, o, i) for i in range(len(stage))])
        for o, stage in enumerate(chi)
    ])
    natural_chi = tuple([
        tuple([Sieve(o, n.site.stage(o).natural[value.mask]) for value in stage])
        for o, stage in enumerate(chi)
    ])
    mismatches = [
        (o, n.parent.values[o][i])
        for o, stage in enumerate(chi)
        for i, value in enumerate(stage)
        if (not witnesses[o][i]) != (natural_chi[o][i] == value)
    ]
    return {"witnesses": witnesses, "natural_chi": natural_chi, "mismatches": mismatches}


def natural_characteristic(n: Cut, chi, detectors: dict, omega: Presheaf) -> dict:
    """The classifying map with the fixpoint subfunctor as target, from the
    `detector_tables` of the cut n: n is projective, every value of chi is
    already a natural sieve (so the map factors through the fixpoints), the
    factored map is natural into the extended classifier omega, and n is
    its pullback against the 'true' section.  Uniqueness is the
    semi-classifier audit's (`sieves.semiclassifier_check`)."""
    natural_chi = detectors["natural_chi"]
    projective = not any(any(stage) for stage in detectors["witnesses"])
    factorization = natural_chi == chi
    naturality = naturality_holds(natural_chi, n.parent, omega)
    pullback = pullback_holds(natural_chi, n, tau_values(n.site))
    return {
        "projective": projective,
        "factorization": factorization,
        "naturality": naturality,
        "pullback": pullback,
        "passed": projective and factorization and naturality and pullback,
    }


def proposition_equivalence(ctx: BridgeContext, p, plain_value: Sieve, ext_value: Sieve) -> dict:
    """One proposition's plain and extended values, as valued at the two
    bridge stages, and the three verdicts: (a) flattening the extended value
    gives the plain value; (b) so does flattening its fixpoint image; (c)
    sharpening the plain value gives the fixpoint image."""
    nat_value = Sieve(ctx.stage, ctx.extended.stage(ctx.stage).natural[ext_value.mask])
    flat_value = flat(ctx, ext_value)
    return {
        "proposition": p,
        "plain": plain_value,
        "extended": ext_value,
        "natural_image": nat_value,
        "flat_image": flat_value,
        "a": flat_value == plain_value,
        "b": flat(ctx, nat_value) == plain_value,
        "c": sharp(ctx, plain_value) == nat_value,
    }


def equivalence_check(ctx: BridgeContext, universe, plain_row, ext_row) -> dict:
    """The two valuation families agree through the stage isomorphism, for
    every proposition (see `proposition_equivalence`), given as the plain and
    extended bridge stages' rows of `sieves.valuation_table`."""
    rows = [proposition_equivalence(ctx, *entry) for entry in zip(universe, plain_row, ext_row)]
    return {"rows": rows, "passed": all(row["a"] and row["b"] and row["c"] for row in rows)}
