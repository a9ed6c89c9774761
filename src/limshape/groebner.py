"""Buchberger engine: minimal Groebner bases, ideal intersection by
elimination, gin, and the regularity surrogate.

The engine keeps each basis element as a monic (leading monomial, term
dict) pair, from the input generators to a minimal basis; that list is
also its reducer list.  Each caller reduces only what it returns: gin reads
the leading monomials alone, and intersect_ideals tail-reduces the u-free
pairs it keeps.

A caller that knows the Hilbert series of the ideal in advance passes its
numerator, the K-polynomial, as a target, and the S-pair loop stops as soon
as the leads found so far have it (Traverso 1996, "Hilbert functions and
the Buchberger algorithm").  gin knows it because the series is invariant
under a linear change of coordinates, and symbolic_power returns I^(m)
with the leads of a Groebner basis of it.

Inputs are desk scale (n <= 4, small degrees); the S-pair loop carries a
fixed cap (PAIR_CAP) so runaway computations fail predictably instead of
hanging.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import linalg
from .rings import (
    DEGREVLEX,
    DimensionError,
    MonomialOrder,
    Polynomial,
    degree,
    divides,
    exp_div,
    exp_lcm,
    linear_substitute,
    mul_exp,
)
from .staircase import MonomialStaircase, k_polynomial, minimalize

PAIR_CAP = 200_000  # S-pairs one Buchberger run may take; read at call time
MIN_ENTRY_BOUND = 10  # least bound on the entries of a gin draw


class ComputationLimitError(RuntimeError):
    """The S-pair cap was exhausted before the basis stabilized."""


class HilbertSeriesError(RuntimeError):
    """The S-pair loop ended with leads whose Hilbert series is not the
    target's: the target or the basis is wrong."""


class GenericityError(RuntimeError):
    """Two independent coordinate draws produced different initial ideals,
    or the initial ideal they agree on is not Borel-fixed."""


class LastVariableError(RuntimeError):
    """A gin minimal generator involves the last variable; the input is not
    saturated or the coordinate change was not generic."""


@dataclass(frozen=True)
class Ideal:
    nvars: int
    generators: tuple  # nonempty tuple of homogeneous nonzero Polynomial

    @classmethod
    def of(cls, gens):
        gens = tuple(gens)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        nvars = gens[0].nvars
        for g in gens:
            if g.nvars != nvars:
                raise DimensionError("mixed variable counts in generators")
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_homogeneous():
                raise ValueError(f"generator not homogeneous: {g}")
        return cls(nvars, gens)

    def power(self, m: int) -> "Ideal":
        """Ordinary power: all m-fold products of generators."""
        if m < 1:
            raise ValueError("power must be >= 1")
        prods = []
        for combo in combinations_with_replacement(self.generators, m):
            p = combo[0]
            for q in combo[1:]:
                p = p * q
            prods.append(p)
        return Ideal.of(prods)


def _neg_key(k):
    return tuple(-x if isinstance(x, int) else _neg_key(x) for x in k)


def _reduce_terms(terms, reducers, order):
    """Remainder dict of a term dict modulo (lm, terms) reducer pairs.

    Works top-down through the support with a lazy max-heap, mutating a
    scratch dict; the workhorse behind buchberger.  The remainder's terms
    are inserted in decreasing order, so its first key is its leading
    monomial.
    """
    key = order.key
    work = dict(terms)
    heap = [(_neg_key(key(a)), a) for a in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, lm = heapq.heappop(heap)
        lc = work.get(lm)
        if lc is None or lm in remainder:
            continue
        for glm, gterms in reducers:
            if divides(glm, lm):
                shift = exp_div(lm, glm)
                factor = lc / gterms[glm]
                for a, c in gterms.items():
                    ab = mul_exp(a, shift)
                    old = work.get(ab)
                    s = (old or 0) - c * factor
                    if s:
                        work[ab] = s
                        if old is None:
                            heapq.heappush(heap, (_neg_key(key(ab)), ab))
                    else:
                        work.pop(ab, None)
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return remainder


def buchberger(gens, order: MonomialOrder = DEGREVLEX, target=None):
    """Minimal Groebner basis of the given polynomials, as monic (leading
    monomial, term dict) pairs whose leads divide no other lead, sorted by
    lead.  Tails are left unreduced; reduce_tails finishes the reduced basis.

    Normal selection strategy (smallest lcm first, ties by pair index) with
    Buchberger's coprime and chain criteria; pending pairs wait in a heap,
    the pair queue of Gebauer-Moeller.  Raises ComputationLimitError past
    PAIR_CAP.

    target, when given, is the K-polynomial ({degree: coefficient}, as
    staircase.k_polynomial returns it) of the homogeneous ideal the
    generators span.  The loop then stops as soon as the leads have it: the
    ideal J of the leads lies inside the initial ideal, which has the
    Hilbert series of the ideal under every monomial order, so equal series
    mean J is the initial ideal.  Every pending pair would reduce to zero,
    and the basis returned is the one the full loop returns.  Raises
    HilbertSeriesError if the pairs run out without a match.
    """
    key = order.key
    # (leading monomial, monic term dict) per element; also the reducer
    # list that _reduce_terms takes
    basis = []
    for g in gens:
        if g.terms:
            lead = max(g.terms, key=key)
            lc = g.terms[lead]
            basis.append((lead, {a: c / lc for a, c in g.terms.items()}))
    pairs = set()  # pending pairs, for the chain criterion's lookups
    queue = []  # the same pairs as a heap on (order.key(lcm), pair)

    def add_pairs(j):
        lj = basis[j][0]
        for i in range(j):
            pairs.add((i, j))
            heapq.heappush(queue, (key(exp_lcm(basis[i][0], lj)), (i, j)))

    for j in range(len(basis)):
        add_pairs(j)

    def leads_series():
        return k_polynomial(lead for lead, _ in basis)

    done = target is not None and leads_series() == target
    processed = 0
    while queue and not done:
        processed += 1
        if processed > PAIR_CAP:
            raise ComputationLimitError(
                f"S-pair cap {PAIR_CAP} exhausted ({len(basis)} basis elements)"
            )
        _, (i, j) = heapq.heappop(queue)
        pairs.discard((i, j))
        (li, fi), (lj, fj) = basis[i], basis[j]
        l = exp_lcm(li, lj)
        # coprime criterion
        if l == mul_exp(li, lj):
            continue
        # chain criterion
        skip = False
        for k, (lk, _) in enumerate(basis):
            if k in (i, j):
                continue
            if divides(lk, l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    skip = True
                    break
        if skip:
            continue
        # S-polynomial of two monic elements: their leading terms cancel
        si, sj = exp_div(l, li), exp_div(l, lj)
        s = {mul_exp(a, si): c for a, c in fi.items()}
        for a, c in fj.items():
            b = mul_exp(a, sj)
            v = s.get(b, 0) - c
            if v:
                s[b] = v
            else:
                del s[b]
        rem = _reduce_terms(s, basis, order)
        if rem:
            lead = next(iter(rem))  # remainder terms come top-down
            lc = rem[lead]
            basis.append((lead, {a: c / lc for a, c in rem.items()}))
            add_pairs(len(basis) - 1)
            done = target is not None and leads_series() == target
    if target is not None and not done:
        raise HilbertSeriesError(
            f"the leads have K-polynomial {leads_series()}, the target is "
            f"{target}"
        )
    # minimalize: of equal leads the first is kept
    keep = [
        (li, fi)
        for i, (li, fi) in enumerate(basis)
        if not any(
            j != i and divides(lj, li) and (lj != li or j < i)
            for j, (lj, _) in enumerate(basis)
        )
    ]
    keep.sort(key=lambda p: key(p[0]))
    return keep


def reduce_tails(pairs, order: MonomialOrder):
    """Term dicts of the reduced Groebner basis, in the same order, from the
    pairs of a minimal one: each element's remainder modulo the others keeps
    its monic lead, since no lead divides another."""
    return [
        _reduce_terms(f, pairs[:i] + pairs[i + 1 :], order)
        for i, (_, f) in enumerate(pairs)
    ]


def intersect_ideals(a: Ideal, b: Ideal) -> Ideal:
    """Intersection of a and b via u*a + (1-u)*b and elimination of u.

    u is prepended as the most significant variable; the elimination-block
    order restricted to u-free monomials is degrevlex on the original ring,
    so the u-free elements of a minimal elimination basis are a minimal
    degrevlex basis of the intersection, already in degrevlex order.  A
    u-free lead divides no monomial holding u, so reducing those elements
    among themselves gives the reduced basis.
    """
    if a.nvars != b.nvars:
        raise DimensionError("intersection of ideals in different rings")
    n = a.nvars

    def lift(p: Polynomial, u_exp: int) -> Polynomial:
        return Polynomial(n + 1, {(u_exp,) + al: c for al, c in p.terms.items()})

    u = Polynomial.variable(1, n + 1)
    one = Polynomial.constant(n + 1, 1)
    gens = [lift(f, 1) for f in a.generators]
    gens += [(one - u) * lift(g, 0) for g in b.generators]
    order = MonomialOrder("elim", split=1)
    kept = [(lead, f) for lead, f in buchberger(gens, order) if lead[0] == 0]
    return Ideal.of(
        Polynomial(n, {al[1:]: c for al, c in terms.items()})
        for terms in reduce_tails(kept, order)
    )


# -- generic initial ideals ------------------------------------------------


@dataclass(frozen=True)
class GinResult:
    staircase: MonomialStaircase  # in nvars-1 variables (last one dropped)
    coordinate_matrix: tuple
    raw_initial: tuple  # minimal generators, nvars variables


def derive_seed(seed: int, *labels) -> int:
    """Deterministic child seed for independent draws."""
    import hashlib

    h = hashlib.sha256(repr((seed,) + labels).encode()).hexdigest()
    return int(h[:16], 16)


def random_change_matrix(rng: random.Random, n: int, entry_bound: int):
    while True:
        m = tuple(
            tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n))
            for _ in range(n)
        )
        if linalg.det([list(r) for r in m]) != 0:
            return m


def _gin_once(ideal: Ideal, seed: int, entry_bound: int, target):
    rng = random.Random(seed)
    matrix = random_change_matrix(rng, ideal.nvars, entry_bound)
    moved = Ideal.of(linear_substitute(ideal.generators, matrix))
    pairs = buchberger(moved.generators, target=target)
    return matrix, minimalize(lead for lead, _ in pairs)


def gin(
    ideal: Ideal, seed: int, entry_bound: int = 100, target=None
) -> GinResult:
    """Generic initial ideal via a seeded random coordinate change.

    A second independent draw must reproduce the same initial ideal, which
    must be Borel-fixed (Galligo, Bayer-Stillman); minimal generators must
    avoid the last variable (saturated input).  target, the K-polynomial of
    the ideal if known, is handed to both draws' buchberger: a linear change
    of coordinates keeps the Hilbert series.
    """
    if entry_bound < MIN_ENTRY_BOUND:
        raise ValueError(f"entry_bound must be >= {MIN_ENTRY_BOUND}")
    matrix, raw = _gin_once(
        ideal, derive_seed(seed, "gin", 0), entry_bound, target
    )
    _, raw2 = _gin_once(ideal, derive_seed(seed, "gin", 1), entry_bound, target)
    if raw != raw2:
        raise GenericityError(
            "two coordinate draws disagree; raise entry_bound "
            f"(currently {entry_bound})"
        )
    if not MonomialStaircase.from_generators(ideal.nvars, raw).is_borel_fixed():
        raise GenericityError(
            f"initial ideal {raw} is not Borel-fixed; the coordinate draws "
            "were not generic"
        )
    last = ideal.nvars - 1
    for g in raw:
        if g[last] != 0:
            raise LastVariableError(
                f"gin generator {g} involves the last variable; "
                "input is not saturated or draw was not generic"
            )
    staircase = MonomialStaircase.from_generators(
        ideal.nvars - 1, [g[:-1] for g in raw]
    )
    return GinResult(staircase, matrix, tuple(raw))


def regularity_surrogate(g: GinResult) -> int:
    """Max total degree among minimal gin generators (equals the
    Castelnuovo-Mumford regularity for Borel-fixed ideals in char 0)."""
    return max((degree(a) for a in g.staircase.min_gens), default=0)
