"""Buchberger engine: minimal Groebner bases over Q or a prime field, ideal
intersection by elimination, gin, and the regularity surrogate.

Ideals come in and go out as lists of generators in the one polynomial
format of the pipeline (see rings): primitive integer term dicts with a
positive leading coefficient, keyed by DEGREVLEX packed monomials, with the
number of variables passed beside them.  intersect_ideals takes and returns
them, and gin takes them.

The engine keeps each basis element as a monic (leading monomial, term
dict) pair, from the input generators to a minimal basis; that list is
also its reducer list.  Each caller reduces only what it returns: gin reads
the leading monomials alone, and intersect_ideals tail-reduces the u-free
pairs it keeps and clears each of them once.

One S-pair loop (buchberger) and one reduction loop (_reduce_terms)
serve both coefficient fields, chosen by an argument p: p = 0 is Q, with
Fraction coefficients, and a prime p is F_p, with int residues.
intersect_ideals computes over Q, because its basis is the exact I^(m)
that both of gin's primes reduce and that symbolic-power moves back, and
so does that move back, whose basis is printed.  gin's two draws compute
over F_p, one prime of GIN_PRIMES each (2^31 - 1 and 2^31 - 19), because
gin reads only leading monomials, and on its section x_last = 0, in one
variable fewer; the reasons this keeps gin's checks as strong as draws
over Q in all variables are in gin's docstring (modular Groebner bases:
Traverso 1988, "Groebner trace algorithms"; Arnold 2003, J. Symb. Comput.
35).

The engine computes on packed monomials, one int per monomial (see
rings): term dicts are keyed by the order's packed keys, a product is +,
the order is <, and both scans over the leads, for a reducer and for the
chain criterion, test divisibility with one guard-bit test.  The
engine's boundary is packed: buchberger takes packed generators, which
gin's draws and symbolic-power's move back get from cleared_substitute
and intersect_ideals re-keys by the elimination order, and it unpacks only
the leads it returns.  reduce_tails is the one place the Q path unpacks
whole term dicts.  A monomial whose exponent passes the field width raises
ComputationLimitError before its key is used, so no key wraps.

A caller that knows the Hilbert series of the ideal in advance passes its
numerator, the K-polynomial, as a target, and the S-pair loop stops as soon
as the leads found so far have it (Traverso 1996, "Hilbert functions and
the Buchberger algorithm").  gin knows it because a linear change of
coordinates keeps the K-polynomial, and so does a generic hyperplane
section of a saturated ideal; symbolic_power returns I^(m) with the
leads of a Groebner basis of it.

Inputs are desk scale (n <= 4, small degrees); the S-pair loop carries
fixed caps on the S-pairs it takes (PAIR_CAP) and on the size of its basis
(BASIS_CAP), so runaway computations fail predictably instead of hanging.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .linalg import ComputationLimitError
from .rings import (
    DEGREVLEX,
    cleared_substitute,
    degree,
    elimination_order,
    guard_bits,
    packed_terms,
    unit_keys,
    unpack,
)
from .staircase import (
    MonomialStaircase,
    k_polynomial,
    k_polynomial_plus,
    minimalize,
)

PAIR_CAP = 200_000  # S-pairs one Buchberger run may take; read at call time
# elements one Buchberger basis may hold; read at call time.  The largest
# basis of the reach runs has 345 (5 points in P^3 up to m = 6), and the
# B^2 / 2 pending pairs of a basis at the cap take about 110 MB
BASIS_CAP = 1_000
MIN_ENTRY_BOUND = 10  # least bound on the entries of a gin draw
# the prime of each gin draw, 2^31 - 1 and the largest prime below it;
# read at call time
GIN_PRIMES = (2_147_483_647, 2_147_483_629)


class HilbertSeriesError(RuntimeError):
    """The S-pair loop ended with leads whose Hilbert series is not the
    target's: the target or the basis is wrong."""


class GenericityError(RuntimeError):
    """A gin draw was refused (an unlucky prime or a non-saturated ideal),
    the two draws disagree, or their initial ideal is not Borel-fixed."""


# the benchmark's tests import this name; ROADMAP item 1's benchmark change
# deletes it
LastVariableError = GenericityError


def _reduce_terms(terms, reducers, guard, p=0):
    """Remainder dict of a packed term dict modulo (lead, terms) reducer
    pairs, over Q (p = 0, Fraction coefficients) or over F_p (int residues
    mod p); guard is the guard bits of the packed monomials.  Every reducer
    must be monic, so a term's coefficient is the factor of its reducer.

    Works top-down through the support with a lazy max-heap of negated
    keys, mutating a scratch dict; the workhorse behind buchberger.  The
    first reducer in list order whose lead divides a term reduces it.  A
    product of two packed monomials at most sets a guard bit, so each term
    is checked once, as it leaves the heap, before its key is used.  The
    remainder's terms are inserted in decreasing order, so its first key is
    its leading monomial.
    """
    work = dict(terms)
    heap = [-z for z in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        z = -heapq.heappop(heap)
        lc = work.get(z)
        if lc is None or z in remainder:
            continue
        if z & guard:
            raise ComputationLimitError(
                "an exponent passed the field width of a packed monomial"
            )
        covered = z | guard
        for glm, gterms in reducers:
            if (covered - glm) & guard != guard:
                continue
            shift = z - glm
            for a, c in gterms.items():
                ab = a + shift
                old = work.get(ab)
                s = (old or 0) - c * lc
                if p:
                    s %= p
                if s:
                    work[ab] = s
                    if old is None:
                        heapq.heappush(heap, -ab)
                else:
                    work.pop(ab, None)
            break
        else:
            remainder[z] = lc
            del work[z]
    return remainder


def _monic(terms, lead, p):
    """The term dict divided by its coefficient at lead, over Q or F_p;
    over Q the quotients are Fractions, also of int coefficients."""
    lc = terms[lead]
    if p:
        inverse = pow(lc, -1, p)
        return {a: c * inverse % p for a, c in terms.items()}
    return {a: Fraction(c, lc) for a, c in terms.items()}


def buchberger(gens, n, order=DEGREVLEX, target=None, p=0):
    """Minimal Groebner basis of the ideal that gens, nonzero term dicts in
    n variables keyed by order's packed monomials, span: monic (leading
    exponent tuple, packed term dict) pairs whose leads divide no other
    lead, sorted by lead.  Tails are left unreduced; reduce_tails finishes
    the reduced basis.

    p = 0 computes over Q, with Fraction coefficients (int input is made
    exact Fractions); a prime p computes over F_p, with coefficients the
    int residues 1..p-1.  Both run the same loop.

    Normal selection strategy (smallest lcm first, ties by pair index) with
    Buchberger's coprime and chain criteria; pending pairs wait in a heap,
    the pair queue of Gebauer-Moeller.  Raises ComputationLimitError past
    PAIR_CAP S-pairs or BASIS_CAP basis elements.

    target, when given, is the K-polynomial ({degree: coefficient}, as
    staircase.k_polynomial returns it) of the homogeneous ideal the
    generators span, and the loop stops as soon as the leads have it: the
    ideal J of the leads lies inside the initial ideal, which has the
    Hilbert series of the ideal under every monomial order, so equal series
    mean J is the initial ideal.  Every pending pair would reduce to zero,
    and the basis returned is the one the full loop returns.  The leads'
    series is updated by one colon ideal per new lead.  Raises
    HilbertSeriesError if the pairs run out without a match.
    """
    weights = unit_keys(order, n)
    guard = guard_bits(n)
    basis = []  # (lead, monic term dict) per element; the reducer list
    leads = []  # each lead unpacked once: the lcms, the series, the result
    pairs = set()  # pending pairs, for the chain criterion's lookups
    queue = []  # the same pairs as a heap of (lcm, i, j)

    def add(lead, exponents, terms):
        if len(basis) == BASIS_CAP:
            raise ComputationLimitError(f"basis cap {BASIS_CAP} exhausted")
        j = len(basis)
        for i, other in enumerate(leads):
            pairs.add((i, j))
            lcm = sum(map(mul, map(max, other, exponents), weights))
            heapq.heappush(queue, (lcm, i, j))
        basis.append((lead, _monic(terms, lead, p)))
        leads.append(exponents)

    for g in gens:
        lead = max(g)
        add(lead, unpack(lead, n), g)
    series = None if target is None else k_polynomial(leads)
    done = target is not None and series == target
    processed = 0
    while queue and not done:
        processed += 1
        if processed > PAIR_CAP:
            raise ComputationLimitError(
                f"S-pair cap {PAIR_CAP} exhausted ({len(basis)} basis elements)"
            )
        l, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        (li, fi), (lj, fj) = basis[i], basis[j]
        # coprime criterion
        if l == li + lj:
            continue
        # chain criterion
        skip = False
        covered = l | guard
        for k, (lk, _) in enumerate(basis):
            if (covered - lk) & guard != guard or k == i or k == j:
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pairs and pjk not in pairs:
                skip = True
                break
        if skip:
            continue
        # S-polynomial of two monic elements: their leading terms cancel
        si, sj = l - li, l - lj
        s = {a + si: c for a, c in fi.items()}
        for a, c in fj.items():
            b = a + sj
            v = s.get(b, 0) - c
            if p:
                v %= p
            if v:
                s[b] = v
            else:
                del s[b]
        rem = _reduce_terms(s, basis, guard, p)
        if rem:
            lead = next(iter(rem))  # remainder terms come top-down
            exponents = unpack(lead, n)
            if target is not None:
                series = k_polynomial_plus(series, leads, exponents)
                done = series == target
            add(lead, exponents, rem)
    if target is not None and not done:
        raise HilbertSeriesError(
            f"the leads have K-polynomial {k_polynomial(leads)}, "
            f"the target is {target}"
        )
    # of equal leads the first is kept
    first = {}
    for (lead, f), exponents in zip(basis, leads):
        first.setdefault(lead, (exponents, f))
    minimal = set(minimalize(exponents for exponents, _ in first.values()))
    return [first[lead] for lead in sorted(first) if first[lead][0] in minimal]


def reduce_tails(pairs):
    """Term dicts of the reduced Groebner basis, keyed by exponent tuples, in
    the same order, from the pairs of a minimal one as buchberger returns
    them: each element's remainder modulo the others keeps its monic lead,
    since no lead divides another."""
    n = len(pairs[0][0]) if pairs else 0
    guard = guard_bits(n)
    packed = [(max(f), f) for _, f in pairs]
    return [
        {
            unpack(a, n): c
            for a, c in _reduce_terms(f, packed[:i] + packed[i + 1 :], guard).items()
        }
        for i, (_, f) in enumerate(packed)
    ]


def intersect_ideals(a, b, n):
    """The reduced degrevlex basis of the intersection of the ideals that a
    and b generate, lists of term dicts in n variables in the pipeline's
    format (see rings), in that format and sorted by lead.

    Via u*a + (1-u)*b and elimination of u: u is prepended as the most
    significant variable; the elimination-block order restricted to u-free
    monomials is degrevlex on the original ring, so the u-free elements of
    a minimal elimination basis are a minimal degrevlex basis of the
    intersection, already in degrevlex order.  A u-free lead divides no
    monomial holding u, so reducing those elements among themselves gives
    the reduced basis.  Each reduced element is monic over Q; times the lcm
    of its denominators it is the primitive integer one, with a positive
    leading coefficient.
    """
    order = elimination_order(1)
    # the packed key of u, and those of x_1..x_n in the ring with u
    u, *weights = unit_keys(order, n + 1)

    def lift(f):
        return {sum(map(mul, unpack(k, n), weights)): c for k, c in f.items()}

    gens = [{k + u: c for k, c in lift(f).items()} for f in a]
    for g in b:
        terms = lift(g)
        gens.append({**terms, **{k + u: -c for k, c in terms.items()}})
    pairs = buchberger(gens, n + 1, order)
    kept = [(lead, f) for lead, f in pairs if lead[0] == 0]
    weights = unit_keys(DEGREVLEX, n)
    basis = []
    for terms in reduce_tails(kept):
        _, ints = linalg.cleared(list(terms.values()))
        cleared = dict(zip([al[1:] for al in terms], ints))
        basis.append(packed_terms(cleared, weights))
    return basis


# -- generic initial ideals ------------------------------------------------


@dataclass(frozen=True)
class GinResult:
    staircase: MonomialStaircase  # in nvars-1 variables (last one dropped)
    coordinate_matrix: tuple

    @property
    def raw_initial(self):
        """The minimal generators in nvars variables, none involving the last."""
        return tuple(g + (0,) for g in self.staircase.min_gens)


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


def _gin_once(generators, nvars, seed: int, entry_bound: int, target, p: int):
    """One draw: its seeded integer matrix and the leads of its section
    x_last = 0, computed over F_p in the first nvars - 1 variables."""
    rng = random.Random(seed)
    matrix = random_change_matrix(rng, nvars, entry_bound)
    if linalg.det(matrix) % p == 0:
        raise GenericityError(
            f"prime {p} divides the determinant of the coordinate draw"
        )
    for g in generators:
        lc = g[max(g)]
        if lc % p == 0:
            raise GenericityError(
                f"prime {p} divides the leading coefficient {lc} of a generator"
            )
    section = [row[:-1] for row in matrix]
    gens = [terms for terms in cleared_substitute(generators, section, p) if terms]
    try:
        pairs = buchberger(gens, nvars - 1, target=target, p=p)
    except HilbertSeriesError as exc:
        raise GenericityError(
            f"prime {p} is unlucky, the ideal is not saturated, or the last "
            f"variable of the draw is a zero divisor on it: over F_{p} {exc}"
        ) from exc
    return matrix, minimalize(lead for lead, _ in pairs)


def gin(generators, nvars, seed: int, entry_bound: int, target) -> GinResult:
    """Generic initial ideal of the saturated ideal that generators, term
    dicts in nvars variables in the pipeline's format (see rings), generate,
    via two seeded random coordinate changes, each computed over a prime
    field F_p, one prime of GIN_PRIMES per draw, on its hyperplane section
    x_last = 0.

    Each draw substitutes the first nvars - 1 columns of its integer matrix
    into the generators mod its prime; a prime dividing the determinant or
    the leading coefficient of a generator is refused.
    Both draws' buchberger take target, the K-polynomial of the ideal over
    Q.  For degrevlex, in(J + (x_last)) = in(J) + (x_last) (Bayer-Stillman
    1987); if x_last is a nonzerodivisor on S/gI, no minimal generator of
    in(gI) involves it and the section has gI's K-polynomial.  If it is a
    zero divisor, as in every draw of a non-saturated ideal, the section's
    Hilbert function exceeds the target's and the loop ends without a
    match; so a match also certifies saturation.  The two draws must agree
    on a Borel-fixed initial ideal (Galligo, Bayer-Stillman); a failed
    check raises GenericityError, naming the prime where one is at fault.

    Why the draws over F_p meet the standard of draws over Q: a draw over Q
    misses gin(I) only when its matrix lies on a proper Zariski-closed set,
    which the second draw and the Borel gate guard against.  A draw over F_p
    has the leads of the draw over Q under the same matrix unless p divides
    one of finitely many nonzero integers that the ideal and the matrix fix,
    such as the leading coefficients met over Q (Traverso 1988; Arnold
    2003).  Reducing the generators mod p can only raise the Hilbert
    function, and the leads' ideal has at least the Hilbert function of the
    ideal they lie in; so a series match proves the prime kept the series
    and the leads are the initial ideal over F_p, and a prime that changed
    it ends the loop without a match and is refused.  A prime that keeps
    the series but changes the leads must still agree with an independent
    matrix under the other prime on a Borel-fixed ideal.  So a wrong answer
    needs two independent unlikely events to agree, as with two draws over
    Q.  Both primes lie above 2^30, far above every exponent, where the
    Borel-fixed ideals of characteristic p are the strongly stable ones the
    gate tests for (Pardue 1994).
    """
    if entry_bound < MIN_ENTRY_BOUND:
        raise ValueError(f"entry_bound must be >= {MIN_ENTRY_BOUND}")
    p0, p1 = GIN_PRIMES
    (matrix, raw), (_, raw2) = (
        _gin_once(generators, nvars, derive_seed(seed, "gin", k), entry_bound,
                  target, p)
        for k, p in enumerate((p0, p1))
    )
    if raw != raw2:
        raise GenericityError(
            f"two coordinate draws (over F_{p0} and F_{p1}) disagree; raise "
            f"entry_bound (currently {entry_bound})"
        )
    staircase = MonomialStaircase.from_generators(nvars - 1, raw)
    result = GinResult(staircase, matrix)
    if not result.staircase.is_borel_fixed():
        raise GenericityError(
            f"initial ideal {result.raw_initial} is not Borel-fixed; the "
            "coordinate draws were not generic"
        )
    return result


def regularity_surrogate(g: GinResult) -> int:
    """Max total degree among minimal gin generators (equals the
    Castelnuovo-Mumford regularity for Borel-fixed ideals in char 0)."""
    return max((degree(a) for a in g.staircase.min_gens), default=0)
