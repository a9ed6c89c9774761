"""Buchberger engine: minimal Groebner bases over Q or a prime field, ideal
intersection by elimination, gin, and the regularity surrogate.

Ideals come in and go out as lists of generators in the one polynomial
format of the pipeline (see rings): primitive integer term dicts with a
positive leading coefficient, keyed by DEGREVLEX packed monomials, with the
number of variables passed beside them.  intersect_ideals takes and returns
them, and gin takes them.

The engine keeps each basis element as a (leading monomial, term dict)
pair, up to a minimal basis; that list is also its reducer list.  Each
caller reduces only what it returns: gin reads the leading monomials alone,
and intersect_ideals tail-reduces the u-free pairs it keeps.

One S-pair loop (buchberger) serves both coefficient rings on ints,
chosen by an argument p: p = 0 is Z, fraction-free (linalg's Bareiss idea)
on primitive elements with a positive lead, whose first elements are the
inputs, one S-pair at a time (_reduce_terms); a prime p is F_p, on monic
elements of residues, one F4 block per degree (_reduce_block), whose rows
are the inputs of that degree, taken mod p and never paired, and the
halves of all the pairs of that lcm degree.
intersect_ideals computes over Z, because its basis is the exact I^(m)
that both of gin's primes reduce and that symbolic-power moves back, and
so does that move back, whose basis is printed.  symbolic_power calls
intersect_ideals only for the components its degree loop leaves (see
configs.symbolic_power).  gin's two draws compute over F_p, one prime of
GIN_PRIMES each (2^31 - 1 and 2^31 - 19), because gin reads only leading
monomials, and on its section x_last = 0, in one variable fewer; the
reasons this keeps gin's checks as strong as draws over Q in all
variables are in gin's docstring (modular Groebner bases: Traverso 1988,
"Groebner trace algorithms"; Arnold 2003, J. Symb. Comput. 35).

The engine computes on packed monomials, one int per monomial (see
rings): term dicts are keyed by the order's packed keys, a product is +,
the order is <, and both scans over the leads, for a reducer and for the
chain criterion, test divisibility with one guard-bit test.  The
engine's boundary is packed: buchberger takes packed generators, which
gin's draws and symbolic-power's move back get from cleared_substitute
and intersect_ideals re-keys by the elimination order, and it unpacks only
the leads it returns.  reduce_tails is the one place the Z path unpacks
whole term dicts.  A monomial whose exponent passes the field width raises
ComputationLimitError before its key is used, so no key wraps.

A caller that knows the Hilbert series of the ideal in advance passes its
numerator, the K-polynomial, as a target, and the S-pair loop stops as soon
as the leads found so far have it (Traverso 1996, "Hilbert functions and
the Buchberger algorithm"); over F_p the target's Hilbert function also
gives each degree's count of new leads, so a block stops at its count and
a degree that needs none is skipped.  gin knows it because a linear change of
coordinates keeps the K-polynomial, and so does a generic hyperplane
section of a saturated ideal; symbolic_power returns I^(m) with its
K-polynomial, read off exact ranks or the leads of a Groebner basis.

Inputs are desk scale (n <= 4, small degrees); the S-pair loop caps the
S-pairs it takes (PAIR_CAP), its basis (BASIS_CAP) and one F4 block
(BLOCK_CAP), so runaway computations fail predictably instead of hanging.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import gcd
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
    simplex_count,
)

PAIR_CAP = 200_000  # S-pairs one Buchberger run may take; read at call time
# elements one Buchberger basis may hold; read at call time.  Reach runs
# peak at 352 over Z (three lines in P^4, m = 5) and 225 in a gin draw, whose
# inputs are no elements (two planes in P^5, m = 4); B^2 / 2 pending pairs
# at the cap take about 110 MB
BASIS_CAP = 1_000
# entries (rows x columns) one F4 block of a gin draw may hold; read at call
# time.  Reach runs peak at 587 520 (three lines in P^4, m = 5) and 484 770
# (three planes in P^5, m = 3); rows take at most 10 bytes an entry: 50 MB
BLOCK_CAP = 5_000_000
ENTRY_BOUND = 100  # a gin draw's matrix has entries in [-ENTRY_BOUND, ENTRY_BOUND]
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


def _reduce_terms(terms, reducers, guard):
    """Remainder dict over Z of a packed term dict modulo (lead, terms)
    reducer pairs with positive leads; guard is the guard bits of the packed
    monomials.  Before a reducer with leading coefficient a != 1 reduces a
    term c, the scratch dict and the remainder so far are scaled by
    a / gcd(a, c): the remainder is a positive multiple of the one over Q.

    Works top-down through the support with a lazy max-heap of negated
    keys, mutating a scratch dict.  The first reducer in list order whose
    lead divides a term reduces it.  A product of two packed monomials at
    most sets a guard bit, so each term is checked once, as it leaves the
    heap, before its key is used.  The remainder's terms are inserted in
    decreasing order, so its first key is its leading monomial.
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
            a = gterms[glm]
            if a != 1:
                g = gcd(a, lc)
                lc, a = lc // g, a // g
                if a != 1:
                    work = {k: c * a for k, c in work.items()}
                    remainder = {k: c * a for k, c in remainder.items()}
            shift = z - glm
            for b, c in gterms.items():
                ab = b + shift
                old = work.get(ab)
                s = (old or 0) - c * lc
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


def _reduce_block(batch, inputs, basis, guard, p, need):
    """The new elements, monic term dicts led by their first keys, that one
    degree's F4 block adds to basis over F_p (Faugere 1999, "A new efficient
    algorithm for computing Groebner bases (F4)").  Its rows are the inputs,
    (lead, residues) pairs, then the halves (lcm / lead_k) g_k of batch's
    S-pairs, (lcm, i, j) triples.  Symbolic preprocessing checks each
    monomial against the field width and gives each that a lead divides a
    reducer row, the shift of the first such element.  A row is one int, a
    fixed number of bytes a column (monomials in decreasing order), so one
    int product subtracts a multiple of a row.  Each other row is swept by
    the reducers and the new rows before it; the first column it keeps,
    which no lead divides, makes it a new element.  The sweep returns after
    the need-th new element; need None sweeps every row.  Raises
    ComputationLimitError past BLOCK_CAP entries (rows x columns).
    """
    halves = dict.fromkeys(h for l, i, j in batch for h in ((l, i), (l, j)))
    todo = {b for _, f in inputs for b in f}
    todo = list(todo | {b + l - basis[k][0] for l, k in halves for b in basis[k][1]})
    seen, reducer = set(todo), {}
    while todo:
        z = todo.pop()
        if z & guard:
            raise ComputationLimitError(
                "an exponent passed the field width of a packed monomial"
            )
        covered = z | guard
        for k, (lk, f) in enumerate(basis):
            if (covered - lk) & guard == guard:
                reducer[z] = k
                fresh = {b + z - lk for b in f} - seen
                seen |= fresh
                todo += fresh
                break
    # rows as (element, z), the element shifted to lead with z: each input
    # as it is, and each half that is not its lcm's reducer row
    rows = [(element, element[0]) for element in inputs]
    rows += [(basis[k], l) for l, k in halves if reducer[l] != k]
    columns = sorted(seen, reverse=True)
    if (len(reducer) + len(rows)) * len(columns) > BLOCK_CAP:
        raise ComputationLimitError(f"block cap {BLOCK_CAP} exhausted")
    index = {z: c for c, z in enumerate(columns)}
    # a column holds a residue plus, per column before it, a product below p^2
    size = (2 * p.bit_length() + len(columns).bit_length()) // 8 + 1
    bits, mask, zero = 8 * size, (1 << 8 * size) - 1, bytes(size)

    def packed(element, z):  # the row of (z / lead) terms for (lead, terms)
        (lead, terms), first = element, index[z]
        chunks = [zero] * (len(columns) - first)
        for b, v in terms.items():
            chunks[index[b + z - lead] - first] = v.to_bytes(size, "little")
        return int.from_bytes(b"".join(chunks), "little")

    pivots = {index[z]: packed(basis[k], z) for z, k in reducer.items()}
    new = []
    for element, z in rows:
        row, c = packed(element, z), index[z]
        while row:
            skip = ((row & -row).bit_length() - 1) // bits  # zero columns
            row >>= skip * bits
            c += skip
            v = (row & mask) % p
            if v:
                if c not in pivots:
                    break
                row += (p - v) * pivots[c]
            row >>= bits
            c += 1
        else:
            continue
        inverse = pow(v, -1, p)
        chunks = row.to_bytes(size * (len(columns) - c), "little")
        slots = (chunks[o : o + size] for o in range(0, len(chunks), size))
        residues = (int.from_bytes(x, "little") % p for x in slots)
        terms = {columns[d]: w * inverse % p for d, w in enumerate(residues, c) if w}
        new.append(terms)
        if len(new) == need:
            break
        pivots[c] = packed((columns[c], terms), columns[c])
    return new


def _primitive(terms, lead):
    """The term dict over Z divided by its content signed as lead's
    coefficient, so the lead is positive: the format the Z path keeps."""
    content = gcd(*terms.values()) if terms[lead] > 0 else -gcd(*terms.values())
    return {a: c // content for a, c in terms.items()}


def _hilbert_function(k, d, n):
    """The Hilbert function at degree d of S/J, S in n variables, from J's
    K-polynomial k: the sum of c * dim S_(d-e) over its terms c t^e."""
    return sum(c * simplex_count(d - e, n - 1) for e, c in k.items())


def buchberger(gens, n, order=DEGREVLEX, target=None, p=0):
    """Minimal Groebner basis of the ideal that gens, nonzero int term dicts
    in n variables keyed by order's packed monomials, span: (leading
    exponent tuple, packed term dict) pairs whose leads divide no other
    lead, sorted by lead.  Tails are left unreduced; reduce_tails finishes
    the reduced basis.

    p = 0 computes over Z, fraction-free, and each element is primitive
    with a positive lead.  The inputs are the first elements and make pairs
    like the others; a step reduces one S-pair.

    A prime p computes over F_p, and each element is monic, with
    coefficients the residues 1..p-1; order must refine the degree, as
    DEGREVLEX does.  The inputs are taken mod p and wait by degree; they
    are never elements or paired.  A step reduces, as one block, the inputs
    and every pending pair of the lowest degree, with the inputs as rows
    beside the pairs' halves (F4 takes an input as a pair with 1).

    Normal selection strategy (smallest lcm first, ties by pair index) with
    Buchberger's coprime and chain criteria; pending pairs wait in a heap,
    the pair queue of Gebauer-Moeller.  Raises ComputationLimitError past
    PAIR_CAP S-pairs taken, BASIS_CAP elements or BLOCK_CAP block entries.

    target, when given, is the K-polynomial ({degree: coefficient}, as
    staircase.k_polynomial returns it) of the homogeneous ideal the
    generators span, and the loop stops as soon as the leads have it: the
    ideal J of the leads lies inside the initial ideal, which has the
    Hilbert series of the ideal under every monomial order, so equal series
    mean J is the initial ideal.  Every pending pair would reduce to zero,
    and the basis returned is the one the full loop returns over the same
    ring.  The leads' series is updated by one colon ideal per step that
    adds one lead, else recomputed; new elements make pairs only if it
    misses.  Raises HilbertSeriesError if the pairs run out.

    Over F_p the target also bounds each block (Traverso 1996).  The blocks
    of lower degrees leave J with the initial ideal's part in each of them,
    so the block of degree d adds need = HF_J(d) - HF_target(d) new leads,
    distinct monomials of the initial ideal outside J; the sweep stops
    after the need-th, and every row left would reduce to zero.  A degree
    with need = 0 is skipped, its pairs still counted; need < 0, a target
    above HF_J(d) and so above the ideal's Hilbert function, raises
    HilbertSeriesError.  Reducing mod p can only raise the Hilbert
    function, so a prime that changes it leaves a block short of need and
    the series unmatched.  A target above the ideal's Hilbert function can
    stop a block short, so every input's lead must lie in J at the end, as
    in the initial ideal, or HilbertSeriesError is raised.
    """
    weights = unit_keys(order, n)
    guard = guard_bits(n)
    basis = []  # (lead, term dict) per element; the reducer list
    leads = []  # each lead unpacked once: the lcms, the series, the result
    pairs = set()  # pending pairs, for the chain criterion's lookups
    queue = []  # the same pairs as a heap of (lcm, i, j)
    inputs = {}  # over F_p: degree -> the inputs' (lead, residues) pairs
    heads = []  # over F_p: every input's lead, for the check at the end

    def add(terms, lead):
        if len(basis) == BASIS_CAP:
            raise ComputationLimitError(f"basis cap {BASIS_CAP} exhausted")
        basis.append((lead, terms))
        leads.append(unpack(lead, n))

    for g in gens:
        if not p:
            add(_primitive(g, max(g)), max(g))
            continue
        residues = {a: r for a, c in g.items() if (r := c % p)}
        if residues:
            lead = max(residues)
            heads.append(lead)
            inputs.setdefault(degree(unpack(lead, n)), []).append((lead, residues))
    series = None if target is None else k_polynomial(leads)
    done = target is not None and series == target
    paired = 0  # the elements before it have their pairs
    processed = 0
    while not done:
        for j in range(paired, len(basis)):
            for i in range(j):
                pairs.add((i, j))
                lcm = sum(map(mul, map(max, leads[i], leads[j]), weights))
                heapq.heappush(queue, (lcm, i, j))
        paired = len(basis)
        # over F_p the inputs and every pair of the lowest degree d, over Z
        # one pair
        need = None
        if p:
            degrees = list(inputs)
            if queue:
                _, i, j = queue[0]
                degrees.append(sum(map(max, leads[i], leads[j])))
            if not degrees:
                break
            d = min(degrees)
            rows = inputs.pop(d, [])
            if target is not None:
                need = _hilbert_function(series, d, n) - _hilbert_function(target, d, n)
                if need < 0:
                    raise HilbertSeriesError(
                        f"in degree {d} the target's Hilbert function exceeds "
                        f"the leads' by {-need}: the leads have K-polynomial "
                        f"{series}, the target is {target}"
                    )
        batch = []
        while queue and (p or not batch):
            l, i, j = queue[0]
            if p and sum(map(max, leads[i], leads[j])) != d:
                break
            heapq.heappop(queue)
            processed += 1
            if processed > PAIR_CAP:
                raise ComputationLimitError(
                    f"S-pair cap {PAIR_CAP} exhausted ({len(basis)} basis elements)"
                )
            pairs.discard((i, j))
            li, lj = basis[i][0], basis[j][0]
            # a skipped block, or the coprime criterion
            if need == 0 or l == li + lj:
                continue
            # chain criterion
            covered = l | guard
            for k, (lk, _) in enumerate(basis):
                if (covered - lk) & guard != guard or k == i or k == j:
                    continue
                ik, jk = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if ik not in pairs and jk not in pairs:
                    break
            else:
                batch.append((l, i, j))
        if p:
            skip = need == 0 or not (batch or rows)
            new = [] if skip else _reduce_block(batch, rows, basis, guard, p, need)
        elif batch:
            # S-polynomial: cofactors lc_j / g and lc_i / g, g = gcd(lc_i, lc_j)
            (l, i, j), = batch
            (li, fi), (lj, fj) = basis[i], basis[j]
            g = gcd(fi[li], fj[lj])
            ci, cj = fi[li] // g, fj[lj] // g
            si, sj = l - li, l - lj
            s = {a + si: c * cj for a, c in fi.items()}
            for a, c in fj.items():
                s[a + sj] = s.get(a + sj, 0) - c * ci
            rem = _reduce_terms({a: c for a, c in s.items() if c}, basis, guard)
            new = [_primitive(rem, next(iter(rem)))] if rem else []
        else:
            break
        for terms in new:
            add(terms, next(iter(terms)))  # new elements lead with their first key
        if target is not None and new:
            series = (k_polynomial(leads) if len(new) > 1
                      else k_polynomial_plus(series, leads[:-1], leads[-1]))
            done = series == target
    if target is not None and not done:
        raise HilbertSeriesError(
            f"the leads have K-polynomial {k_polynomial(leads)}, "
            f"the target is {target}"
        )
    for z in heads:
        if all(((z | guard) - lk) & guard != guard for lk, _ in basis):
            raise HilbertSeriesError(f"the lead {unpack(z, n)} of an input lies "
                                     "outside the leads' ideal")
    # of equal leads the first is kept
    first = {}
    for (lead, f), exponents in zip(basis, leads):
        first.setdefault(lead, (exponents, f))
    minimal = set(minimalize(exponents for exponents, _ in first.values()))
    return [first[lead] for lead in sorted(first) if first[lead][0] in minimal]


def reduce_tails(pairs):
    """Term dicts of the reduced Groebner basis, keyed by exponent tuples, in
    the same order, from the pairs of a minimal one as buchberger returns
    them over Z: each element's remainder modulo the others keeps its
    positive lead, since no lead divides another, and is made primitive."""
    n = len(pairs[0][0]) if pairs else 0
    guard = guard_bits(n)
    packed = [(max(f), f) for _, f in pairs]
    reduced = [
        _primitive(_reduce_terms(f, packed[:i] + packed[i + 1 :], guard), lead)
        for i, (lead, f) in enumerate(packed)
    ]
    return [{unpack(a, n): c for a, c in f.items()} for f in reduced]


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
    the reduced basis, whose elements reduce_tails already makes primitive
    with a positive lead: only their keys change.
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
    return [
        packed_terms({al[1:]: c for al, c in terms.items()}, weights)
        for terms in reduce_tails(kept)
    ]


# -- generic initial ideals ------------------------------------------------


@dataclass(frozen=True)
class GinResult:
    staircase: MonomialStaircase  # in nvars-1 variables (last one dropped)

    @property
    def raw_initial(self):
        """The minimal generators in nvars variables, none involving the last."""
        return tuple(g + (0,) for g in self.staircase.min_gens)


def derive_seed(seed: int, *labels) -> int:
    """Deterministic child seed for independent draws."""
    import hashlib

    h = hashlib.sha256(repr((seed,) + labels).encode()).hexdigest()
    return int(h[:16], 16)


def random_change_matrix(rng: random.Random, n: int):
    """(matrix, determinant) of rng's first nonsingular n x n draw."""
    while True:
        m = [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n)]
             for _ in range(n)]
        if det := linalg.det(m):
            return m, det


def _gin_once(generators, nvars, seed: int, target, p: int):
    """One draw: the minimal leads, sorted by packed key, of the section
    x_last = 0 under the integer matrix the seed alone fixes, computed over
    F_p in the first nvars - 1 variables."""
    matrix, det = random_change_matrix(random.Random(seed), nvars)
    if det % p == 0:
        raise GenericityError(f"prime {p} divides the determinant of the draw")
    for lc in (g[max(g)] for g in generators):
        if lc % p == 0:
            raise GenericityError(
                f"prime {p} divides the leading coefficient {lc} of a generator"
            )
    gens = cleared_substitute(generators, [row[:-1] for row in matrix])
    try:
        pairs = buchberger(gens, nvars - 1, target=target, p=p)
    except HilbertSeriesError as exc:
        raise GenericityError(
            f"prime {p} is unlucky, the ideal is not saturated, or the last "
            f"variable of the draw is a zero divisor on it: over F_{p} {exc}"
        ) from exc
    return tuple(lead for lead, _ in pairs)


def gin(generators, nvars, seed: int, target) -> GinResult:
    """Generic initial ideal of the saturated ideal that generators, term
    dicts in nvars variables in the pipeline's format (see rings), generate,
    via two seeded random coordinate changes, each computed over a prime
    field F_p, one prime of GIN_PRIMES per draw, on its hyperplane section
    x_last = 0.

    Draw k's integer matrix, with entries in [-ENTRY_BOUND, ENTRY_BOUND], is
    fixed by derive_seed(seed, "gin", k) alone.  Each draw substitutes the
    first nvars - 1 columns of its matrix into the generators; its
    buchberger takes them mod its prime, with target, the ideal's
    K-polynomial over Q.  A prime dividing the determinant or the leading
    coefficient of a generator is refused.  For degrevlex, in(J + (x_last))
    = in(J) + (x_last) (Bayer-Stillman 1987); if x_last is a nonzerodivisor
    on S/gI, no minimal generator of in(gI) involves it and the section has
    gI's K-polynomial.  If it is a zero divisor, as in every draw of a
    non-saturated ideal, the section's Hilbert function exceeds the target's
    and the loop ends without a match; so a match also certifies saturation.
    The two draws must agree on a Borel-fixed initial ideal (Galligo,
    Bayer-Stillman); a failed check raises GenericityError, naming the prime
    where one is at fault.  The generic matrices form a Zariski-open set, so
    another seed is the way out of draws that disagree or are not
    Borel-fixed.

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
    p0, p1 = GIN_PRIMES
    raw, raw2 = (
        _gin_once(generators, nvars, derive_seed(seed, "gin", k), target, p)
        for k, p in enumerate((p0, p1))
    )
    if raw != raw2:
        raise GenericityError(
            f"two coordinate draws (over F_{p0} and F_{p1}) disagree; try "
            "another seed"
        )
    result = GinResult(MonomialStaircase.from_generators(nvars - 1, raw))
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
