"""Fusion rings: based rings with duality, exact dimensions, subcategories.

The multiplicity tensor N[i][j][k] counts the k-th basis element inside
the product of the i-th and j-th.  Rings here are commutative.  FPdim is
the only character that is positive real on the basis (Etingof-Gelaki-
Nikshych-Ostrik, *Tensor Categories*, 3.3).  Given exact dimensions pass
iff they are such a character and agree on duals; no float decides it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import ExactDataMissing, RankTooLarge, ValidationError
from .exactnum import CycNum, _dot, _int_mul, _numerators

#: Largest rank whose subcategories are enumerated.
ENUMERATION_BOUND = 16


@dataclass(frozen=True)
class FusionRing:
    """A validated fusion ring.  `rank` counts basis elements (unit included);
    `nonzero`, the `_nonzero` view of the tensor N, is the one stored form of N.
    `generators` are the `_generators` of the ring: the basis indices from
    which, with the unit, the rule of `_derived` reaches the whole basis.
    `validate_fusion_ring` checks associativity only on their products,
    and `_first_non_character` proves a character from their pairs."""

    rank: int
    names: tuple[str, ...]
    nonzero: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    dual: tuple[int, ...]
    fpdims: tuple[CycNum, ...] | None
    generators: tuple[int, ...]

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """supports[i][j]: the bitmask of the k with N_ij^k > 0.  The
        subcategory functions of this module work on such bitmasks, and
        `cosets` and `premod` test single bits of them."""
        return _supports(self.nonzero)


@dataclass(frozen=True)
class Subcategory:
    """Fusion-closed, dual-closed set of basis indices containing the unit."""

    members: tuple[int, ...]

    def __contains__(self, i):
        return i in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_fusion_ring(tensor, dual, names=None, fpdims=None) -> FusionRing:
    """Check every axiom; raise ValidationError naming the first violated one.

    The axioms are decided in the order shape, nonnegativity, unit,
    duality, commutativity, Frobenius reciprocity, associativity and the
    dimensions, each by a check that costs what the ring's nonzero entries
    and generators cost, not rank^3 products.  Where a check fails, the
    scan of every entry of that axiom names the first violation in the
    lexicographic order, so the witness is the one a scan of the whole
    tensor would name.

    Shape and nonnegativity are compared plane by plane, the unit and
    commutativity row by row.  Frobenius reciprocity N_ij^k = N_{i*k}^j is
    checked only at the nonzero N_ij^k: an entry with N_ij^k = 0 and
    N_{i*k}^j = n > 0 is the nonzero entry (i*, k, j) of the check, as * is
    an involution.

    Associativity (X_g X_j) X_k = X_g (X_j X_k) is checked only for g among
    the `_generators`, over every j and k.  Let P(i) say that
    X_i (yz) = (X_i y) z for all y and z in the ring; checking (g, j, k)
    for every j and k shows P(g), and P(0) is the unit axiom.  If P(i) and
    P(j) hold, then (X_i X_j)(yz) = X_i (X_j (yz)) = X_i ((X_j y) z)
    = (X_i (X_j y)) z = ((X_i X_j) y) z.  Expand X_i X_j = sum_l N_ij^l X_l
    on both sides; the terms with P(l) proven cancel.  If exactly one l is
    left, N_ij^l (X_l (yz) - (X_l y) z) = 0 with N_ij^l > 0, so P(l) holds.
    This is the rule by which `_derived` grows the proven set, and the
    generators are chosen so that it reaches the whole basis from them and
    the unit; P on the whole basis is associativity.
    """
    rank = len(tensor)
    if rank < 1:
        raise ValidationError("shape", None, "empty basis")
    tensor = tuple(tuple(tuple(map(int, row)) for row in plane) for plane in tensor)
    dual = tuple(int(d) for d in dual)
    if names is None:
        names = tuple(f"X{i}" for i in range(rank))
    names = tuple(str(s) for s in names)
    if len(names) != rank or len(set(names)) != rank:
        raise ValidationError("shape", None, "names must be distinct, one per basis element")
    if len(dual) != rank or sorted(dual) != list(range(rank)):
        raise ValidationError("shape", None, "dual must be a permutation of the basis")
    for i, plane in enumerate(tensor):
        if len(plane) != rank or set(map(len, plane)) != {rank}:
            raise ValidationError("shape", (i,), "tensor must be rank^3")
        if min(map(min, plane)) < 0:
            raise ValidationError("nonnegativity", next(
                (i, j, k) for j in range(rank) for k in range(rank)
                if plane[j][k] < 0))

    unit = tuple(tuple(int(j == k) for k in range(rank)) for j in range(rank))
    for j in range(rank):
        if tensor[0][j] != unit[j] or tensor[j][0] != unit[j]:
            raise ValidationError("unit", next(
                (j, k) for k in range(rank)
                if tensor[0][j][k] != unit[j][k] or tensor[j][0][k] != unit[j][k]))

    for i in range(rank):
        if dual[dual[i]] != i:
            raise ValidationError("duality", (i,), "dual is not an involution")
        for j in range(rank):
            want = 1 if j == dual[i] else 0
            if tensor[i][j][0] != want:
                raise ValidationError("duality", (i, j))

    for i in range(rank):
        for j in range(i + 1, rank):
            if tensor[i][j] != tensor[j][i]:
                raise ValidationError("commutativity", next(
                    (i, j, k) for k in range(rank)
                    if tensor[i][j][k] != tensor[j][i][k]))

    nonzero = _nonzero(tensor)
    if not all(tensor[dual[i]][k][j] == n for i in range(rank)
               for j in range(rank) for k, n in nonzero[i][j]):
        raise ValidationError("frobenius-reciprocity", next(
            (i, j, k) for i in range(rank) for j in range(rank)
            for k in range(rank) if tensor[i][j][k] != tensor[dual[i]][k][j]))

    def sides(i, j, k):
        """(X_i X_j) X_k and X_i (X_j X_k) as coefficient lists, summed over
        the nonzero N_ij^m and N_jk^m only."""
        lhs = [0] * rank
        for m, a in nonzero[i][j]:
            for l, b in nonzero[m][k]:
                lhs[l] += a * b
        rhs = [0] * rank
        for m, a in nonzero[j][k]:
            for l, b in nonzero[i][m]:
                rhs[l] += a * b
        return lhs, rhs

    generators = _generators(_supports(nonzero))
    if not all(operator.eq(*sides(g, j, k)) for g in generators
               for j in range(rank) for k in range(rank)):
        # The tensor is commutative, so the (k, j, i) identity is the
        # (i, j, k) one with its two sides swapped: they fail at the same
        # l, and the first violation has i <= k.
        i, j, k = next((i, j, k) for i in range(rank) for j in range(rank)
                       for k in range(i, rank) if operator.ne(*sides(i, j, k)))
        lhs, rhs = sides(i, j, k)
        l = next(l for l in range(rank) if lhs[l] != rhs[l])
        raise ValidationError("associativity", (i, j, k, l))

    exact = None
    if fpdims is not None:
        exact = tuple(d if isinstance(d, CycNum) else CycNum.from_rational(d)
                      for d in fpdims)
        if len(exact) != rank:
            raise ValidationError("fpdims", None, "one dimension per basis element")
        if exact[0] != 1:
            raise ValidationError("fpdims", (0,), "unit must have dimension 1")
        for i in range(rank):
            if not exact[i].is_positive():
                raise ValidationError("fpdims", (i,), "dimensions must embed positive real")
            if exact[dual[i]] != exact[i]:
                raise ValidationError("fpdims", (i,), "dual objects must share a dimension")
        # the tensor is commutative, so the first failing (i, j) has i <= j
        pair = _first_non_character(nonzero, generators, exact)
        if pair is not None:
            raise ValidationError("fpdims", pair,
                                  "dimensions are not a ring homomorphism")

    return FusionRing(rank=rank, names=names, nonzero=nonzero, dual=dual,
                      fpdims=exact, generators=generators)


def _nonzero(tensor):
    """nonzero[i][j]: the (k, N_ij^k) with N_ij^k > 0, in increasing k."""
    return tuple(tuple(tuple(itertools.compress(enumerate(row), row))
                       for row in plane) for plane in tensor)


def _dense(ring):
    """The dense tensor N[i][j][k] as nested lists: the form of documents."""
    return [[[row.get(k, 0) for k in range(ring.rank)] for row in map(dict, plane)]
            for plane in ring.nonzero]


def _supports(nonzero):
    """supports[i][j]: the bitmask of the k with N_ij^k > 0."""
    return tuple(tuple(sum(1 << k for k, _ in row) for row in plane)
                 for plane in nonzero)


def _derived(supports, mask):
    """Grow the proven set `mask` by the rule of `_first_non_character`:
    add l when X_i X_j, i and j proven, has l as its one constituent
    outside the set."""
    while True:
        grown = mask
        members = _members(mask)
        for a, i in enumerate(members):
            row = supports[i]
            for j in members[a:]:
                outside = row[j] & ~grown
                if outside and not outside & (outside - 1):
                    grown |= outside
        if grown == mask:
            return mask
        mask = grown


def _generators(supports):
    """Basis indices whose `_derived` set, with the unit, is the whole basis.

    Each round adds the index whose derived set is largest, the least one
    on ties, and stops at the first that reaches the whole basis.  `_derived`
    is monotone, so an index inside the derived set of an index tried
    before it in the round cannot do better and is not tried."""
    full = (1 << len(supports)) - 1
    proven, generators = 1, []
    while proven != full:
        best, tried = None, proven
        for g in range(1, len(supports)):
            if tried >> g & 1:
                continue
            mask = _derived(supports, proven | 1 << g)
            if best is None or mask.bit_count() > best[1].bit_count():
                best = g, mask
            if mask == full:
                break
            tried |= mask
        generators.append(best[0])
        proven = best[1]
    return tuple(generators)


def _first_non_character(nonzero, generators, values):
    """The first (i, k), 1 <= i <= k, with v_i v_k != sum_l N_ik^l v_l, or
    None; `nonzero` is the `_nonzero` view of the tensor N and `generators`
    are the ring's `_generators`.

    The caller has shown v_0 = 1, so by the unit axiom every pair (0, k)
    holds and is not checked: the dimensions' and the table columns' unit
    checks show it, and for an S-matrix row psi_0 = s_i0 / d_i = 1 follows
    from symmetry and the first row.

    Only the pairs (g, k) with g a generator are checked; the others follow.
    Extend v linearly to the ring, and let P(i) say v(X_i Y) = v_i v(Y) for
    every Y.  P(0) holds since v_0 = 1, and checking (g, k) for every k
    shows P(g).  Let T be a set of indices with P, and let i, j be in T.
    Associativity and P(i), P(j) give v(X_i X_j Y) = v_i v(X_j Y) =
    v_i v_j v(Y) = v(X_i X_j) v(Y).  Expand X_i X_j = sum_l N_ij^l X_l on
    both sides; the terms with l in T cancel.  If exactly one l lies outside
    T, what is left is N_ij^l (v(X_l Y) - v_l v(Y)) = 0 with N_ij^l > 0, so
    P(l) holds.  Closing T = {0} + generators under this rule (`_derived`)
    reaches the whole basis, by the choice of the generators, and P on the
    whole basis is every pair.  The pair (g, k) with k a generator before
    g in the list is the pair (k, g), by commutativity, and is checked once.
    So the check makes no more products than the scan of every pair, which
    runs only when a generator's pair fails, to name the first failing one.

    Every v_i is put over the lcm conductor m and one common denominator D
    as an integer numerator vector A_i, so that v_i = A_i / D.  Then the
    identity holds iff A_i A_k mod Phi_m == D sum_l N_ik^l A_l, and the
    check builds no `CycNum`."""
    m, den, nums = _numerators(values)
    scaled = [[den * x for x in a] for a in nums]
    zero = [0] * len(nums[0])

    def holds(i, k):
        rhs = zero
        for l, n in nonzero[i][k]:
            rhs = [x + n * y for x, y in zip(rhs, scaled[l])]
        return _int_mul(nums[i], nums[k], m) == rhs

    if all(holds(g, k) for a, g in enumerate(generators)
           for k in range(1, len(nums)) if k not in generators[:a]):
        return None
    return next((i, k) for i in range(1, len(nums))
                for k in range(i, len(nums)) if not holds(i, k))


# ---------------------------------------------------------------------------
# derived structure
# ---------------------------------------------------------------------------

def global_fpdim(ring: FusionRing) -> CycNum:
    """Sum of squared dimensions."""
    if ring.fpdims is None:
        raise ExactDataMissing("global dimension needs exact dimensions")
    return sub_fpdim(ring, range(ring.rank))


def _mask(indices) -> int:
    return sum(1 << i for i in set(indices))


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _close(ring: FusionRing, mask: int) -> int:
    """Least fusion- and dual-closed mask containing the unit and `mask`.

    A fusion-closed set S containing the unit is dual-closed, so only
    products are added.  Let R = sum_{Y in S} d_Y Y, d the FP dimensions,
    which every fusion ring has and which are positive on the basis.  For X
    in S the coefficient of Z in X R is c_Z = sum_{Y in S} d_Y N_{X* Z}^Y
    (Frobenius reciprocity), at most d_{X*} d_Z = d_X d_Z, with equality iff
    every term of X* Z lies in S.  X R has no term outside S, so
    d_X FPdim(R) = sum_{Z in S} c_Z d_Z <= d_X sum_{Z in S} d_Z^2
    = d_X FPdim(R): equality holds for every Z, and Z = 1 gives X* in S."""
    supports = ring.supports
    mask |= 1
    while True:
        members = _members(mask)
        grown = mask
        for i in members:
            row = supports[i]
            for j in members:
                grown |= row[j]
        if grown == mask:
            return mask
        mask = grown


def check_subcategory(ring: FusionRing, members) -> Subcategory:
    members = tuple(sorted(set(int(i) for i in members)))
    if 0 not in members:
        raise ValidationError("subcategory", members, "must contain the unit")
    for i in members:
        if not 0 <= i < ring.rank:
            raise ValidationError("subcategory", (i,), "not a basis index")
    mask, supports = _mask(members), ring.supports
    for i in members:
        if not mask >> ring.dual[i] & 1:
            raise ValidationError("subcategory", (i,), "not closed under duals")
        for j in members:
            outside = supports[i][j] & ~mask
            if outside:
                raise ValidationError("subcategory",
                                      (i, j, (outside & -outside).bit_length() - 1),
                                      "not closed under fusion")
    return Subcategory(members)


def subcategory_closure(ring: FusionRing, generators) -> Subcategory:
    """Least fusion- and dual-closed set containing the unit and the generators."""
    return Subcategory(_members(_close(ring, _mask(int(g) for g in generators))))


def enumerate_subcategories(ring: FusionRing) -> tuple[Subcategory, ...]:
    """All subcategories, ordered by size, then members: each is the join of
    the singleton closures of its members, so joins from the unit with the
    distinct singleton closures reach them all."""
    if ring.rank > ENUMERATION_BOUND:
        raise RankTooLarge(
            f"rank {ring.rank} exceeds enumeration bound {ENUMERATION_BOUND}")
    singles = {_close(ring, 1 << i) for i in range(ring.rank)}
    found, frontier = {1}, {1}
    while frontier:
        frontier = {_close(ring, m | s) for m in frontier for s in singles} - found
        found |= frontier
    return tuple(Subcategory(m) for m in
                 sorted(map(_members, found), key=lambda m: (len(m), m)))


def restricted_blocks(ring: FusionRing, members, sub_members) -> list[tuple[int, ...]]:
    """Connected components of `members` under x ~ k iff N_{x s}^k > 0, s in
    sub, in the order of their least members."""
    supports = ring.supports
    left, blocks = _mask(members), []
    while left:
        block = frontier = left & -left
        while frontier:
            reached = 0
            for x in _members(frontier):
                row = supports[x]
                for s in sub_members:
                    reached |= row[s]
            frontier = reached & left & ~block
            block |= frontier
        left &= ~block
        blocks.append(_members(block))
    return blocks


def pointed_part(ring: FusionRing) -> Subcategory:
    """The invertible objects: X with X (x) X* = 1.  N_{X X*}^0 = 1 by the
    duality axiom, so that is X (x) X* having no other term.

    They form a subcategory: the unit is one, and X* X = X X* = 1.  Frobenius
    reciprocity and commutativity give N_{g*h*}^{k*} = N_gh^k, so for g and
    h invertible the unit coefficient of (gh)(g*h*) = (gg*)(hh*) = 1 is
    sum_k (N_gh^k)^2 by the duality axiom: gh is one basis element X_k, and
    g*h* = X_k* is its inverse."""
    return Subcategory(tuple(i for i in range(ring.rank)
                             if ring.nonzero[i][ring.dual[i]] == ((0, 1),)))


def sub_fpdim(ring: FusionRing, members) -> CycNum:
    """Sum of squared dimensions over basis indices: a subcategory, a block
    or a fiber of them, or the whole basis."""
    if ring.fpdims is None:
        raise ExactDataMissing("subcategory dimension needs exact dimensions")
    return _dot([(ring.fpdims[i], ring.fpdims[i]) for i in members])


def deligne_product(a: FusionRing, b: FusionRing) -> FusionRing:
    """Product ring on pairs, ordered (i, i') -> i * rank_b + i'."""
    if a.fpdims is None or b.fpdims is None:
        raise ExactDataMissing("product requires exact dimensions on both factors")
    ra, rb = a.rank, b.rank
    rank = ra * rb

    def flat(i, ip):
        return i * rb + ip

    tensor = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, ip, j, jp in itertools.product(range(ra), range(rb), repeat=2):
        row = tensor[flat(i, ip)][flat(j, jp)]
        for k, nk in a.nonzero[i][j]:
            for kp, nkp in b.nonzero[ip][jp]:
                row[flat(k, kp)] = nk * nkp
    names = tuple(f"({a.names[i]},{b.names[ip]})"
                  for i in range(ra) for ip in range(rb))
    dual = tuple(flat(a.dual[i], b.dual[ip]) for i in range(ra) for ip in range(rb))
    fpdims = tuple(a.fpdims[i] * b.fpdims[ip] for i in range(ra) for ip in range(rb))
    return validate_fusion_ring(tensor, dual, names=names, fpdims=fpdims)
