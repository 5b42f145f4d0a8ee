"""S-matrix layer: centralizers, transparent objects, central elements.

The S-matrix of a braided ring is symmetric with first row the dimensions;
each row, normalized by its dimension, must be a character of the ring and
therefore matches exactly one column of the character table.  That matching
is the M-function, which validation keeps.  Its fibers, the transparent
subcategory (center), and a family of dimension and divisibility identities
are verified here in exact arithmetic.  The checks take a ``verify.Target``
and read its derived data (among them the center and the matched groups)
from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartab import CharacterTable
from .errors import (
    AsymmetricS,
    BadFirstRow,
    ExactDataMissing,
    PreconditionFailed,
    PsiNotCharacter,
    ValidationError,
)
from .exactnum import ZERO, CycNum
from .fusion import FusionRing, Subcategory, _first_non_character
from .reports import CheckRecord, _integrality


@dataclass(frozen=True)
class SMatrix:
    """Validated symmetric matrix whose normalized rows are characters;
    M[i] is the table column that row i divided by d_i equals.  Only
    `validate_smatrix` builds one, so eq-4.3 holds by its matching."""

    s: tuple[tuple[CycNum, ...], ...]
    M: tuple[int, ...]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_smatrix(ring: FusionRing, table: CharacterTable, rows) -> SMatrix:
    """Symmetry, first row, and each normalized row psi_i = s_i / d_i equal
    to a table column, which is M[i].

    Row i matches column j iff s_ia = d_i alpha[a][j] for every a >= 1, so
    no d_i is inverted.  At a = 0 it holds for every j: s_i0 = s_0i = d_i by
    the symmetry and first-row checks, and alpha[0][j] = 1 in a validated
    table.  As d_i > 0, this is psi_i = column j, and the columns are
    distinct, so at most one j matches.

    A row that equals a column is a character: the table was validated, and
    `validate_character_table` proves the same identities psi(a) psi(b) =
    sum_c N_ab^c psi(c).  A row that matches no column is not a character:
    the r distinct columns of a validated table are all r characters of the
    ring.  It raises PsiNotCharacter, naming the first failing pair of
    psi_i, which only then is formed."""
    if ring.fpdims is None:
        raise ExactDataMissing("s-matrix validation needs exact dimensions")
    r = ring.rank
    s = tuple(tuple(v if isinstance(v, CycNum) else CycNum.from_rational(v)
                    for v in row) for row in rows)
    if len(s) != r or any(len(row) != r for row in s):
        raise ValidationError("smatrix-shape", None, f"matrix must be {r} x {r}")
    for i in range(r):
        for j in range(i + 1, r):
            if s[i][j] != s[j][i]:
                raise AsymmetricS(f"entries ({i},{j}) and ({j},{i}) differ")
    for i in range(r):
        if s[0][i] != ring.fpdims[i]:
            raise BadFirstRow(f"entry {i} of the first row is not the dimension")
    alpha = table.alpha
    m = []
    for i, (d, row) in enumerate(zip(ring.fpdims, s)):
        j = next((j for j in range(r)
                  if all(row[a] == d * alpha[a][j] for a in range(1, r))), None)
        if j is None:
            inv = d.inverse()
            raise PsiNotCharacter(i, _first_non_character(
                ring.nonzero, ring.generators, [x * inv for x in row]))
        m.append(j)
    return SMatrix(s=s, M=tuple(m))


# ---------------------------------------------------------------------------
# centralizers and the center
# ---------------------------------------------------------------------------

def centralizer(target, sub: Subcategory) -> Subcategory:
    """D': the objects i' with s_ai' = d_a d_i' for every a in `sub` (Müger's
    transparency criterion), read as M^{-1}(J_D) with no product.

    Row i' was matched, and S is symmetric, so s_ai' = d_i' alpha[a][M(i')].
    As d_i' > 0, s_ai' = d_a d_i' iff alpha[a][M(i')] = d_a, so i' is in D'
    iff column M(i') is in J_D = `target.support(sub)`.

    D' is a subcategory for any index set D, closed or not.  Write psi_a for
    the character s_a / d_a, so i' is in D' iff psi_a(X_i') = d_i' for every
    a in D.  Every character has |psi(X_k)| <= d_k in the embedding where d
    is positive: take l with c = |psi(X_l)| / d_l largest, then |psi(X_k)| c
    d_l = |sum_m N_kl^m psi(X_m)| <= c sum_m N_kl^m d_m = c d_k d_l, and c >=
    |psi(X_0)| = 1.  D' holds 0, as psi_a(X_0) = 1.  For i, i' in D' and a in
    D, sum_k N_ii'^k (d_k - psi_a(X_k)) = d_i d_i' - psi_a(X_i) psi_a(X_i')
    = 0.  Each term has real part >= 0, so each real part is 0, and with
    |psi_a(X_k)| <= d_k that leaves psi_a(X_k) = d_k wherever N_ii'^k > 0:
    D' is closed under fusion, hence under duals (the proof of
    `fusion._close`)."""
    support = set(target.support(sub))
    return Subcategory(tuple(ip for ip, j in enumerate(target.smatrix.M)
                             if j in support))


# ---------------------------------------------------------------------------
# central elements
# ---------------------------------------------------------------------------

def class_sum(target, j: int) -> tuple[CycNum, ...]:
    """C_j, in coordinates over the idempotent basis dual to the basis
    elements: class dimension times the dimension-normalized column j of the
    target's table."""
    table, fpdims = target.table, target.ring.fpdims
    c = table.class_dims[j]
    return tuple(table.alpha[ip][j] * target.inverse(fpdims[ip]) * c
                 for ip in range(target.ring.rank))


# ---------------------------------------------------------------------------
# the center
# ---------------------------------------------------------------------------

def m_map(target) -> Subcategory:
    """The Müger center C' of the target's matching, whose M
    `validate_smatrix` found: the target's centralizer of the whole ring,
    the fiber of M over the dimension column M(0).  The other fibers are
    the matched groups of the whole ring."""
    return target.centralizer(target.whole)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def verify_eq_4_3(target) -> list[CheckRecord]:
    """Normalized table entries at matched columns against normalized
    s-entries: alpha[i][M(i')] d_{i'} = s_{ii'} for every i and i'.

    Every record passes with no arithmetic.  `validate_smatrix` matched
    row i' to column M(i'), so alpha[a][M(i')] = s_{i'a} / d_{i'} for
    every a; take a = i and use the symmetry s_{i'i} = s_{ii'} it checked.
    """
    return [CheckRecord(id="eq-4.3", params={"i": i},
                        lhs="alpha_{i M(i')} d_{i'}", rhs="s_{i i'}",
                        passed=True)
            for i in range(target.ring.rank)]


def verify_thm_4_6(target) -> list[CheckRecord]:
    """Central image of each basis character is its class sum, rescaled."""
    ring, table, sm = target.ring, target.table, target.smatrix
    inv_dims = [target.inverse(d) for d in ring.fpdims]
    out = []
    for i in range(ring.rank):
        j = sm.M[i]
        # f_Q of basis character i: row i of s times the 1/d_{i'}
        lhs = [x * y for x, y in zip(sm.s[i], inv_dims)]
        c = ring.fpdims[i] * target.inverse(table.class_dims[j])
        rhs = [a * c for a in class_sum(target, j)]
        out.append(CheckRecord(id="thm-4.6", params={"i": i, "column": j},
                               lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return out


def verify_thm_4_10(target) -> list[CheckRecord]:
    """Fibers of the matching equal the cosets with respect to the center,
    and the fiber count is the support size of the center.  The fibers are
    the matched groups of the whole ring; their columns are J_2."""
    center = target.center
    groups = target.matched_groups(target.whole)
    fibers = sorted(b for b, _ in groups.values())   # disjoint: by least member
    dec = target.cosets(center)
    same = set(map(frozenset, fibers)) == set(map(frozenset, dec.blocks))
    out = [CheckRecord(id="thm-4.10", params={},
                       lhs=[list(b) for b in fibers],
                       rhs=[list(b) for b in dec.blocks],
                       passed=same, detail="fibers vs center cosets")]
    jz = target.support(center)
    out.append(CheckRecord(id="thm-4.10", params={},
                           lhs=len(fibers), rhs=len(jz),
                           passed=set(groups) == set(jz),
                           detail="fiber count vs support size"))
    return out


def matched_groups(target, sub: Subcategory) -> dict:
    """R(D)_j for each matched column j of `sub`, in increasing j: j maps to
    the members of `sub` matched to it and their dimension."""
    grouped: dict[int, list[int]] = {}
    for i in sub.members:
        grouped.setdefault(target.smatrix.M[i], []).append(i)
    return {j: (tuple(v), target.dim(v)) for j, v in sorted(grouped.items())}


def verify_prop_4_12(target, sub: Subcategory) -> list[CheckRecord]:
    """Support of the centralizer is the matched image of D, and each matched
    group has dimension dim(D ∩ center) times the class dimension."""
    table, groups = target.table, target.matched_groups(sub)
    dprime = target.centralizer(sub)
    jdp = target.support(dprime)
    image = list(groups)
    out = [CheckRecord(id="prop-4.12",
                       params={"D": list(sub.members), "part": "image"},
                       lhs=image, rhs=sorted(jdp),
                       passed=set(image) == set(jdp))]
    dim_inter = target.dim(target.center_trace(sub))
    total_block_dim = ZERO
    for j, (_, dim_j) in groups.items():
        total_block_dim = total_block_dim + dim_j
        rhs = dim_inter * table.class_dims[j]
        out.append(CheckRecord(id="prop-4.12",
                               params={"D": list(sub.members), "j": j},
                               lhs=dim_j, rhs=rhs, passed=dim_j == rhs))
    # support sum over the centralizer, and its consequence for dim(D)
    cd_sum = sum((table.class_dims[j] for j in jdp), ZERO)
    quotient = target.global_dim * target.inverse(target.dim(dprime))
    out.append(CheckRecord(id="prop-4.12",
                           params={"D": list(sub.members), "part": "support-sum"},
                           lhs=cd_sum, rhs=quotient, passed=cd_sum == quotient))
    out.append(CheckRecord(id="prop-4.12",
                           params={"D": list(sub.members), "part": "dim-sum"},
                           lhs=total_block_dim, rhs=target.dim(sub),
                           passed=total_block_dim == target.dim(sub)))
    return out


def verify_eq_4_15(target, sub: Subcategory) -> CheckRecord:
    """dim(D) dim(D') = dim(C) dim(D ∩ center)."""
    lhs = target.dim(sub) * target.dim(target.centralizer(sub))
    rhs = target.global_dim * target.dim(target.center_trace(sub))
    return CheckRecord(id="eq-4.15", params={"D": list(sub.members)},
                       lhs=lhs, rhs=rhs, passed=lhs == rhs)


def verify_cor_4_16(target, sub: Subcategory) -> list[CheckRecord]:
    """dim(C) dim(center ∩ D) / dim(R(D)_j) is an algebraic integer."""
    jdp = target.support(target.centralizer(sub))
    groups = target.matched_groups(sub)
    numerator = target.global_dim * target.dim(target.center_trace(sub))
    return [_integrality(target, "cor-4.16",
                         {"D": list(sub.members), "j": j},
                         numerator * target.inverse(groups[j][1]))
            for j in sorted(jdp) if j in groups]


def verify_eq_4_20(target) -> list[CheckRecord]:
    """Fiber dimensions are dim(center) times the class dimensions; the
    fibers are the matched groups of the whole ring."""
    table = target.table
    dim_center = target.dim(target.center)
    out = []
    for j, (fiber, dim_f) in target.matched_groups(target.whole).items():
        rhs = dim_center * table.class_dims[j]
        out.append(CheckRecord(id="eq-4.20", params={"j": j, "fiber": list(fiber)},
                               lhs=dim_f, rhs=rhs, passed=dim_f == rhs))
    return out


def verify_prop_4_21(target, sub: Subcategory) -> CheckRecord:
    """Matched groups inside D are exactly the cosets of D by D ∩ center."""
    blocks = {frozenset(b) for b, _ in target.matched_groups(sub).values()}
    inner = {frozenset(b)
             for b in target.blocks(sub, target.center_trace(sub))}
    return CheckRecord(id="prop-4.21", params={"D": list(sub.members)},
                       lhs=sorted(sorted(b) for b in blocks),
                       rhs=sorted(sorted(b) for b in inner),
                       passed=blocks == inner)


def _squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def verify_cor_4_18(target, sub: Subcategory) -> CheckRecord:
    """Integral ring, squarefree global dimension, trivial center trace:
    then the subcategory is pointed.  Vacuous pass when a hypothesis fails."""
    ring = target.ring
    params = {"D": list(sub.members)}
    integral = all(d.is_rational() and d.as_rational().denominator == 1
                   for d in ring.fpdims)
    if not integral:
        return CheckRecord(id="cor-4.18", params=params, lhs=None, rhs=None,
                           passed=True, detail="vacuous: ring not integral")
    total = target.global_dim.as_rational()
    if total.denominator != 1 or not _squarefree(int(total)):
        return CheckRecord(id="cor-4.18", params=params, lhs=None, rhs=None,
                           passed=True,
                           detail="vacuous: global dimension not squarefree")
    if target.center_trace(sub).members != (0,):
        return CheckRecord(id="cor-4.18", params=params, lhs=None, rhs=None,
                           passed=True, detail="vacuous: center trace nontrivial")
    ok = set(sub.members) <= set(target.pointed.members)
    return CheckRecord(id="cor-4.18", params=params,
                       lhs=list(sub.members), rhs="pointed", passed=ok)


def verify_thm_1_1(target, sub: Subcategory) -> list[CheckRecord]:
    """dim(C)/d_Y^2 is an algebraic integer for Y in D when D meets the
    center trivially; cross-checked through singleton matched groups."""
    if target.center_trace(sub).members != (0,):
        raise PreconditionFailed("subcategory meets the center nontrivially")
    total = target.global_dim
    out = [_integrality(target, "thm-1.1",
                        {"D": list(sub.members), "Y": y},
                        total * target.inverse(target.dim((y,))))
           for y in sub.members]
    sizes = sorted(len(b) for b, _ in target.matched_groups(sub).values())
    singletons = all(n == 1 for n in sizes)
    out.append(CheckRecord(id="thm-1.1", params={"D": list(sub.members)},
                           lhs=sizes,
                           rhs="all singleton", passed=singletons,
                           detail="matched groups inside D"))
    return out


def verify_thm_1_3(target) -> list[CheckRecord]:
    """Divisibility by squared dimensions against the center: the product
    form for every simple; stabilizer-corrected class dimensions; the free
    quotient form when the center acts freely."""
    ring, table, center = target.ring, target.table, target.center
    if not set(center.members) <= set(target.pointed.members):
        raise PreconditionFailed("center is not pointed")
    # G_Y: the g in the pointed center with g Y = Y, that is N_gY^Y > 0
    stabilizers = [[g for g in center.members if ring.supports[g][y] >> y & 1]
                   for y in range(ring.rank)]
    total = target.global_dim
    dim_center = target.dim(center)
    out = []
    for y, g_y in enumerate(stabilizers):
        d2 = target.dim((y,))
        out.append(_integrality(target, "thm-1.3", {"Y": y, "item": 1},
                                total * dim_center * target.inverse(d2)))
        cd = table.class_dims[target.smatrix.M[y]]
        out.append(CheckRecord(id="eq-4.23",
                               params={"Y": y, "stabilizer": g_y},
                               lhs=cd * len(g_y), rhs=d2,
                               passed=cd * len(g_y) == d2))
        out.append(_integrality(target, "thm-1.3",
                                {"Y": y, "item": "4.24"},
                                total * len(g_y) * target.inverse(d2)))
    if all(len(g) == 1 for g in stabilizers):
        for y in range(ring.rank):
            d2 = target.dim((y,))
            out.append(_integrality(target, "thm-1.3",
                                    {"Y": y, "item": 2},
                                    total * target.inverse(dim_center * d2)))
    return out


def verify_rem_4_25(target) -> list[CheckRecord]:
    """d_i^2 dim(C)/(dim(center) dim(C^{M(i)})) is an algebraic integer."""
    ring, table, m = target.ring, target.table, target.smatrix.M
    total = target.global_dim
    dim_center = target.dim(target.center)
    return [_integrality(target, "rem-4.25", {"i": i},
                         target.dim((i,)) * total
                         * target.inverse(dim_center * table.class_dims[m[i]]))
            for i in range(ring.rank)]
