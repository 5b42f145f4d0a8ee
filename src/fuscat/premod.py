"""S-matrix layer: centralizers, transparent objects, central elements.

The S-matrix of a braided ring is symmetric with first row the dimensions;
each row, normalized by its dimension, must be a character of the ring and
therefore matches exactly one column of the character table.  That matching
is the M-function, which validation keeps.  Its fibers, the transparent
subcategory (center), and a family of dimension and divisibility identities
are verified here in exact arithmetic.  The checks take a ``verify.Target``
and read its derived data (among them the matching analysis) from it.
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
from .exactnum import CycNum
from .fusion import (
    FusionRing,
    Subcategory,
    _first_non_character,
    check_subcategory,
)
from .reports import CheckRecord, _integrality

ZERO = CycNum.from_rational(0)


@dataclass(frozen=True)
class SMatrix:
    """Validated symmetric matrix whose normalized rows are characters;
    M[i] is the table column that row i divided by d_i equals.  Only
    `validate_smatrix` builds one, so eq-4.3 holds by its matching."""

    s: tuple[tuple[CycNum, ...], ...]
    M: tuple[int, ...]


@dataclass(frozen=True)
class PremodAnalysis:
    """The center, and for each basis element Y its stabilizer G_Y."""

    center: Subcategory
    stabilizers: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _match_column(table: CharacterTable, psi) -> int | None:
    """Table column equal to the normalized row psi, unique because the
    columns are distinct; None when there is none."""
    for j in range(table.rank):
        if all(table.alpha[a][j] == x for a, x in enumerate(psi)):
            return j
    return None


def validate_smatrix(ring: FusionRing, table: CharacterTable, rows) -> SMatrix:
    """Symmetry, first row, and each normalized row psi_i = s_i / d_i equal
    to a table column, which is M[i].

    A row that equals a column is a character: the table was validated, and
    `validate_character_table` proves the same identities psi(a) psi(b) =
    sum_c N_ab^c psi(c).  A row that matches no column is not a character:
    the r distinct columns of a validated table are all r characters of the
    ring.  It raises PsiNotCharacter, naming its first failing pair."""
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
    m = []
    for i in range(r):
        inv = ring.fpdims[i].inverse()
        psi = [x * inv for x in s[i]]
        j = _match_column(table, psi)
        if j is None:
            raise PsiNotCharacter(i, _first_non_character(
                ring.nonzero, ring.generators, psi))
        m.append(j)
    return SMatrix(s=s, M=tuple(m))


# ---------------------------------------------------------------------------
# centralizers and the center
# ---------------------------------------------------------------------------

def centralizer(target, sub: Subcategory) -> Subcategory:
    """D': the objects i' with s_ii' = d_i d_i' for every i in `sub` (Müger's
    transparency criterion), read as M^{-1}(J_D) with no product.

    Row i' was matched, and S is symmetric, so s_ii' = d_i' alpha[i][M(i')].
    As d_i' > 0, s_ii' = d_i d_i' iff alpha[i][M(i')] = d_i, so i' is in D'
    iff column M(i') is in J_D = `target.support(sub)`."""
    support = set(target.support(sub))
    members = [ip for ip, j in enumerate(target.smatrix.M) if j in support]
    return check_subcategory(target.ring, members)


def muger_center(ring: FusionRing, sm: SMatrix) -> Subcategory:
    """The center C', the fiber of the matching over M(0).

    By `centralizer`, C' = M^{-1}(J_C), and J_C is the one column equal to
    d, since the columns are distinct.  Row 0 of S is d, so that column is
    M(0)."""
    return check_subcategory(ring, [ip for ip, j in enumerate(sm.M)
                                    if j == sm.M[0]])


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
# analysis
# ---------------------------------------------------------------------------

def m_map(target) -> PremodAnalysis:
    """The center and stabilizers of the target's matching, whose M
    `validate_smatrix` found; its fibers are the matched groups of the whole
    ring.  The center is the target's centralizer of the whole ring, and the
    invertible objects are its pointed part."""
    ring = target.ring
    center = target.centralizer(target.whole)
    invertible = set(target.pointed.members)
    stabs = tuple(tuple(g for g in center.members
                        if g in invertible and ring.supports[g][y] >> y & 1)
                  for y in range(ring.rank))
    return PremodAnalysis(center=center, stabilizers=stabs)


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
    center = target.analysis.center
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
    dim_center = target.dim(target.analysis.center)
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
    ring, total = target.ring, target.global_dim
    out = [_integrality(target, "thm-1.1",
                        {"D": list(sub.members), "Y": y},
                        total * target.inverse(ring.fpdims[y] * ring.fpdims[y]))
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
    ring, table, analysis = target.ring, target.table, target.analysis
    if not set(analysis.center.members) <= set(target.pointed.members):
        raise PreconditionFailed("center is not pointed")
    total = target.global_dim
    dim_center = target.dim(analysis.center)
    out = []
    for y in range(ring.rank):
        d2 = ring.fpdims[y] * ring.fpdims[y]
        out.append(_integrality(target, "thm-1.3", {"Y": y, "item": 1},
                                total * dim_center * target.inverse(d2)))
        g_y = analysis.stabilizers[y]
        cd = table.class_dims[target.smatrix.M[y]]
        out.append(CheckRecord(id="eq-4.23",
                               params={"Y": y, "stabilizer": list(g_y)},
                               lhs=cd * len(g_y), rhs=d2,
                               passed=cd * len(g_y) == d2))
        out.append(_integrality(target, "thm-1.3",
                                {"Y": y, "item": "4.24"},
                                total * len(g_y) * target.inverse(d2)))
    if all(len(g) == 1 for g in analysis.stabilizers):
        for y in range(ring.rank):
            d2 = ring.fpdims[y] * ring.fpdims[y]
            out.append(_integrality(target, "thm-1.3",
                                    {"Y": y, "item": 2},
                                    total * target.inverse(dim_center * d2)))
    return out


def verify_rem_4_25(target) -> list[CheckRecord]:
    """d_i^2 dim(C)/(dim(center) dim(C^{M(i)})) is an algebraic integer."""
    ring, table, m = target.ring, target.table, target.smatrix.M
    total = target.global_dim
    dim_center = target.dim(target.analysis.center)
    return [_integrality(target, "rem-4.25", {"i": i},
                         ring.fpdims[i] * ring.fpdims[i] * total
                         * target.inverse(dim_center * table.class_dims[m[i]]))
            for i in range(ring.rank)]
