"""Coset partitions of the basis with respect to a subcategory.

Two basis elements lie in the same (right) coset when one appears in the
product of the other with a subcategory member.  Each coset carries a
regular element; the normalized regular elements span a small commutative
algebra whose structure constants are computed and checked here, along
with two orthogonality relations and an integrality corollary.  The checks
take a ``verify.Target`` and read its derived data from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExactDataMissing, InconsistentCoset, PreconditionFailed
from .exactnum import CycNum, _dot, _int_mul, _over
from .fusion import FusionRing, Subcategory, restricted_blocks
from .reports import CheckRecord, _integrality

ZERO = CycNum.from_rational(0)


@dataclass(frozen=True)
class CosetDecomposition:
    """Blocks (sorted by least member), representatives, block dims and
    dual action."""

    blocks: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    reg_dims: tuple[CycNum, ...]
    dual_map: tuple[int, ...]


def coset_partition(target, sub: Subcategory) -> CosetDecomposition:
    """Partition the target's basis into the cosets of `sub`, with
    representatives, block dimensions (`target.dim`) and the dual action on
    blocks."""
    ring = target.ring
    if ring.fpdims is None:
        raise ExactDataMissing("coset partition needs exact dimensions")
    blocks = restricted_blocks(ring, range(ring.rank), sub.members)
    if blocks[0] != sub.members:
        raise InconsistentCoset(
            f"block of the unit is {blocks[0]}, expected {sub.members}")

    index_of = {}
    for t, block in enumerate(blocks):
        for i in block:
            index_of[i] = t
    dual_map = []
    for block in blocks:
        images = {index_of[ring.dual[i]] for i in block}
        if len(images) != 1:
            raise InconsistentCoset(f"duals of block {block} are split")
        dual_map.append(images.pop())

    # representative convention: least index, with a paired dual block taking
    # the dual of its partner's representative; self-dual blocks keep their min
    reps: list[int | None] = [None] * len(blocks)
    for t, block in enumerate(blocks):
        if reps[t] is not None:
            continue
        reps[t] = block[0]
        td = dual_map[t]
        if td != t and reps[td] is None:
            reps[td] = ring.dual[block[0]]

    return CosetDecomposition(blocks=tuple(blocks), reps=tuple(reps),
                              reg_dims=tuple(map(target.dim, blocks)),
                              dual_map=tuple(dual_map))


# ---------------------------------------------------------------------------
# the algebra spanned by normalized block elements
# ---------------------------------------------------------------------------

def _block_product(target, dec: CosetDecomposition, m: int,
                   n: int) -> dict[int, list[int]]:
    """P with e_m e_n = sum_k P[k] X_k / (den^2 R_m R_n): P[k] is the sum
    over i in block m and j in block n of N_ij^k A_i A_j, as integers over
    the conductor of `target.numerators`, for the k with N_ij^k > 0 for some
    such (i, j).  Each A_i A_j comes from `target.pair`."""
    nonzero, P = target.ring.nonzero, {}
    for i in dec.blocks[m]:
        row = nonzero[i]
        for j in dec.blocks[n]:
            a = target.pair(i, j)
            for k, c in row[j]:
                if k in P:
                    P[k] = [x + c * y for x, y in zip(P[k], a)]
                else:
                    P[k] = [c * y for y in a]
    return P


def hecke_closure(target, sub: Subcategory) -> None:
    """Raise `InconsistentCoset` unless e_m e_n = sum_p H_{mn}^p e_p for
    every pair of blocks m <= n of `sub`'s cosets.

    With d_i = A_i / den (`Target.numerators`) and R_t = FPdim(R_t) from
    `reg_dims`, e_m e_n has coefficient c_k = P_k / (den^2 R_m R_n) at X_k
    (`_block_product`).  It is dimension-proportional on block p iff
    c_k / d_k does not depend on k in p: iff P_k A_{k0} = P_{k0} A_k for k0
    the first member of p and each k in p.  Every side is an integer vector
    mod Phi_m, and no `CycNum` is built.  Then c_k = H_{mn}^p d_k / R_p on
    p, with H_{mn}^p = c_{k0} R_p / d_{k0}.  Only m <= n is checked:
    `validate_fusion_ring` proved N commutative, so e_n e_m has the same
    coefficients.

    Each row sums to 1, so that is not computed.  R_p = sum_{k in p} d_k^2,
    so sum_p H_{mn}^p = sum_k c_k d_k = sum_k P_k A_k / (den^3 R_m R_n).
    The dimensions are a validated character, so sum_k N_ij^k A_k =
    A_i A_j / den, and den sum_k P_k A_k = sum_{i in m, j in n} A_i^2 A_j^2
    = (den^2 R_m)(den^2 R_n) for any two blocks.
    """
    dec = target.cosets(sub)
    cond, _, nums = target.numerators
    zero = [0] * len(nums[0])
    nb = len(dec.blocks)
    for m in range(nb):
        for n in range(m, nb):
            P = _block_product(target, dec, m, n)
            for p, block in enumerate(dec.blocks):
                k0 = block[0]
                first = P.get(k0, zero)
                for k in block[1:]:
                    if (_int_mul(P.get(k, zero), nums[k0], cond)
                            != _int_mul(first, nums[k], cond)):
                        raise InconsistentCoset(
                            f"e_{m} e_{n} is not dimension-proportional on block {p}")


def _normalized(target, dec: CosetDecomposition) -> dict[int, CycNum]:
    """d_i / FPdim(R_t) for every basis element i, t its block: the
    coefficients of the normalized block elements e_t."""
    fpdims = target.ring.fpdims
    return {i: fpdims[i] * target.inverse(reg)
            for block, reg in zip(dec.blocks, dec.reg_dims) for i in block}


def _hecke_row(target, dec: CosetDecomposition, coeffs: dict[int, CycNum],
               m: int, n: int) -> tuple[CycNum, ...]:
    """H_{mn}^p for every block p, given that e_m e_n is closed: the
    coefficient of e_m e_n at the first member k0 of p, one `_dot` of the
    terms (d_i/R_m, d_j/R_n, N_ij^k0) with N_ij^k0 > 0 (`coeffs` holds the
    d_i/R_t), times R_p/d_k0.  That is the value, conductor and canonical
    form of the product of the e_t as coefficient tuples, read at k0."""
    nonzero, fpdims = target.ring.nonzero, target.ring.fpdims
    row = []
    for p, block in enumerate(dec.blocks):
        k0 = block[0]
        terms = [(coeffs[i], coeffs[j], c)
                 for i in dec.blocks[m] for j in dec.blocks[n]
                 for k, c in nonzero[i][j] if k == k0]
        value = _dot(terms) if terms else ZERO
        row.append(value * (dec.reg_dims[p] * target.inverse(fpdims[k0])))
    return tuple(row)


def hecke_constants(target, sub: Subcategory) -> tuple:
    """H, with H[m][n][p] the structure constant H_{mn}^p of
    e_m e_n = sum_p H_{mn}^p e_p over the cosets of `sub`.

    `hecke_closure` decides that each e_m e_n, m <= n, is closed, or raises;
    each row, which sums to 1, is then read off at the first member of each
    block (`_hecke_row`).  N is commutative, so H_{nm} = H_{mn}.
    """
    hecke_closure(target, sub)
    dec = target.cosets(sub)
    coeffs, nb = _normalized(target, dec), len(dec.blocks)
    structure = [[None] * nb for _ in range(nb)]
    for m in range(nb):
        for n in range(m, nb):
            structure[m][n] = structure[n][m] = _hecke_row(target, dec,
                                                           coeffs, m, n)
    return tuple(map(tuple, structure))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def verify_eq_3_1(target, sub: Subcategory) -> list[CheckRecord]:
    """[X] R_D / d_X is the same element for all X in a block — and equals
    FPdim(D) e_t — while different blocks give different elements.

    With d_i = A_i / den (`Target.numerators`), the coefficient of [X] R_D
    at X_k is Q_X[k] / den, where Q_X[k] = sum_{j in D} N_Xj^k A_j is a sum
    of integer vectors.  FPdim(D) e_t has coefficient dim(D) d_k / R_t at k
    in t and 0 elsewhere.  Q_X[k] is an empty sum off t: the blocks are the
    components of X ~ k iff N_Xj^k > 0 for some j in D (`restricted_blocks`),
    so every such k lies in X's block.  With R_t and dim(D) read as
    numerators over den^2, block t passes iff den Q_X[k] R_t = dim(D) A_X A_k
    for every X and k in t; A_X A_k comes from `target.pair`.

    Distinctness is not computed: it holds.  The e_t have the blocks, which
    are nonempty and disjoint, as supports, since the validator showed every
    d_i > 0; and FPdim(D) > 0.  So two blocks give elements with different
    supports.
    """
    ring, dec = target.ring, target.cosets(sub)
    cond, den, nums = target.numerators
    sq = den * den
    dim_d = _over(target.dim(sub), cond, sq)
    zero = [0] * len(dim_d)
    params = {"D": list(sub.members)}
    out = []
    for block, reg in zip(dec.blocks, dec.reg_dims):
        scale = [den * x for x in _over(reg, cond, sq)]
        ok = True
        for x in block:
            row, q = ring.nonzero[x], {}
            for j in sub.members:
                for k, c in row[j]:
                    q[k] = ([u + c * v for u, v in zip(q[k], nums[j])]
                            if k in q else [c * v for v in nums[j]])
            ok = ok and all(_int_mul(q.get(k, zero), scale, cond)
                            == _int_mul(dim_d, target.pair(x, k), cond)
                            for k in block)
        out.append(CheckRecord(id="eq-3.1",
                               params={**params, "block": list(block)},
                               lhs="[X]R_D/d_X for X in block", rhs="FPdim(D) e_t",
                               passed=ok))
    out.append(CheckRecord(id="eq-3.1",
                           params={**params, "blocks": "pairwise"},
                           lhs="normalized block elements", rhs="pairwise distinct",
                           passed=True))
    return out


def verify_prop_3_4(target, sub: Subcategory) -> list[CheckRecord]:
    """Block count equals |J_D|; the block algebra is well-formed.

    The first record compares the block count with |J_D|.  The two algebra
    records hold once `hecke_closure` has returned, by the proof below,
    so they are not recomputed; the triple-product and dual scans that
    would recompute them are test oracles.

    Associativity.  `hecke_closure` raises unless e_m e_n is
    dimension-proportional on every block, and the blocks partition the
    basis, so the closure e_m e_n = sum_p H_{mn}^p e_p is exact.  The e_s
    have disjoint, nonempty supports with coefficients d_i / FPdim(R_s) > 0,
    so they are linearly independent.  `validate_fusion_ring` checked that
    N is associative, and so is its K-linear extension.  Expanding both
    sides of (e_m e_n) e_p = e_m (e_n e_p) in the e_s gives
    sum_q H_{mn}^q H_{qp}^s = sum_q H_{np}^q H_{mq}^s.

    Dual symmetry.  The validator checks that the dual is an involution,
    N_ij^k = N_{i* k}^j and commutativity; together they give
    N_ij^k = N_{i* j*}^{k*}, so X_i -> X_{i*} extends to a ring
    automorphism phi.  `coset_partition` refuses split dual blocks, so
    i -> i* maps block m onto block m*, and the validator checks
    d_{i*} = d_i, so phi(e_m) = e_{m*}.  Applying phi to the closure gives
    e_{m*} e_{n*} = sum_p H_{mn}^p e_{p*}, while the closure at (m*, n*)
    gives sum_p H_{m* n*}^{p*} e_{p*}.  Independence and the commutativity
    of N, by which H_{m* n*} = H_{n* m*}, give H_{mn}^p = H_{n* m*}^{p*}.
    """
    nb, jd = len(target.cosets(sub).blocks), target.support(sub)
    out = [CheckRecord(id="prop-3.4",
                       params={"D": list(sub.members)},
                       lhs=nb, rhs=len(jd), passed=nb == len(jd),
                       detail="algebra dimension = support size")]
    hecke_closure(target, sub)   # raises InconsistentCoset on malformation
    out.append(CheckRecord(id="prop-3.4", params={"D": list(sub.members)},
                           lhs="structure constants", rhs="associative",
                           passed=True))
    out.append(CheckRecord(id="prop-3.4", params={"D": list(sub.members)},
                           lhs="structure constants", rhs="dual-symmetric",
                           passed=True))
    return out


def verify_eq_3_6(target, sub: Subcategory) -> list[CheckRecord]:
    """First orthogonality, for every k, l in J_D: block sums of products of
    normalized character values at the representatives, against the class
    dimension of column k."""
    table, dec, jd = target.table, target.cosets(sub), target.support(sub)
    reps, dual_map, alpha = dec.reps, dec.dual_map, table.alpha
    # the weight FPdim(R_t)/d_{X_t}^2 of every block t
    inv = [target.inverse(target.ring.fpdims[x]) for x in reps]
    weights = [r * (v * v) for r, v in zip(dec.reg_dims, inv)]
    out = []
    for k in jd:
        for l in jd:
            lhs = _dot([(w, alpha[reps[t]][k], alpha[reps[dual_map[t]]][l])
                        for t, w in enumerate(weights)])
            rhs = (target.global_dim * target.inverse(table.class_dims[k])
                   if k == l else ZERO)
            out.append(CheckRecord(id="eq-3.6",
                                   params={"D": list(sub.members), "k": k, "l": l},
                                   lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return out


def verify_eq_3_7(target, sub: Subcategory) -> list[CheckRecord]:
    """Second orthogonality, for every pair of blocks t, s: support-weighted
    column sums at two representatives."""
    ring, table, dec = target.ring, target.table, target.cosets(sub)
    jd, reps, alpha = target.support(sub), dec.reps, table.alpha
    out = []
    for t in range(len(reps)):
        xt = reps[t]
        for s in range(len(reps)):
            xss = reps[dec.dual_map[s]]
            lhs = _dot([(table.class_dims[k], alpha[xt][k], alpha[xss][k])
                        for k in jd])
            if s == t:
                rhs = (ring.fpdims[xt] * ring.fpdims[reps[s]] * target.global_dim
                       * target.inverse(dec.reg_dims[t]))
            else:
                rhs = ZERO
            out.append(CheckRecord(id="eq-3.7",
                                   params={"D": list(sub.members), "t": t, "s": s},
                                   lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return out


def verify_cor_3_9_1(target, sub: Subcategory) -> list[CheckRecord]:
    """d_Z^2 FPdim(C) / FPdim(R_t) is an algebraic integer, every Z in every block."""
    ring, dec = target.ring, target.cosets(sub)
    total = target.global_dim
    return [_integrality(target, "cor-3.9",
                         {"D": list(sub.members), "claim": 1,
                          "block": t, "member": z},
                         ring.fpdims[z] * ring.fpdims[z] * total
                         * target.inverse(dec.reg_dims[t]))
            for t, block in enumerate(dec.blocks) for z in block]


def free_action(ring: FusionRing, sub: Subcategory) -> bool:
    """No non-unit member fixes any basis element by left multiplication."""
    return all(not ring.supports[g][i] >> i & 1
               for g in sub.members if g != 0
               for i in range(ring.rank))


def verify_cor_3_9_2(target, sub: Subcategory) -> list[CheckRecord]:
    """FPdim(C) / (FPdim(D) dim(C^j)) is an algebraic integer for j in the
    support, when D is pointed and acts freely."""
    ring, table = target.ring, target.table
    if not set(sub.members) <= set(target.pointed.members):
        raise PreconditionFailed("subcategory is not pointed")
    if not free_action(ring, sub):
        raise PreconditionFailed("pointed subcategory fixes a basis element")
    total = target.global_dim
    dim_d = target.dim(sub)
    return [_integrality(target, "cor-3.9",
                         {"D": list(sub.members), "claim": 2, "j": j},
                         total * target.inverse(dim_d * table.class_dims[j]))
            for j in target.support(sub)]


def verify_lemma_3_12(target, sub: Subcategory,
                      amb: Subcategory) -> CheckRecord:
    """Nonempty traces of the blocks on a subcategory A are exactly the
    blocks of A with respect to A∩D."""
    dec = target.cosets(sub)
    traces = set()
    amb_set = set(amb.members)
    for block in dec.blocks:
        trace = frozenset(set(block) & amb_set)
        if trace:
            traces.add(trace)
    inner = {frozenset(b)
             for b in target.blocks(amb, target.meet(sub, amb))}
    return CheckRecord(id="lemma-3.12",
                       params={"D": list(sub.members), "A": list(amb.members)},
                       lhs=sorted(sorted(b) for b in traces),
                       rhs=sorted(sorted(b) for b in inner),
                       passed=traces == inner)
