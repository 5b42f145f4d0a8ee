"""Coset partitions of the basis with respect to a subcategory.

Two basis elements lie in the same (right) coset when one appears in the
product of the other with a subcategory member.  Each coset carries a
regular element; the normalized regular elements e_t span a small
commutative algebra.  eq-3.1 is decided once per subcategory
(`hecke_closure`), and its block verdicts decide that the e_t are closed
under the product; the structure constants are then read off one
representative per block.  Two orthogonality relations and an integrality
corollary are checked here too.  The checks take a ``verify.Target`` and
read its derived data from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExactDataMissing, InconsistentCoset, PreconditionFailed
from .exactnum import ZERO, _dot, _int_mul, _numerators
from .fusion import FusionRing, Subcategory, restricted_blocks
from .reports import CheckRecord, _integrality


@dataclass(frozen=True)
class CosetDecomposition:
    """Blocks (sorted by least member), representatives and dual action.
    The dimension R_t of block t is `target.dim(blocks[t])`."""

    blocks: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    dual_map: tuple[int, ...]


def coset_partition(target, sub: Subcategory) -> CosetDecomposition:
    """Partition the target's basis into the cosets of `sub`, with
    representatives and the dual action on blocks.

    Two facts of a validated ring hold, so they are not checked.  The block
    of the unit is `sub`: N_0s^k = delta_sk reaches every member of `sub`
    from the unit, and `sub` is closed, so nothing else is reached.  Dual
    blocks are never split: Frobenius reciprocity and commutativity give
    N_xs^k = N_{x* s*}^{k*}, and s* is in `sub`, so the duals of a block
    lie in one block, which `dual_map` reads off the dual of its least
    member.
    """
    ring = target.ring
    if ring.fpdims is None:
        raise ExactDataMissing("coset partition needs exact dimensions")
    blocks = restricted_blocks(ring, range(ring.rank), sub.members)
    index_of = {i: t for t, block in enumerate(blocks) for i in block}
    dual_map = [index_of[ring.dual[block[0]]] for block in blocks]

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
                              dual_map=tuple(dual_map))


# ---------------------------------------------------------------------------
# the algebra spanned by normalized block elements
# ---------------------------------------------------------------------------

def hecke_closure(target, sub: Subcategory) -> tuple[bool, ...]:
    """eq-3.1's verdict for each block t of `sub`'s cosets: whether
    [X] R_D / d_X = FPdim(D) e_t for every X in t.  Decided once per
    subcategory and kept on the target.

    The kernel reads integers only.  (m, den, A) = `_numerators` of the
    target's dimensions, built once per target: d_i = A_i / den with A_i
    phi(m) integers.  Each A_i A_j mod Phi_m, i <= j, is built once per
    target and shared by every subcategory.  dim(D) and R_t are sums of
    d_i^2, so den^2 dim(D) and den^2 R_t are the sums of the A_i^2 over D
    and over t: reduction mod Phi_m is linear and the power-basis vector of
    a value at conductor m is unique, so these are the vectors of
    den^2 `target.dim(sub)` and den^2 `target.dim(t)`, read with no
    `CycNum` built.

    The coefficient of [X] R_D at X_k is Q_X[k] / den, where
    Q_X[k] = sum_{j in D} N_Xj^k A_j is a sum of integer vectors.
    FPdim(D) e_t has coefficient dim(D) d_k / R_t at k in t and 0 elsewhere.
    Q_X[k] is an empty sum off t: the blocks are the components of X ~ k
    iff N_Xj^k > 0 for some j in D (`restricted_blocks`), so every such k
    lies in X's block.  Block t holds iff
    den Q_X[k] (den^2 R_t) = (den^2 dim(D)) A_X A_k for every X and k in t.

    The verdicts decide the Hecke closure.  If all hold, then
    e_m e_n = sum_p H_{mn}^p e_p with
    H_{mn}^p = sum_{l in p} N_xy^l d_l / (d_x d_y) for any x in block m and
    y in block n.  Set e_0 = R_D / dim(D); block 0 is D (`coset_partition`).
    eq-3.1 says X e_0 = d_X e_t(X) for every X, t(X) its block.
    - e_0 e_0 = e_0: R_D e_0 = sum_{x in D} d_x X_x e_0
      = sum_{x in D} d_x^2 e_0 = dim(D) e_0, and e_0 e_0 = R_D e_0 / dim(D).
    - e_m = X_x e_0 / d_x for any x in block m.
    - `validate_fusion_ring` proved N commutative and associative, and so
      is its K-linear extension.  So e_m e_n = X_x X_y e_0 e_0 / (d_x d_y)
      = X_x X_y e_0 / (d_x d_y) = sum_l N_xy^l d_l e_t(l) / (d_x d_y).
    The e_t have disjoint, nonempty supports, so H is unique.  The proof
    never uses that d is a character, so it holds for any positive
    dimensions, also ones changed after validation.
    """
    def verdicts():
        ring, dec = target.ring, target.cosets(sub)
        cond, den, nums = target._once("numerators",
                                       lambda: _numerators(ring.fpdims))
        pairs = target._once("pairs", dict)

        def pair(i, j):
            key = (i, j) if i <= j else (j, i)
            if key not in pairs:
                pairs[key] = _int_mul(nums[i], nums[j], cond)
            return pairs[key]

        def squares(members):
            return [sum(col) for col in zip(*(pair(i, i) for i in members))]

        dim_d = squares(sub.members)
        zero = [0] * len(dim_d)
        out = []
        for block in dec.blocks:
            scale = [den * x for x in squares(block)]
            ok = True
            for x in block:
                row, q = ring.nonzero[x], {}
                for j in sub.members:
                    for k, c in row[j]:
                        q[k] = ([u + c * v for u, v in zip(q[k], nums[j])]
                                if k in q else [c * v for v in nums[j]])
                ok = ok and all(_int_mul(q.get(k, zero), scale, cond)
                                == _int_mul(dim_d, pair(x, k), cond)
                                for k in block)
            out.append(ok)
        return tuple(out)

    return target._once(("eq-3.1", sub.members), verdicts)


def hecke_constants(target, sub: Subcategory) -> tuple:
    """H, with H[m][n][p] the structure constant H_{mn}^p of
    e_m e_n = sum_p H_{mn}^p e_p over the cosets of `sub`.

    Raises `InconsistentCoset` naming the first block where eq-3.1 fails
    (`hecke_closure`), which only dimensions changed after validation can
    bring about.  Otherwise H_{mn}^p = sum_{l in p} N_xy^l d_l / (d_x d_y)
    with x and y the first members of m and n, as `hecke_closure` proves.

    Each value is put at the conductor the report prints it at: the lcm of
    the conductors of R_m, R_n and R_p (`target.dim`) when it is nonzero, and
    that of R_p when it is zero.  R_t = sum_{i in t} d_i^2 lands at the lcm
    of the conductors of its d_i (`sub_fpdim`), so the conductor of every
    factor d_l, 1/d_x and 1/d_y divides that lcm.
    """
    verdicts = hecke_closure(target, sub)
    if not all(verdicts):
        raise InconsistentCoset(
            f"eq-3.1 fails on block {verdicts.index(False)}")
    dec, ring = target.cosets(sub), target.ring
    block_of = {i: t for t, block in enumerate(dec.blocks) for i in block}
    conds = [target.dim(block).conductor for block in dec.blocks]
    zeros = [ZERO.change_conductor(c) for c in conds]
    inv = [target.inverse(ring.fpdims[block[0]]) for block in dec.blocks]
    structure = []
    for m, bm in enumerate(dec.blocks):
        plane = []
        for n, bn in enumerate(dec.blocks):
            terms = [[] for _ in dec.blocks]
            for l, c in ring.nonzero[bm[0]][bn[0]]:
                terms[block_of[l]].append((c, ring.fpdims[l], inv[m], inv[n]))
            plane.append(tuple(
                _dot(t).change_conductor(math.lcm(conds[m], conds[n], cp))
                if t else zero
                for t, cp, zero in zip(terms, conds, zeros)))
        structure.append(tuple(plane))
    return tuple(structure)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def verify_eq_3_1(target, sub: Subcategory) -> list[CheckRecord]:
    """[X] R_D / d_X is the same element for all X in a block — and equals
    FPdim(D) e_t — while different blocks give different elements.

    Each block's verdict is `hecke_closure`'s, which decides it on integer
    numerators.  Distinctness is not computed: it holds.  The e_t have the
    blocks, which are nonempty and disjoint, as supports, since the
    validator showed every d_i > 0; and FPdim(D) > 0.  So two blocks give
    elements with different supports.
    """
    params = {"D": list(sub.members)}
    out = [CheckRecord(id="eq-3.1", params={**params, "block": list(block)},
                       lhs="[X]R_D/d_X for X in block", rhs="FPdim(D) e_t",
                       passed=ok)
           for block, ok in zip(target.cosets(sub).blocks,
                                hecke_closure(target, sub))]
    out.append(CheckRecord(id="eq-3.1",
                           params={**params, "blocks": "pairwise"},
                           lhs="normalized block elements", rhs="pairwise distinct",
                           passed=True))
    return out


def verify_prop_3_4(target, sub: Subcategory) -> list[CheckRecord]:
    """Block count equals |J_D|; the block algebra is well-formed.

    The first record compares the block count with |J_D|.  The two algebra
    records hold when every eq-3.1 verdict of `hecke_closure` does, by the
    proof below, so they take that verdict and are not recomputed; the
    triple-product and dual scans that would recompute them are test
    oracles.

    Associativity.  When every verdict holds, the closure
    e_m e_n = sum_p H_{mn}^p e_p is exact (the proof is the docstring of
    `hecke_closure`).  The e_s have disjoint, nonempty supports with
    coefficients d_i / FPdim(R_s) > 0, so they are linearly independent.
    `validate_fusion_ring` checked that N is associative, and so is its
    K-linear extension.  Expanding both sides of
    (e_m e_n) e_p = e_m (e_n e_p) in the e_s gives
    sum_q H_{mn}^q H_{qp}^s = sum_q H_{np}^q H_{mq}^s.

    Dual symmetry.  The validator checks that the dual is an involution,
    N_ij^k = N_{i* k}^j and commutativity; together they give
    N_ij^k = N_{i* j*}^{k*}, so X_i -> X_{i*} extends to a ring
    automorphism phi.  Dual blocks are never split (`coset_partition`), so
    i -> i* maps block m onto block m*, and the validator checks
    d_{i*} = d_i, so phi(e_m) = e_{m*}.  Applying phi to the closure gives
    e_{m*} e_{n*} = sum_p H_{mn}^p e_{p*}, while the closure at (m*, n*)
    gives sum_p H_{m* n*}^{p*} e_{p*}.  Independence and the commutativity
    of N, by which H_{m* n*} = H_{n* m*}, give H_{mn}^p = H_{n* m*}^{p*}.
    """
    nb, jd = len(target.cosets(sub).blocks), target.support(sub)
    closed = all(hecke_closure(target, sub))
    return [CheckRecord(id="prop-3.4", params={"D": list(sub.members)},
                        lhs=nb, rhs=len(jd), passed=nb == len(jd),
                        detail="algebra dimension = support size"),
            CheckRecord(id="prop-3.4", params={"D": list(sub.members)},
                        lhs="structure constants", rhs="associative",
                        passed=closed),
            CheckRecord(id="prop-3.4", params={"D": list(sub.members)},
                        lhs="structure constants", rhs="dual-symmetric",
                        passed=closed)]


def verify_eq_3_6(target, sub: Subcategory) -> list[CheckRecord]:
    """First orthogonality, for every k, l in J_D: block sums of products of
    normalized character values at the representatives, against the class
    dimension of column k."""
    table, dec, jd = target.table, target.cosets(sub), target.support(sub)
    reps, dual_map, alpha = dec.reps, dec.dual_map, table.alpha
    # the weight FPdim(R_t)/d_{X_t}^2 of every block t
    inv = [target.inverse(target.ring.fpdims[x]) for x in reps]
    weights = [target.dim(b) * (v * v) for b, v in zip(dec.blocks, inv)]
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
    table, dec = target.table, target.cosets(sub)
    jd, reps, alpha = target.support(sub), dec.reps, table.alpha
    out = []
    for t in range(len(reps)):
        xt = reps[t]
        for s in range(len(reps)):
            xss = reps[dec.dual_map[s]]
            lhs = _dot([(table.class_dims[k], alpha[xt][k], alpha[xss][k])
                        for k in jd])
            if s == t:
                rhs = (target.dim((xt,)) * target.global_dim
                       * target.inverse(target.dim(dec.blocks[t])))
            else:
                rhs = ZERO
            out.append(CheckRecord(id="eq-3.7",
                                   params={"D": list(sub.members), "t": t, "s": s},
                                   lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return out


def verify_cor_3_9_1(target, sub: Subcategory) -> list[CheckRecord]:
    """d_Z^2 FPdim(C) / FPdim(R_t) is an algebraic integer, every Z in every block."""
    dec, total = target.cosets(sub), target.global_dim
    inv = [target.inverse(target.dim(block)) for block in dec.blocks]
    return [_integrality(target, "cor-3.9",
                         {"D": list(sub.members), "claim": 1,
                          "block": t, "member": z},
                         target.dim((z,)) * total * inv[t])
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
