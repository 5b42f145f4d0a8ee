"""Coset partitions of the basis with respect to a subcategory.

Two basis elements lie in the same (right) coset when one appears in the
product of the other with a subcategory member.  Each coset carries a
regular element; the normalized regular elements span a small commutative
algebra whose structure constants are computed and checked here, along
with two orthogonality relations and an integrality corollary.  The checks
take a ``verify.Target`` and read its derived data from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ExactDataMissing, InconsistentCoset, PreconditionFailed
from .exactnum import CycNum, _dot
from .fusion import FusionRing, Subcategory, restricted_blocks
from .reports import CheckRecord, _integrality

ZERO = CycNum.from_rational(0)


@dataclass(frozen=True)
class CosetDecomposition:
    """Blocks (sorted by least member), representatives, block dims, dual
    action, and the ring they partition."""

    blocks: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    reg_dims: tuple[CycNum, ...]
    dual_map: tuple[int, ...]
    ring: FusionRing = field(repr=False, compare=False)

    @cached_property
    def inv_reg_dims(self) -> tuple[CycNum, ...]:
        """1/FPdim(R_t) for every block t."""
        return tuple(r.inverse() for r in self.reg_dims)

    @cached_property
    def block_elements(self) -> tuple[tuple[CycNum, ...], ...]:
        """e_t for every block t (see `block_element`)."""
        return tuple(block_element(self.ring, self, t)
                     for t in range(len(self.blocks)))


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
                              dual_map=tuple(dual_map), ring=ring)


# ---------------------------------------------------------------------------
# the algebra spanned by normalized block elements
# ---------------------------------------------------------------------------

def block_element(ring: FusionRing, dec: CosetDecomposition,
                  t: int) -> tuple[CycNum, ...]:
    """e_t: the regular element of block t divided by its dimension."""
    block, inv = set(dec.blocks[t]), dec.inv_reg_dims[t]
    return tuple(ring.fpdims[i] * inv if i in block else ZERO
                 for i in range(ring.rank))


def hecke_constants(target, sub: Subcategory) -> tuple:
    """H, with H[m][n][p] the structure constant H_{mn}^p of
    e_m e_n = sum_p H_{mn}^p e_p over the cosets of `sub`.

    H is read off the product of normalized block elements, whose in-block
    coefficients must be proportional to dimensions; each row must sum to 1.
    Only m <= n is multiplied: `validate_fusion_ring` proved N commutative,
    so each coefficient of e_n e_m is the `_dot` of the terms of e_m e_n
    with their factors swapped, the same value, conductor and canonical
    form.  So H_{nm} = H_{mn}, and a pair fails a check in both orders.
    """
    ring, dec, inv = target.ring, target.cosets(sub), target.inv_dims
    nb, es = len(dec.blocks), dec.block_elements
    # R_p / d_i for each i in block p
    ratio = {i: dec.reg_dims[p] * inv[i]
             for p, block in enumerate(dec.blocks) for i in block}
    structure = [[None] * nb for _ in range(nb)]
    for m in range(nb):
        for n in range(m, nb):
            prod = ring.k_mul(es[m], es[n])
            consts = []
            for p in range(nb):
                vals = [prod[i] * ratio[i] for i in dec.blocks[p]]
                if any(v != vals[0] for v in vals[1:]):
                    raise InconsistentCoset(
                        f"e_{m} e_{n} is not dimension-proportional on block {p}")
                consts.append(vals[0])
            total = sum(consts, ZERO)
            if total != 1:
                raise InconsistentCoset(f"row ({m},{n}) sums to {total}, not 1")
            structure[m][n] = structure[n][m] = tuple(consts)
    return tuple(map(tuple, structure))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def verify_eq_3_1(target, sub: Subcategory) -> list[CheckRecord]:
    """[X] R_D / d_X is the same element for all X in a block — and equals
    FPdim(D) e_t — while different blocks give different elements."""
    ring, dec = target.ring, target.cosets(sub)
    dim_d = target.dim(sub)
    r_d = tuple(ring.fpdims[i] if i in sub else ZERO for i in range(ring.rank))
    out = []
    normalized = []
    for block, e in zip(dec.blocks, dec.block_elements):
        expected = tuple(a * dim_d for a in e)
        ok = True
        for x in block:
            inv = target.inv_dims[x]
            if tuple(a * inv for a in ring.k_mul(ring.basis(x), r_d)) != expected:
                ok = False
        normalized.append(expected)
        out.append(CheckRecord(id="eq-3.1",
                               params={"D": list(sub.members), "block": list(block)},
                               lhs="[X]R_D/d_X for X in block", rhs="FPdim(D) e_t",
                               passed=ok))
    distinct = all(normalized[a] != normalized[b]
                   for a in range(len(normalized)) for b in range(a + 1, len(normalized)))
    out.append(CheckRecord(id="eq-3.1",
                           params={"D": list(sub.members), "blocks": "pairwise"},
                           lhs="normalized block elements", rhs="pairwise distinct",
                           passed=distinct))
    return out


def verify_prop_3_4(target, sub: Subcategory) -> list[CheckRecord]:
    """Block count equals |J_D|; the block algebra is well-formed.

    The first record compares the block count with |J_D|.  The two algebra
    records hold once `hecke_constants` has returned, by the proof below,
    so they are not recomputed; the triple-product and dual scans that
    would recompute them are test oracles.

    Associativity.  `hecke_constants` raises unless e_m e_n is
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
    hecke_constants(target, sub)   # raises InconsistentCoset on malformation
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
    table, dec = target.table, target.cosets(sub)
    jd, weights = target.support(sub), target.weights(sub)
    reps, dual_map, alpha = dec.reps, dec.dual_map, table.alpha
    inv_cd = target.inv_class_dims
    out = []
    for k in jd:
        for l in jd:
            lhs = _dot([(w, alpha[reps[t]][k], alpha[reps[dual_map[t]]][l])
                        for t, w in enumerate(weights)])
            rhs = target.global_dim * inv_cd[k] if k == l else ZERO
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
                       * dec.inv_reg_dims[t])
            else:
                rhs = ZERO
            out.append(CheckRecord(id="eq-3.7",
                                   params={"D": list(sub.members), "t": t, "s": s},
                                   lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return out


def verify_cor_3_9_1(target, sub: Subcategory) -> list[CheckRecord]:
    """d_Z^2 FPdim(C) / FPdim(R_t) is an algebraic integer, every Z in every block."""
    ring, dec = target.ring, target.cosets(sub)
    total, inv = target.global_dim, dec.inv_reg_dims
    return [_integrality(target, "cor-3.9",
                         {"D": list(sub.members), "claim": 1,
                          "block": t, "member": z},
                         ring.fpdims[z] * ring.fpdims[z] * total * inv[t])
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
                         total / (dim_d * table.class_dims[j]))
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
