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

from .errors import (
    ExactDataMissing,
    InconsistentCoset,
    IndexNotInJD,
    PreconditionFailed,
)
from .exactnum import CycNum, _dot, _int_mul, _numerators
from .fusion import (
    FusionRing,
    KElement,
    Subcategory,
    restricted_blocks,
    sub_fpdim,
)
from .reports import CheckRecord, _integrality

ZERO = CycNum.from_rational(0)


@dataclass(frozen=True)
class CosetDecomposition:
    """Blocks (sorted by least member), representatives, block dims, dual
    action, and the ring they partition."""

    sub: Subcategory
    blocks: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    reg_dims: tuple[CycNum, ...]
    dual_map: tuple[int, ...]
    ring: FusionRing = field(repr=False, compare=False)

    @property
    def n_blocks(self):
        return len(self.blocks)

    @cached_property
    def inv_reg_dims(self) -> tuple[CycNum, ...]:
        """1/FPdim(R_t) for every block t."""
        return tuple(r.inverse() for r in self.reg_dims)

    @cached_property
    def block_elements(self) -> tuple[KElement, ...]:
        """e_t for every block t (see `block_element`)."""
        return tuple(block_element(self.ring, self, t)
                     for t in range(self.n_blocks))


def coset_partition(ring: FusionRing, sub: Subcategory) -> CosetDecomposition:
    """Partition the basis into the cosets of `sub`, with representatives,
    block dimensions and the dual action on blocks."""
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

    return CosetDecomposition(sub=sub, blocks=tuple(blocks), reps=tuple(reps),
                              reg_dims=tuple(sub_fpdim(ring, b) for b in blocks),
                              dual_map=tuple(dual_map), ring=ring)


# ---------------------------------------------------------------------------
# the algebra spanned by normalized block elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeckeAlgebra:
    dec: CosetDecomposition
    structure: tuple[tuple[tuple[CycNum, ...], ...], ...]   # H[m][n][p]

    @property
    def n_blocks(self):
        return self.dec.n_blocks


def block_element(ring: FusionRing, dec: CosetDecomposition, t: int) -> KElement:
    """e_t: the regular element of block t divided by its dimension."""
    block, inv = set(dec.blocks[t]), dec.inv_reg_dims[t]
    return KElement(tuple(ring.fpdims[i] * inv if i in block else ZERO
                          for i in range(ring.rank)))


def hecke_constants(ring: FusionRing, dec: CosetDecomposition) -> HeckeAlgebra:
    """Structure constants of e_m e_n = sum_p H_{mn}^p e_p.

    H is read off the product of normalized block elements, whose in-block
    coefficients must be proportional to dimensions; each row must sum to 1
    and H must be symmetric in m and n.
    """
    nb, es = dec.n_blocks, dec.block_elements
    # R_p / d_i for each i in block p, taken once per decomposition
    ratio = {i: dec.reg_dims[p] / ring.fpdims[i]
             for p, block in enumerate(dec.blocks) for i in block}
    structure = []
    for m in range(nb):
        row = []
        for n in range(nb):
            prod = ring.k_mul(es[m], es[n])
            consts = []
            for p in range(nb):
                vals = [prod.coeffs[i] * ratio[i] for i in dec.blocks[p]]
                if any(v != vals[0] for v in vals[1:]):
                    raise InconsistentCoset(
                        f"e_{m} e_{n} is not dimension-proportional on block {p}")
                consts.append(vals[0])
            total = sum(consts, ZERO)
            if total != 1:
                raise InconsistentCoset(f"row ({m},{n}) sums to {total}, not 1")
            row.append(tuple(consts))
        structure.append(tuple(row))
    for m in range(nb):
        for n in range(nb):
            if structure[m][n] != structure[n][m]:
                raise InconsistentCoset(f"structure constants asymmetric at ({m},{n})")
    return HeckeAlgebra(dec=dec, structure=tuple(structure))


def hecke_associative(h: HeckeAlgebra) -> bool:
    """(e_m e_n) e_p = e_m (e_n e_p) in the structure constants.

    For algebras built by `hecke_constants` this holds by construction: the
    e_p have disjoint supports, so they are linearly independent and the
    checked closure e_m e_n = sum_p H_{mn}^p e_p is exact, and the ring
    product is associative (`validate_fusion_ring`).  Expanding both sides
    in the e_s then gives sum_q H_{mn}^q H_{qp}^s = sum_q H_{np}^q H_{mq}^s.
    The verdict is still computed, as a check on that chain.

    H is put over one conductor and one denominator D, so each side is a
    sum of `_int_mul` products of numerator vectors over D^2, accumulated as
    a whole s-vector over the nonzero H_{mn}^q only.  If H_{mn} = H_{nm}
    for all m, n, which `hecke_constants` demands, then with
    T(m, n, p) = (e_m e_n) e_p the right side is T(n, p, m) and T(m, n, p)
    = T(n, m, p); so H is associative iff T is symmetric in its three
    indices, which holds iff T(m, n, p) = T(min(n, p), max(n, p), m) for
    m <= n (the three swaps and cyclic shifts involved link the whole
    orbit of each index triple), and T is built only for m <= n.  Any
    other H gets both sides for every (m, n, p).
    """
    nb = h.n_blocks
    cond, _, flat = _numerators([c for plane in h.structure
                                 for row in plane for c in row])
    vecs = iter(flat)
    H = [[[next(vecs) for _ in range(nb)] for _ in range(nb)]
         for _ in range(nb)]
    nonzero = [[[(q, a) for q, a in enumerate(row) if any(a)]
                for row in plane] for plane in H]
    zero = [0] * len(flat[0])

    def side(outer, inner):
        """sum_q a_q inner(q)_s over (q, a_q) in outer, as s-vectors."""
        out = [zero] * nb
        for q, a in outer:
            for s, b in inner(q):
                out[s] = [x + y for x, y in zip(out[s], _int_mul(a, b, cond))]
        return out

    if all(H[m][n] == H[n][m] for m in range(nb) for n in range(m)):
        T = {(m, n, p): side(nonzero[m][n], lambda q: nonzero[q][p])
             for m in range(nb) for n in range(m, nb) for p in range(nb)}
        return all(T[m, n, p] == T[min(n, p), max(n, p), m]
                   for m, n, p in T)
    return all(side(nonzero[m][n], lambda q: nonzero[q][p])
               == side(nonzero[n][p], lambda q: nonzero[m][q])
               for m in range(nb) for n in range(nb) for p in range(nb))


def hecke_dual_symmetric(h: HeckeAlgebra) -> bool:
    """H_{mn}^p = H_{n* m*}^{p*} under the dual action on blocks."""
    nb = h.n_blocks
    d = h.dec.dual_map
    H = h.structure
    return all(H[m][n][p] == H[d[n]][d[m]][d[p]]
               for m in range(nb) for n in range(nb) for p in range(nb))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def verify_eq_3_1(target, sub: Subcategory) -> list[CheckRecord]:
    """[X] R_D / d_X is the same element for all X in a block — and equals
    FPdim(D) e_t — while different blocks give different elements."""
    ring, dec = target.ring, target.cosets(sub)
    dim_d = target.dim(sub)
    r_d = KElement(tuple(ring.fpdims[i] if i in sub else ZERO
                         for i in range(ring.rank)))
    out = []
    normalized = []
    for block, e in zip(dec.blocks, dec.block_elements):
        expected = e.scale(dim_d)
        ok = True
        for x in block:
            lhs = ring.k_mul(ring.basis(x), r_d).scale(target.inv_dims[x])
            if lhs != expected:
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
    """Block count equals |J_D|; the block algebra is well-formed."""
    ring, dec = target.ring, target.cosets(sub)
    jd = target.support(sub)
    out = [CheckRecord(id="prop-3.4",
                       params={"D": list(dec.sub.members)},
                       lhs=dec.n_blocks, rhs=len(jd),
                       passed=dec.n_blocks == len(jd),
                       detail="algebra dimension = support size")]
    h = hecke_constants(ring, dec)   # raises InconsistentCoset on malformation
    out.append(CheckRecord(id="prop-3.4", params={"D": list(dec.sub.members)},
                           lhs="structure constants", rhs="associative",
                           passed=hecke_associative(h)))
    out.append(CheckRecord(id="prop-3.4", params={"D": list(dec.sub.members)},
                           lhs="structure constants", rhs="dual-symmetric",
                           passed=hecke_dual_symmetric(h)))
    return out


def verify_eq_3_6(target, sub: Subcategory, k: int, l: int) -> CheckRecord:
    """First orthogonality: block sums of products of normalized character
    values at the representatives, against the class dimension of column k."""
    table, dec = target.table, target.cosets(sub)
    jd = target.support(sub)
    if k not in jd:
        raise IndexNotInJD(f"column {k} outside the support of D")
    if l not in jd:
        raise IndexNotInJD(f"column {l} outside the support of D")
    reps, dual_map, alpha = dec.reps, dec.dual_map, table.alpha
    lhs = _dot([(w, alpha[reps[t]][k], alpha[reps[dual_map[t]]][l])
                for t, w in enumerate(target.weights(sub))])
    rhs = target.global_dim / table.class_dims[k] if k == l else ZERO
    return CheckRecord(id="eq-3.6",
                       params={"D": list(dec.sub.members), "k": k, "l": l},
                       lhs=lhs, rhs=rhs, passed=lhs == rhs)


def verify_eq_3_7(target, sub: Subcategory, t: int, s: int) -> CheckRecord:
    """Second orthogonality: support-weighted column sums at two representatives."""
    ring, table, dec = target.ring, target.table, target.cosets(sub)
    jd = target.support(sub)
    xt = dec.reps[t]
    xss = dec.reps[dec.dual_map[s]]
    alpha = table.alpha
    lhs = _dot([(table.class_dims[k], alpha[xt][k], alpha[xss][k]) for k in jd])
    if s == t:
        xs = dec.reps[s]
        rhs = (ring.fpdims[xt] * ring.fpdims[xs] * target.global_dim
               * dec.inv_reg_dims[t])
    else:
        rhs = ZERO
    return CheckRecord(id="eq-3.7",
                       params={"D": list(dec.sub.members), "t": t, "s": s},
                       lhs=lhs, rhs=rhs, passed=lhs == rhs)


def verify_cor_3_9_1(target, sub: Subcategory) -> list[CheckRecord]:
    """d_Z^2 FPdim(C) / FPdim(R_t) is an algebraic integer, every Z in every block."""
    ring, dec = target.ring, target.cosets(sub)
    total, inv = target.global_dim, dec.inv_reg_dims
    return [_integrality("cor-3.9", {"D": list(dec.sub.members), "claim": 1,
                                     "block": t, "member": z},
                         ring.fpdims[z] * ring.fpdims[z] * total * inv[t])
            for t, block in enumerate(dec.blocks) for z in block]


def free_action(ring: FusionRing, sub: Subcategory) -> bool:
    """No non-unit member fixes any basis element by left multiplication."""
    return all(ring.tensor[g][i][i] == 0
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
    return [_integrality("cor-3.9", {"D": list(sub.members), "claim": 2, "j": j},
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
