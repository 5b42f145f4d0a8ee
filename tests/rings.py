"""Shared exact constructions used across the test suite.

Small rings are written out longhand here, independently of the built-in
catalog, so library tests do not depend on the catalog module.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from fuscat.chartab import validate_character_table
from fuscat.errors import (DegenerateSpectrum, ExactDataMissing,
                           InconsistentCoset, NotAlgebraMap, PsiNotCharacter,
                           SchemaError, ValidationError)
from fuscat.exactnum import (CycNum, _divide, _int_mul, _numerators,
                             _phi_tail, _reduce, _spread, euler_phi)
from fuscat.fusion import (FusionRing, Subcategory, _dense,
                           _first_non_character, _generators, _supports,
                           check_subcategory, sub_fpdim, validate_fusion_ring)
from fuscat.premod import SMatrix, validate_smatrix
from fuscat.serialize import cycnum_to_json, value_to_json
from fuscat.verify import _report_fields

ONE = CycNum.from_rational(1)
ZERO = CycNum.from_rational(0)


# ---------------------------------------------------------------------------
# oracles for the prop-3.4 algebra verdicts and the sparse fusion kernels
# ---------------------------------------------------------------------------

def hecke_associative_dense(H) -> bool:
    """(e_m e_n) e_p = e_m (e_n e_p), contracted over all nb^5 index tuples."""
    nb = len(H)
    for m in range(nb):
        for n in range(nb):
            for p in range(nb):
                for s in range(nb):
                    lhs = ZERO
                    rhs = ZERO
                    for q in range(nb):
                        lhs = lhs + H[m][n][q] * H[q][p][s]
                        rhs = rhs + H[n][p][q] * H[m][q][s]
                    if lhs != rhs:
                        return False
    return True


def hecke_associative(H) -> bool:
    """(e_m e_n) e_p = e_m (e_n e_p) in the structure constants H[m][n][p].

    For algebras built by `hecke_constants` this holds by construction
    (the proof is the docstring of `cosets.verify_prop_3_4`), so only the
    tests compute it, as an oracle on that proof.

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
    nb = len(H)
    cond, _, flat = _numerators([c for plane in H for row in plane for c in row])
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


def hecke_dual_symmetric(H, d) -> bool:
    """H_{mn}^p = H_{n* m*}^{p*} under the dual action d on blocks."""
    nb = len(H)
    return all(H[m][n][p] == H[d[n]][d[m]][d[p]]
               for m in range(nb) for n in range(nb) for p in range(nb))


def validate_fusion_ring_dense(tensor, dual, names=None, fpdims=None):
    """`validate_fusion_ring` as it scanned every entry of each axiom: each
    (i, j, k) of the shape, unit, commutativity and Frobenius loops, and
    associativity over every (i, j, k), k >= i, not only the generators'
    triples.  It raises the same first axiom, witness and message, and
    returns the same ring."""
    rank = len(tensor)
    if rank < 1:
        raise ValidationError("shape", None, "empty basis")
    tensor = tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in tensor)
    dual = tuple(int(d) for d in dual)
    if names is None:
        names = tuple(f"X{i}" for i in range(rank))
    names = tuple(str(s) for s in names)
    if len(names) != rank or len(set(names)) != rank:
        raise ValidationError("shape", None, "names must be distinct, one per basis element")
    if len(dual) != rank or sorted(dual) != list(range(rank)):
        raise ValidationError("shape", None, "dual must be a permutation of the basis")
    for i in range(rank):
        if len(tensor[i]) != rank or any(len(tensor[i][j]) != rank for j in range(rank)):
            raise ValidationError("shape", (i,), "tensor must be rank^3")
        for j in range(rank):
            for k in range(rank):
                if tensor[i][j][k] < 0:
                    raise ValidationError("nonnegativity", (i, j, k))

    for j in range(rank):
        for k in range(rank):
            want = 1 if j == k else 0
            if tensor[0][j][k] != want or tensor[j][0][k] != want:
                raise ValidationError("unit", (j, k))

    for i in range(rank):
        if dual[dual[i]] != i:
            raise ValidationError("duality", (i,), "dual is not an involution")
        for j in range(rank):
            want = 1 if j == dual[i] else 0
            if tensor[i][j][0] != want:
                raise ValidationError("duality", (i, j))

    for i in range(rank):
        for j in range(i + 1, rank):
            for k in range(rank):
                if tensor[i][j][k] != tensor[j][i][k]:
                    raise ValidationError("commutativity", (i, j, k))

    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                if tensor[i][j][k] != tensor[dual[i]][k][j]:
                    raise ValidationError("frobenius-reciprocity", (i, j, k))

    # (X_i X_j) X_k = X_i (X_j X_k), compared as whole l-vectors per (i, j, k)
    # over the nonzero N_{ij}^m only; a mismatch names its least l, so the
    # first violated (i, j, k, l) is the one of the lexicographic order.
    # The tensor is commutative, so the (k, j, i) identity is the (i, j, k)
    # one with its two sides swapped: they fail at the same l, and the
    # first violation has i <= k.
    nonzero = tuple(tuple(tuple((k, n) for k, n in enumerate(row) if n)
                          for row in plane) for plane in tensor)
    for i in range(rank):
        for j in range(rank):
            for k in range(i, rank):
                lhs = [0] * rank
                for m, a in nonzero[i][j]:
                    for l, b in nonzero[m][k]:
                        lhs[l] += a * b
                rhs = [0] * rank
                for m, a in nonzero[j][k]:
                    for l, b in nonzero[i][m]:
                        rhs[l] += a * b
                if lhs != rhs:
                    l = next(l for l in range(rank) if lhs[l] != rhs[l])
                    raise ValidationError("associativity", (i, j, k, l))

    generators = _generators(_supports(nonzero))
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



def first_associativity_violation(tensor):
    """The least (i, j, k, l) with sum_m N_ij^m N_mk^l != sum_m N_jk^m N_im^l,
    over all rank^5 terms, or None."""
    rank = len(tensor)
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                for l in range(rank):
                    lhs = sum(tensor[i][j][m] * tensor[m][k][l] for m in range(rank))
                    rhs = sum(tensor[j][k][m] * tensor[i][m][l] for m in range(rank))
                    if lhs != rhs:
                        return (i, j, k, l)
    return None


def embed_complex_terms(v: CycNum) -> complex:
    """The complex value of v: each power-basis coefficient times its own
    cmath.exp(2 pi i j/n), computed anew, summed in increasing j."""
    n, den = v.conductor, v._den
    return sum((x / den) * cmath.exp(2j * math.pi * j / n)
               for j, x in enumerate(v._nums))


def basis(ring, i) -> tuple[CycNum, ...]:
    """The basis element X_i as a coefficient tuple."""
    return tuple(ONE if k == i else ZERO for k in range(ring.rank))


def k_mul(ring, x, y) -> tuple[CycNum, ...]:
    """Product of two coefficient vectors; only nonzero coefficients and
    entries are visited, and each output coefficient is one `_dot` of the
    terms x_i y_j N_ij^k, so it lies at the lcm of their conductors."""
    terms = [[] for _ in range(ring.rank)]
    ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero()]
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        plane = ring.nonzero[i]
        for j, yj in ys:
            for k, n in plane[j]:
                terms[k].append((xi, yj, n))
    return tuple(_dot(t) if t else ZERO for t in terms)


def block_element(ring, dec, t) -> tuple[CycNum, ...]:
    """e_t: the regular element of block t divided by its dimension."""
    block, inv = set(dec.blocks[t]), sub_fpdim(ring, dec.blocks[t]).inverse()
    return tuple(ring.fpdims[i] * inv if i in block else ZERO
                 for i in range(ring.rank))


def block_elements(ring, dec) -> tuple[tuple[CycNum, ...], ...]:
    """e_t for every block t."""
    return tuple(block_element(ring, dec, t) for t in range(len(dec.blocks)))


def eq_3_1_loop(target, sub) -> list[bool]:
    """The eq-3.1 verdicts, one per block and then the pairwise one, with
    [X] R_D / d_X and FPdim(D) e_t built as coefficient tuples and compared
    by `==`."""
    ring, dec = target.ring, target.cosets(sub)
    dim_d = target.dim(sub)
    r_d = tuple(ring.fpdims[i] if i in sub else ZERO for i in range(ring.rank))
    verdicts, normalized = [], []
    for block, e in zip(dec.blocks, block_elements(ring, dec)):
        expected = tuple(a * dim_d for a in e)
        ok = True
        for x in block:
            inv = ring.fpdims[x].inverse()
            if tuple(a * inv for a in k_mul(ring, basis(ring, x), r_d)) != expected:
                ok = False
        normalized.append(expected)
        verdicts.append(ok)
    verdicts.append(all(normalized[a] != normalized[b]
                        for a in range(len(normalized))
                        for b in range(a + 1, len(normalized))))
    return verdicts


def hecke_closure_by_products(target, sub) -> bool:
    """Whether e_m e_n is dimension-proportional on every block, for every
    pair of blocks m <= n of `sub`'s cosets, decided from the block products
    on integer numerators.  It is the second route to the closure that
    `cosets.hecke_closure` reads off eq-3.1's block verdicts.

    With d_i = A_i / den (`_numerators` of the dimensions) and
    R_t = FPdim(R_t), e_m e_n has coefficient c_k = P_k / (den^2 R_m R_n)
    at X_k, where P_k is the sum over i in block m and j in block n of
    N_ij^k A_i A_j.  It is dimension-proportional on block p iff
    c_k / d_k does not depend on k in p: iff P_k A_{k0} = P_{k0} A_k for k0
    the first member of p and each k in p.  Only m <= n is checked: N is
    commutative, so e_n e_m has the same coefficients.
    """
    dec, nonzero = target.cosets(sub), target.ring.nonzero
    cond, _, nums = _numerators(target.ring.fpdims)
    zero = [0] * len(nums[0])
    for m, n in itertools.combinations_with_replacement(range(len(dec.blocks)), 2):
        P = {}
        for i in dec.blocks[m]:
            for j in dec.blocks[n]:
                a = _int_mul(nums[i], nums[j], cond)
                for k, c in nonzero[i][j]:
                    P[k] = [x + c * y for x, y in zip(P.get(k, zero), a)]
        for block in dec.blocks:
            k0 = block[0]
            if any(_int_mul(P.get(k, zero), nums[k0], cond)
                   != _int_mul(P.get(k0, zero), nums[k], cond)
                   for k in block[1:]):
                return False
    return True


def hecke_constants_loop(target, sub) -> tuple:
    """H read off the products e_m e_n of the block elements as coefficient
    tuples, m <= n, with each block's coefficients times R_p / d_i compared
    by `==`; raises `InconsistentCoset` where some e_m e_n is not
    dimension-proportional on a block, as `hecke_closure_by_products`
    decides.  The rows are not summed: each sums to 1 once the dimensions
    are a character."""
    ring, dec = target.ring, target.cosets(sub)
    nb, es = len(dec.blocks), block_elements(ring, dec)
    ratio = {i: sub_fpdim(ring, block) / ring.fpdims[i]
             for block in dec.blocks for i in block}
    structure = [[None] * nb for _ in range(nb)]
    for m in range(nb):
        for n in range(m, nb):
            prod = k_mul(ring, es[m], es[n])
            consts = []
            for p in range(nb):
                vals = [prod[i] * ratio[i] for i in dec.blocks[p]]
                if any(v != vals[0] for v in vals[1:]):
                    raise InconsistentCoset(
                        f"e_{m} e_{n} is not dimension-proportional on block {p}")
                consts.append(vals[0])
            structure[m][n] = structure[n][m] = tuple(consts)
    return tuple(map(tuple, structure))


def k_mul_dense(ring, x, y) -> tuple[CycNum, ...]:
    """sum_{i,j,k} x_i y_j N_ij^k [X_k] over every index triple."""
    out, tensor = [ZERO] * ring.rank, _dense(ring)
    for i in range(ring.rank):
        for j in range(ring.rank):
            for k in range(ring.rank):
                out[k] = out[k] + x[i] * y[j] * tensor[i][j][k]
    return tuple(out)


def deligne_product_dense(a, b):
    """The dense tensor of the product ring on pairs (i, i') -> i rank_b + i',
    filled over every index sextuple of the factors' dense tensors."""
    ta, tb, ra, rb = _dense(a), _dense(b), a.rank, b.rank
    rank = ra * rb
    tensor = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i in range(ra):
        for ip in range(rb):
            for j in range(ra):
                for jp in range(rb):
                    for k in range(ra):
                        nk = ta[i][j][k]
                        if not nk:
                            continue
                        for kp in range(rb):
                            nkp = tb[ip][jp][kp]
                            if nkp:
                                tensor[i * rb + ip][j * rb + jp][k * rb + kp] = nk * nkp
    return tensor


# ---------------------------------------------------------------------------
# CycNum loops behind the integer sum-of-products kernel
# ---------------------------------------------------------------------------

def int_mul_dense(x, y, n):
    """`exactnum._int_mul` before it skipped zeros of y: every nonzero x_i
    meets every slot of y."""
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for k, yj in enumerate(y, i):
                out[k] += xi * yj
    return _reduce(out, n)


def sum_of_products(terms) -> CycNum:
    """ZERO + a*b*... + ..., one CycNum operation at a time."""
    total = ZERO
    for term in terms:
        prod = term[0]
        for f in term[1:]:
            prod = prod * f
        total = total + prod
    return total


def _dot(terms):
    """The sum of products that `exactnum` had before `exactnum._gram`,
    kept as its oracle: the sum over `terms` of the product of each term's
    factors, which are `CycNum`s or `int`s, as one `CycNum` at the lcm m of
    the conductors of every `CycNum` factor given (conductor 1 for none).

    That is the value, conductor and canonical form of the loop
    ``ZERO + a*b*... + ...``: each operation there lands at the lcm of its
    operands' conductors.  Here the sum is built on integer numerators over
    one running denominator.  Rational factors and ints scale a term; the
    other factors multiply through `_int_mul` at the lcm of their own
    conductors, and the product is re-embedded at m once.  A term with a
    zero factor adds nothing but its conductors.
    """
    m = math.lcm(*{f.conductor for term in terms for f in term
                   if type(f) is not int})
    acc, den = [0] * _phi_tail(m)[0], 1
    for term in terms:
        num, d, vec, n = 1, 1, None, 1
        for f in term:
            if type(f) is int:
                num *= f
                continue
            nums = f._nums
            d *= f._den
            if not any(nums[1:]):
                num *= nums[0]
            elif vec is None:
                vec, n = nums, f.conductor
            else:
                c = f.conductor
                if c != n:
                    joint = math.lcm(n, c)
                    if joint != n:
                        vec = _spread(vec, joint // n, joint)
                    if joint != c:
                        nums = _spread(nums, joint // c, joint)
                    n = joint
                vec = _int_mul(vec, nums, n)
        if not num:
            continue
        if den % d:
            common = math.lcm(den, d)
            acc = [x * (common // den) for x in acc]
            den = common
        num *= den // d
        if vec is None:
            acc[0] += num
        else:
            if n != m:
                vec = _spread(vec, m // n, m)
            acc = [x + num * y for x, y in zip(acc, vec)]
    return CycNum._from_ints(m, acc, den)


def gram_by_dot(weights, xs, ys):
    """`exactnum._gram` entry by entry, one `_dot` per entry."""
    return [[_dot([(w, x[a], y[b]) for w, x, y in zip(weights, xs, ys)])
             for b in range(len(ys[0]))] for a in range(len(xs[0]))]


def k_mul_loop(ring, x, y) -> tuple[CycNum, ...]:
    """The ring product as a running CycNum sum per output coefficient,
    over the nonzero x_i, y_j and N_ij^k, with x_i y_j built once."""
    out, tensor = [ZERO] * ring.rank, _dense(ring)
    ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero()]
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in ys:
            prod = xi * yj
            row = tensor[i][j]
            for k in range(ring.rank):
                if row[k]:
                    out[k] = out[k] + prod * row[k]
    return tuple(out)


def f_coords_loop(table, chi) -> tuple[CycNum, ...]:
    """f_j = sum_i alpha[i][j] chi_i over the nonzero chi_i."""
    out = []
    for j in range(table.rank):
        total = ZERO
        for i in range(table.rank):
            if not chi[i].is_zero():
                total = total + table.alpha[i][j] * chi[i]
        out.append(total)
    return tuple(out)


def support_jd_loop(ring, table, members):
    """J_D by the class-function route: the f-coordinates of the normalized
    integral, chi_i = d_i / dim D on D and 0 elsewhere, are 1 on J_D.  None
    when some f_j is neither 0 nor 1 (the integral is not idempotent)."""
    dim_d = ZERO
    for i in members:
        dim_d = dim_d + ring.fpdims[i] * ring.fpdims[i]
    chi = tuple(ring.fpdims[i] / dim_d if i in members else ZERO
                for i in range(ring.rank))
    f = f_coords_loop(table, chi)
    if not all(v == 1 or v.is_zero() for v in f):
        return None
    return tuple(j for j, v in enumerate(f) if v == 1)


def fp_column(ring, table) -> int:
    """The column of `table` equal to the dimensions: the table validator
    proves that there is one (d is one of the ring's r characters, and the
    r distinct columns are all of them) and does not search for it."""
    cols = [j for j in range(table.rank)
            if all(table.alpha[i][j] == ring.fpdims[i] for i in range(ring.rank))]
    assert len(cols) == 1, cols
    return cols[0]


def eq_3_6_lhs_loop(target, sub, k, l) -> CycNum:
    """sum_t w_t alpha[X_t][k] alpha[X_{t*}][l], w_t = FPdim(R_t)/d_{X_t}^2."""
    dec, alpha, fpdims = target.cosets(sub), target.table.alpha, target.ring.fpdims
    lhs = ZERO
    for t, (block, x) in enumerate(zip(dec.blocks, dec.reps)):
        w = sub_fpdim(target.ring, block) / (fpdims[x] * fpdims[x])
        lhs = lhs + w * alpha[x][k] * alpha[dec.reps[dec.dual_map[t]]][l]
    return lhs


def eq_3_7_lhs_loop(target, sub, t, s) -> CycNum:
    """sum_{k in J_D} dim(C^k) alpha[X_t][k] alpha[X_{s*}][k]."""
    dec, table = target.cosets(sub), target.table
    xt, xss = dec.reps[t], dec.reps[dec.dual_map[s]]
    lhs = ZERO
    for k in target.support(sub):
        lhs = lhs + table.class_dims[k] * table.alpha[xt][k] * table.alpha[xss][k]
    return lhs


def eq_4_3_loop(target) -> list[bool]:
    """eq-4.3 for each i: alpha[i][M(i')] d_{i'} == s_{ii'} for every i',
    multiplied out; `premod.verify_eq_4_3` proves it from the matching."""
    ring, table, sm = target.ring, target.table, target.smatrix
    return [all(table.alpha[i][sm.M[ip]] * ring.fpdims[ip] == sm.s[i][ip]
                for ip in range(ring.rank))
            for i in range(ring.rank)]


def centralizer_loop(ring, sm, sub) -> Subcategory:
    """D' by Müger's criterion, multiplied out: the i' with
    s_ii' = d_i d_i' for every i in `sub`; `premod.centralizer` reads it off
    the matching instead."""
    return check_subcategory(ring, [ip for ip in range(ring.rank)
                                    if all(sm.s[i][ip] == ring.fpdims[i]
                                           * ring.fpdims[ip]
                                           for i in sub.members)])


def stabilizers_loop(target) -> tuple[tuple[int, ...], ...]:
    """G_Y for each basis element Y by the rule `m_map` once applied: the g
    in the center (the pair-product scan) that are invertible, X_g X_g* = 1,
    and fix Y, N_gY^Y > 0.  `premod.verify_thm_1_3` drops the invertible
    test, as its precondition has shown the center pointed."""
    ring, tensor = target.ring, _dense(target.ring)
    center = centralizer_loop(ring, target.smatrix,
                              Subcategory(tuple(range(ring.rank))))
    invertible = {g for g in range(ring.rank)
                  if sum(tensor[g][ring.dual[g]]) == 1}
    return tuple(tuple(g for g in center.members
                       if g in invertible and tensor[g][y][y] > 0)
                 for y in range(ring.rank))


def eq_2_4_lhs_loop(target, l, k) -> CycNum:
    """sum_i alpha[i][l] alpha[i*][k]."""
    ring, alpha = target.ring, target.table.alpha
    s = ZERO
    for i in range(ring.rank):
        s = s + alpha[i][l] * alpha[ring.dual[i]][k]
    return s


def codegrees_by_products(ring, table) -> tuple[CycNum, ...]:
    """cod_j = sum_i alpha[i][j] alpha[i*][j], one `_dot` of r products per
    column: the codegrees of `validate_character_table` before it read
    them off the Casimir element."""
    alpha, r = table.alpha, ring.rank
    return tuple(_dot([(alpha[i][j], alpha[ring.dual[i]][j]) for i in range(r)])
                 for j in range(r))


# ---------------------------------------------------------------------------
# set-based oracles for the subcategory lattice
# ---------------------------------------------------------------------------

def subcategory_closure_sets(ring, generators) -> Subcategory:
    """Least fusion- and dual-closed set containing the unit and the
    generators, grown as a Python set over every (i, j, k)."""
    closed, tensor = {0}, _dense(ring)
    closed.update(int(g) for g in generators)
    closed.update(ring.dual[g] for g in list(closed))
    while True:
        new = set()
        for i in closed:
            for j in closed:
                row = tensor[i][j]
                new.update(k for k in range(ring.rank) if row[k] and k not in closed)
        if not new:
            break
        closed.update(new)
        closed.update(ring.dual[i] for i in new)
    return Subcategory(tuple(sorted(closed)))


def enumerate_subcategories_powerset(ring) -> tuple[Subcategory, ...]:
    """All subcategories, as closures of every subset of the distinct
    singleton closures (2^s closures), ordered by size, then members."""
    singles = []
    seen = set()
    for i in range(ring.rank):
        c = subcategory_closure_sets(ring, (i,))
        if c.members not in seen:
            seen.add(c.members)
            singles.append(c)
    found = {}
    for r in range(len(singles) + 1):
        for combo in itertools.combinations(singles, r):
            gens = frozenset(itertools.chain.from_iterable(c.members for c in combo))
            if gens not in found:
                found[gens] = subcategory_closure_sets(ring, gens)
    uniq = {c.members: c for c in found.values()}
    return tuple(uniq[m] for m in sorted(uniq, key=lambda m: (len(m), m)))


def restricted_blocks_sets(ring, members, sub_members) -> list[tuple[int, ...]]:
    """Connected components of `members` under x ~ k iff N_{x s}^k > 0, s in
    sub, by a search over Python sets; sorted by least member."""
    members, tensor = sorted(members), _dense(ring)
    member_set = set(members)
    seen, blocks = set(), []
    for start in members:
        if start in seen:
            continue
        frontier, block = [start], {start}
        seen.add(start)
        while frontier:
            x = frontier.pop()
            for s in sub_members:
                row = tensor[x][s]
                for k in member_set:
                    if row[k] and k not in seen:
                        seen.add(k)
                        block.add(k)
                        frontier.append(k)
        blocks.append(tuple(sorted(block)))
    blocks.sort(key=lambda b: b[0])
    return blocks


# ---------------------------------------------------------------------------
# helpers that only tests call
# ---------------------------------------------------------------------------

def poly_eval(coeffs, x):
    """Horner evaluation; works for any type supporting * and +."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return acc if acc is not None else 0 * x


def is_monic(poly) -> bool:
    return poly.coeffs[-1] == 1


def block_of(dec, i) -> int:
    """Index of the block of a coset decomposition that holds `i`."""
    for t, block in enumerate(dec.blocks):
        if i in block:
            return t
    raise IndexError(f"index {i} in no block")


def refines(fine, coarse) -> bool:
    """Every block of `fine` is contained in some block of `coarse`."""
    coarse_sets = [set(b) for b in coarse]
    return all(any(set(b) <= c for c in coarse_sets) for b in fine)


def regular_element(ring, sub) -> tuple[CycNum, ...]:
    """R_D = sum of d_s * [X_s] over the subcategory."""
    if ring.fpdims is None:
        raise ExactDataMissing("regular element needs exact dimensions")
    return tuple(ring.fpdims[i] if i in sub else ZERO for i in range(ring.rank))


def all_passed(records) -> bool:
    return all(r.passed for r in records)


def f_Q(ring, sm, chi) -> tuple[CycNum, ...]:
    """Algebra map from class functions, given by their coordinates chi_i over
    the basis characters, to central elements, row-by-dimension."""
    r = ring.rank
    coords = []
    for ip in range(r):
        total = ZERO
        for i in range(r):
            x = chi[i]
            if not x.is_zero():
                total = total + x * sm.s[i][ip] / ring.fpdims[ip]
        coords.append(total)
    return tuple(coords)


def eq_aligned(a, b):
    """`a == b` for a `CycNum` a, as `CycNum.__eq__` decided it before it
    compared numerators: an int or Fraction b made a `CycNum`, both
    re-embedded at the lcm conductor, and the normalized forms compared."""
    b = CycNum._coerce(b)
    if b is None:
        return NotImplemented
    a, b = CycNum._aligned(a, b)
    return a._den == b._den and a._nums == b._nums


def restrict(target, members) -> dict:
    """The document of the fusion subcategory D on `members` of a
    premodular target, in `to_document`'s schema: N, the dimensions and S
    restricted to D, and the distinct restrictions of the table's columns
    in the order they first occur.

    The braiding and the spherical structure restrict to D, so D is again
    premodular, with S restricted to D x D.  Every character of the subring
    K(D) extends to the commutative semisimple K(C), so the restrictions of
    the columns are all the characters of K(D): there are |D| of them."""
    ring, alpha, s = target.ring, target.table.alpha, target.smatrix.s
    d = sorted(members)
    pos = {i: a for a, i in enumerate(d)}
    dense = _dense(ring)
    columns = []
    for j in range(ring.rank):
        column = [alpha[i][j] for i in d]
        if column not in columns:
            columns.append(column)
    fpdims = [ring.fpdims[i] for i in d]
    rows = [[column[a] for column in columns] for a in range(len(d))]
    smatrix = [[s[i][k] for k in d] for i in d]
    scalars = fpdims + [v for row in rows + smatrix for v in row]
    return {
        "rank": len(d),
        "names": [ring.names[i] for i in d],
        "tensor": [[[dense[i][j][k] for k in d] for j in d] for i in d],
        "dual": [pos[ring.dual[i]] for i in d],
        "conductor": math.lcm(*(v.conductor for v in scalars)),
        "fpdims": [cycnum_to_json(v) for v in fpdims],
        "char_table": [[cycnum_to_json(v) for v in row] for row in rows],
        "smatrix": [[cycnum_to_json(v) for v in row] for row in smatrix],
    }


def relabel_document(doc: dict, perm) -> dict:
    """The document with basis element i moved to perm[i] in every field."""
    r = doc["rank"]
    inv = [0] * r
    for i, p in enumerate(perm):
        inv[p] = i
    out = dict(doc)
    out["names"] = [doc["names"][inv[a]] for a in range(r)]
    out["dual"] = [perm[doc["dual"][inv[a]]] for a in range(r)]
    out["tensor"] = [[[doc["tensor"][inv[a]][inv[b]][inv[c]] for c in range(r)]
                      for b in range(r)] for a in range(r)]
    for key in ("fpdims", "char_table"):
        if key in doc:
            out[key] = [doc[key][inv[a]] for a in range(r)]
    if "smatrix" in doc:
        out["smatrix"] = [[doc["smatrix"][inv[a]][inv[b]] for b in range(r)]
                          for a in range(r)]
    return out


# ---------------------------------------------------------------------------
# CycNum scans for the integer multiplicativity kernel
# ---------------------------------------------------------------------------

def first_product_violation(tensor, values):
    """The first (i, k), i <= k, with v_i v_k != sum_l N_ik^l v_l, or None:
    the scan the table and S-matrix validators ran before the integer
    kernel, with a new CycNum for every product and partial sum."""
    r = len(values)
    for i in range(r):
        for k in range(i, r):
            rhs = ZERO
            for l in range(r):
                n = tensor[i][k][l]
                if n:
                    rhs = rhs + values[l] * n
            if values[i] * values[k] != rhs:
                return (i, k)
    return None


def first_non_character_pairs(nonzero, values):
    """The first (i, k), 1 <= i <= k, with v_i v_k != sum_l N_ik^l v_l, or
    None: the integer kernel's scan of every pair, from before it checked
    only the generators' pairs.  `values` must have v_0 = 1."""
    m, den, nums = _numerators(values)
    scaled = [[den * x for x in a] for a in nums]
    zero = [0] * len(nums[0])
    for i in range(1, len(nums)):
        a, row = nums[i], nonzero[i]
        for k in range(i, len(nums)):
            rhs = zero
            for l, n in row[k]:
                rhs = [x + n * y for x, y in zip(rhs, scaled[l])]
            if _int_mul(a, nums[k], m) != rhs:
                return i, k
    return None


def proven_closure(ring, generators) -> set[int]:
    """The indices the rule of `fusion._first_non_character` proves from
    the unit and `generators`: l joins when X_i X_j, i and j proven, has l
    as its one constituent outside, grown as a Python set."""
    proven = {0, *generators}
    while True:
        joined = set()
        for i in proven:
            for j in proven:
                outside = {k for k, _ in ring.nonzero[i][j]} - proven
                if len(outside) == 1:
                    joined |= outside
        if not joined:
            return proven
        proven |= joined


def validate_fpdims_scan(ring, fpdims) -> None:
    """The dimension checks of `validate_fusion_ring`, on a ring whose other
    axioms hold, with the homomorphism identity scanned over every (i, j)."""
    exact = tuple(d if isinstance(d, CycNum) else CycNum.from_rational(d)
                  for d in fpdims)
    rank, tensor, dual = ring.rank, _dense(ring), ring.dual
    if len(exact) != rank:
        raise ValidationError("fpdims", None, "one dimension per basis element")
    if exact[0] != 1:
        raise ValidationError("fpdims", (0,), "unit must have dimension 1")
    for i in range(rank):
        if not exact[i].is_positive():
            raise ValidationError("fpdims", (i,), "dimensions must embed positive real")
        if exact[dual[i]] != exact[i]:
            raise ValidationError("fpdims", (i,), "dual objects must share a dimension")
    for i in range(rank):
        for j in range(rank):
            rhs = ZERO
            for k in range(rank):
                if tensor[i][j][k]:
                    rhs = rhs + exact[k] * tensor[i][j][k]
            if exact[i] * exact[j] != rhs:
                raise ValidationError("fpdims", (i, j),
                                      "dimensions are not a ring homomorphism")


def table_columns_scan(ring, rows) -> None:
    """The column loop of `validate_character_table`: NotAlgebraMap(j, w)
    for the first column j that is not a character, by the CycNum scan."""
    r, tensor = ring.rank, _dense(ring)
    for j in range(r):
        column = [rows[i][j] for i in range(r)]
        if column[0] != 1:
            raise NotAlgebraMap(j, (0,))
        pair = first_product_violation(tensor, column)
        if pair is not None:
            raise NotAlgebraMap(j, pair)


def smatrix_rows_scan_first(ring, table, s) -> SMatrix:
    """Row loop of `validate_smatrix` that proves every row a character by
    the CycNum scan, then finds its column M[i] by alpha_aj d_i == s_ia.  It
    starts after the symmetry and first-row checks, so `s` must pass them."""
    r, tensor = ring.rank, _dense(ring)
    m = []
    for i in range(r):
        inv = ring.fpdims[i].inverse()
        pair = first_product_violation(tensor,
                                       [s[i][a] * inv for a in range(r)])
        if pair is not None:
            raise PsiNotCharacter(i, pair)
        di = ring.fpdims[i]
        cols = [j for j in range(r)
                if all(table.alpha[a][j] * di == s[i][a] for a in range(r))]
        if not cols:
            raise AssertionError(f"character row {i} matches no column of a "
                                 "validated table")
        m.append(cols[0])
    return SMatrix(s=tuple(tuple(row) for row in s), M=tuple(m))


def smatrix_rows_by_inverse(ring, table, s) -> SMatrix:
    """Row loop of `validate_smatrix` before rows were cross-multiplied: it
    forms psi_i = s_i d_i^-1 with one norm inverse per row and takes the
    first table column equal to it, else raises PsiNotCharacter with the
    kernel's first failing pair of psi_i.  It starts after the symmetry and
    first-row checks, so `s` must pass them."""
    r = ring.rank
    m = []
    for i in range(r):
        inv = ring.fpdims[i].inverse()
        psi = [x * inv for x in s[i]]
        cols = [j for j in range(r)
                if all(table.alpha[a][j] == x for a, x in enumerate(psi))]
        if not cols:
            raise PsiNotCharacter(i, _first_non_character(
                ring.nonzero, ring.generators, psi))
        m.append(cols[0])
    return SMatrix(s=tuple(tuple(row) for row in s), M=tuple(m))


# ---------------------------------------------------------------------------
# the numeric cross-check with its residual scanned pair by pair
# ---------------------------------------------------------------------------

def numeric_residual_ok_loop(tensor, alpha_num) -> bool:
    """The residual test of `characters_numeric` before it was vectorized:
    one numpy expression per (i, k), with Python's max and >."""
    r = len(tensor)
    ok = True
    for i in range(r):
        for k in range(r):
            prod = alpha_num[i] * alpha_num[k]
            resid = prod - sum(tensor[i][k][l] * alpha_num[l] for l in range(r))
            if np.max(np.abs(resid)) > 1e-8 * max(1.0, np.max(np.abs(prod))):
                ok = False
    return ok


def characters_numeric_loop(ring, seed: int = 0, max_retries: int = 8):
    """`characters_numeric` with the pair-by-pair residual, the gap as
    Python's min over the pairs, and each character value as one matrix
    product per basis element, (N_i @ v)[anchor] / v[anchor]."""
    rng = np.random.default_rng(seed)
    r, tensor = ring.rank, _dense(ring)
    mats = [np.array(tensor[i], dtype=float) for i in range(r)]
    for _ in range(max_retries):
        coeff = rng.uniform(0.5, 1.5, size=r)
        m = sum(c * mat for c, mat in zip(coeff, mats))
        w, vec = np.linalg.eig(m)
        gap = min(abs(w[a] - w[b]) for a in range(r) for b in range(a + 1, r)) \
            if r > 1 else 1.0
        if gap < 1e-6:
            continue
        cols = []
        for idx in range(r):
            v = vec[:, idx]
            anchor = int(np.argmax(np.abs(v)))
            cols.append(np.array([(mat @ v)[anchor] / v[anchor] for mat in mats]))
        alpha_num = np.array(cols).T
        if numeric_residual_ok_loop(tensor, alpha_num):
            order = np.lexsort((np.round(w.imag, 9), np.round(w.real, 9)))
            return alpha_num[:, order]
    raise DegenerateSpectrum(f"no separated spectrum after {max_retries} draws")


def match_numeric_columns_loop(table, numeric, tol: float = 1e-8) -> list[int]:
    """`match_numeric_columns` comparing one (exact, numeric) column pair at
    a time: exact column j takes the first unused numeric column within
    tol * max(1, largest |exact value|) of its row."""
    r = table.rank
    exact = np.array([[table.alpha[i][j].embed_complex() for j in range(r)]
                      for i in range(r)])
    bound = tol * np.maximum(1.0, np.abs(exact).max(axis=1))
    used, perm = set(), []
    for j in range(r):
        best = None
        for jn in range(r):
            if jn in used:
                continue
            if np.all(np.abs(exact[:, j] - numeric[:, jn]) <= bound):
                best = jn
                break
        if best is None:
            raise ValueError(f"no numeric column matches exact column {j} within {tol}")
        used.add(best)
        perm.append(best)
    return perm


def fpdim_numeric(tensor) -> tuple[float, ...]:
    """Perron roots of the left-multiplication matrices, by power iteration.

    The float oracle for the exact dimensions.  Iterates on N_i + I so the
    dominant eigenvalue is strictly separated in modulus even when N_i is a
    permutation matrix.
    """
    rank = len(tensor)
    dims = []
    for i in range(rank):
        m = np.array(tensor[i], dtype=float) + np.eye(rank)
        x = np.ones(rank)
        lam_prev, stable = None, 0
        for _ in range(200_000):
            y = m @ x
            lam = float(x @ y) / float(x @ x)
            norm = np.linalg.norm(y)
            if norm == 0:
                raise ArithmeticError(f"matrix {i} annihilated the positive cone")
            x = y / norm
            if lam_prev is not None and abs(lam - lam_prev) <= 1e-12 * max(1.0, abs(lam)):
                stable += 1
                if stable >= 3:
                    break
            else:
                stable = 0
            lam_prev = lam
        else:
            raise ArithmeticError(f"power iteration did not settle for matrix {i}")
        dims.append(lam - 1.0)
    return tuple(dims)


# ---------------------------------------------------------------------------
# the document scalar parser, one scalar at a time with no memo
# ---------------------------------------------------------------------------

def cycnum_from_json_loop(obj) -> CycNum:
    """`serialize.cycnum_from_json` before it kept a memo: every check on
    every scalar."""
    if not isinstance(obj, dict):
        raise SchemaError(f"scalar must be an object, got {type(obj).__name__}")
    extra = set(obj) - {"conductor", "coeffs", "approx"}
    if extra:
        raise SchemaError(f"unexpected scalar keys {sorted(extra)}")
    n = obj.get("conductor")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("scalar conductor must be a positive integer")
    coeffs = obj.get("coeffs")
    count = len(coeffs) if isinstance(coeffs, list) else 0
    if n > 2 * count * count:
        raise SchemaError(
            f"scalar of conductor {n} needs more than {count} coefficients")
    if not isinstance(coeffs, list) or count != euler_phi(n):
        raise SchemaError(
            f"scalar of conductor {n} needs exactly {euler_phi(n)} coefficients")
    for pair in coeffs:
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[0], int) or isinstance(pair[0], bool)
                or not isinstance(pair[1], int) or isinstance(pair[1], bool)):
            raise SchemaError("coefficients must be [numerator, denominator] "
                              "integer pairs")
        if pair[1] == 0:
            raise SchemaError("zero denominator in coefficient")
    den_lcm = math.lcm(*(den for _, den in coeffs))
    nums = [num * (den_lcm // den) for num, den in coeffs]
    return CycNum._from_ints(n, nums, den_lcm)


def document_scalars_loop(doc) -> dict[str, list[CycNum]]:
    """The scalars of a document whose other fields are well formed, by
    field in the order `from_document` reads them (the matrices row by
    row), each parsed by `cycnum_from_json_loop` and its conductor checked
    against the document's."""
    out = {}
    for field in ("fpdims", "char_table", "smatrix"):
        if doc.get(field) is None:
            continue
        flat = doc[field] if field == "fpdims" else [v for row in doc[field]
                                                     for v in row]
        out[field] = []
        for obj in flat:
            c = cycnum_from_json_loop(obj)
            if doc["conductor"] % c.conductor:
                raise SchemaError(
                    f"scalar conductor {c.conductor} in '{field}' does not "
                    f"divide the document conductor {doc['conductor']}")
            out[field].append(c)
    return out


# ---------------------------------------------------------------------------
# the two text writers of exactnum before `_signed_sum`, bodies unchanged
# ---------------------------------------------------------------------------

def intpoly_text_loop(self):
    terms = []
    for k in range(self.degree, -1, -1):
        c = self.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xk = "x" if k == 1 else f"x^{k}"
            body = xk if mag == 1 else f"{mag}*{xk}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


def cycnum_text_loop(self):
    n = self.conductor
    terms = []
    for j, c in enumerate(self.coeffs):
        if not c:
            continue
        if j == 0:
            body = str(c)
        else:
            zj = f"z{n}" if j == 1 else f"z{n}^{j}"
            if c == 1:
                body = zj
            elif c == -1:
                body = f"-{zj}"
            else:
                body = f"{c}*{zj}"
        terms.append(body)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


# ---------------------------------------------------------------------------
# second routes to the characteristic polynomial and the JSON report
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _multiplication_matrix(a: CycNum):
    n, deg = a.conductor, euler_phi(a.conductor)
    cols = []
    for j in range(deg):
        v = [_ZERO] * j + list(a.coeffs)  # a * zeta^j before reduction
        _divide(v, n)
        cols.append(v[:deg])
    # cols[j] = coords of a * zeta^j; return row-major matrix
    return [[cols[j][i] for j in range(deg)] for i in range(deg)]


def _charpoly(mat):
    """Faddeev-LeVerrier; returns monic coefficients, constant term first."""
    n = len(mat)
    c = [None] * (n + 1)
    c[n] = _ONE
    m_prev = None
    for k in range(1, n + 1):
        if k == 1:
            m_cur = [row[:] for row in mat]
        else:
            shifted = [row[:] for row in m_prev]
            for i in range(n):
                shifted[i][i] += c[n - k + 1]
            m_cur = [[sum(mat[i][t] * shifted[t][j] for t in range(n))
                      for j in range(n)] for i in range(n)]
        trace = sum(m_cur[i][i] for i in range(n))
        c[n - k] = -trace / k
        m_prev = m_cur
    return tuple(c)


def charpoly_faddeev_leverrier(a: CycNum) -> tuple[Fraction, ...]:
    """Char poly of multiplication by a on Q(zeta_N), degree phi(N), monic,
    from the matrix of a on the power basis: the route that shares nothing
    with `minimal_polynomial`."""
    return _charpoly(_multiplication_matrix(a))


def report_to_json_builder(report) -> dict:
    """The JSON object of a report, built with dicts and lists: the stdlib
    oracle `render_json` must equal under ``json.dumps(..., sort_keys=True,
    indent=2)`` plus a newline.

    Each distinct exact value is converted once: repeats of it, within the
    report and with the same ``approx`` flag, are the same object.
    """
    values = {}

    def value(v, approx):
        if isinstance(v, CycNum):
            key = (v.conductor, v._nums, v._den, approx)
            obj = values.get(key)
            if obj is None:
                obj = values[key] = value_to_json(v, approx)
            return obj
        if isinstance(v, (list, tuple)):
            return [x if type(x) is int else value(x, approx) for x in v]
        if v is None or isinstance(v, (int, str)):  # bool is an int
            return v
        return value_to_json(v, approx)

    checks = []
    for c in report.checks:
        entry = {
            "id": c.id,
            "params": {k: value(v, False) for k, v in c.params.items()},
            "lhs": value(c.lhs, True),
            "rhs": value(c.rhs, True),
            "pass": c.passed,
        }
        if c.skipped_reason is not None:
            entry["skipped_reason"] = c.skipped_reason
        if c.detail:
            entry["detail"] = c.detail
        checks.append(entry)
    return {"checks": checks, **_report_fields(report)}


def sqrt2() -> CycNum:
    z = CycNum.zeta(8)
    return z - z ** 3


def sqrt5() -> CycNum:
    z = CycNum.zeta(5)
    return z - z ** 2 - z ** 3 + z ** 4


def golden() -> CycNum:
    """(1 + sqrt 5)/2, the Perron root of x^2 - x - 1."""
    return (sqrt5() + 1) / 2


def lucas(m: int):
    """Tensor of the rank-2 ring X*X = 1 + L_m X for odd m, with the roots
    phi^m and psi^m of x^2 - L_m x - 1: the FP dimension of X and its
    Galois conjugate (L_m is the m-th Lucas number, phi^m + psi^m)."""
    phi, psi = golden() ** m, (1 - golden()) ** m
    lucas_m = int((phi + psi).as_rational())
    return [[[1, 0], [0, 1]], [[0, 1], [1, lucas_m]]], phi, psi


def group_ring(n: int, prefix: str = "g"):
    """Pointed ring on Z_n."""
    tensor = [[[1 if (i + j) % n == k else 0 for k in range(n)]
               for j in range(n)] for i in range(n)]
    dual = [(-i) % n for i in range(n)]
    return validate_fusion_ring(tensor, dual,
                                names=[f"{prefix}{i}" for i in range(n)],
                                fpdims=[1] * n)


def ising_ring():
    """Rank 3: f*f = 1, f*s = s, s*s = 1 + f, dim s = sqrt 2."""
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    ]
    return validate_fusion_ring(tensor, (0, 1, 2), names=("1", "f", "s"),
                                fpdims=(ONE, ONE, sqrt2()))


def ising_table_rows():
    """Columns: dimension character, its conjugate, the degenerate map."""
    one, rt2, zero = ONE, sqrt2(), CycNum.from_rational(0)
    return (
        (one, one, one),
        (one, one, -one),
        (rt2, -rt2, zero),
    )


def fib_ring():
    """Rank 2: t*t = 1 + t, dim t the golden ratio."""
    tensor = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 1]],
    ]
    return validate_fusion_ring(tensor, (0, 1), names=("1", "t"),
                                fpdims=(ONE, golden()))


def fib_table_rows():
    one, phi = ONE, golden()
    return (
        (one, one),
        (phi, 1 - phi),
    )


def reps3_ring():
    """Rank 3: u*u = 1, u*v = v, v*v = 1 + u + v (integer dims 1, 1, 2)."""
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 1]],
    ]
    return validate_fusion_ring(tensor, (0, 1, 2), names=("1", "u", "v"),
                                fpdims=(1, 1, 2))


def reps3_table_rows():
    return (
        (1, 1, 1),
        (1, -1, 1),
        (2, 0, -1),
    )


def group_table_rows(n: int):
    """Characters of Z_n: alpha[i][j] = zeta_n^(i*j); column 0 is the dimension map."""
    z = CycNum.zeta(n)
    return tuple(tuple(z ** ((i * j) % n) for j in range(n)) for i in range(n))


def ising_smatrix_rows():
    one, rt2, zero = ONE, sqrt2(), CycNum.from_rational(0)
    return (
        (one, one, rt2),
        (one, one, -rt2),
        (rt2, -rt2, zero),
    )


def fib_smatrix_rows():
    one, phi = ONE, golden()
    return ((one, phi), (phi, -one))


def su2k4_adjoint_smatrix_rows():
    """The level-4 sine matrix restricted to the adjoint objects X_0, X_4, X_2.

    These three objects close under fusion into the rep-s3 ring of
    `reps3_ring` (X_4 as u, X_2 as v). Entry (i, j) is
    S_ij = sin((i+1)(j+1) pi/6) / sin(pi/6), with sin(pi/6) = 1/2:

        (X_0, X_0): sin( pi/6) / (1/2) = (1/2)/(1/2) =  1
        (X_0, X_4): sin(5pi/6) / (1/2) = (1/2)/(1/2) =  1
        (X_0, X_2): sin(3pi/6) / (1/2) =   1  /(1/2) =  2
        (X_4, X_4): sin(25pi/6)/ (1/2) = (1/2)/(1/2) =  1
        (X_4, X_2): sin(15pi/6)/ (1/2) =   1  /(1/2) =  2
        (X_2, X_2): sin(9pi/6) / (1/2) =  -1  /(1/2) = -2

    X_4 pairs trivially with every object, so the Müger center is {X_0, X_4},
    and X_4 (x) X_2 = X_2 makes X_2 a fixed point of that center.
    """
    return (
        (1, 1, 2),
        (1, 1, 2),
        (2, 2, -2),
    )


def su2k_division(k: int):
    """(ring, table, smatrix) of level k by division: s_ij = gap((i+1)(j+1))
    / gap(1) with gap(m) = zeta^(2m) - zeta^(-2m), zeta = zeta_(4(k+2)), and
    alpha_ij = s_ij / s_0j, one norm inverse per entry.  The tensor is the
    truncated Clebsch-Gordan rule, longhand.  The oracle for the
    quantum-integer construction of `catalog._su2k`."""
    rank, n = k + 1, 4 * (k + 2)
    tensor = [[[1 if abs(i - j) <= l <= min(i + j, 2 * k - i - j)
                and (i + j + l) % 2 == 0 else 0 for l in range(rank)]
               for j in range(rank)] for i in range(rank)]

    def gap(m):
        return CycNum.zeta(n, 2 * m) - CycNum.zeta(n, -2 * m)

    s = [[gap((i + 1) * (j + 1)) / gap(1) for j in range(rank)]
         for i in range(rank)]
    ring = validate_fusion_ring(tensor, tuple(range(rank)),
                                names=tuple(f"X{i}" for i in range(rank)),
                                fpdims=tuple(s[0]))
    table = validate_character_table(
        ring, [[s[i][j] / s[0][j] for j in range(rank)] for i in range(rank)])
    return ring, table, validate_smatrix(ring, table, s)


def dd_smatrix_rows(ring):
    """The degenerate form s_{ij} = d_i d_j (fully transparent)."""
    return tuple(tuple(ring.fpdims[i] * ring.fpdims[j] for j in range(ring.rank))
                 for i in range(ring.rank))


def pointed_smatrix_rows(n: int, c: int):
    """Bilinear form on Z_n: s_{ab} = zeta_n^(c a b)."""
    z = CycNum.zeta(n)
    return tuple(tuple(z ** ((c * a * b) % n) for b in range(n)) for a in range(n))
