"""Character tables of fusion rings.

The table alpha[i][j] holds the value of the j-th character on the i-th
basis element.  Columns must be pairwise distinct exact algebra maps;
distinct characters of a commutative ring are linearly independent, so
distinctness already gives invertibility.  The table is validated input:
exact character values are never solved for numerically.

Formal codegrees and class dimensions are derived from the table and kept
with it; the class dimension attached to the dimension character is always
1, and the class dimensions sum to the global dimension.  The two checks
take a ``verify.Target`` and read its derived data from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateSpectrum,
    ExactDataMissing,
    NotAlgebraMap,
    SingularTable,
)
from .exactnum import ZERO, CycNum, _entry
from .fusion import (FusionRing, Subcategory, _first_non_character,
                     global_fpdim)
from .reports import CheckRecord, _exact_key


@dataclass(frozen=True)
class CharacterTable:
    """Validated table with its codegrees sum_i alpha[i][j] alpha[i*][j],
    each an integer combination of its column, and class dimensions
    dim(C)/codegree.

    Only `validate_character_table` builds one, so every column is a proven
    character, the columns are distinct and every codegree is nonzero;
    `premod.validate_smatrix` relies on this to accept an S-matrix row that
    equals a column without scanning it again, and eq-2.4 to read its sums
    from the codegrees."""

    alpha: tuple[tuple[CycNum, ...], ...]
    codegrees: tuple[CycNum, ...]
    class_dims: tuple[CycNum, ...]

    @property
    def rank(self):
        return len(self.alpha)


def validate_character_table(ring: FusionRing, rows) -> CharacterTable:
    """Check each column is a character, columns are distinct, derive class data.

    What follows from these checks is not computed.  The columns are r
    distinct characters of the r-dimensional semisimple algebra, so they
    are all of its characters.  The dimensions d are a character (the ring
    validator proved them one), so some column, the FP column, is d; no
    column is searched for it.  The idempotents
    e_j = (1/cod_j) sum_i alpha[i*][j] b_i sum to the unit; the unit
    coefficient of sum_j e_j = 1 is sum_j 1/cod_j = 1, so the class
    dimensions dim(C)/cod_j sum to dim(C).  d_{i*} = d_i was checked with
    the ring, so the FP column's codegree is
    sum_i d_i d_{i*} = sum_i d_i^2 = dim(C) and its class dimension is 1.
    No codegree is zero.  Set X_i* = X_{i*} and tau(X_i) = delta_i0.
    Frobenius reciprocity makes * an involution of the fusion algebra, and
    the duality axiom gives tau(X_i* X_j) = delta_ij, so tau is a faithful
    positive trace and the algebra a C*-algebra, commutative as it has r
    distinct characters.  Each character is then a *-map,
    alpha[i*][j] = conj(alpha[i][j]), so
    cod_j = sum_i |alpha[i][j]|^2 >= |alpha[0][j]|^2 = 1.

    The codegrees are read off the Casimir element sum_i X_i X_{i*} =
    sum_k c_k X_k, c_k = sum_i N_{i i*}^k, with integer coefficients: the
    column j is a character, so cod_j = sum_i chi_j(X_i X_{i*}) =
    sum_k c_k alpha[k][j] (Ostrik, "On formal codegrees of fusion
    categories", 2009).  Each codegree is one `_entry` over k of the
    products c_k alpha[k][j].  Every alpha[k][j] is a factor of it, as of
    the sum of products sum_i alpha[i][j] alpha[i*][j], so it lands at the
    lcm of the column's conductors, in the same canonical form.
    """
    if ring.fpdims is None:
        raise ExactDataMissing("character table validation needs exact dimensions")
    r = ring.rank
    alpha = tuple(tuple(v if isinstance(v, CycNum) else CycNum.from_rational(v)
                        for v in row) for row in rows)
    if len(alpha) != r or any(len(row) != r for row in alpha):
        raise SingularTable(f"table must be {r} x {r}")

    for j in range(r):
        if alpha[0][j] != 1:
            raise NotAlgebraMap(j, (0,))
        pair = _first_non_character(ring.nonzero, ring.generators,
                                    [row[j] for row in alpha])
        if pair is not None:
            raise NotAlgebraMap(j, pair)

    for j in range(r):
        for jj in range(j + 1, r):
            if all(alpha[i][j] == alpha[i][jj] for i in range(r)):
                raise SingularTable(f"columns {j} and {jj} coincide")

    # the Casimir element sum_i X_i X_{i*} = sum_k c_k X_k
    casimir = [0] * r
    for i in range(r):
        for k, n in ring.nonzero[i][ring.dual[i]]:
            casimir[k] += n
    total_dim = global_fpdim(ring)
    codegrees = tuple(_entry(list(zip(casimir, col))) for col in zip(*alpha))
    class_dims = tuple(total_dim * cod.inverse() for cod in codegrees)
    return CharacterTable(alpha=alpha, codegrees=codegrees,
                          class_dims=class_dims)


# ---------------------------------------------------------------------------
# subcategory integrals and their support
# ---------------------------------------------------------------------------

def support_JD(ring: FusionRing, table: CharacterTable,
               sub: Subcategory) -> tuple[int, ...]:
    """J_D: the columns j with alpha[i][j] = d_i for every i in D, which are
    the columns where the normalized integral (1/dim D) sum_{i in D} d_i chi_i
    is 1; it is 0 at every other column.  Nothing is summed.

    Let R_D = sum_{i in D} d_i X_i.  For i in D, the coefficient of X_k in
    X_i R_D is sum_{j in D} N_ij^k d_j.  It is 0 for k outside D, as D is
    closed.  For k in D, Frobenius reciprocity makes it
    sum_{j in D} N_{i* k}^j d_j, which is d_{i*} d_k = d_i d_k, as D is
    closed and d is a character.  So X_i R_D = d_i R_D, and any character
    chi has chi(X_i) chi(R_D) = d_i chi(R_D).  If chi(R_D) != 0, then
    chi = d on D, and chi(R_D) = sum_{i in D} d_i^2 = dim D.  Otherwise the
    integral is 0 at chi's column.
    """
    alpha, fpdims = table.alpha, ring.fpdims
    return tuple(j for j in range(table.rank)
                 if all(alpha[i][j] == fpdims[i] for i in sub.members))


def verify_eq_2_7(target, sub: Subcategory) -> CheckRecord:
    """Class dimensions over the support sum to dim(C)/dim(D)."""
    lhs = sum((target.table.class_dims[j] for j in target.support(sub)), ZERO)
    rhs = target.global_dim * target.inverse(target.dim(sub))
    return CheckRecord(id="eq-2.7", params={"D": list(sub.members)},
                       lhs=lhs, rhs=rhs, passed=lhs == rhs)


def verify_eq_2_4(target) -> list[CheckRecord]:
    """Dual-pairing orthogonality of table columns, all pairs: the (l, k)
    sum sum_i alpha[i][l] alpha[i*][k] against dim(C)/dim(C^k) on the
    diagonal and 0 off it.

    No sum is computed here.  The (k, k) sum is the codegree of column k.
    The validator read it off the Casimir element at the lcm of the
    column's conductors, where the sum of products lands too, so
    `table.codegrees[k]` is its value, conductor and canonical form.  For
    l != k the sum is 0, at the lcm of the conductors of columns l and k
    (zero entries included), where the sum of products lands.  The Casimir
    `_entry` of column k has every alpha[i][k] as a factor, so the
    conductor of `table.codegrees[k]` is that column's lcm, and it is read
    from there.  Let z_k = sum_i alpha[i*][k] X_i.  Frobenius reciprocity and
    N_ij^k = N_{i* j*}^{k*} give X_a z_k = chi_k(X_a) z_k.  Applying chi_l
    gives chi_l(X_a) chi_l(z_k) = chi_k(X_a) chi_l(z_k) for every a.  The validator proved chi_l != chi_k, so chi_l(z_k) = 0, and
    chi_l(z_k) is the (l, k) sum.
    """
    table = target.table
    conductors = [cod.conductor for cod in table.codegrees]
    out = []
    for l, cl in enumerate(conductors):
        for k, ck in enumerate(conductors):
            if l == k:
                lhs = table.codegrees[k]
                rhs = target.global_dim * target.inverse(table.class_dims[k])
            else:
                lhs, rhs = ZERO.change_conductor(math.lcm(cl, ck)), ZERO
            out.append(CheckRecord(id="eq-2.4", params={"l": l, "k": k},
                                   lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return out


# ---------------------------------------------------------------------------
# numeric cross-check
# ---------------------------------------------------------------------------

#: Random combinations `characters_numeric` draws before it gives up.
MAX_RETRIES = 8

#: Relative tolerance of `match_numeric_columns`, which `validate` prints.
MATCH_TOLERANCE = 1e-8


def characters_numeric(ring: FusionRing, seed: int = 0):
    """Eigenvector characters of a random combination of fusion matrices.

    Returns a complex numpy array with the same orientation as the exact
    table (rows index basis elements, columns index characters).  Retries
    with fresh coefficients, up to MAX_RETRIES draws, when the spectrum is
    degenerate.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    r = ring.rank
    tensor = np.zeros((r, r, r))
    for i, plane in enumerate(ring.nonzero):
        for j, row in enumerate(plane):
            for k, n in row:
                tensor[i, j, k] = n
    upper = np.triu_indices(r, 1)
    for _ in range(MAX_RETRIES):
        coeff = rng.uniform(0.5, 1.5, size=r)
        m = sum(c * mat for c, mat in zip(coeff, tensor))
        w, vec = np.linalg.eig(m)
        gap = np.abs(w[upper[0]] - w[upper[1]]).min() if r > 1 else 1.0
        if gap < 1e-6:
            continue
        cols = []
        for v in vec.T:
            anchor = int(np.argmax(np.abs(v)))
            cols.append((tensor @ v)[:, anchor] / v[anchor])
        alpha_num = np.array(cols).T  # rows = basis, columns = characters
        if _is_numeric_character_table(tensor, alpha_num):
            order = np.lexsort((np.round(w.imag, 9), np.round(w.real, 9)))
            return alpha_num[:, order]
    raise DegenerateSpectrum(f"no separated spectrum after {MAX_RETRIES} draws")


def _is_numeric_character_table(tensor, alpha_num) -> bool:
    """Whether every column is a character to within 1e-8: for all (i, k),
    max |a_i a_k - sum_l N_ik^l a_l| <= 1e-8 max(1, max |a_i a_k|), with
    `tensor` the float N.

    All (i, k) at once, summing over l in increasing order.  NaN compares
    false, so a NaN residual passes its pair and a NaN max |a_i a_k| gives
    the bound 1e-8."""
    import numpy as np
    r = len(alpha_num)
    prod = alpha_num[:, None, :] * alpha_num[None, :, :]
    rhs = np.zeros(prod.shape, dtype=prod.dtype)
    for l in range(r):
        rhs = rhs + tensor[:, :, l, None] * alpha_num[l]
    resid = np.abs(prod - rhs).max(axis=2)
    big = np.abs(prod).max(axis=2)
    bound = 1e-8 * np.where(big > 1.0, big, 1.0)
    return not np.any(resid > bound)


def match_numeric_columns(table: CharacterTable, numeric,
                          tol: float = MATCH_TOLERANCE) -> list[int]:
    """Bijection from exact columns to numeric ones.  Row i, the eigenvalues
    of N_i, is matched to within tol * max(1, largest |exact value in row i|)."""
    import numpy as np
    r = table.rank
    exact = _embedded(table)
    bound = tol * np.maximum(1.0, np.abs(exact).max(axis=1))
    # close[j, jn]: exact column j is numeric column jn to within the bound
    close = (np.abs(exact[:, :, None] - numeric[:, None, :])
             <= bound[:, None, None]).all(axis=0)
    used, perm = set(), []
    for j in range(r):
        best = next((jn for jn in map(int, np.flatnonzero(close[j]))
                     if jn not in used), None)
        if best is None:
            raise ValueError(f"no numeric column matches exact column {j} within {tol}")
        used.add(best)
        perm.append(best)
    return perm


def _embedded(table: CharacterTable):
    """The table as a complex numpy array, each distinct exact value
    embedded once: `embed_complex` reads only the canonical form that
    `_exact_key` keys, so the array is the one of embedding every entry."""
    import numpy as np
    embedded = {}

    def embed(v):
        key = _exact_key(v)
        if key not in embedded:
            embedded[key] = v.embed_complex()
        return embedded[key]

    return np.array([[embed(v) for v in row] for row in table.alpha])
