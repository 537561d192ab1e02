"""The 8-dimensional quadratic space carried by the split octonions:
Gram matrix J of the polarized norm, translation operators as 8x8 matrices,
orthogonality and rotation tests, and the spinor-norm criterion that decides
membership in the commutator subgroup Omega.

Matrices act on column vectors (y = M x) in the coordinate order
(x0..x7) = (a, alpha, beta, b).  Entries are field codes; the reference
routines (mat_det, is_rotation, spinor_norm, ...) route all arithmetic
through the field object, so they work over any GF(p^k), and check the
batched verdicts over prime fields (operator_matrices, spinor_verdicts)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paige
from .fields import rref, rref_batch


def j_matrix(field):
    """Gram matrix: <x,y> = x^t J y."""
    J = np.zeros((8, 8), dtype=np.int64)
    m1 = field.neg(field.one)
    J[0, 7] = J[7, 0] = field.one
    for i in (1, 2, 3):
        J[i, i + 3] = J[i + 3, i] = m1
    return J


def mat_mul(field, A, B):
    """A B over the field: the products A[i, k] B[k, j] summed over k by the
    field's array operations."""
    P = field.vmul(np.asarray(A)[:, :, None], np.asarray(B)[None])
    out = P[:, 0]
    for k in range(1, P.shape[1]):
        out = field.vadd(out, P[:, k])
    return out


def identity_matrix(field, n=8):
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        out[i, i] = field.one
    return out


def mat_det(field, A):
    """Determinant, from the row reduction of fields.rref."""
    return rref(field, np.asarray(A).tolist())[2]


def solve_linear(field, A, b):
    """One solution of A x = b (free variables zero); None if inconsistent."""
    n, m = A.shape
    aug = [[int(A[i, j]) for j in range(m)] + [int(b[i])] for i in range(n)]
    rows, pivots, _ = rref(field, aug)
    x = [field.zero] * m
    for row, pc in zip(rows, pivots):
        if pc == m:
            return None  # pivot in the constant column
        x[pc] = row[m]
    return np.array(x, dtype=np.int64)


def column_space_basis(field, A):
    """Echelon basis of the column space (row-reduce the transpose)."""
    rows = rref(field, np.asarray(A).T.tolist())[0]
    return [np.array(r, dtype=np.int64) for r in rows]


def mult_operator_matrix(a, side="left"):
    """8x8 matrix of y -> a*y (left) or y -> y*a (right) for the ZornMatrix
    a: the one-row view of operator_matrices."""
    return operator_matrices(a.field, [a.coords()], side)[0]


def left_matrix_closed_form(a):
    """The left-translation matrix written out entry by entry, kept as an
    independent cross-check against mult_operator_matrix and so against the
    Zorn product of paige.ZornEngine."""
    F = a.field
    a0, a1, a2, a3, a4, a5, a6, a7 = a.coords()
    n = F.neg
    rows = [
        [a0, 0, 0, 0, a1, a2, a3, 0],
        [0, a0, 0, 0, 0, a6, n(a5), a1],
        [0, 0, a0, 0, n(a6), 0, a4, a2],
        [0, 0, 0, a0, a5, n(a4), 0, a3],
        [a4, 0, n(a3), a2, a7, 0, 0, 0],
        [a5, a3, 0, n(a1), 0, a7, 0, 0],
        [a6, n(a2), a1, 0, 0, 0, a7, 0],
        [0, a4, a5, a6, 0, 0, 0, a7],
    ]
    return np.array(rows, dtype=np.int64)


def conjugation_matrix(field):
    """Matrix of x -> conj(x)."""
    C = np.zeros((8, 8), dtype=np.int64)
    C[0, 7] = C[7, 0] = field.one
    m1 = field.neg(field.one)
    for i in range(1, 7):
        C[i, i] = m1
    return C


def neg_conjugation_matrix(field):
    """Matrix of x -> -conj(x), a symmetry fixing the trace-zero hyperplane."""
    return field.vneg(conjugation_matrix(field))


def is_orthogonal(field, M):
    """Preserves the quadratic form: checked on the norms of the basis
    vectors AND on the Gram matrix, so the test is valid in every
    characteristic."""
    J = j_matrix(field)
    if not np.array_equal(mat_mul(field, mat_mul(field, M.T, J), M), J):
        return False
    # every basis vector is isotropic in this frame, so each column M e_j
    # must have norm 0
    return not paige.ZornEngine(field).norm(np.asarray(M).T).any()


def is_rotation(field, M):
    return is_orthogonal(field, M) and mat_det(field, M) == field.one


@dataclass
class SpinorVerdict:
    in_special_orthogonal: bool
    discriminant_square_class: str  # "square" | "non-square" | "undefined"
    in_omega: bool


def spinor_norm(field, M):
    """Decide membership of a rotation in Omega via the square class of the
    discriminant of the form chi_g on V(1-g).

    (u, v)chi = <u, w> where w is any preimage of v under 1-g; the basis of
    V(1-g) is the echelon basis of the column space of I-M and preimages are
    computed by Gaussian elimination with free variables set to zero.  The
    square class does not depend on either choice.

    Defined for odd q only; the identity map gets the square class by the
    empty-product convention.  Orthogonal non-rotations yield the verdict
    (False, "undefined", False); non-orthogonal input is an error.
    """
    if field.p == 2:
        raise ValueError("spinor norm is undefined in characteristic 2")
    if not is_orthogonal(field, M):
        raise ValueError("matrix is not orthogonal")
    if mat_det(field, M) != field.one:
        return SpinorVerdict(False, "undefined", False)
    A = field.vsub(identity_matrix(field), M)
    basis = column_space_basis(field, A)
    if not basis:
        return SpinorVerdict(True, "square", True)
    pre = []
    for v in basis:
        w = solve_linear(field, A, v)
        if w is None:
            raise AssertionError("basis vector has no preimage under 1-g")
        pre.append(w)
    # the Wall form (u, v)chi = u^t J w on the basis, w the preimage of v
    B = mat_mul(field, mat_mul(field, np.array(basis), j_matrix(field)),
                np.array(pre).T)
    d = mat_det(field, B)
    if field.is_zero(d):
        raise AssertionError("chi_g is degenerate; input was not a rotation?")
    cls = "square" if field.is_square(d) else "non-square"
    return SpinorVerdict(True, cls, cls == "square")


# Bytes per unit for operator_matrices plus spinor_verdicts on both of its
# operators (3.3 KB peak measured at q = 5): callers size chunks from it.
UNIT_BYTES = 8192


def operator_matrices(field, coords, side="left"):
    """(N, 8, 8) stack of the matrices of y -> a*y (left) or y -> y*a
    (right) for the (N, 8) Zorn coordinates a: column j holds a e_j resp.
    e_j a."""
    eng = paige.ZornEngine(field)
    X = np.repeat(np.asarray(coords)[:, None, :], 8, axis=1)  # row j: a
    E = np.broadcast_to(field.one * np.eye(8, dtype=np.int64), X.shape)
    prods = eng.mul(X, E) if side == "left" else eng.mul(E, X)  # row j: a e_j
    return prods.transpose(0, 2, 1).astype(np.int64)


def spinor_verdicts(field, M):
    """Batched is_rotation and spinor_norm over an (N, 8, 8) stack mod p:
    boolean arrays (orthogonal, rotation, square), square being False off
    the rotations.

    The Wall form on V(1-g) in the basis A e_c, c a pivot column of
    A = I - M, has the preimages e_c, so its Gram matrix is (A^t J)[P, P].
    Padded with the identity outside P x P, every matrix shares one 8x8
    determinant; the identity map gets the empty product, a square.  Prime
    fields of odd characteristic only."""
    if field.k > 1 or field.p == 2:
        raise ValueError("batched spinor verdicts need an odd prime field")
    p, I, J = field.p, np.eye(8, dtype=np.int64), j_matrix(field)
    M = np.asarray(M, dtype=np.int64) % p
    gram_ok = ((M.transpose(0, 2, 1) @ J @ M) % p == J).all(axis=(1, 2))
    norms = paige.ZornEngine(field).norm(M.transpose(0, 2, 1))  # of the columns
    orthogonal = gram_ok & (norms == 0).all(axis=1)
    rotation = orthogonal & (rref_batch(field, M)[2] == 1)
    A = (I - M) % p
    P = rref_batch(field, A)[1]
    d = rref_batch(field, np.where(P[:, :, None] & P[:, None, :],
                                   A.transpose(0, 2, 1) @ J % p, I))[2]
    if (rotation & (d == 0)).any():
        raise AssertionError("chi_g is degenerate on a rotation")
    return orthogonal, rotation, rotation & (field.vpow(d, (p - 1) // 2) == 1)
