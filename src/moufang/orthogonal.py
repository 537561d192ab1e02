"""The 8-dimensional quadratic space carried by the split octonions:
Gram matrix J of the polarized norm, translation operators as 8x8 matrices,
orthogonality and rotation tests, and the spinor-norm criterion that decides
membership in the commutator subgroup Omega.

Matrices act on column vectors (y = M x) in the coordinate order
(x0..x7) = (a, alpha, beta, b).  Entries are field codes; the scalar
routines route all arithmetic through the field object, so they work over
any GF(p^k), and are the reference for the batched verdicts over prime
fields (operator_matrices, spinor_verdicts)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paige
from .composition import ZornMatrix
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
    if field.k == 1:
        return (np.asarray(A, dtype=np.int64) @ np.asarray(B, dtype=np.int64)) \
            % field.p
    n, m, r = A.shape[0], B.shape[1], A.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            s = field.zero
            for k in range(r):
                s = field.add(s, field.mul(int(A[i, k]), int(B[k, j])))
            out[i, j] = s
    return out


def mat_vec(field, A, v):
    if field.k == 1:
        return (np.asarray(A, dtype=np.int64) @ np.asarray(v, dtype=np.int64)) \
            % field.p
    out = np.zeros(A.shape[0], dtype=np.int64)
    for i in range(A.shape[0]):
        s = field.zero
        for k in range(A.shape[1]):
            s = field.add(s, field.mul(int(A[i, k]), int(v[k])))
        out[i] = s
    return out


def mat_sub(field, A, B):
    out = np.zeros_like(A)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            out[i, j] = field.sub(int(A[i, j]), int(B[i, j]))
    return out


def identity_matrix(field, n=8):
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        out[i, i] = field.one
    return out


def mat_det(field, A):
    """Determinant by Gaussian elimination over the field."""
    M = [[int(v) for v in row] for row in A]
    n = len(M)
    det = field.one
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not field.is_zero(M[r][col]):
                piv = r
                break
        if piv is None:
            return field.zero
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = field.neg(det)
        det = field.mul(det, M[col][col])
        inv = field.inv(M[col][col])
        for r in range(col + 1, n):
            if field.is_zero(M[r][col]):
                continue
            f = field.mul(M[r][col], inv)
            for c in range(col, n):
                M[r][c] = field.sub(M[r][c], field.mul(f, M[col][c]))
    return det


def solve_linear(field, A, b):
    """One solution of A x = b (free variables zero); None if inconsistent."""
    n, m = A.shape
    aug = [[int(A[i, j]) for j in range(m)] + [int(b[i])] for i in range(n)]
    rows, pivots = rref(field, aug)
    x = [field.zero] * m
    for row, pc in zip(rows, pivots):
        if pc == m:
            return None  # pivot in the constant column
        x[pc] = row[m]
    return np.array(x, dtype=np.int64)


def column_space_basis(field, A):
    """Echelon basis of the column space (row-reduce the transpose)."""
    rows, _ = rref(field, [list(map(int, A[:, j])) for j in range(A.shape[1])])
    return [np.array(r, dtype=np.int64) for r in rows]


def norm_coords(field, v):
    """x0 x7 - x1 x4 - x2 x5 - x3 x6."""
    s = field.mul(int(v[0]), int(v[7]))
    for i in (1, 2, 3):
        s = field.sub(s, field.mul(int(v[i]), int(v[i + 3])))
    return s


def _bil(field, u, v):
    s = field.add(field.mul(int(u[7]), int(v[0])), field.mul(int(u[0]), int(v[7])))
    for i in (1, 2, 3):
        s = field.sub(s, field.mul(int(u[i + 3]), int(v[i])))
        s = field.sub(s, field.mul(int(u[i]), int(v[i + 3])))
    return s


def mult_operator_matrix(a, side="left"):
    """8x8 matrix of y -> a*y (left) or y -> y*a (right): column j holds the
    coordinates of a e_j resp. e_j a."""
    field = a.field
    cols = []
    for j in range(8):
        c = [field.zero] * 8
        c[j] = field.one
        ej = ZornMatrix.from_coords(field, c)
        prod = a * ej if side == "left" else ej * a
        cols.append(prod.coords())
    return np.array(cols, dtype=np.int64).T


def left_matrix_closed_form(a):
    """The left-translation matrix written out entry by entry, kept as an
    independent cross-check against mult_operator_matrix."""
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
    C = conjugation_matrix(field)
    out = np.zeros_like(C)
    for i in range(8):
        for j in range(8):
            out[i, j] = field.neg(int(C[i, j]))
    return out


def is_orthogonal(field, M):
    """Preserves the quadratic form: checked on the norms of the basis
    vectors AND on the Gram matrix, so the test is valid in every
    characteristic."""
    J = j_matrix(field)
    if not np.array_equal(mat_mul(field, mat_mul(field, M.T, J), M), J):
        return False
    for j in range(8):
        # every basis vector is isotropic in this frame, so N(M e_j) must be 0
        if norm_coords(field, M[:, j]) != field.zero:
            return False
    return True


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
    A = mat_sub(field, identity_matrix(field), M)
    basis = column_space_basis(field, A)
    if not basis:
        return SpinorVerdict(True, "square", True)
    pre = []
    for v in basis:
        w = solve_linear(field, A, v)
        if w is None:
            raise AssertionError("basis vector has no preimage under 1-g")
        pre.append(w)
    r = len(basis)
    B = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            B[i, j] = _bil(field, basis[i], pre[j])
    d = mat_det(field, B)
    if field.is_zero(d):
        raise AssertionError("chi_g is degenerate; input was not a rotation?")
    cls = "square" if field.is_square(d) else "non-square"
    return SpinorVerdict(True, cls, cls == "square")


# Bytes per unit for operator_matrices plus spinor_verdicts on both of its
# operators (3.3 KB peak measured at q = 5): callers size chunks from it.
UNIT_BYTES = 8192


def operator_matrices(field, coords, side="left"):
    """(N, 8, 8) stack of the matrices of mult_operator_matrix for the (N, 8)
    Zorn coordinates: column j holds a e_j (left) or e_j a (right)."""
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
    norms = M[:, 0] * M[:, 7] - (M[:, 1:4] * M[:, 4:7]).sum(axis=1)
    orthogonal = gram_ok & (norms % p == 0).all(axis=1)
    rotation = orthogonal & (rref_batch(field, M)[2] == 1)
    A = (I - M) % p
    P = rref_batch(field, A)[1]
    d = rref_batch(field, np.where(P[:, :, None] & P[:, None, :],
                                   A.transpose(0, 2, 1) @ J % p, I))[2]
    if (rotation & (d == 0)).any():
        raise AssertionError("chi_g is degenerate on a rotation")
    return orthogonal, rotation, rotation & (field.vpow(d, (p - 1) // 2) == 1)
