"""Hot inner loops: local matrix computation and error accumulation.

Vectorized numpy kernels over all elements (or cells) at once.  The element
maps come in as the mesh's ``detj = 2 * Mesh.areas`` and
``invjt = Mesh.inverse_jacobians``.
"""

import numpy as np


def local_matrices(detj, invjt, grad_v, vals_p, qw):
    """Local stiffness and divergence blocks for every element.

    Parameters
    ----------
    detj : (nt,) Jacobian determinants (= 2 x area)
    invjt : (nt, 2, 2) inverse-transpose Jacobians
    grad_v : (nq, nl, 2) reference gradients of the velocity basis, shared
        by all elements
    vals_p : (nq, 3) values of the pressure basis, shared by all elements
    qw : (nq,) reference quadrature weights

    Returns
    -------
    kloc : (nt, nl, nl) with entries int grad(phi_i) . grad(phi_j)
    dloc : (nt, 2, 3, nl) with entries int q_i * d_c phi_j
    """
    # physical gradients g[t, j, q, d], one row of nq * 2 entries per basis
    # function, so the stiffness is one (nl, 2 nq) x (2 nq, nl) product
    g = np.swapaxes(grad_v, 0, 1) @ np.swapaxes(invjt, 1, 2)[:, None]
    rows = g.reshape(g.shape[:2] + (-1,))
    kloc = (rows * np.repeat(qw, 2)) @ np.swapaxes(rows, 1, 2)
    kloc *= detj[:, None, None]
    wp = (qw[:, None] * vals_p).T  # (3, nq)
    dloc = wp @ np.transpose(g, (0, 3, 2, 1))
    dloc *= detj[:, None, None, None]
    return kloc, dloc


def l2_accumulate(coef, vals_v, wdet, exact):
    """Sum of w * |y_h - y|^2 over cells and quadrature points.

    coef : (nc, nl, 2) velocity coefficients per cell
    vals_v : (nq, nl) basis values shared by all cells
    wdet : (nc, nq) physical weights (reference weight x detJ)
    exact : (nc, nq, 2) exact values at the mapped points
    """
    diff = vals_v @ coef
    diff -= exact
    return float(np.einsum("nq,nqc,nqc->", wdet, diff, diff))


def h1_accumulate(coef, grad_v, invjt, wdet, exact_grad):
    """Sum of w * |grad y_h - grad y|_F^2 over cells and quadrature points.

    grad_v : (nq, nl, 2) reference gradients shared by all cells;
    invjt : (nc, 2, 2);
    exact_grad : (nc, nq, 2, 2) with entries d y_c / d x_d.

    The coefficients are contracted with the reference gradients before the
    map to physical gradients, so no (nc, nq, nl, 2) array is formed.
    """
    nc = len(coef)
    table = np.swapaxes(grad_v, 0, 1)                # (nl, nq, 2)
    table = table.reshape(len(table), -1)
    gref = np.swapaxes(coef, 1, 2) @ table           # [n, c, (q, e)]
    diff = gref.reshape(nc, -1, 2) @ np.swapaxes(invjt, 1, 2)
    diff = diff.reshape(nc, 2, -1, 2)                # [n, c, q, d]
    diff -= np.swapaxes(exact_grad, 1, 2)
    return float(np.einsum("nq,ncqd,ncqd->", wdet, diff, diff))
