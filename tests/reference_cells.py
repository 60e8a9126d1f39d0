"""The angle cells and the per-cell loop that built angle pairs before
`projections.Spectrum` placed the cells by index arrays, kept as the
reference that `Spectrum.realize` must match bit for bit, and as the
independent source of the universal approximant's cells."""

import numpy as np


def angle_cells(angles) -> tuple[np.ndarray, np.ndarray]:
    """(k, 2, 2) stacks of the angle cells: cell i of f projects onto the first
    coordinate, cell i of g onto (cos theta_i, sin theta_i)."""
    t = np.asarray(angles, dtype=float)
    c, s = np.cos(t), np.sin(t)
    f = np.zeros((len(t), 2, 2), dtype=np.complex128)
    f[:, 0, 0] = 1.0
    g = np.empty((len(t), 2, 2), dtype=np.complex128)
    g[:, 0, 0] = c * c
    g[:, 0, 1] = c * s
    g[:, 1, 0] = c * s
    g[:, 1, 1] = s * s
    return f, g


def cell_loop_members(angles, extra_f_dims=0, extra_g_dims=0) -> tuple[np.ndarray, np.ndarray]:
    """f and g of the pair with the given angles and extra dimensions, one
    2x2 cell copied into place at a time."""
    dim = 2 * len(angles) + extra_f_dims + extra_g_dims
    f = np.zeros((dim, dim), dtype=np.complex128)
    g = np.zeros((dim, dim), dtype=np.complex128)
    for i, (cf, cg) in enumerate(zip(*angle_cells(angles))):
        f[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = cf
        g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = cg
    extra = np.arange(2 * len(angles), dim)
    only_f, only_g = extra[:extra_f_dims], extra[extra_f_dims:]
    f[only_f, only_f] = 1.0
    g[only_g, only_g] = 1.0
    return f, g
