"""Higher-order topological lattice models probed by walk dynamics.

Two flavors on an open-boundary nx-by-ny lattice of four-site unit cells:

* SSH2D: staggered intracell (v) / intercell (w) hoppings, all positive.
* BBH: the same lattice with pi flux per plaquette, realized by flipping
  the sign of every y-direction bond in the right-hand column of each cell.

Both are chiral-symmetric: the sublattice operator Gamma anti-commutes
with H, which is verified at build time. The long-time averaged mean
chiral displacement (single particle) and chiral quadrupole moment (two
fermions) distinguish topological (~1/2) from trivial (~0) phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolution import HermitianOperator, _average_times, basis_state, time_average_distribution
from .graphs import _check_dense_size

__all__ = ["TopoModel", "build_topo_model", "amcd", "amcqm"]

# per-dimension sublattice operators (sign of the intracell coordinate);
# their product is the full operator: +1 on sites 0 and 3, -1 on 1 and 2
_SITE_CHIRALITY_X = {0: 1, 1: -1, 2: 1, 3: -1}
_SITE_CHIRALITY_Y = {0: 1, 1: 1, 2: -1, 3: -1}


@dataclass
class TopoModel:
    flavor: str  # "ssh2d" | "bbh"
    nx: int
    ny: int
    v: float
    w: float
    hamiltonian: HermitianOperator
    chiral: np.ndarray = field(repr=False)  # diagonal of Gamma
    chiral_x: np.ndarray = field(repr=False)  # per-dimension sublattice signs
    chiral_y: np.ndarray = field(repr=False)
    m_x: np.ndarray = field(repr=False)  # cell index along x, centered
    m_y: np.ndarray = field(repr=False)

    @property
    def n_sites(self) -> int:
        return 4 * self.nx * self.ny

    def site_index(self, cx: int, cy: int, s: int) -> int:
        return (cy * self.nx + cx) * 4 + s

    def central_cell(self) -> tuple[int, int]:
        return (self.nx - 1) // 2, (self.ny - 1) // 2


def build_topo_model(flavor: str, nx: int, ny: int, v: float, w: float) -> TopoModel:
    """Open-boundary SSH2D or BBH lattice with verified chiral symmetry."""
    flavor = flavor.lower()
    if flavor not in ("ssh2d", "bbh"):
        raise ValueError("flavor must be 'ssh2d' or 'bbh'")
    if nx < 2 or ny < 2:
        raise ValueError("need at least 2x2 unit cells")
    n = 4 * nx * ny
    _check_dense_size(n)  # before the dense n x n matrix and its chiral check

    def idx(cx, cy, s):
        return (cy * nx + cx) * 4 + s

    h = np.zeros((n, n))

    def hop(i, j, amp):
        h[i, j] += amp
        h[j, i] += amp

    # BBH pi flux: y-direction bonds in the x=1 column of each cell flip sign
    y_sign = -1.0 if flavor == "bbh" else 1.0
    for cy in range(ny):
        for cx in range(nx):
            hop(idx(cx, cy, 0), idx(cx, cy, 1), v)           # x intracell
            hop(idx(cx, cy, 2), idx(cx, cy, 3), v)
            hop(idx(cx, cy, 0), idx(cx, cy, 2), v)           # y intracell, x=0
            hop(idx(cx, cy, 1), idx(cx, cy, 3), y_sign * v)  # y intracell, x=1
            if cx + 1 < nx:
                hop(idx(cx, cy, 1), idx(cx + 1, cy, 0), w)
                hop(idx(cx, cy, 3), idx(cx + 1, cy, 2), w)
            if cy + 1 < ny:
                hop(idx(cx, cy, 2), idx(cx, cy + 1, 0), w)
                hop(idx(cx, cy, 3), idx(cx, cy + 1, 1), y_sign * w)

    chiral_x = np.array([_SITE_CHIRALITY_X[s] for _ in range(nx * ny) for s in range(4)], dtype=float)
    chiral_y = np.array([_SITE_CHIRALITY_Y[s] for _ in range(nx * ny) for s in range(4)], dtype=float)
    chiral = chiral_x * chiral_y
    anti = np.abs(chiral[:, None] * h * chiral[None, :] + h).max()
    if anti > 1e-9:
        raise ArithmeticError(f"chiral anti-commutation violated by {anti}")
    cx0 = (nx - 1) // 2
    cy0 = (ny - 1) // 2
    m_x = np.array([cx - cx0 for cy in range(ny) for cx in range(nx) for _ in range(4)], dtype=float)
    m_y = np.array([cy - cy0 for cy in range(ny) for cx in range(nx) for _ in range(4)], dtype=float)
    return TopoModel(flavor=flavor, nx=nx, ny=ny, v=v, w=w,
                     hamiltonian=HermitianOperator(h), chiral=chiral,
                     chiral_x=chiral_x, chiral_y=chiral_y, m_x=m_x, m_y=m_y)


def _default_mcd_state(model: TopoModel) -> np.ndarray:
    """Equal superposition on the two Gamma=+1 sites of the central cell."""
    cx, cy = model.central_cell()
    psi = np.zeros(model.n_sites, dtype=complex)
    psi[model.site_index(cx, cy, 0)] = 1.0 / np.sqrt(2)
    psi[model.site_index(cx, cy, 3)] = 1.0 / np.sqrt(2)
    return psi


def amcd(model: TopoModel, dimension: str, t_final: float = 50.0, steps: int = 200) -> float:
    """Time-averaged mean chiral displacement along one lattice dimension.

    Averages <psi(t_k)| Gamma_i m_i |psi(t_k)> over a uniform grid in
    (0, T], where Gamma_i is the sublattice sign of the intracell
    coordinate along dimension i and m_i the centered cell index. The
    prefactor is calibrated so the value approaches 1/2 in the
    topological phase (v < w) and 0 in the trivial phase.
    """
    if dimension not in ("x", "y"):
        raise ValueError("dimension must be 'x' or 'y'")
    if dimension == "x":
        op = model.chiral_x * model.m_x
    else:
        op = model.chiral_y * model.m_y
    avg = time_average_distribution(model.hamiltonian, _default_mcd_state(model), t_final, steps)
    return float(op @ avg)


def amcqm(model: TopoModel, initial_sites: tuple[int, int] | None = None,
          t_final: float = 50.0, steps: int = 200) -> float:
    """Time-averaged mean chiral quadrupole moment of a two-fermion walk.

    The two fermions start on the diagonal corners of the central
    intercell plaquette: site 3 of the central cell and site 0 of its
    up-right neighbor. The averaged observable is
    2 <Psi(t)| (Gamma_x m_x) (x) (Gamma_y m_y) |Psi(t)>, with the
    prefactor calibrated so the fully dimerized topological limit
    (v = 0) averages exactly to 1/2; the trivial phase averages to 0.

    The antisymmetric pair state stays a Slater determinant of two
    single-particle orbitals, so the diagonal two-body observable reduces
    to single-orbital expectation values; this is numerically identical
    to evolving on the fermion-extended graph of the lattice but costs
    O(n_sites) per time point.
    """
    if model.flavor != "bbh":
        raise ValueError("the quadrupole probe targets the BBH flavor")
    cx, cy = model.central_cell()
    if initial_sites is None:
        initial_sites = (
            model.site_index(cx, cy, 3),
            model.site_index(cx + 1, cy + 1, 0),
        )
    i1, i2 = initial_sites
    if not (0 <= i1 < model.n_sites and 0 <= i2 < model.n_sites):
        raise ValueError(f"initial sites {i1} and {i2} must lie in 0..{model.n_sites - 1}")
    if i1 == i2:
        raise ValueError("fermions cannot share a site")
    a = model.chiral_x * model.m_x
    b = model.chiral_y * model.m_y
    times = _average_times(t_final, steps, model.n_sites)
    phi1 = model.hamiltonian.evolve_many(basis_state(model.n_sites, i1), times)
    phi2 = model.hamiltonian.evolve_many(basis_state(model.n_sites, i2), times)
    p1 = np.abs(phi1) ** 2
    p2 = np.abs(phi2) ** 2
    cross = np.conj(phi1) * phi2  # <phi1|diag|phi2> integrand per site
    direct = (a @ p1) * (b @ p2) + (a @ p2) * (b @ p1)
    exchange = 2.0 * np.real((a @ cross) * np.conj(b @ cross))
    vals = 2.0 * 0.5 * (direct - exchange)
    return float(vals.mean())
