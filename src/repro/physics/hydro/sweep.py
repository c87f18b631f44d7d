"""Dimensionally split MUSCL-Hancock sweeps over the leaf blocks.

A sweep along ``axis`` reads, per block, only its *window*: the cells
``g-2 … g+n_a+1`` along the axis (``g`` guard zones, ``n_a`` interior
zones; the stencil of the ``n_a + 1`` interior faces reaches two zones
past each end) and the interior across it.  Blocks are swept in chunks
of :data:`_CHUNK`, with the chunk's block axis last, so every NumPy
kernel runs over a whole chunk while its temporaries stay cache-sized.

Each sweep makes two passes around flux matching:

1. per chunk, gather the window from ``grid.unk``, floor it,
   reconstruct, take the Hancock half step, and solve the HLLC problem
   at every face, storing the fluxes into one array for the whole mesh;
2. :func:`_match_fluxes` replaces each coarse block's boundary flux at
   a refinement jump with the area-averaged fine flux, so conservation
   across jumps is exact (it needs the fluxes of every block, hence two
   passes);
3. per chunk, apply the conservative update to the interior and write
   it back.

Every kernel is element-wise over zones and blocks, so the result does
not depend on the chunk size, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import Grid
from repro.mesh.prolong import restrict_fluxes
from repro.physics.hydro.reconstruct import along, inner_slopes
from repro.physics.hydro.riemann import hllc_flux
from repro.physics.hydro.state import SMALL_DENS, SMALL_EINT, SWEEP_SMALL_PRES, VELS

PRIM_VARS = ("dens", "velx", "vely", "velz", "pres", "game")
CONS_KEYS = ("dens", "momx", "momy", "momz", "ener")

#: guard zones the stencil reads on each side of the interior
STENCIL_GUARDS = 2

#: blocks per chunk: on 16^2-zone (2-d) blocks 12-24 sweep fastest and
#: 4-8 cost 25-60% more; on 16^3-zone (3-d) blocks 4-16 measure alike
#: and 24 up to 8% slower (CHANGES.md records the scan)
_CHUNK = 12


def _gather(grid: Grid, slots: list[int], names, window) -> dict[str, np.ndarray]:
    """Copy the window of named variables out of the given slots:
    ``(wx, wy, wz, len(slots))`` each."""
    wx, wy, wz = window
    # two-step indexing: unk[var] is a basic view, so `slots` is the only
    # advanced index and the block axis stays last
    return {name: grid.unk[grid.var(name)][wx, wy, wz][..., slots]
            for name in names}


def _floor(prim) -> None:
    """Positivity floors on gathered primitives (in place)."""
    np.maximum(prim["dens"], SMALL_DENS, out=prim["dens"])
    np.maximum(prim["pres"], SWEEP_SMALL_PRES, out=prim["pres"])
    np.clip(prim["game"], 1.01, 3.0, out=prim["game"])


def _cons(prim, species):
    rho = prim["dens"]
    eint = prim["pres"] / ((prim["game"] - 1.0) * rho)
    ke = 0.5 * (prim["velx"] ** 2 + prim["vely"] ** 2 + prim["velz"] ** 2)
    cons = {
        "dens": rho,
        "momx": rho * prim["velx"],
        "momy": rho * prim["vely"],
        "momz": rho * prim["velz"],
        "ener": rho * (eint + ke),
    }
    for s in species:
        cons[s] = rho * prim[s]
    return cons


def _cons_and_flux(prim, axis, species):
    """Conserved state and physical flux along ``axis`` of a primitive
    state; the flux reuses the state's ``rho * (eint + ke)``."""
    cons = _cons(prim, species)
    vn = prim[VELS[axis]]
    mass = prim["dens"] * vn
    flux = {
        "dens": mass,
        "momx": mass * prim["velx"],
        "momy": mass * prim["vely"],
        "momz": mass * prim["velz"],
        "ener": vn * (cons["ener"] + prim["pres"]),
    }
    flux["mom" + "xyz"[axis]] += prim["pres"]
    for s in species:
        flux[s] = mass * prim[s]
    return cons, flux


def _prim_from_cons(cons, game, species):
    """Primitives with floors, plus the floored ``eint`` and ``ke``."""
    rho = np.maximum(cons["dens"], SMALL_DENS)
    out = {
        "dens": rho,
        "velx": cons["momx"] / rho,
        "vely": cons["momy"] / rho,
        "velz": cons["momz"] / rho,
        "game": game,
    }
    ke = 0.5 * (out["velx"] ** 2 + out["vely"] ** 2 + out["velz"] ** 2)
    eint = np.maximum(cons["ener"] / rho - ke, SMALL_EINT)
    out["pres"] = np.maximum((game - 1.0) * rho * eint, SWEEP_SMALL_PRES)
    for s in species:
        out[s] = np.clip(cons[s] / rho, 0.0, 1.0)
    return out, eint, ke


def _face_fluxes(prim, axis, lam, species, limiter):
    """HLLC fluxes through the ``n_a + 1`` interior faces of a window.

    ``prim`` spans ``n_a + 4`` cells along ``axis``; ``lam`` is
    ``dt / (2 dx)`` per block.
    """
    # reconstruct + Hancock half step on the n_a + 2 cells with both
    # neighbours in the window (window cells 1 … n_a + 2)
    inner = along(4, axis, 1, -1)
    wm, wp = {}, {}
    for name, q in prim.items():
        slope = 0.5 * inner_slopes(q, axis, limiter)
        wm[name], wp[name] = q[inner] - slope, q[inner] + slope
    u_m, f_m = _cons_and_flux(wm, axis, species)
    u_p, f_p = _cons_and_flux(wp, axis, species)
    for key in u_m:
        dudt = lam * (f_m[key] - f_p[key])
        u_m[key] = u_m[key] + dudt
        u_p[key] = u_p[key] + dudt

    # face j (0 … n_a) lies between window cells j+1 and j+2: the high
    # face of cells 1 … n_a+1 meets the low face of cells 2 … n_a+2
    n_f = prim["dens"].shape[axis] - 3
    lo, hi = along(4, axis, 0, n_f), along(4, axis, 1, None)
    game = prim["game"][inner]
    left, _, _ = _prim_from_cons({k: v[lo] for k, v in u_p.items()},
                                 game[lo], species)
    right, _, _ = _prim_from_cons({k: v[hi] for k, v in u_m.items()},
                                  game[hi], species)
    return hllc_flux(left, right, axis, species)


def sweep_blocks(grid: Grid, dt: float, axis: int,
                 species: tuple[str, ...] = (), limiter: str = "mc") -> None:
    """One directional sweep updating every leaf block in place.

    Requires guard cells to be freshly filled, at least
    :data:`STENCIL_GUARDS` deep.  Updates ``dens``, the velocities,
    ``ener`` (specific total), ``eint``, and the advected ``species``;
    callers refresh pressure/temperature via the EOS.
    """
    blocks = grid.leaf_blocks()
    if not blocks:
        return
    slots = [b.slot for b in blocks]
    g = grid.spec.nguard
    n = grid.spec.interior_zones
    n_a = n[axis]
    names = PRIM_VARS + tuple(species)
    keys = CONS_KEYS + tuple(species)
    dx = np.array([b.deltas(n)[axis] for b in blocks])
    chunks = [slice(i, i + _CHUNK) for i in range(0, len(blocks), _CHUNK)]

    interior = grid.spec.interior_slices()
    window = list(interior)
    window[axis] = slice(g - STENCIL_GUARDS, g + n_a + STENCIL_GUARDS)

    # --- pass 1: face fluxes, chunk by chunk ------------------------------------
    # flux[k] is keys[k]'s flux through the faces 0 … n_a along `axis`
    # over the transverse interior, per block
    face_shape = list(n)
    face_shape[axis] = n_a + 1
    flux = np.empty((len(keys), *face_shape, len(blocks)))
    for c in chunks:
        prim = _gather(grid, slots[c], names, window)
        _floor(prim)
        f = _face_fluxes(prim, axis, 0.5 * dt / dx[c], species, limiter)
        for k, key in enumerate(keys):
            flux[k, ..., c] = f[key]

    # --- flux matching at refinement jumps ---------------------------------------
    _match_fluxes(grid, blocks, flux, axis)

    # --- pass 2: conservative update + write back, chunk by chunk ---------------
    lo, hi = along(4, axis, 0, n_a), along(4, axis, 1, None)
    sx, sy, sz = interior
    for c in chunks:
        prim = _gather(grid, slots[c], names, interior)
        _floor(prim)
        cons = _cons(prim, species)
        lam = dt / dx[c]
        for k, key in enumerate(keys):
            f = flux[k, ..., c]
            cons[key] = cons[key] + lam * (f[lo] - f[hi])
        new, eint, ke = _prim_from_cons(cons, prim["game"], species)
        new["ener"] = eint + ke
        new["eint"] = eint
        for name in ("dens", "velx", "vely", "velz", "ener", "eint") + tuple(species):
            grid.unk[grid.var(name)][sx, sy, sz, slots[c]] = new[name]


def _match_fluxes(grid: Grid, blocks, flux: np.ndarray, axis: int) -> None:
    """Overwrite coarse boundary fluxes with restricted fine fluxes.

    ``flux`` is shaped ``(nkeys, fx, fy, fz, nblocks)`` as
    :func:`sweep_blocks` fills it: faces along ``axis``, the transverse
    interior across it.
    """
    tree = grid.tree
    n = grid.spec.interior_zones
    n_a = n[axis]
    index_of = {b.bid: i for i, b in enumerate(blocks)}
    transverse = [t for t in range(grid.spec.ndim) if t != axis]
    active_face_dims = tuple(range(len(transverse)))

    def face(j, b_idx):
        sel: list = [slice(None)] * 5
        sel[1 + axis] = j
        sel[4] = b_idx
        return tuple(sel)

    for b_idx, block in enumerate(blocks):
        for direction, j_coarse in ((-1, 0), (1, n_a)):
            kind, info = tree.face_neighbor(block.bid, axis, direction)
            if kind != "finer":
                continue
            j_fine = n_a if direction < 0 else 0
            target = flux[face(j_coarse, b_idx)]
            for child in info:
                # (nkeys, the up to 2 transverse dims) on the fine face
                fine_face = flux[face(j_fine, index_of[child])]
                sel: list = [slice(None)]
                for t in transverse:
                    ct = child.coords()[t] % 2
                    half = n[t] // 2
                    sel.append(slice(ct * half, (ct + 1) * half))
                while len(sel) < target.ndim:
                    sel.append(slice(None))
                target[tuple(sel)] = restrict_fluxes(fine_face,
                                                     active_face_dims)


__all__ = ["sweep_blocks"]
