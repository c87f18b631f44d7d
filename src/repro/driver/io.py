"""Checkpoint I/O.

FLASH writes HDF5 checkpoints through a parallel I/O layer; we write
compressed ``.npz`` with the same logical content — the tree topology,
block bounding boxes, and every variable of every leaf block — enough to
restart or analyse a run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.mesh.block import BlockId
from repro.mesh.grid import Grid, MeshSpec, VariableRegistry
from repro.mesh.tree import AMRTree
from repro.util import artifacts
from repro.util.errors import ArtifactError

#: embedded checkpoint format version
_CHECKPOINT_VERSION = 1
#: the StepInfo fields a checkpoint's history rows carry, in order
_HISTORY_FIELDS = ("n", "t", "dt", "n_blocks", "n_refined", "n_derefined")
#: arrays every valid checkpoint must carry
_CHECKPOINT_KEYS = ("bids", "data", "variables", "spec", "tree_meta",
                    "domain", "periodic", "scalars")


def collect_run_state(sim) -> dict[str, np.ndarray]:
    """Snapshot a simulation's evolving non-mesh state as npz arrays.

    Carried inside checkpoints so a resumed run continues bit-identically:
    the PAPI counter bank, every composed unit's registered
    ``save_state`` dict (hydro sweep parity, cumulative work counters,
    ...), the driver RNG's bit-generator state, and the step history.
    """
    events = sorted(sim.bank.totals, key=lambda e: e.name)
    state: dict[str, np.ndarray] = {
        "state/bank_events": np.array([e.name for e in events]),
        "state/bank_values": np.array([sim.bank.totals[e] for e in events],
                                      dtype=np.float64),
        "state/bank_time": np.array(sim.bank.time_s, dtype=np.float64),
    }
    names: list[str] = []
    values: list[float] = []
    for spec, unit in sim.scheduled_units():
        if spec.save_state is None:
            continue
        for key, value in sorted(spec.save_state(sim, unit).items()):
            names.append(f"{spec.name}.{key}")
            values.append(float(value))
    state["state/unit_keys"] = np.array(names)
    state["state/unit_values"] = np.array(values, dtype=np.float64)
    if sim.rng is not None:
        state["state/rng"] = np.array(
            json.dumps(sim.rng.bit_generator.state))
    # one row per step, in StepInfo field order; float64 holds the
    # integer fields exactly
    state["state/history"] = np.array(
        [[getattr(info, f) for f in _HISTORY_FIELDS] for info in sim.history],
        dtype=np.float64).reshape(-1, len(_HISTORY_FIELDS))
    return state


def restore_run_state(sim, state: dict[str, np.ndarray]) -> None:
    """Apply a :func:`collect_run_state` snapshot to a fresh simulation."""
    from repro.papi.events import Event

    if "state/bank_events" in state:
        for name, value in zip(state["state/bank_events"],
                               state["state/bank_values"]):
            sim.bank.totals[Event[str(name)]] = float(value)
        sim.bank.time_s = float(state["state/bank_time"])
    unit_state: dict[str, dict[str, float]] = {}
    for key, value in zip(state.get("state/unit_keys", ()),
                          state.get("state/unit_values", ())):
        unit_name, _, field = str(key).partition(".")
        unit_state.setdefault(unit_name, {})[field] = float(value)
    for spec, unit in sim.scheduled_units():
        if spec.restore_state is not None and spec.name in unit_state:
            spec.restore_state(sim, unit, unit_state[spec.name])
    if "state/rng" in state and sim.rng is not None:
        sim.rng.bit_generator.state = json.loads(str(state["state/rng"]))
    if "state/history" in state:
        from repro.driver.simulation import StepInfo

        sim.history[:] = [
            StepInfo(n=int(n), t=float(t), dt=float(dt), n_blocks=int(nb),
                     n_refined=int(nr), n_derefined=int(nd))
            for n, t, dt, nb, nr, nd in state["state/history"]]


def write_checkpoint(grid: Grid, path: str | Path, *, time: float = 0.0,
                     n_step: int = 0, sim=None) -> Path:
    """Write all leaf-block data and mesh metadata.

    The file is written atomically (temp file + rename) with a SHA-256
    sidecar, so an interrupted write can never leave a truncated
    checkpoint under the final name.  When ``sim`` is given, the run
    state (:func:`collect_run_state`) is embedded too, making the
    checkpoint a bit-identical resume point, and ``time``/``n_step``
    default to the simulation's.
    """
    path = Path(path)
    if sim is not None:
        time, n_step = sim.t, sim.n_step
    leaves = grid.tree.leaves()
    bids = np.array([(b.level, b.ix, b.iy, b.iz) for b in leaves],
                    dtype=np.int64)
    sx, sy, sz = grid.spec.interior_slices()
    slots = [grid.blocks[b].slot for b in leaves]
    data = grid.unk[:, sx, sy, sz, :][..., slots]
    payload = {
        "bids": bids,
        "data": data,
        "variables": np.array(grid.variables.names),
        "spec": np.array([grid.spec.ndim, grid.spec.nxb, grid.spec.nyb,
                          grid.spec.nzb, grid.spec.nguard,
                          grid.spec.maxblocks]),
        "tree_meta": np.array([grid.tree.nblockx, grid.tree.nblocky,
                               grid.tree.nblockz, grid.tree.max_level]),
        "domain": np.array(grid.tree.domain, dtype=np.float64),
        "periodic": np.array(grid.tree.periodic),
        "scalars": np.array([time, float(n_step)]),
    }
    if sim is not None:
        payload.update(collect_run_state(sim))
    artifacts.save_npz(path, payload, version=_CHECKPOINT_VERSION)
    return path


def read_run_state(path: str | Path) -> dict[str, np.ndarray]:
    """The embedded run-state arrays of a checkpoint (empty for legacy
    checkpoints written without ``sim=``)."""
    f = _load_validated(path)
    return {k: v for k, v in f.items() if k.startswith("state/")}


def restart_simulation(path: str | Path, *units, **sim_kwargs):
    """Rebuild a :class:`~repro.driver.simulation.Simulation` from a
    checkpoint, resuming bit-identically.

    The caller supplies fresh unit instances; every evolving piece of
    driver state the checkpoint carries is restored — the hydro unit's
    sweep parity and cumulative work counters, the PAPI counter bank,
    and the driver RNG — so the resumed run's recorded work and counter
    totals continue exactly where the interrupted run stopped.  Legacy
    checkpoints without embedded state still restore the sweep parity
    from the step count.
    """
    from repro.driver.simulation import Simulation

    grid, time, n_step = read_checkpoint(path)
    sim = Simulation(grid, *units, **sim_kwargs)
    sim.t = time
    sim.n_step = n_step
    if sim.hydro is not None:
        sim.hydro._parity = n_step
    restore_run_state(sim, read_run_state(path))
    return sim


def restore_into(sim, path: str | Path) -> None:
    """Apply a checkpoint onto an *existing*, topology-identical simulation.

    The respawn path: rebuilding a failed fabric rank calls the builder
    (fresh storage, initial conditions) and then overwrites its leaf
    interiors, time, step count, and embedded run state from the rank's
    last checkpoint — cheaper than reconstructing a Grid, and it keeps
    the ownership filter and halo hook the fabric already installed on
    the grid.  Guard cells are left stale; the next guard-cell fill
    refills them from the restored interiors exactly as a cold restart
    would.
    """
    f = _load_validated(path)
    grid = sim.grid
    stored_vars = tuple(str(v) for v in f["variables"])
    if stored_vars != tuple(grid.variables.names):
        raise ArtifactError(
            f"checkpoint {path} variables {stored_vars} do not match the "
            f"live grid's {tuple(grid.variables.names)}")
    bids = [BlockId(int(l), int(x), int(y), int(z))
            for l, x, y, z in f["bids"]]
    missing = [b for b in bids if b not in grid.blocks]
    if missing:
        raise ArtifactError(
            f"checkpoint {path} holds block(s) {missing[:3]} the live "
            f"grid does not have (topology mismatch)")
    sx, sy, sz = grid.spec.interior_slices()
    data = f["data"]
    for i, bid in enumerate(bids):
        grid.unk[:, sx, sy, sz, grid.blocks[bid].slot] = data[..., i]
    time, n_step = f["scalars"]
    sim.t = float(time)
    sim.n_step = int(n_step)
    if sim.hydro is not None:
        sim.hydro._parity = sim.n_step
    restore_run_state(sim, {k: v for k, v in f.items()
                            if k.startswith("state/")})


def read_checkpoint(path: str | Path) -> tuple[Grid, float, int]:
    """Reconstruct a Grid (tree + data) from a checkpoint.

    A checkpoint has no builder — it is the product of a simulation run —
    so unlike the EOS-table and worklog caches it cannot be silently
    regenerated.  A truncated, corrupt, or schema-incomplete file raises
    :class:`~repro.util.errors.ArtifactError` with the failed check in
    the message instead of a bare ``zipfile.BadZipFile``.  Checkpoints
    written before the embedded version field are still accepted.
    """
    f = _load_validated(path)
    ndim, nxb, nyb, nzb, nguard, maxblocks = (int(v) for v in f["spec"])
    nbx, nby, nbz, max_level = (int(v) for v in f["tree_meta"])
    domain = tuple(tuple(row) for row in f["domain"])
    periodic = tuple(bool(v) for v in f["periodic"])
    tree = AMRTree(ndim=ndim, nblockx=nbx, nblocky=nby, nblockz=nbz,
                   max_level=max_level, domain=domain, periodic=periodic)
    bids = [BlockId(int(l), int(x), int(y), int(z)) for l, x, y, z in f["bids"]]
    # rebuild topology: split ancestors until every stored bid is a leaf
    for bid in sorted(bids):
        path_ids = []
        b = bid
        while b.level > 0:
            path_ids.append(b)
            b = b.parent
        for anc in reversed([p.parent for p in path_ids]):
            if tree.is_leaf(anc):
                tree.split(anc)
    spec = MeshSpec(ndim=ndim, nxb=nxb, nyb=nyb, nzb=nzb, nguard=nguard,
                    maxblocks=maxblocks)
    variables = VariableRegistry(tuple(str(v) for v in f["variables"]))
    grid = Grid(tree, spec, variables)
    sx, sy, sz = grid.spec.interior_slices()
    data = f["data"]
    for i, bid in enumerate(bids):
        block = grid.blocks[bid]
        grid.unk[:, sx, sy, sz, block.slot] = data[..., i]
    time, n_step = f["scalars"]
    return grid, float(time), int(n_step)


def _load_validated(path: str | Path) -> dict[str, np.ndarray]:
    """Load + validate a checkpoint npz, with checkpoint-flavoured errors."""
    path = Path(path)
    try:
        return artifacts.load_npz(path, required_keys=_CHECKPOINT_KEYS,
                                  version=_CHECKPOINT_VERSION,
                                  allow_missing_version=True)
    except ArtifactError as exc:
        raise ArtifactError(
            f"checkpoint {path} is unreadable and checkpoints cannot be "
            f"rebuilt: {exc}") from exc


__all__ = ["write_checkpoint", "read_checkpoint", "restart_simulation",
           "restore_into", "collect_run_state", "restore_run_state",
           "read_run_state"]
