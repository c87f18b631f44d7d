"""One benchmark process: a fresh interpreter over one cache root.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and ``XDG_CACHE_HOME`` at the cache root, so a cold
pass pays what a cold user pays: the electron EOS table load and empty
worklog, replay and trace stores.  Modes:

``--mode setup``  import the program, create the cache root and put the
                  inputs in place, then time the host probe;
``--mode build``  record the quick worklogs that ``report`` reads;
``--mode cold``   run the workload's experiment over the new root, then
                  once more over the now-warm root (the warm pass);
``--mode trace``  the same with the layer wrappers installed.

The last stdout line is one JSON object with the iteration's results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

#: outputs recorded from the seed code (quick mode, serial replay)
REFERENCE = {
    "supernova2d_sha256":
        "e7cd3e84cefd079a9765f8ddce3fabcb93bbbee4560aab1f910ef0667def7c64",
    "sedov3d_sha256":
        "0428111288b1f81ae6f16f01898c82dbc61db989ace7acdc9906616b8fc12fc1",
    "report_sha256":
        "ee52d4528c2c70448256c6fe43126efb3b6d926e1f9125087f6eac0857ad954c",
    "eos_digest":
        "d8b1123d9c837b77485b443673edf5df7c1563c62d7a18df7f1a883dbe07486e",
    "hydro_digest":
        "cddc3de576e6569c1598b903d31b25defc9c2b33d1bd06ba5e9296f5aa8a648f",
}

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """A fixed piece of work timed around the passes, to read host speed.

    On a shared host the same interpreter-bound pass runs up to 40%
    slower from one minute to the next, and a process's whole run shifts
    with it.  The probe (integer arithmetic in the interpreter plus NumPy
    sorts) drifts the same way, so ``run.py`` divides every set-up time,
    and the pass times of the workloads that follow it
    (``run.WORKLOADS``), by its time.  It
    keeps no Python objects alive: its two 8 MiB arrays go back to the
    system when freed.
    """

    REPEATS = 3

    def __init__(self, enabled: bool) -> None:
        """An enabled probe samples once now, before the passes."""
        self.enabled = enabled
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        if not self.enabled:
            return
        array = np.arange(1_000_000, dtype=np.float64)[::-1].copy()
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            total = 0
            for i in range(150_000):
                total += i * i
            for _ in range(3):
                np.sort(array)
            self.samples.append(time.perf_counter() - t0)

    def doc(self) -> dict:
        """``probe_s``, the median sample, when the probe is enabled."""
        return ({"probe_s": statistics.median(self.samples)}
                if self.enabled else {})


def place_inputs(root: Path, workload: str, inputs: Path | None) -> None:
    """Create the cache root and copy the workload's inputs into it."""
    worklogs = root / "repro" / "worklogs"
    worklogs.mkdir(parents=True)
    if workload == "report":
        for path in sorted(inputs.iterdir()):
            shutil.copyfile(path, worklogs / path.name)


def _import_program() -> None:
    """Import the modules the workloads drive, so no timed pass pays for
    an import the experiments defer to their first call."""
    import repro.experiments.geometry  # noqa: F401
    import repro.experiments.porting  # noqa: F401
    import repro.experiments.registry  # noqa: F401
    import repro.experiments.report  # noqa: F401


def _zone_updates(log) -> int:
    """Leaf-zone updates: leaf slots x zones per block, over all steps."""
    return sum(len(rec.slots) for rec in log.steps) * log.zones_per_block


class _Op:
    """One checked user action: its wall and whether its output held."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_s: float | None = None
        self.errors: list[str] = []

    def check(self, what: str, got: str, want: str) -> None:
        if got != want:
            self.errors.append(f"{what}: got {got}, want {want}")

    def doc(self) -> dict:
        return {"name": self.name, "wall_s": self.wall_s,
                "ok": not self.errors, "errors": self.errors}


def _session_counts(sessions) -> dict[str, float]:
    stats = [s.stats for s in sessions]
    configs = sum(s.configs for s in stats)
    replays = sum(s.replays for s in stats)
    out = {
        "perfmodel.session.configs": configs,
        "perfmodel.session.replays": replays,
        "perfmodel.session.memory_hits": sum(s.memory_hits for s in stats),
        "perfmodel.session.disk_hits": sum(s.disk_hits for s in stats),
        "perfmodel.session.synthesis_count":
            sum(s.synthesis_count for s in stats),
        "perfmodel.session.trace_store_hits":
            sum(s.trace_store_hits for s in stats),
        "perfmodel.session.replays_per_config":
            replays / configs if configs else 0.0,
    }
    last = sessions[-1]
    store = last.store.describe() if last.store is not None else {}
    tstore = (last.trace_store.describe()
              if last.trace_store is not None else {})
    out["perfmodel.store.entries"] = store.get("entries", 0)
    out["perfmodel.store.bytes"] = store.get("size_bytes", 0)
    out["perfmodel.tracestore.bytes"] = tstore.get("size_bytes", 0)
    return out


#: workload -> (experiment run cold, worklogs it records or reads)
_ACTIONS = {
    "sedov3d": ("table2", ("hydro",)),
    "supernova2d": ("table1", ("eos",)),
    "report": ("all", ("eos", "hydro")),
}


class Workload:
    """The workload's experiment, timed, checked, optionally traced.

    The cold pass runs at program defaults, through the process-wide
    replay session, over the empty cache root.  A warm pass is the
    user's next run of the same command over the now-warm root, from a
    new ``ReplaySession``.
    """

    def __init__(self, name: str, tracer=None) -> None:
        from repro.experiments.registry import experiment
        self.name = name
        experiment_name, self.problems = _ACTIONS[name]
        self.run = experiment(experiment_name).run
        self.tracer = tracer
        self.ops: list[_Op] = []
        self.sessions = []

    def one(self, pass_name: str, cold_sha256: str) -> str:
        """One pass; its text must match the reference and the cold text."""
        op = _Op(pass_name)
        self.ops.append(op)
        action = lambda: self.run(quick=True)  # noqa: E731
        try:
            if self.tracer is None:
                t0 = time.perf_counter()
                text = action()
                op.wall_s = time.perf_counter() - t0
            else:
                text, op.wall_s = self.tracer.run_pass(pass_name, action)
        except Exception:  # noqa: BLE001 -- reported as a failed op
            op.errors.append(traceback.format_exc())
            return ""
        op.check("text sha256", _sha256(text),
                 REFERENCE[f"{self.name}_sha256"])
        if pass_name == "warm":
            op.check("warm text vs cold text", _sha256(text), cold_sha256)
        return text

    def cold(self) -> dict:
        from repro.core import unit_registry
        from repro.driver.simulation import Simulation
        from repro.perfmodel.session import default_session

        # host seconds inside Simulation.evolve: a handful of calls per
        # run, so timing them costs nothing measurable untraced
        evolve_s = []
        evolve = Simulation.evolve

        def timed_evolve(sim, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return evolve(sim, *args, **kwargs)
            finally:
                evolve_s.append(time.perf_counter() - t0)

        Simulation.evolve = timed_evolve
        try:
            self.sessions.append(default_session())
            text = self.one("cold", "")
        finally:
            Simulation.evolve = evolve

        counts = {"mesh.refine.leaf_blocks_final": 0,
                  "physics.eos.newton_iters": 0, "zone_updates": 0,
                  "evolve_s": None}
        if self.ops[0].wall_s is None:  # raised: skip the rebuild
            return {"text_sha256": "", "counts": counts}
        for problem in self.problems:
            log = unit_registry.workload(problem).builder(quick=True)
            self.ops[0].check(f"{problem} worklog digest", log.digest(),
                              REFERENCE[f"{problem}_digest"])
            counts["zone_updates"] += _zone_updates(log)
            if evolve_s:
                counts["mesh.refine.leaf_blocks_final"] = len(
                    log.steps[-1].slots)
                counts["physics.eos.newton_iters"] = sum(
                    inv.newton_iterations for rec in log.steps
                    for inv in rec.invocations)
        # evolve runs only in the physics workloads; the report prices
        # recorded zone updates, so its rate is per second of its wall
        counts["evolve_s"] = sum(evolve_s) if evolve_s else self.ops[0].wall_s
        return {"text_sha256": _sha256(text), "counts": counts}

    def warm(self, cold_sha256: str) -> None:
        from repro.perfmodel.session import ReplaySession, session_scope
        self.sessions.append(ReplaySession())
        with session_scope(self.sessions[-1]):
            self.one("warm", cold_sha256)


def build_inputs() -> None:
    """Record both quick worklogs into the (empty) cache root."""
    from repro.core import unit_registry
    for problem in _ACTIONS["report"][1]:
        unit_registry.workload(problem).builder(quick=True)


def environment() -> dict:
    import os
    import platform

    import scipy

    from repro.perfmodel.parallel import resolve_jobs
    from repro.perfmodel.pipeline import resolve_engine
    return {"cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "replay_jobs": resolve_jobs(), "engine": resolve_engine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "build", "cold", "trace"))
    parser.add_argument("--workload", required=True, choices=tuple(_ACTIONS))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--probe", action="store_true",
                        help="time the host probe around the passes")
    args = parser.parse_args(argv)

    _import_program()
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"repro imported from {repro.__file__}, not {args.src}",
              file=sys.stderr)
        return 1
    out: dict = {}
    if args.mode == "build":
        args.root.mkdir(parents=True)
        build_inputs()
    elif args.mode in ("cold", "trace"):
        place_inputs(args.root, args.workload, args.inputs)
        tracer = None
        if args.mode == "trace":
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
        probe = HostProbe(args.probe)
        workload = Workload(args.workload, tracer)
        out = workload.cold()
        out["peak_rss_mib"] = _peak_rss_mib()  # before the probe's arrays
        probe.sample()
        out.update(probe.doc())
        workload.warm(out["text_sha256"])
        if tracer is not None:
            out["counts"].update(_session_counts(workload.sessions))
            out["layers"] = tracer.passes
            out["coverage_failures"] = tracer.coverage_failures(
                args.workload)
        out["ops"] = [op.doc() for op in workload.ops]
        out["environment"] = environment()
    else:
        place_inputs(args.root, args.workload, args.inputs)
        # the monotonic clock is system-wide: run.py subtracts the time
        # it started this process, so the set-up excludes the probe
        out["ready_at"] = time.monotonic()
        out.update(HostProbe(True).doc())
    out.setdefault("peak_rss_mib", _peak_rss_mib())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
