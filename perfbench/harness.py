"""Set-up, measurement window, metrics and checks of one benchmark run.

Imported by run.py once the library's ``src`` directory is on the path.
"""

from __future__ import annotations

import resource
import statistics
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import ops
from tracing import NullTracer, Tracer, layer_api

OPS = ("simulate", "reconstruct", "match")
SETUP_REPEATS = 3
PRIMARY_SHARE = 0.5
# Median time of reference_kernel on the machine of perfbench/README.md.
# Every reported time is in these reference seconds (see HostSpeed).
KERNEL_REF_S = 0.0015


def reference_kernel(a: np.ndarray) -> int:
    """Fixed numpy and interpreter work, independent of the library."""
    np.fft.ifft2(np.fft.fft2(a))
    s = 0
    for i in range(6000):
        s += i * i
    return s


class HostSpeed:
    """The host's current speed, from a reference kernel timed between steps.

    On a shared host the speed drifts by tens of percent over seconds and
    minutes.  Each step's time is divided by the median of the latest few
    kernel times and multiplied by KERNEL_REF_S, which divides the drift
    out: the figures read as on the reference machine.
    """

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((128, 128))
        self._recent = deque(maxlen=5)

    def to_reference(self, seconds: float) -> float:
        t0 = perf_counter()
        reference_kernel(self._a)
        self._recent.append(perf_counter() - t0)
        return seconds * KERNEL_REF_S / statistics.median(self._recent)


@dataclass
class Inputs:
    jobs: list
    recon: object
    match: object


def build_inputs(api, seed: int) -> Inputs:
    scene = ops.build_stereo_scene(api, seed)
    return Inputs(ops.simulate_jobs(seed), ops.reconstruct_inputs(api, scene, seed),
                  ops.match_inputs(api, scene, seed))


class OpState:
    """One operation's progress through the window and its step timings.

    Given a tracer, the operation alternates untraced and traced rounds,
    the first untraced, so that both see the same drift in host speed.
    """

    def __init__(self, op: str, makers: dict, share: float, host: HostSpeed, tracer=None):
        self.op = op
        self.host = host
        self.makers = makers  # traced (bool) -> () -> ops.Round
        self.share = share
        self.tracer = tracer
        self.spent = 0.0
        self.round = None
        self.traced = False
        self.cursor = 0
        self.completed = 0
        # traced -> (metric, key) -> reference seconds, one per round
        self.times = {False: defaultdict(list), True: defaultdict(list)}
        self.raw = defaultdict(list)
        self.work = {}  # (metric, key) -> work done by that step
        self.attempted = 0
        self.failed = 0
        self.last = None  # outputs of the latest complete round

    def step(self) -> None:
        if self.round is None:
            self.traced = self.tracer is not None and self.completed % 2 == 1
            self.round, self.cursor = self.makers[self.traced](), 0
        tr = self.tracer if self.traced else NullTracer()
        if self.tracer is not None:
            self.tracer.recording = self.traced
        t0 = perf_counter()
        with tr.span(f"bench.step.{self.op}"):
            done = self.round.steps[self.cursor]()
        seconds = perf_counter() - t0
        self.spent += seconds
        self.times[self.traced][done.metric, done.key].append(self.host.to_reference(seconds))
        self.raw[done.metric, done.key].append(seconds)
        self.work[done.metric, done.key] = done.work
        self.attempted += done.attempted
        self.failed += done.failed
        self.cursor += 1
        if self.cursor == len(self.round.steps):
            self.last, self.round = self.round.outputs, None
            self.completed += 1

    def rates(self) -> dict[str, float]:
        """Work per second of each metric, from each untraced step's typical time."""
        work, seconds = defaultdict(float), defaultdict(float)
        for (metric, key), times in self.times[False].items():
            work[metric] += self.work[metric, key]
            seconds[metric] += step_time(times)
        return {m: work[m] / seconds[m] for m in work}

    def round_s(self, traced: bool = False) -> float:
        return sum(step_time(t) for t in self.times[traced].values())


def step_time(times: list) -> float:
    """Median of one step's times over the rounds."""
    return statistics.median(times)


def measure(primary: str, api, inputs: Inputs, seconds: float, workdir: Path,
            tracer: Tracer | None = None) -> dict:
    """Interleave the three operations step by step for ``seconds``.

    The workload's own operation gets PRIMARY_SHARE of the time, the other
    two share the rest; the next step goes to the operation furthest below
    its share.  Every operation completes at least one round (two, one of
    them traced, given a tracer), and rounds under way when the time is up
    are finished, so each run attempts whole rounds.  Spreading every
    operation's steps over the whole window lets each one see the same
    drift in machine speed.
    """
    factories = {
        "simulate": lambda api, tr: ops.simulate_round(api, tr, inputs.jobs, workdir),
        "reconstruct": lambda api, tr: ops.reconstruct_round(api, tr, inputs.recon),
        "match": lambda api, tr: ops.match_round(api, tr, inputs.match),
    }
    apis = {False: (api, NullTracer())}
    if tracer is not None:
        apis[True] = (layer_api(tracer), tracer)
    other = (1.0 - PRIMARY_SHARE) / (len(OPS) - 1)
    host = HostSpeed()
    states = {
        op: OpState(op, {t: partial(factories[op], *a) for t, a in apis.items()},
                    PRIMARY_SHARE if op == primary else other, host, tracer)
        for op in OPS
    }
    min_rounds = len(apis)
    t_end = perf_counter() + seconds
    while True:
        over = perf_counter() >= t_end
        live = [s for s in states.values()
                if s.round is not None or s.completed < min_rounds or not over]
        if not live:
            if tracer is not None:
                tracer.recording = False
            return states
        min(live, key=lambda s: s.spent / s.share).step()


def check_outputs(states: dict, inputs: Inputs, api, seed: int) -> checks.Outputs:
    """The latest complete round of each operation, plus the shadow-span render."""
    last = {op: state.last for op, state in states.items()}
    return checks.Outputs(
        last["simulate"]["scenes"], inputs.recon, last["reconstruct"]["results"],
        last["reconstruct"]["grids"], inputs.match, last["match"]["maps"],
        last["match"]["ties"], checks.shadow_span_case(api, seed),
    )


def end_to_end(states: dict, inputs: Inputs) -> dict:
    """Every end-to-end metric but setup_s, right after the window."""
    errors, _ = ops.height_errors(inputs.recon, states["reconstruct"].last["results"])
    values = {k: v for s in states.values() for k, v in s.rates().items()}
    values["height_nmad_m"] = ops.nmad(errors)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def timed_setup(api, seed: int, host: HostSpeed) -> tuple[Inputs, float]:
    """The inputs and their set-up time in reference seconds."""
    t0 = perf_counter()
    inputs = build_inputs(api, seed)
    seconds = perf_counter() - t0
    for _ in range(4):  # fill the host speed's window before reading it
        host.to_reference(0.0)
    return inputs, host.to_reference(seconds)


def per_layer(tr, overhead: float) -> dict:
    """Per-layer figures from the traced rounds' spans and counts."""
    counts = tr.counts

    def med(name):
        return statistics.median(tr.durations(name))

    def rate(count, *names):
        return counts[count] / sum(sum(tr.durations(n)) for n in names)

    values = {
        "scene_sim.make_scene_s": med("scene_sim.make_scene"),
        "scene_sim.render_optical_s": med("scene_sim.render_optical"),
        "scene_sim.render_optical_px_per_s": rate("scene_sim.render_optical.px",
                                                  "scene_sim.render_optical"),
        "scene_sim.render_sar_s": med("scene_sim.render_sar"),
        "scene_sim.render_sar_cells_per_s": rate("scene_sim.render_sar.cells",
                                                 "scene_sim.render_sar"),
        "scene_sim.truth_s": med("scene_sim.ground_truth_correspondences"),
        "scene_sim.truth_points_per_s": rate("scene_sim.truth.points",
                                             "scene_sim.ground_truth_correspondences"),
        "scene_sim.truth_kept_ratio": counts["scene_sim.truth.kept"]
        / counts["scene_sim.truth.points"],
        "raster.save_s": med("raster.save_raster"),
        "raster.load_s": med("raster.load_raster"),
        "raster.mb_per_s": rate("raster.bytes", "raster.save_raster", "raster.load_raster") / 1e6,
        "geometry.sweep_s": med("bench.sweep"),
        "geometry.candidates_per_s": rate("geometry.candidates", "bench.sweep"),
        "intersection.intersect_s": med("intersection.intersect"),
        "intersection.points_per_s": rate("intersection.points", "intersection.intersect"),
        "intersection.iterations_mean": counts["intersection.iterations"]
        / counts["intersection.points"],
        "accuracy.grid_s": med("accuracy.accuracy_grid"),
        "accuracy.cells_per_s": rate("accuracy.cells", "accuracy.accuracy_grid"),
        "similarity.gradient_maps_s": med("similarity.gradient_maps"),
        "similarity.phase_congruency_maps_s": med("similarity.phase_congruency_maps"),
    }
    for m in ops.MEASURES:
        values[f"similarity.{m}_s"] = med(f"bench.{m}")
        values[f"similarity.{m}.top1_ratio"] = (counts[f"similarity.{m}.top1"]
                                                / counts["match.tie_points"])
    for d in ("hog", "sift", "hopc"):
        values[f"similarity.{d}_descriptor_s"] = med(f"similarity.{d}_descriptor")
    traced_s = tr.top_level_seconds()
    for layer, own in tr.layer_self_seconds().items():
        if layer != "bench":
            values[f"{layer}.self_share"] = own / traced_s
    values["trace.overhead_ratio"] = overhead
    return values


def run(args, workdir: Path, out_dir: Path) -> dict:
    """Set up, measure and check one run; returns values, counts and detail."""
    plain = layer_api(NullTracer())
    host = HostSpeed()
    inputs, first = timed_setup(plain, args.seed, host)
    setup_times = [first]

    tracer = Tracer() if args.trace else None
    states = measure(args.workload, plain, inputs, args.seconds, workdir, tracer)
    if tracer is not None:
        own = states[args.workload]
        values = per_layer(tracer, own.round_s(traced=True) / own.round_s() - 1.0)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = end_to_end(states, inputs)
        # the repeats come after the window, so that the median of the
        # set-up times spans the run's drift in host speed
        setup_times += [timed_setup(plain, args.seed, host)[1]
                        for _ in range(SETUP_REPEATS - 1)]
        values["setup_s"] = statistics.median(setup_times)

    failures = checks.run_suite(plain, args.seed,
                                check_outputs(states, inputs, plain, args.seed))
    for name, message in failures.items():
        print(f"check {name} failed: {message}", file=sys.stderr)

    return {
        "values": values,
        "correct": not failures,
        "attempted": sum(s.attempted for s in states.values()),
        "failed": sum(s.failed for s in states.values()),
        "detail": {
            "check_failures": failures,
            "setup_s": setup_times,
            "rounds": {op: s.completed for op, s in states.items()},
            "step_s": {f"{op}.{key}{'.traced' * traced}": t for op, s in states.items()
                       for traced, by_key in s.times.items() for (_, key), t in by_key.items()},
            "raw_s": {f"{op}.{key}": t for op, s in states.items() for (_, key), t in s.raw.items()},
        },
    }
