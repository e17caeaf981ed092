"""Workload inputs: the experiment configs each workload runs, made from a seed.

Only the standard library is used, so the parent process can rebuild the
inputs for its reference checks without importing the program. A seed moves
each input only inside a band where every check in ``checks.py`` holds (see
README.md for the bands and why they are narrow).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("pair-operator-scan", "condensate-continuity", "pair-states")

# Poschl-Teller depth band: the two-body threshold error grows as the depth
# drops (3.3% at depth 1.2 against a 3% check) and the pair-state energy
# exponent falls as it rises (0.53 at depth 3.5), so the band stays near 2.
DEPTH_BAND = (1.9, 2.1)

# condensate-continuity disk: fixed grid, centre jittered by under half a cell
DISK_RADIUS = 1.5
DISK_HALF_BOX = 1.85
DISK_N = 81
DISK_ELL_CELLS = (2, 3, 4)
SLIT_N = 81
SLIT_HALF_BOX = 1.2
SLIT_ELL_CELLS = (2, 3, 4)

# the narrow-well onset probe: a well on odd node 1001 of a 4001-node interval
PROBE_N = 4001
PROBE_W = {"kind": "bump", "height": -2e4, "center": 0.25025, "width": 1e-4}

# pair-states domain: the interval (0, 4) on a padded 600-node grid
PAIR_A, PAIR_B, PAIR_MARGIN, PAIR_N = 0.0, 4.0, 0.05, 600
PAIR_H_LIST = [0.1, 0.07, 0.05]


@dataclass
class Op:
    """One experiment run: ``cli.run(experiment, config, out_dir)``."""

    name: str
    experiment: str
    config: dict
    known_fault: bool = False
    files: dict = field(default_factory=dict)  # file name -> text


@dataclass
class Inputs:
    workload: str
    params: dict  # the seeded values, for the reference checks
    ops: list


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _depth(rng: random.Random) -> float:
    return rng.uniform(*DEPTH_BAND)


def disk_grid() -> tuple:
    """(lower, upper, n, spacing) of the disk's fixed square grid."""
    lo, up = -DISK_HALF_BOX, DISK_HALF_BOX
    return lo, up, DISK_N, (up - lo) / (DISK_N - 1)


def disk_inside(center) -> list:
    """Row-major inside flags of the disk on its grid (node-centre rule)."""
    lo, up, n, dx = disk_grid()
    axis = [lo + k * dx for k in range(n)]
    axis[-1] = up
    cx, cy = center
    r2 = DISK_RADIUS**2
    return [(x - cx) ** 2 + (y - cy) ** 2 < r2 for x in axis for y in axis]


def mask_json(inside: list, lower, upper, n) -> str:
    """Portable mask file: run lengths of the flat inside flags, starting
    with the count of outside nodes."""
    runs, current, count = [], False, 0
    for bit in inside:
        if bit == current:
            count += 1
        else:
            runs.append(count)
            current, count = bit, 1
    runs.append(count)
    return json.dumps({"dim": len(n), "lower": list(lower), "upper": list(upper),
                       "n": list(n), "inside": runs})


def _pair_operator_scan(rng) -> tuple:
    depth = _depth(rng)
    pot = {"kind": "poschl_teller", "depth": depth}
    cfg = {"potential": pot, "a": 0.0, "b": 1.0,
           "h_list": [0.07, 0.05, 0.035],
           "micro_step": 0.125, "q": 1.5}
    return {"depth": depth}, [Op("twobody-scan", "twobody-scan", cfg)]


def _condensate_continuity(rng) -> tuple:
    lo, up, n, dx = disk_grid()
    center = (rng.uniform(-0.5, 0.5) * dx, rng.uniform(-0.5, 0.5) * dx)
    disk_file = mask_json(disk_inside(center), (lo, lo), (up, up), (n, n))
    disk = {"domain": {"mask_file": "disk_mask.json"}, "w": None,
            "D_offset": 1.0, "g": 1.0,
            "ells": [k * dx for k in DISK_ELL_CELLS]}
    sdx = 2 * SLIT_HALF_BOX / (SLIT_N - 1)
    slit = {"domain": {"builtin": "slit_square", "n": SLIT_N}, "w": None,
            "D_offset": 1.0, "g": 1.0,
            "ells": [k * sdx for k in SLIT_ELL_CELLS]}
    probe = {"domain": {"builtin": "interval", "a": 0.0, "b": 1.0, "n": PROBE_N},
             "w": dict(PROBE_W)}
    ops = [
        Op("continuity-disk", "continuity", disk,
           files={"disk_mask.json": disk_file}),
        Op("continuity-slit", "continuity", slit),
        Op("dc-narrow-well", "dc", probe, known_fault=True),
    ]
    return {"disk_center": center}, ops


def _pair_states(rng) -> tuple:
    depth = _depth(rng)
    pot = {"kind": "poschl_teller", "depth": depth}
    dom = {"builtin": "interval", "a": PAIR_A, "b": PAIR_B, "n": PAIR_N,
           "margin": PAIR_MARGIN}
    ops = [
        Op("relative", "relative", {"potential": pot, "L": 20.0, "n": 4001}),
        Op("bcs-trial", "bcs-trial",
           {"domain": dom, "w": None, "potential": pot, "D": 2.0, "q": 1.5,
            "amplitude": 0.3, "h_list": PAIR_H_LIST}),
        Op("density", "density",
           {"domain": dom, "w": None, "potential": pot, "D_offset": 1.0,
            "q": 1.5, "h_list": PAIR_H_LIST}),
        Op("semiclassics", "semiclassics",
           {"domain": dom,
            "w": {"kind": "bump", "height": 10.0, "center": 2.0, "width": 0.5},
            "potential": pot, "D": 1.0, "q": 1.0, "amplitude": 0.5,
            "h_list": PAIR_H_LIST}),
    ]
    return {"depth": depth}, ops


_BUILDERS = {
    "pair-operator-scan": _pair_operator_scan,
    "condensate-continuity": _condensate_continuity,
    "pair-states": _pair_states,
}


def make(workload: str, seed: int) -> Inputs:
    """The workload's experiments for this seed; same seed, same inputs."""
    params, ops = _BUILDERS[workload](_rng(workload, seed))
    return Inputs(workload, params, ops)


def write(inputs: Inputs, directory: str) -> list:
    """Write each op's config (and extra files) under ``directory``; returns
    the configs as the program will read them, with file paths made
    absolute."""
    os.makedirs(directory, exist_ok=True)
    configs = []
    for op in inputs.ops:
        for fname, text in op.files.items():
            with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        cfg = json.loads(json.dumps(op.config))
        dom = cfg.get("domain", {})
        if "mask_file" in dom:
            dom["mask_file"] = os.path.join(directory, dom["mask_file"])
        path = os.path.join(directory, f"{op.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1)
        with open(path, encoding="utf-8") as fh:
            configs.append(json.load(fh))
    return configs
