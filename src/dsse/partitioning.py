"""Vertex-cut partitioning at PMU buses and sparsity-mask construction.

Removing the PMU buses splits the radial feeder into components; each
component plus its adjacent PMU buses is one partition (PMU buses belong
to every partition they border). An edge joining two PMU buses that share
no component forms its own two-bus partition so every branch lives in at
least one partition.

Depth bookkeeping:

* ``hop_diameter`` -- max hop distance inside the partition. It bounds how
  many weight layers information needs to cross the partition, so it
  drives the off-diagonal mask lifetime.
* ``diameter`` -- the partition's resolution depth: equal to hop_diameter,
  except that a multi-bus partition containing a non-PMU bus gets a floor
  of 2 (one layer to reach the PMU-anchored information, one to refine the
  local estimate). A bus's output is emitted after the deepest partition
  containing it resolves. On the six-bus example with a PMU at the fourth
  bus this yields depths [3, 2, 2], a three-layer network, and masks whose
  second layer drops exactly the four PMU-to-leaf connections while the
  leaves keep their diagonal refinement entries.

A plan is one integer matrix ``life``: ``life[i, j]`` is the last layer at
which bus j feeds bus i (the largest hop diameter of a partition holding
both; a bus's exit layer on the diagonal; zero where no branch joins i and
j). ``MaskPlan`` derives all else from it once: layer t's mask is
``life >= t``, the depth its largest entry, the exit layers its diagonal.
The unpruned plan sets every live entry to the network depth.
Two functions serve a network's panel layout and read no plan: ``rcm_order``,
a reverse Cuthill-McKee bus order (Cuthill & McKee, 1969; file order if no
narrower), and ``least_cost_cut``, the cheapest cut of a mask into panels.
``export_mask_plan`` writes each layer's live entries as sorted (layer, i, j)
triplets, so a pair's deepest listed layer is its lifetime.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from dsse.grid_model import FeederModel

BLOCK_WIDTH = 8  # default hidden channels per bus


@dataclass(frozen=True)
class Partition:
    buses: frozenset
    pmus: frozenset  # boundary PMU buses contained in this partition


class MaskPlan:
    """Layered bus-granularity sparsity, all of it read from ``life``.

    ``life`` is the lifetime matrix (module docstring), ``block_width`` the
    hidden channel count per bus. Derived once here: ``adjacency``
    (``life > 0``), ``depth`` (the largest lifetime), ``masks[t-1]``
    (``life >= t``, gating the weight matrix feeding layer ``t``; layer 0 is
    the input), ``exit_layer`` (the diagonal: the layer whose activations
    feed bus b's readout). ``life`` must be symmetric, so a network can cut
    a mask by rows and use the cut for its columns.
    """

    def __init__(self, life, block_width: int, pruned: bool):
        life = np.array(life, dtype=int)
        if (life.ndim != 2 or len(life) != len(life.T) or (life != life.T).any()
                or (life < 0).any() or 0 in life.diagonal()):
            raise ValueError("life must be symmetric and non-negative with a positive diagonal")
        if block_width < 1:
            raise ValueError("block_width must be >= 1")
        life.flags.writeable = False
        self.life = life
        self.n_buses = len(life)
        self.block_width = block_width
        self.pruned = bool(pruned)
        self.adjacency = life > 0
        self.depth = int(life.max())
        self.masks = [life >= t for t in range(1, self.depth + 1)]
        self.exit_layer = life.diagonal().copy()

    def signature(self) -> str:
        payload = json.dumps(
            {
                "adjacency": self.adjacency.astype(int).tolist(),
                "masks": [m.astype(int).tolist() for m in self.masks],
                "exit_layer": self.exit_layer.tolist(),
                "block_width": self.block_width,
                "pruned": self.pruned,
            }
        ).encode()
        return hashlib.sha256(payload).hexdigest()


def rcm_order(adjacency) -> np.ndarray:
    """Reverse Cuthill-McKee order of a symmetric pattern: from each least
    connected node not yet reached, a breadth-first search that visits
    neighbours by increasing degree (ties by index); the visit order,
    reversed. File order where that is no wider a band."""
    adj = np.array(adjacency, dtype=bool)
    np.fill_diagonal(adj, False)
    neighbours = [np.flatnonzero(row).tolist() for row in adj]
    degree = [len(n) for n in neighbours]
    seen, order = set(), []
    for start in sorted(range(len(adj)), key=degree.__getitem__):
        queue = [] if start in seen else [start]
        seen.add(start)
        for u in queue:  # grows as it is read
            new = sorted(set(neighbours[u]) - seen, key=lambda v: (degree[v], v))
            seen.update(new)
            queue += new
        order += queue
    orders = np.array(order[::-1], dtype=int), np.arange(len(adj))
    band = [np.ptp(np.nonzero(adj[np.ix_(o, o)]), axis=0).max(initial=0) for o in orders]
    return orders[int(band[1] <= band[0])]


def least_cost_cut(mask, area_cost, run_cost) -> tuple:
    """The cut of the bool ``mask``'s live rows into runs that minimises
    ``area_cost`` times the total area of their bounding rectangles plus
    ``run_cost`` per run, as (row start, row stop, column start, column stop)
    tuples. A run spans its first live row to its last, its first live
    column to its last. Costs are whole numbers below 2**53, so float64 sums
    them exactly."""
    rows, width = np.flatnonzero(mask.any(axis=1)), mask.shape[1]
    m, live = len(rows), mask[rows]
    later = np.arange(m) >= np.arange(m)[:, None]  # [i, j]: run i..j of live rows
    lo = np.minimum.accumulate(np.where(later, live.argmax(axis=1), width), axis=1)
    hi = np.maximum.accumulate(np.where(later, width - live[:, ::-1].argmax(axis=1), 0), axis=1)
    cost = np.where(later, (rows + 1 - rows[:, None]) * (hi - lo) * float(area_cost) + run_cost,
                    np.inf)
    # best[j]: the least cost of the first j live rows; start[j]: where its last run begins
    best, start = np.zeros(m + 1), [0] * (m + 1)
    for j in range(1, m + 1):
        total = best[:j] + cost[:j, j - 1]
        start[j] = int(total.argmin())
        best[j] = total[start[j]]
    cut, j = [], m
    while j:
        i = start[j]
        cut.append((int(rows[i]), int(rows[j - 1]) + 1, int(lo[i, j - 1]), int(hi[i, j - 1])))
        j = i
    return tuple(cut[::-1])


@dataclass(frozen=True)
class ParamCount:
    pawnn_params: int
    p2n2_params: int


def partition_at_pmus(model: FeederModel, pmu_buses) -> list:
    """Split the feeder at its PMU buses (vertex cut)."""
    pmu_set = set(model.pmu_placement(pmu_buses))

    partitions = []
    seen = set()
    for start in range(model.n_buses):
        if start in seen or start in pmu_set:
            continue
        comp = {start}
        boundary = set()
        stack = [start]
        while stack:
            u = stack.pop()
            for v in model.neighbors(u):
                if v in pmu_set:
                    boundary.add(v)
                elif v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        partitions.append(
            Partition(buses=frozenset(comp | boundary), pmus=frozenset(boundary))
        )
    # PMU-PMU edges form their own partitions so every branch is covered
    for br in model.branches:
        if br.from_bus in pmu_set and br.to_bus in pmu_set:
            pair = frozenset({br.from_bus, br.to_bus})
            partitions.append(Partition(buses=pair, pmus=pair))
    # isolated single-bus feeder with a PMU
    covered = set().union(*(p.buses for p in partitions)) if partitions else set()
    for b in range(model.n_buses):
        if b not in covered:
            partitions.append(Partition(buses=frozenset({b}), pmus=frozenset({b} & pmu_set)))
    return partitions


def _hop_diameter(model: FeederModel, buses: frozenset) -> int:
    """Max hop distance inside ``buses``, which must induce a subtree of the
    feeder (every partition does). Two sweeps: the bus farthest from any
    start ends a longest path, and the farthest distance from it is the
    diameter."""

    def farthest(a):
        dist = {a: 0}
        stack = [a]
        while stack:
            u = stack.pop()
            for v in model.neighbors(u):
                if v in buses and v not in dist:
                    dist[v] = dist[u] + 1
                    stack.append(v)
        return max(dist.items(), key=lambda item: item[1])

    end, _ = farthest(next(iter(buses)))
    return farthest(end)[1]


def resolution_depth(model: FeederModel, part: Partition, hop: int | None = None) -> int:
    """Layer index after which the partition's buses are fully resolved;
    ``hop`` is the partition's hop diameter when the caller has it."""
    hop = _hop_diameter(model, part.buses) if hop is None else hop
    if len(part.buses) == 1:
        return 0
    if part.buses == part.pmus:
        return hop
    return max(hop, 2)


def build_mask_plan(
    model: FeederModel,
    partitions,
    block_width: int = BLOCK_WIDTH,
    prune: bool = True,
) -> MaskPlan:
    """Masks and output routing built from the lifetime matrix ``life``
    (module docstring); ``prune=False`` gives the unpruned variant."""
    hops = [_hop_diameter(model, p.buses) for p in partitions]
    life = np.eye(model.n_buses, dtype=int)  # every bus exits at layer 1 or later
    for part, hop in zip(partitions, hops):
        idx = list(part.buses)
        block = np.ix_(idx, idx)
        life[block] = np.maximum(life[block], hop)
        life[idx, idx] = np.maximum(life[idx, idx], resolution_depth(model, part, hop))
    if not prune:
        life[:] = life.max()
    life *= model.adjacency_pattern()
    return MaskPlan(life, block_width, prune)


def count_params(plan: MaskPlan) -> ParamCount:
    """Unmasked weight + bias counts for the pruned plan and its unpruned twin.

    Each live bus pair of a layer is an F x F block, each bus with a live
    pair in its row F biases: p2n2 has F^2 * sum(life) + F * sum_i max_j
    life[i, j], pawnn depth * (F^2 * nnz(life) + F * N). This is a plan
    size, not the network's trainable count: the input layer really has
    F weights per pair for each input cell, and the readout is left out. At
    F = 8 the 13-bus p2n2 plan (PMUs at buses 1 and 12) reads 14,832 where
    the network ``train`` returns has 14,615 live parameters (``len(net.live)``;
    18,071 over all 18 cells per bus), and the 6-bus plan (PMU at bus 4)
    2,560 against 2,946 (4,002).
    """
    f, life = plan.block_width, plan.life
    pawnn = plan.depth * (f * f * np.count_nonzero(life) + f * plan.n_buses)
    p2n2 = f * f * life.sum() + f * life.max(axis=1).sum()
    return ParamCount(pawnn_params=int(pawnn), p2n2_params=int(p2n2))


def _plan_doc(plan: MaskPlan) -> dict:
    """Portable sparse form: per-layer (layer, i, j) triplets of the live mask
    entries, in sorted order, plus routing."""
    return {
        "n_buses": plan.n_buses,
        "depth": plan.depth,
        "block_width": plan.block_width,
        "pruned": plan.pruned,
        "exit_layer": plan.exit_layer.tolist(),
        "entries": [
            [t + 1, int(i), int(j)]
            for t, mask in enumerate(plan.masks)
            for i, j in zip(*np.nonzero(mask))
        ],
    }


def export_mask_plan(plan: MaskPlan, path) -> None:
    with open(path, "w") as fh:
        json.dump(_plan_doc(plan), fh, indent=1)

