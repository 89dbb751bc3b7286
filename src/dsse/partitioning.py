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
j), and layer t's mask is ``life >= t``. The unpruned plan sets every live
entry and every exit layer to the network depth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from dsse.grid_model import FeederModel


@dataclass(frozen=True)
class Partition:
    buses: frozenset
    pmus: frozenset  # boundary PMU buses contained in this partition

    def __contains__(self, bus):
        return bus in self.buses


@dataclass
class MaskPlan:
    """Per-layer bus-granularity sparsity masks plus output routing.

    ``masks[t-1]`` gates the weight matrix feeding layer ``t`` (layer 0 is
    the input); ``exit_layer[b]`` is the layer whose activations feed bus
    b's readout; ``block_width`` is the hidden channel count per bus.
    """

    adjacency: np.ndarray  # bool (N, N)
    depth: int
    masks: list  # depth bool arrays (N, N)
    exit_layer: np.ndarray  # int (N,)
    block_width: int
    pruned: bool

    @property
    def n_buses(self) -> int:
        return self.adjacency.shape[0]

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


@dataclass(frozen=True)
class ParamCount:
    pawnn_params: int
    p2n2_params: int


def partition_at_pmus(model: FeederModel, pmu_buses) -> list:
    """Split the feeder at its PMU buses (vertex cut)."""
    pmus = sorted(set(pmu_buses))
    if not pmus:
        raise ValueError("pmu_buses must be non-empty")
    for b in pmus:
        if not 0 <= b < model.n_buses:
            raise KeyError(f"invalid pmu bus id {b}")
    pmu_set = set(pmus)

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


def partition_diameters(partitions, model: FeederModel) -> list:
    """Per-partition resolution depth (hop diameter with the non-PMU floor)."""
    return [resolution_depth(model, p) for p in partitions]


def build_mask_plan(
    model: FeederModel,
    partitions,
    block_width: int = 8,
    prune: bool = True,
) -> MaskPlan:
    """Masks and output routing built from the lifetime matrix ``life``
    (module docstring); ``prune=False`` gives the unpruned variant."""
    if block_width < 1:
        raise ValueError("block_width must be >= 1")
    n = model.n_buses
    adjacency = model.adjacency_pattern()
    hops = [_hop_diameter(model, p.buses) for p in partitions]
    depths = [resolution_depth(model, p, hop) for p, hop in zip(partitions, hops)]
    depth = max(1, max(depths, default=1))

    life = np.zeros((n, n), dtype=int)
    exit_layer = np.ones(n, dtype=int)
    for part, hop, d in zip(partitions, hops, depths):
        idx = list(part.buses)
        block = np.ix_(idx, idx)
        life[block] = np.maximum(life[block], hop)
        exit_layer[idx] = np.maximum(exit_layer[idx], d)
    np.fill_diagonal(life, exit_layer)
    if not prune:
        life[:] = depth
        exit_layer[:] = depth
    life *= adjacency
    return MaskPlan(
        adjacency=adjacency,
        depth=depth,
        masks=[life >= t for t in range(1, depth + 1)],
        exit_layer=exit_layer,
        block_width=block_width,
        pruned=bool(prune),
    )


def count_params(plan: MaskPlan) -> ParamCount:
    """Unmasked weight + bias counts for the pruned plan and its unpruned twin.

    Each allowed bus pair contributes an F x F block; each bus with any
    allowed incoming entry at a layer contributes F biases. This is a plan
    size, not the network's trainable count: the input layer really has
    F x 18 weights per pair, and the readout is left out. At F = 8 the
    13-bus p2n2 plan (PMUs at buses 1 and 12) reads 14,832 where the network
    trains 18,071 live parameters (``len(net.live)``), and the 6-bus plan
    (PMU at bus 4) 2,560 against 4,002.
    """
    f = plan.block_width

    def layer_params(mask):
        weights = int(mask.sum()) * f * f
        biases = int(mask.any(axis=1).sum()) * f
        return weights + biases

    pawnn = plan.depth * layer_params(plan.adjacency)
    pruned = sum(layer_params(m) for m in plan.masks)
    return ParamCount(pawnn_params=pawnn, p2n2_params=pruned)


def export_mask_plan(plan: MaskPlan, path) -> None:
    """Portable sparse export: per-layer (layer, from, to) triplets + routing."""
    doc = {
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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_mask_plan(path) -> MaskPlan:
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["n_buses"]
    masks = [np.zeros((n, n), dtype=bool) for _ in range(doc["depth"])]
    for t, i, j in doc["entries"]:
        masks[t - 1][i, j] = True
    adjacency = masks[0].copy()
    return MaskPlan(
        adjacency=adjacency,
        depth=doc["depth"],
        masks=masks,
        exit_layer=np.array(doc["exit_layer"], dtype=int),
        block_width=doc["block_width"],
        pruned=doc["pruned"],
    )
