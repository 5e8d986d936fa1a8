"""Exact search and a greedy baseline, for verification at small scale."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph, NodeSet

EXACT_CAP = 64
ENUMERATE_CAP = 16


class TooLarge(InputError):
    """Instance exceeds the exact-search size cap."""


@dataclass(frozen=True)
class OracleResult:
    optimum_size: int
    one_optimum: NodeSet
    all_optima: tuple[NodeSet, ...] | None = None


def greedy_min_degree(g: Graph) -> NodeSet:
    """Repeatedly take a minimum-residual-degree node and drop its closed
    neighborhood. Ties go to the lowest index, so the output is fixed."""
    alive = np.ones(g.n, dtype=bool)
    deg = g.degrees.copy()
    chosen: list[int] = []
    remaining = g.n
    sentinel = np.iinfo(deg.dtype).max
    while remaining:
        v = int(np.argmin(np.where(alive, deg, sentinel)))
        chosen.append(v)
        drop = [v] + [int(u) for u in g.neighbors(v) if alive[u]]
        for u in drop:
            alive[u] = False
            for w in g.neighbors(u):
                if alive[w]:
                    deg[w] -= 1
        remaining -= len(drop)
    return NodeSet.of(chosen)


def _adjacency_masks(g: Graph) -> list[int]:
    masks = []
    for v in range(g.n):
        acc = 0
        for u in g.neighbors(v):
            acc |= 1 << int(u)
        masks.append(acc)
    return masks


def _mask_nodes(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return tuple(out)


def _independent_mask(adj: list[int], mask: int) -> bool:
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if adj[v] & mask:
            return False
    return True


def exact_mis(g: Graph, enumerate_all: bool = False) -> OracleResult:
    """Provably optimal independent set by branch and bound over bitmasks.

    Branches on a maximum-residual-degree node (lowest index on ties),
    seeds the bound with the greedy set, and folds in residual-degree <= 1
    nodes without branching. With enumerate_all, additionally sweeps all
    2^n subsets to list every optimum and cross-checks the two routes.
    """
    if g.n > EXACT_CAP:
        raise TooLarge(f"n={g.n} exceeds the exact-search cap {EXACT_CAP}")
    if enumerate_all and g.n > ENUMERATE_CAP:
        raise TooLarge(f"n={g.n} exceeds the enumeration cap {ENUMERATE_CAP}")
    adj = _adjacency_masks(g)
    seed = greedy_min_degree(g)
    best_size = seed.size
    best_mask = 0
    for v in seed:
        best_mask |= 1 << v

    def expand(size: int, mask: int, cand: int) -> None:
        nonlocal best_size, best_mask
        while cand:  # absorb nodes of residual degree <= 1, lowest first
            absorbed = False
            rest = cand
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                nb = adj[v] & cand
                if nb.bit_count() <= 1:
                    size += 1
                    mask |= 1 << v
                    cand &= ~(nb | (1 << v))
                    absorbed = True
                    break
            if not absorbed:
                break
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_size, best_mask = size, mask
            return
        top_v, top_d = -1, -1
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adj[v] & cand).bit_count()
            if d > top_d:
                top_v, top_d = v, d
        expand(size + 1, mask | (1 << top_v), cand & ~(adj[top_v] | (1 << top_v)))
        expand(size, mask, cand & ~(1 << top_v))

    expand(0, 0, (1 << g.n) - 1)
    one = NodeSet(_mask_nodes(best_mask))

    all_optima: tuple[NodeSet, ...] | None = None
    if enumerate_all:
        sweep_best = 0
        masks: list[int] = [0]
        for mask in range(1, 1 << g.n):
            if not _independent_mask(adj, mask):
                continue
            size = mask.bit_count()
            if size > sweep_best:
                sweep_best, masks = size, [mask]
            elif size == sweep_best:
                masks.append(mask)
        if sweep_best != best_size:
            raise RuntimeError(
                f"search found {best_size} but enumeration found {sweep_best}"
            )
        all_optima = tuple(
            sorted((NodeSet(_mask_nodes(m)) for m in masks), key=lambda s: s.members)
        )
    return OracleResult(optimum_size=best_size, one_optimum=one, all_optima=all_optima)
