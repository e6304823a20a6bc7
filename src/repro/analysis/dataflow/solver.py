"""A generic forward worklist fixpoint solver over function CFGs.

An :class:`Analysis` declares a bottom fact, a boundary fact for the
entry block, a join, and a per-element transfer function; :func:`solve`
propagates facts along CFG edges, entry to exit, until nothing changes.
Facts must be hashable values forming a finite join semilattice under
:meth:`Analysis.join` — the solver requires monotonicity from transfer
functions but does not check it (a non-monotone transfer simply may not
terminate, which is why the solver also carries an iteration guard).

Taint propagation (:mod:`repro.analysis.dataflow.taint`) instantiates
it for ``impure-digest-flow``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.dataflow.cfg import CFG, Block, Element

__all__ = ["Analysis", "solve"]

#: Hard cap on solver sweeps; a finite lattice converges in
#: O(blocks * lattice height), so hitting this means a broken transfer.
MAX_SWEEPS = 1000


class Analysis:
    """One forward dataflow problem: lattice bottom, join, transfer."""

    def bottom(self, cfg: CFG):
        """The no-information fact blocks start from."""
        raise NotImplementedError

    def boundary(self, cfg: CFG):
        """The fact entering the entry block."""
        return self.bottom(cfg)

    def join(self, left, right):
        """Merge facts arriving over two edges."""
        raise NotImplementedError

    def transfer(self, element: Element, fact):
        """Fact after one element."""
        raise NotImplementedError

    # -- derived ------------------------------------------------------
    def transfer_block(self, block: Block, fact):
        for element in block.elements:
            fact = self.transfer(element, fact)
        return fact


def solve(cfg: CFG, analysis: Analysis) -> Dict[int, Tuple[object, object]]:
    """Fixpoint facts per block: ``{block_index: (fact_in, fact_out)}``."""
    facts_in: Dict[int, object] = {}
    facts_out: Dict[int, object] = {}
    for block in cfg.blocks:
        facts_in[block.index] = analysis.bottom(cfg)
        facts_out[block.index] = analysis.bottom(cfg)
    facts_in[cfg.entry] = analysis.boundary(cfg)
    facts_out[cfg.entry] = analysis.transfer_block(
        cfg.blocks[cfg.entry], facts_in[cfg.entry]
    )

    pending = list(range(len(cfg.blocks)))
    queued = set(pending)
    sweeps = 0
    while pending:
        sweeps += 1
        if sweeps > MAX_SWEEPS * max(1, len(cfg.blocks)):
            raise RuntimeError(
                f"dataflow solver did not converge on {cfg.name}; "
                "non-monotone transfer function?"
            )
        index = pending.pop(0)
        queued.discard(index)
        block = cfg.blocks[index]
        incoming = analysis.bottom(cfg)
        if index == cfg.entry:
            incoming = analysis.boundary(cfg)
        for source in block.preds:
            incoming = analysis.join(incoming, facts_out[source])
        outgoing = analysis.transfer_block(block, incoming)
        facts_in[index] = incoming
        if outgoing != facts_out[index]:
            facts_out[index] = outgoing
            for target in block.succs:
                if target not in queued:
                    pending.append(target)
                    queued.add(target)
    return {
        index: (facts_in[index], facts_out[index])
        for index in range(len(cfg.blocks))
    }
