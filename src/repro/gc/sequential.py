"""Sequential garbled-circuit execution (TinyGarble-style, paper Sec. 3.5).

The same folded core netlist is garbled once per clock cycle with fresh
labels, *except* register wires: the zero-label of a register's d-wire at
cycle ``i`` becomes the zero-label of its q-wire at cycle ``i+1``, so no
extra transfer or re-keying is needed for state.  Tweaks advance across
cycles by the core's public table count, so the garbling oracle is never
reused.

A cycle is the protocol round of :mod:`repro.gc.protocol` — the one text
its one driver runs — clocked on one lane; this module checks the inputs
and keeps each cycle's outputs and phase times (which
:mod:`repro.analysis.timeline` turns into the paper's Fig. 5 schedule).
The only register labels that ever cross the link are the cycle-0 ones:
the initial state is public, so the garbler sends the labels of its bits
as one ``state_labels`` frame, and from then on each side carries its
own.  A zero-register core sends no such frame, and one cycle of it is
the combinational round, frame for frame.
"""

from __future__ import annotations

import dataclasses
import secrets
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..circuits.sequential import SequentialCircuit
from ..errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.deadline import Deadline
from .cipher import HashKDF
from .ot import MODP_2048, OTGroup
from .ot_extension import (
    IKNPState,
    # not called here: the layered benchmark's tracer still wraps this
    # binding; it goes when that wrap list is retired (ROADMAP item 1(a))
    extension_ot,  # noqa: F401
)
from .protocol import LinkFactory, _Session
from .rng import RngLike

__all__ = ["SequentialResult", "SequentialSession"]


@dataclasses.dataclass
class SequentialResult:
    """Outcome of a multi-cycle sequential execution.

    Attributes:
        outputs_per_cycle: decoded output bits for every cycle (``[]``
            for a cycle whose outputs were not revealed, see
            ``SequentialSession.run(final_only=True)``, and for every
            cycle on a process that hosts the evaluator alone).
        times_per_cycle: each cycle's seconds per phase ('garble',
            'transfer', 'ot', 'evaluate', 'merge'); a phase of a party
            hosted elsewhere is absent.
        comm: per-tag byte counts of the whole run.
        n_non_xor_per_cycle: non-free gates garbled per cycle.
    """

    outputs_per_cycle: List[List[int]]
    times_per_cycle: List[Dict[str, float]]
    comm: Dict[str, int]
    n_non_xor_per_cycle: int

    @property
    def final_outputs(self) -> List[int]:
        """Outputs of the last cycle (the usual result of a folded MAC)."""
        return self.outputs_per_cycle[-1]

    @property
    def garble_times(self) -> List[float]:
        """Per-cycle garbling durations (Alice; ``[]`` where she is not hosted)."""
        return [t["garble"] for t in self.times_per_cycle if "garble" in t]

    @property
    def evaluate_times(self) -> List[float]:
        """Per-cycle evaluation durations (Bob; ``[]`` where he is not hosted)."""
        return [t["evaluate"] for t in self.times_per_cycle if "evaluate" in t]


class SequentialSession(_Session):
    """Garble/evaluate a :class:`SequentialCircuit` for many cycles.

    Args:
        sequential: the folded circuit (core + register bindings).
        kdf: garbling oracle shared by both parties.
        ot_group: group for base OTs.
        rng: randomness source for labels and OT.
        channel_factory: builds the session's channel pair — the seam
            for the fault-injection harness; defaults to the healthy
            in-memory link.
        ot_state: the owner's OT-extension state, shared across its
            runs; ``None`` builds one per :meth:`run` of more than one
            cycle, so a run pays the base OT once however long it is.
    """

    def __init__(
        self,
        sequential: SequentialCircuit,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        channel_factory: Optional[LinkFactory] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        super().__init__(sequential.core, kdf, ot_group, rng, channel_factory, ot_state)
        self.sequential = sequential

    def run(
        self,
        alice_cycles: Optional[Sequence[Sequence[int]]],
        bob_cycles: Optional[Sequence[Sequence[int]]],
        cycles: Optional[int] = None,
        deadline: Optional["Deadline"] = None,
        final_only: bool = False,
    ) -> SequentialResult:
        """Execute the protocol for ``cycles`` clock cycles.

        Input conventions match
        :meth:`repro.circuits.sequential.SequentialCircuit.run`: a single
        entry is broadcast to every cycle.  Every cycle's input widths
        are checked against the core before anything is garbled; the
        inputs of a party hosted elsewhere are ``None`` and not read.  A
        ``deadline`` is charged on every recv and checked every phase.

        With ``final_only`` the merge step runs for the last cycle
        alone: no earlier cycle's output labels are sent back, so the
        garbler decodes the run's result and none of the intermediate
        values the core marks as outputs (a folded MAC's partial sums).
        ``outputs_per_cycle`` then holds ``[]`` for every earlier cycle.
        """
        core = self.circuit
        if cycles is None:
            cycles = max(len(alice_cycles or ()), len(bob_cycles or ()), 1)
        if cycles < 1:
            raise ProtocolError("cycles must be >= 1")
        inputs: List[Tuple[List[int], List[int]]] = []
        for cycle in range(cycles):
            alice_bits = SequentialCircuit._cycle_input(alice_cycles or (), cycle, core.n_alice)
            bob_bits = SequentialCircuit._cycle_input(bob_cycles or (), cycle, core.n_bob)
            if (len(alice_bits), len(bob_bits)) != (core.n_alice, core.n_bob):
                raise ProtocolError(
                    f"cycle {cycle}: the core takes {core.n_alice} Alice and "
                    f"{core.n_bob} Bob bits, got {len(alice_bits)} and "
                    f"{len(bob_bits)}"
                )
            inputs.append((alice_bits, bob_bits))
        (rounds,) = self._rounds(
            [inputs], self.sequential.registers, final_only=final_only, deadline=deadline
        )
        return SequentialResult(
            outputs_per_cycle=[r.outputs for r in rounds],
            times_per_cycle=[r.times for r in rounds],
            comm=rounds[-1].comm,
            n_non_xor_per_cycle=rounds[-1].n_non_xor,
        )
