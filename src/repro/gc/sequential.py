"""Sequential garbled-circuit execution (TinyGarble-style, paper Sec. 3.5).

The same folded core netlist is garbled once per clock cycle with fresh
labels, *except* register wires: the zero-label of a register's d-wire at
cycle ``i`` becomes the zero-label of its q-wire at cycle ``i+1``, so no
extra transfer or re-keying is needed for state.  Tweaks advance across
cycles so the garbling oracle is never reused.

One :class:`repro.gc.labels.ArrayLabelStore` plane is carried across
every cycle (the register d-wire -> q-wire label handoff stays an array
copy on both sides), and each cycle is one straight garble -> transfer ->
OT -> evaluate -> merge pass through the level-scheduled engine.  The
same rng stream yields tables byte-identical to the gate-at-a-time
reference garbler's.

The session records per-cycle garble/evaluate durations;
:mod:`repro.analysis.timeline` turns them into the overlapped schedule
of the paper's Fig. 5.
"""

from __future__ import annotations

import dataclasses
import secrets
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.sequential import SequentialCircuit
from ..errors import ProtocolError
from .channel import Channel, default_channel_factory

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.deadline import Deadline
from .cipher import HashKDF, default_kdf
from .fastgarble import FastEvaluator
from .garble import Garbler
from .labels import ArrayLabelStore
from .ot import MODP_2048, OTGroup
from .ot_extension import IKNPState, extension_ot
from .protocol import ChannelFactory, merge_outputs, receive_garbled, send_garbled
from .rng import RngLike

__all__ = ["SequentialResult", "SequentialSession"]


@dataclasses.dataclass
class SequentialResult:
    """Outcome of a multi-cycle sequential execution.

    Attributes:
        outputs_per_cycle: decoded output bits for every cycle (``[]``
            for a cycle whose outputs were not revealed, see
            ``SequentialSession.run(final_only=True)``).
        garble_times: per-cycle garbling durations (Alice).
        evaluate_times: per-cycle evaluation durations (Bob).
        comm: per-tag byte counts.
        n_non_xor_per_cycle: non-free gates garbled per cycle.
    """

    outputs_per_cycle: List[List[int]]
    garble_times: List[float]
    evaluate_times: List[float]
    comm: Dict[str, int]
    n_non_xor_per_cycle: int

    @property
    def final_outputs(self) -> List[int]:
        """Outputs of the last cycle (the usual result of a folded MAC)."""
        return self.outputs_per_cycle[-1]


class SequentialSession:
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
            runs; ``None`` builds one per :meth:`run`, so a run pays the
            base OT once however many cycles it clocks.
    """

    def __init__(
        self,
        sequential: SequentialCircuit,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        channel_factory: Optional[ChannelFactory] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        self.sequential = sequential
        self.kdf = kdf or default_kdf()
        self.ot_group = ot_group
        self.rng = rng
        self.channel_factory: ChannelFactory = (
            channel_factory if channel_factory is not None
            else default_channel_factory()
        )
        self.ot_state = ot_state

    def run(
        self,
        alice_cycles: Sequence[Sequence[int]],
        bob_cycles: Sequence[Sequence[int]],
        cycles: Optional[int] = None,
        deadline: Optional["Deadline"] = None,
        final_only: bool = False,
    ) -> SequentialResult:
        """Execute the protocol for ``cycles`` clock cycles.

        Input conventions match
        :meth:`repro.circuits.sequential.SequentialCircuit.run`: a single
        entry is broadcast to every cycle.  Every cycle's input widths
        are checked against the core before anything is garbled.  A
        ``deadline`` is charged on every recv and checked after each
        cycle's evaluation.

        With ``final_only`` the merge step runs for the last cycle
        alone: no earlier cycle's output labels are sent back, so the
        garbler decodes the run's result and none of the intermediate
        values the core marks as outputs (a folded MAC's partial sums).
        ``outputs_per_cycle`` then holds ``[]`` for every earlier cycle.
        """
        seq = self.sequential
        core = seq.core
        if cycles is None:
            cycles = max(len(alice_cycles), len(bob_cycles), 1)
        if cycles < 1:
            raise ProtocolError("cycles must be >= 1")
        inputs: List[Tuple[List[int], List[int]]] = []
        for cycle in range(cycles):
            alice_bits = SequentialCircuit._cycle_input(
                alice_cycles, cycle, core.n_alice
            )
            bob_bits = SequentialCircuit._cycle_input(
                bob_cycles, cycle, core.n_bob
            )
            if (len(alice_bits), len(bob_bits)) != (core.n_alice, core.n_bob):
                raise ProtocolError(
                    f"cycle {cycle}: the core takes {core.n_alice} Alice and "
                    f"{core.n_bob} Bob bits, got {len(alice_bits)} and "
                    f"{len(bob_bits)}"
                )
            inputs.append((alice_bits, bob_bits))
        alice_end, bob_end, stats = self.channel_factory()
        if deadline is not None:
            alice_end.deadline = deadline
            bob_end.deadline = deadline

        store = ArrayLabelStore(core.n_wires, rng=self.rng)
        garbler = Garbler(core, kdf=self.kdf, label_store=store, rng=self.rng)
        evaluator = FastEvaluator(core, kdf=self.kdf)
        ot_state = self.ot_state or IKNPState(self.ot_group, self.rng)
        garble_times: List[float] = []
        evaluate_times: List[float] = []
        outputs: List[List[int]] = []

        d_wires = [reg.d_wire for reg in seq.registers]
        bob_wires = list(core.bob_inputs)
        # register labels carried between cycles, one side each: the
        # garbler's zero-labels and the evaluator's active labels
        state_zero: Optional[np.ndarray] = None
        eval_state: Union[List[int], np.ndarray, None] = None
        tweak = 0
        for cycle, (alice_bits, bob_bits) in enumerate(inputs):
            start = time.perf_counter()
            garbled = garbler.garble(
                state_zero_labels=state_zero, tweak_base=tweak
            )
            garble_times.append(time.perf_counter() - start)
            if cycle == 0:
                # cycle-0 state: init bits are public, so the garbler
                # simply sends the labels of the init values
                eval_state = [
                    store.select(wire, bit)
                    for wire, bit in zip(
                        core.state_inputs, seq.initial_state()
                    )
                ]

            # transfer: tables + Alice labels (every cycle), OT for Bob
            send_garbled(alice_end, garbler, garbled, alice_bits)
            view, alice_labels = receive_garbled(bob_end, tweak_base=tweak)
            bob_labels = self._oblivious_transfer(
                [garbler.wire_label_pair(w) for w in bob_wires],
                bob_bits, ot_state, (alice_end, bob_end),
            )

            start = time.perf_counter()
            wire_labels = evaluator.evaluate(
                view, alice_labels, bob_labels, state_labels=eval_state
            )
            evaluate_times.append(time.perf_counter() - start)

            # merge step for this cycle's outputs
            if final_only and cycle < cycles - 1:
                outputs.append([])
            else:
                labels = evaluator.output_labels(wire_labels)
                outputs.append(
                    merge_outputs(alice_end, bob_end, garbler, labels)
                )
            if deadline is not None:
                deadline.check(f"cycle {cycle} merge")

            # carry register labels into the next cycle
            state_zero = store.zero_rows(d_wires)
            eval_state = wire_labels.plane[d_wires]
            tweak += 2 * len(garbled.tables)

        return SequentialResult(
            outputs_per_cycle=outputs,
            garble_times=garble_times,
            evaluate_times=evaluate_times,
            comm=stats.by_tag(),
            n_non_xor_per_cycle=core.counts().non_xor,
        )

    def _oblivious_transfer(
        self,
        pairs: Sequence[Tuple[int, int]],
        bits: Sequence[int],
        ot_state: IKNPState,
        channel: Tuple[Channel, Channel],
    ) -> List[int]:
        """One cycle's OT for Bob's labels, framed over ``channel``.

        Unlike :func:`repro.gc.protocol.transfer_input_labels`, a cycle
        always extends, whatever its width: the run's single base-OT
        batch is amortised across its cycles, so even a narrow cell is
        cheaper through ``ot_state`` than through a direct base OT each
        cycle.
        """
        if len(pairs) != len(bits):
            raise ProtocolError("Bob's input width mismatch")
        if not pairs:
            return []
        byte_pairs = [
            (zero.to_bytes(16, "little"), one.to_bytes(16, "little"))
            for zero, one in pairs
        ]
        chosen, _ = extension_ot(byte_pairs, bits, channel=channel, state=ot_state)
        return [int.from_bytes(data, "little") for data in chosen]
