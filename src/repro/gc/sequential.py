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

As in :mod:`repro.gc.protocol`, every step is run by the party it
belongs to and a session hosts the parties its link has ends for.  The
only register labels that ever cross the link are the cycle-0 ones —
the initial state is public, so the garbler sends the labels of its
bits as one ``state_labels`` frame; from then on each side carries its
own (zero-labels here, active labels there).  Tweaks advance by the
core's public table count, which both sides know.

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
from ..errors import ChannelIntegrityError, ProtocolError
from .channel import default_channel_factory

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.deadline import Deadline
from .cipher import HashKDF, default_kdf
from .fastgarble import FastEvaluator
from .garble import Garbler
from .labels import ArrayLabelStore
from .ot import MODP_2048, OTGroup
from .ot_extension import Ends, IKNPState, extension_ot
from .protocol import (
    LinkFactory,
    open_link,
    receive_garbled,
    receive_outputs,
    send_garbled,
    send_outputs,
)
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
        channel_factory: Optional[LinkFactory] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        self.sequential = sequential
        self.kdf = kdf or default_kdf()
        self.ot_group = ot_group
        self.rng = rng
        self.channel_factory: LinkFactory = (
            channel_factory if channel_factory is not None
            else default_channel_factory()
        )
        self.ot_state = ot_state

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
            cycles = max(len(alice_cycles or ()), len(bob_cycles or ()), 1)
        if cycles < 1:
            raise ProtocolError("cycles must be >= 1")
        inputs: List[Tuple[List[int], List[int]]] = []
        for cycle in range(cycles):
            alice_bits = SequentialCircuit._cycle_input(
                alice_cycles or (), cycle, core.n_alice
            )
            bob_bits = SequentialCircuit._cycle_input(
                bob_cycles or (), cycle, core.n_bob
            )
            if (len(alice_bits), len(bob_bits)) != (core.n_alice, core.n_bob):
                raise ProtocolError(
                    f"cycle {cycle}: the core takes {core.n_alice} Alice and "
                    f"{core.n_bob} Bob bits, got {len(alice_bits)} and "
                    f"{len(bob_bits)}"
                )
            inputs.append((alice_bits, bob_bits))
        alice_end, bob_end, stats = open_link(self.channel_factory, deadline)

        # Alice's objects where she is hosted, Bob's where he is
        if alice_end is not None:
            store = ArrayLabelStore(core.n_wires, rng=self.rng)
            garbler = Garbler(core, kdf=self.kdf, label_store=store, rng=self.rng)
        if bob_end is not None:
            evaluator = FastEvaluator(core, kdf=self.kdf)
        ot_state = self.ot_state or IKNPState(self.ot_group, self.rng)
        garble_times: List[float] = []
        evaluate_times: List[float] = []
        outputs: List[List[int]] = []

        d_wires = [reg.d_wire for reg in seq.registers]
        bob_wires = list(core.bob_inputs)
        n_tables = core.counts().non_xor
        # register labels carried between cycles, one side each: the
        # garbler's zero-labels and the evaluator's active labels
        state_zero: Optional[np.ndarray] = None
        eval_state: Union[List[int], np.ndarray, None] = None
        for cycle, (alice_bits, bob_bits) in enumerate(inputs):
            tweak = 2 * n_tables * cycle
            reveal = not final_only or cycle == cycles - 1
            messages = None
            # transfer: tables + Alice labels (every cycle), OT for Bob
            if alice_end is not None:
                start = time.perf_counter()
                garbled = garbler.garble(
                    state_zero_labels=state_zero, tweak_base=tweak
                )
                garble_times.append(time.perf_counter() - start)
                send_garbled(alice_end, garbler, garbled, alice_bits)
                if cycle == 0 and d_wires:
                    # cycle-0 state: init bits are public, so the garbler
                    # sends the labels of the init values
                    alice_end.send_labels(
                        garbler.input_labels_for(
                            core.state_inputs, seq.initial_state()
                        ),
                        tag="state_labels",
                    )
                messages = garbler.label_pair_rows(bob_wires)
            if bob_end is not None:
                view, alice_labels = receive_garbled(bob_end, n_tables, tweak)
                if cycle == 0 and d_wires:
                    eval_state = bob_end.recv_labels(expected_tag="state_labels")
                    if len(eval_state) != len(d_wires):
                        raise ChannelIntegrityError(
                            f"state-label payload carries {len(eval_state)} "
                            f"entries for {len(d_wires)} registers"
                        )
            bob_labels = self._oblivious_transfer(
                messages, bob_bits, ot_state, (alice_end, bob_end)
            )

            if bob_end is not None:
                start = time.perf_counter()
                wire_labels = evaluator.evaluate(
                    view, alice_labels, bob_labels, state_labels=eval_state
                )
                evaluate_times.append(time.perf_counter() - start)
                # merge step for this cycle's outputs, Bob's half
                if reveal:
                    send_outputs(bob_end, evaluator.output_labels(wire_labels))
                eval_state = wire_labels.plane[d_wires]
            if alice_end is not None:
                outputs.append(
                    receive_outputs(alice_end, garbler) if reveal else []
                )
                state_zero = store.zero_rows(d_wires)
            else:
                outputs.append([])
            if deadline is not None:
                deadline.check(f"cycle {cycle} merge")

        return SequentialResult(
            outputs_per_cycle=outputs,
            garble_times=garble_times,
            evaluate_times=evaluate_times,
            comm=stats.by_tag(),
            n_non_xor_per_cycle=n_tables,
        )

    def _oblivious_transfer(
        self,
        messages: Optional[np.ndarray],
        bits: Sequence[int],
        ot_state: IKNPState,
        channel: Ends,
    ) -> np.ndarray:
        """One cycle's OT for Bob's labels, framed over ``channel``:
        ``messages`` are the garbler's ``(m, 2, 16)`` label-pair rows
        (``None`` where it is hosted elsewhere), ``bits`` are read where
        the evaluator is; Bob gets ``(m, 16)`` rows.

        Unlike :func:`repro.gc.protocol.transfer_input_labels`, a cycle
        always extends, whatever its width: the run's single base-OT
        batch is amortised across its cycles, so even a narrow cell is
        cheaper through ``ot_state`` than through a direct base OT each
        cycle.
        """
        if not bits:
            return np.empty((0, 16), dtype=np.uint8)
        return extension_ot(messages, bits, channel=channel, state=ot_state)[0]
