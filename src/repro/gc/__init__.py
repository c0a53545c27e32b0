"""Yao's garbled-circuit engine with the paper's optimization stack.

Free-XOR, point-and-permute, row-reduced half-gates, fixed-key cipher
backends, Naor-Pinkas-style base OT, IKNP OT extension, sequential
garbling and XOR-sharing outsourcing.
"""

from .channel import Channel, ChannelStats, default_channel_factory, make_channel_pair
from .cipher import (
    KDF_BACKENDS,
    LABEL_BITS,
    FixedKeyAES,
    HashKDF,
    KDFCalibration,
    ParallelKDF,
    VectorHashKDF,
    calibrate_kdf,
    default_kdf,
    kdf_calibration,
    make_kdf,
    oracle_fingerprint,
)
from .cutandchoose import CutAndChooseGarbler, OpenedCopy, verify_opened_copy
from .evaluate import Evaluator
from .fastgarble import FastEvaluator, LabelPlane, garble_many
from .garble import GarbledCircuit, Garbler
from .labels import ArrayLabelStore, LabelStore, permute_bit, random_delta, random_label
from .ot import MODP_2048, TEST_GROUP_512, OTGroup, OTReceiver, OTSender
from .ot_extension import IKNPState, extension_ot
from .outsourcing import OutsourcedSession, outsource_circuit, split_input
from .protocol import (
    Pregarbled,
    ProtocolResult,
    TwoPartySession,
    execute,
    transfer_input_labels,
)
from .rowreduce import ROWS_PER_GATE, RowGarbled, evaluate_rows, garble_rows
from .sequential import SequentialResult, SequentialSession
from .sha256_vec import sha256_many

__all__ = [
    "Garbler",
    "Evaluator",
    "FastEvaluator",
    "garble_many",
    "LabelPlane",
    "GarbledCircuit",
    "LabelStore",
    "ArrayLabelStore",
    "random_label",
    "random_delta",
    "permute_bit",
    "HashKDF",
    "KDFCalibration",
    "KDF_BACKENDS",
    "FixedKeyAES",
    "ParallelKDF",
    "VectorHashKDF",
    "calibrate_kdf",
    "kdf_calibration",
    "make_kdf",
    "oracle_fingerprint",
    "sha256_many",
    "default_kdf",
    "LABEL_BITS",
    "OTGroup",
    "OTSender",
    "OTReceiver",
    "MODP_2048",
    "TEST_GROUP_512",
    "extension_ot",
    "IKNPState",
    "Channel",
    "ChannelStats",
    "default_channel_factory",
    "make_channel_pair",
    "TwoPartySession",
    "ProtocolResult",
    "Pregarbled",
    "execute",
    "transfer_input_labels",
    "SequentialSession",
    "SequentialResult",
    "OutsourcedSession",
    "outsource_circuit",
    "split_input",
    "CutAndChooseGarbler",
    "OpenedCopy",
    "verify_opened_copy",
    "garble_rows",
    "evaluate_rows",
    "RowGarbled",
    "ROWS_PER_GATE",
]
