"""Diagnosis-as-a-service plumbing shared by the CLI and the server.

``repro diagnose`` and ``POST /diagnose`` do the same thing: resolve a
:class:`~repro.flow.config.FlowConfig` to a pass/fail dictionary (the
flow's circuit x faults x generated tests, built through the configured
fault-sim backend), run the batched pipeline of
:mod:`repro.diagnosis.pipeline` over a fail log, and emit one
``repro.diagnosis/v1`` JSON document.  This module owns the shared
pieces so the two surfaces cannot drift:

* :class:`DiagnosisContext` — dictionary + compressed form + chain
  ranker for one flow (the unit the server memoizes per run key);
* :func:`parse_fail_entries` — the wire format of device records
  (``{"device": id, "failing_tests": [...]}`` plus optional
  ``"failing_outputs"``) to a :class:`~repro.diagnosis.pipeline.FailLog`,
  through the same decoder as a JSONL fail log;
* :func:`diagnosis_document` — batch run → response document, faults
  serialized with the registered fault model's JSON codec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.diagnosis.chain import ChainRanker
from repro.diagnosis.compress import (
    CompressedDictionary,
    compress_dictionary,
)
from repro.diagnosis.dictionary import (
    PassFailDictionary,
    build_pass_fail_dictionary,
)
from repro.diagnosis.pipeline import DiagnosisBatchReport, FailLog, \
    diagnose_batch
from repro.errors import DiagnosisInputError
from repro.faults.registry import fault_model
from repro.flow.flow import Flow
from repro.telemetry import span

#: Response schema of ``repro diagnose --json`` and ``POST /diagnose``.
DIAGNOSIS_SCHEMA = "repro.diagnosis/v1"


@dataclass(frozen=True)
class DiagnosisContext:
    """Everything needed to serve diagnosis requests for one flow config.

    Building one runs the flow's circuit/faults/testgen stages (cached
    by the artifact cache like any flow run) plus one full-fault-universe
    dictionary simulation; servers memoize contexts per
    :meth:`~repro.flow.flow.Flow.run_key`.
    """

    key: str
    fault_model_name: str
    dictionary: PassFailDictionary
    compressed: CompressedDictionary
    ranker: ChainRanker

    @property
    def num_tests(self) -> int:
        """Tests covered by the dictionary."""
        return self.dictionary.num_tests


def build_diagnosis_context(flow: Flow) -> DiagnosisContext:
    """Resolve a flow to its diagnosis dictionary (+ compressed + chain).

    The dictionary simulates every target fault against the flow's
    generated test set through the configured fault-sim backend —
    exactly the batch shape the vectorized engines are fastest at.
    """
    with span("diagnosis.context"):
        circ = flow.circuit()
        faults = flow.faults()
        tests = flow.tests().tests
        dictionary = build_pass_fail_dictionary(
            circ, faults, tests, backend=flow.config.backend.fsim
        )
        return DiagnosisContext(
            key=flow.run_key(),
            fault_model_name=flow.config.fault_model.name,
            dictionary=dictionary,
            compressed=compress_dictionary(dictionary),
            ranker=ChainRanker(circ),
        )


def parse_fail_entries(entries: Any, num_tests: int,
                       num_outputs: Optional[int] = None) -> FailLog:
    """Decode the wire-format device list into a :class:`FailLog`.

    ``entries`` must be a list of device records, decoded by
    :meth:`FailLog.from_records` exactly as a JSONL fail log is; pass
    the circuit's output count (``context.ranker.num_outputs``) to bound
    their failing-output positions.  Anything malformed raises
    :class:`~repro.errors.DiagnosisInputError` naming the record
    (``devices[i]``).
    """
    if not isinstance(entries, list):
        raise DiagnosisInputError(
            f"devices must be a list of records, got "
            f"{type(entries).__name__}"
        )
    return FailLog.from_records(
        ((f"devices[{index}]", record)
         for index, record in enumerate(entries)), num_tests, num_outputs)


def diagnosis_document(context: DiagnosisContext, log: FailLog, *,
                       max_candidates: int = 10,
                       chain: bool = False,
                       source: str = "computed") -> Dict[str, Any]:
    """Run the batch and render the ``repro.diagnosis/v1`` document.

    When the log carries ground truth (synthetic logs from
    :func:`~repro.diagnosis.pipeline.random_fail_log`), the summary
    gains an ``accuracy`` table of hit@k rates.
    """
    ranker = context.ranker if chain else None
    started = time.perf_counter()
    batch = diagnose_batch(
        context.dictionary, log,
        max_candidates=max_candidates,
        compressed=context.compressed,
        chain=ranker,
    )
    elapsed = time.perf_counter() - started
    codec = fault_model(context.fault_model_name)
    devices = [
        {
            "device": batch.device_ids[d],
            "candidates": [
                {"fault": codec.fault_to_json(fault),
                 "site": fault.node,
                 "score": score}
                for fault, score in batch.candidates(d)
            ],
        }
        for d in range(batch.num_devices)
    ]
    summary = batch.summary()
    summary["seconds"] = elapsed
    summary["devices_per_sec"] = (
        batch.num_devices / elapsed if elapsed > 0 else 0.0
    )
    if log.true_positions is not None:
        ks = sorted({k for k in (1, 5, max_candidates) if k >= 1})
        summary["accuracy"] = hit_rates(batch, log.true_positions, ks)
    return {
        "schema": DIAGNOSIS_SCHEMA,
        "key": context.key,
        "source": source,
        "fault_model": context.fault_model_name,
        "summary": summary,
        "devices": devices,
    }


def hit_rates(batch: DiagnosisBatchReport,
              true_positions: Sequence[int],
              ks: Sequence[int] = (1, 5, 10)) -> Dict[str, float]:
    """``hit@k`` accuracy table for synthetic logs with known truth."""
    return {f"hit@{k}": batch.hit_rate(true_positions, k) for k in ks}
