"""Fault diagnosis: dictionaries, batched scoring, chain re-ranking.

Three layers:

* :mod:`repro.diagnosis.dictionary` / :mod:`~repro.diagnosis.locate` —
  pass/fail dictionaries and single-device candidate ranking;
* :mod:`repro.diagnosis.compress` / :mod:`~repro.diagnosis.pipeline` —
  response-set deduplication and the high-volume batched pipeline
  (thousands of devices per call, bit-identical to the single path);
* :mod:`repro.diagnosis.chain` — causal-chain (backward-cone)
  re-ranking of signature-tied candidates over the circuit graph.
"""

from repro.diagnosis.chain import (
    ChainRanker,
    failing_outputs_mask,
)
from repro.diagnosis.compress import (
    CompressedDictionary,
    compress_dictionary,
)
from repro.diagnosis.dictionary import (
    FaultDictionary,
    PassFailDictionary,
    build_dictionary,
    build_pass_fail_dictionary,
    validate_observed_mask,
)
from repro.diagnosis.locate import (
    DiagnosisReport,
    diagnose,
    expected_tests_to_first_fail,
    inject_and_observe,
)
from repro.diagnosis.pipeline import (
    DiagnosisBatchReport,
    FailLog,
    diagnose_batch,
    random_fail_log,
)

__all__ = [
    "ChainRanker",
    "CompressedDictionary",
    "DiagnosisBatchReport",
    "DiagnosisReport",
    "FailLog",
    "FaultDictionary",
    "PassFailDictionary",
    "build_dictionary",
    "build_pass_fail_dictionary",
    "compress_dictionary",
    "diagnose",
    "diagnose_batch",
    "expected_tests_to_first_fail",
    "failing_outputs_mask",
    "inject_and_observe",
    "random_fail_log",
    "validate_observed_mask",
]
