"""High-volume streaming diagnosis: batched scoring over packed tensors.

Production testers emit millions of fail logs; :func:`repro.diagnosis.
locate.diagnose` scores one observed signature at a time, paying numpy
call overhead and Python candidate-list construction per device.  This
module is the serving-scale path: thousands of devices per call, one
vectorized pass, identical rankings.

The pipeline (all stages telemetry-spanned):

1. **Ingest** — a :class:`FailLog` holds ``D`` observed failing-test
   signatures packed as a ``(D, ceil(T/64))`` uint64
   :class:`~repro.utils.detmatrix.DetectionMatrix` (read from JSONL fail
   logs, or synthesized by :func:`random_fail_log` for benchmarks).
2. **Signature dedup** — devices failing identically (the common case:
   one defect class, many dies) collapse to unique signatures before
   scoring.
3. **Compressed scoring** — the dictionary side is deduplicated too
   (:mod:`repro.diagnosis.compress`); match counts between every unique
   signature and every response class come from *one matrix
   multiply* over unpacked 0/1 bits (BLAS sgemm; the counts are small
   integers, exact in float32), and the remaining score algebra runs on
   ``(devices, classes)`` arrays.  No per-device Python loop anywhere.
4. **Ranking** — top-``k`` selection per device via one
   ``np.partition`` plus exact tie resolution in dictionary-position
   order; results live in packed ``(D, k)`` arrays.  Per-device
   :class:`~repro.diagnosis.locate.DiagnosisReport` objects materialize
   lazily, so serving paths that only read the arrays never pay for
   them.
5. **Chain re-rank** (optional) — devices that logged *failing outputs*
   get their top-``k`` refined by backward-cone evidence
   (:mod:`repro.diagnosis.chain`).

Equivalence contract (enforced by tests and asserted by the throughput
benchmark before any timing): for every device, the batch ranking is
bit-identical — same candidates, same float scores, same order — to
what :func:`~repro.diagnosis.locate.diagnose` produces for that device
alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.diagnosis.chain import ChainRanker, failing_outputs_mask
from repro.diagnosis.compress import (
    CompressedDictionary,
    compress_dictionary,
)
from repro.diagnosis.dictionary import (
    PassFailDictionary,
    validate_observed_mask,
)
from repro.diagnosis.locate import DiagnosisReport
from repro.errors import DiagnosisInputError
from repro.telemetry import get_registry, span
from repro.utils.bitvec import iter_bits
from repro.utils.detmatrix import DetectionMatrix
from repro.utils.rng import resolve_rng

#: Fail-log JSONL schema (the header line's ``schema`` field).
FAIL_LOG_SCHEMA = "repro.fail_log/v1"

#: Cap, in elements, on the ``(devices, classes)`` float scratch of one
#: scoring chunk (~64 MB of float64 per live intermediate).
SCORE_CHUNK_ELEMS = 1 << 23


def _count_devices(amount: int) -> None:
    """Bump ``repro_diagnosis_devices_total`` in the active registry."""
    get_registry().counter(
        "repro_diagnosis_devices_total",
        "Devices scored by the batched diagnosis pipeline.",
    ).labels().inc(amount)


# -- fail logs ----------------------------------------------------------------

@dataclass(frozen=True)
class FailLog:
    """A batch of observed tester failures over one test set.

    ``matrix`` packs the failing-test masks exactly like a dictionary
    ``fail_matrix``: bit ``t`` of row ``d`` set iff device ``d`` failed
    test ``t``.  ``failing_outputs[d]`` is an optional bitmask over
    primary-output *positions* (the chain re-ranker's observation
    points); ``true_positions[d]`` — set by :func:`random_fail_log` —
    records the injected fault's dictionary position for accuracy
    accounting in benchmarks and examples.
    """

    num_tests: int
    device_ids: Tuple[str, ...]
    matrix: DetectionMatrix
    failing_outputs: Optional[Tuple[Optional[int], ...]] = None
    true_positions: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.matrix.num_patterns != self.num_tests:
            raise DiagnosisInputError(
                f"fail-log matrix covers {self.matrix.num_patterns} "
                f"tests, header says {self.num_tests}"
            )
        if len(self.device_ids) != self.matrix.num_faults:
            raise DiagnosisInputError(
                f"{len(self.device_ids)} device ids for "
                f"{self.matrix.num_faults} signature rows"
            )
        for name, extra in (("failing_outputs", self.failing_outputs),
                            ("true_positions", self.true_positions)):
            if extra is not None and len(extra) != len(self.device_ids):
                raise DiagnosisInputError(
                    f"{name} has {len(extra)} entries for "
                    f"{len(self.device_ids)} devices"
                )

    @property
    def num_devices(self) -> int:
        """Devices in the log."""
        return self.matrix.num_faults

    def __len__(self) -> int:
        return self.num_devices

    def observed_mask(self, device: int) -> int:
        """Device ``device``'s failing-test mask as a big int."""
        return self.matrix.row_int(device)

    @staticmethod
    def from_masks(masks: Sequence[int], num_tests: int,
                   device_ids: Optional[Sequence[str]] = None,
                   failing_outputs: Optional[Sequence[Optional[int]]] = None,
                   true_positions: Optional[Sequence[int]] = None
                   ) -> "FailLog":
        """Pack big-int observed masks (validated) into a log."""
        for mask in masks:
            validate_observed_mask(mask, num_tests)
        if device_ids is None:
            device_ids = tuple(f"device{d:06d}" for d in range(len(masks)))
        return FailLog(
            num_tests=num_tests,
            device_ids=tuple(str(i) for i in device_ids),
            matrix=DetectionMatrix.from_bigints(masks, num_tests),
            failing_outputs=(None if failing_outputs is None
                             else tuple(failing_outputs)),
            true_positions=(None if true_positions is None
                            else tuple(int(p) for p in true_positions)),
        )

    @staticmethod
    def from_records(records: Iterable[Tuple[str, Any]],
                     num_tests: int) -> "FailLog":
        """Decode device records, the one decoder of every fail-log surface.

        ``records`` yields ``(where, record)`` pairs; ``where`` names the
        record in error messages (``devices[3]`` on the wire,
        ``path:line`` in a JSONL file).  A record is ``{"device": id,
        "failing_tests": [t, ...]}``, optionally with
        ``"failing_outputs": [k, ...]`` (primary-output positions).
        Indices must be exactly ``int`` (a JSON boolean decodes to
        ``bool``, a float to ``float``: both are rejected), and test
        indices must lie in ``0..num_tests - 1``; anything else raises
        :class:`~repro.errors.DiagnosisInputError` naming the record.
        """
        device_ids: List[str] = []
        masks: List[int] = []
        outputs: List[Optional[int]] = []
        saw_outputs = False
        for where, record in records:
            if not isinstance(record, dict):
                raise DiagnosisInputError(
                    f"{where}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            failing = record.get("failing_tests")
            if not isinstance(failing, list):
                raise DiagnosisInputError(
                    f"{where}: failing_tests must be a list of test indices"
                )
            mask = 0
            for t in failing:
                if type(t) is not int or not 0 <= t < num_tests:
                    raise DiagnosisInputError(
                        f"{where}: failing test {t!r} out of range "
                        f"0..{num_tests - 1}"
                    )
                mask |= 1 << t
            device_ids.append(str(record.get(
                "device", f"device{len(device_ids):06d}")))
            masks.append(mask)
            if "failing_outputs" in record:
                raw = record["failing_outputs"]
                if not isinstance(raw, list) \
                        or any(type(k) is not int for k in raw):
                    raise DiagnosisInputError(
                        f"{where}: failing_outputs must be a list of "
                        f"output positions"
                    )
                saw_outputs = True
                outputs.append(failing_outputs_mask(1 << 62, raw))
            else:
                outputs.append(None)
        return FailLog(
            num_tests=num_tests,
            device_ids=tuple(device_ids),
            matrix=DetectionMatrix.from_bigints(masks, num_tests),
            failing_outputs=tuple(outputs) if saw_outputs else None,
        )

    @staticmethod
    def from_jsonl(path: Union[str, Path],
                   num_tests: Optional[int] = None) -> "FailLog":
        """Read a JSONL fail log (the tester hand-off format).

        The first line is a header ``{"schema": "repro.fail_log/v1",
        "num_tests": T}``; each further line is one device record in
        the format of :meth:`from_records`, which decodes them.  A
        headerless file is accepted when ``num_tests`` is passed
        explicitly.
        """
        path = Path(path)
        records: List[Tuple[str, Any]] = []
        with path.open() as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{line_no}"
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise DiagnosisInputError(
                        f"{where}: not valid JSON: {exc}"
                    )
                if not isinstance(record, dict) or "schema" not in record:
                    if num_tests is None:
                        raise DiagnosisInputError(
                            f"{where}: no schema header and no explicit "
                            f"num_tests"
                        )
                    records.append((where, record))
                    continue
                if record.get("schema") != FAIL_LOG_SCHEMA:
                    raise DiagnosisInputError(
                        f"{where}: unknown fail-log schema "
                        f"{record.get('schema')!r}"
                    )
                header_tests = record.get("num_tests")
                if type(header_tests) is not int or header_tests < 0:
                    raise DiagnosisInputError(
                        f"{where}: header num_tests must be a "
                        f"non-negative int"
                    )
                if num_tests is not None and num_tests != header_tests:
                    raise DiagnosisInputError(
                        f"{where}: header covers {header_tests} tests, "
                        f"caller expected {num_tests}"
                    )
                num_tests = header_tests
        if num_tests is None:
            raise DiagnosisInputError(f"{path}: empty fail log, no header")
        return FailLog.from_records(records, num_tests)

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the log in the JSONL hand-off format (with header)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(
                {"schema": FAIL_LOG_SCHEMA, "num_tests": self.num_tests}
            ) + "\n")
            for d in range(self.num_devices):
                record: Dict[str, object] = {
                    "device": self.device_ids[d],
                    "failing_tests": [
                        int(t) for t in self.matrix.row_indices(d)
                    ],
                }
                if (self.failing_outputs is not None
                        and self.failing_outputs[d] is not None):
                    record["failing_outputs"] = list(
                        iter_bits(self.failing_outputs[d]))
                handle.write(json.dumps(record) + "\n")
        return path


def random_fail_log(dictionary: PassFailDictionary, num_devices: int,
                    *, seed: Optional[int] = None, rng=None,
                    drop_probability: float = 0.0,
                    circ=None) -> FailLog:
    """Synthesize a fail log: each device carries one dictionary fault.

    Devices draw a detected fault uniformly; with ``drop_probability``
    each failing test independently *escapes* (is dropped from the
    observation — the marginal-defect model), except that a device never
    drops its last failing test.  With ``circ`` given, each device also
    logs the failing-output positions reachable from its fault site (the
    chain re-ranker's observation points).  Deterministic under
    ``seed`` via :func:`repro.utils.rng.resolve_rng`.
    """
    if not 0.0 <= drop_probability < 1.0:
        raise DiagnosisInputError(
            f"drop_probability must be in [0, 1), got {drop_probability}"
        )
    generator = resolve_rng(seed=seed, rng=rng, label="fail_log")
    rows = dictionary.fail_matrix
    detected = np.flatnonzero(rows.any_rows()).tolist()
    if not detected:
        raise DiagnosisInputError(
            "dictionary detects no faults; cannot synthesize failures"
        )
    reach = None
    if circ is not None:
        from repro.circuit.graph import output_reach_masks

        reach = output_reach_masks(circ)
    masks: List[int] = []
    positions: List[int] = []
    outputs: List[Optional[int]] = []
    for __ in range(num_devices):
        position = detected[generator.randrange(len(detected))]
        mask = rows.row_int(position)
        if drop_probability > 0.0:
            kept = 0
            for t in iter_bits(mask):
                if generator.random() >= drop_probability:
                    kept |= 1 << t
            mask = kept or (mask & -mask)  # never drop the last failure
        masks.append(mask)
        positions.append(position)
        if reach is not None:
            outputs.append(reach[dictionary.faults[position].node])
        else:
            outputs.append(None)
    return FailLog(
        num_tests=dictionary.num_tests,
        device_ids=tuple(f"device{d:06d}" for d in range(num_devices)),
        matrix=DetectionMatrix.from_bigints(masks, dictionary.num_tests),
        failing_outputs=tuple(outputs) if reach is not None else None,
        true_positions=tuple(positions),
    )


# -- batched scoring ----------------------------------------------------------

def _score_unique(compressed: CompressedDictionary,
                  unique_words: np.ndarray) -> np.ndarray:
    """Signature scores of every (unique signature, fault) pair.

    Returns ``(U, F)`` float64 scores identical to
    :func:`~repro.diagnosis.locate.diagnose`'s per-fault values, with
    rows of never-detected faults forced to 0 (they are never
    candidates).  The match counts come from one sgemm over unpacked
    bits per device chunk: every addend is 0/1 and every partial sum an
    integer below ``2**24``, so float32 accumulation is exact.
    """
    num_tests = compressed.num_tests
    faults = compressed.num_faults
    classes = compressed.num_classes
    unique = DetectionMatrix(unique_words, num_tests)
    num_unique = unique.num_faults
    scores = np.zeros((num_unique, faults), dtype=np.float64)
    if num_unique == 0 or classes == 0 or faults == 0:
        return scores
    rep_bits = compressed.matrix.unpack_bits().astype(np.float32).T
    pc_class = compressed.class_popcounts()      # (C,)
    class_live = compressed.matrix.any_rows()    # (C,) detected at all
    inverse = compressed.class_of_fault
    chunk = max(1, SCORE_CHUNK_ELEMS // max(classes, 1))
    for start in range(0, num_unique, chunk):
        block = DetectionMatrix(unique_words[start:start + chunk],
                                num_tests)
        obs_bits = block.unpack_bits().astype(np.float32)
        pc_obs = block.row_popcounts()[:, None]  # (d, 1)
        inter = (obs_bits @ rep_bits).astype(np.int64)  # (d, C)
        union = pc_class[None, :] + pc_obs - inter
        missed = pc_obs - inter
        with np.errstate(invalid="ignore"):
            block_scores = np.where(
                union > 0, inter / np.maximum(union, 1), 0.0
            ) * np.power(0.5, missed)
        exact = (inter == pc_class[None, :]) & (inter == pc_obs)
        block_scores = np.where(exact, 1.0, block_scores)
        # Faults the test set never detects are excluded from candidacy
        # regardless of score (the single-device path's any_rows filter).
        block_scores[:, ~class_live] = 0.0
        scores[start:start + chunk] = block_scores[:, inverse]
    return scores


def _rank_top_k(scores: np.ndarray, k: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` positions by (score desc, position asc).

    Vectorized exact selection: one ``np.partition`` finds each row's
    ``k``-th best score, rows' strictly-better entries are all kept, and
    boundary ties resolve in position order without any large sort
    (``np.nonzero`` already emits row-major — i.e. position — order).
    Returns ``(rows, k)`` position/score arrays padded with ``-1`` / 0.
    """
    rows, faults = scores.shape
    positions = np.full((rows, k), -1, dtype=np.int64)
    ranked = np.zeros((rows, k), dtype=np.float64)
    if rows == 0 or faults == 0 or k <= 0:
        return positions, ranked
    positive = scores > 0.0
    neg = np.where(positive, -scores, np.inf)
    if k >= faults:
        keep_rows, keep_pos = np.nonzero(positive)
    else:
        bound = np.partition(neg, k - 1, axis=1)[:, k - 1]
        strict = neg < bound[:, None]
        ties = (neg == bound[:, None]) & positive
        need = (np.minimum(positive.sum(axis=1), k)
                - strict.sum(axis=1))
        tie_rows, tie_pos = np.nonzero(ties)
        if tie_rows.size:
            counts = np.bincount(tie_rows, minlength=rows)
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            within = np.arange(tie_rows.size) - offsets[tie_rows]
            take = within < need[tie_rows]
            strict[tie_rows[take], tie_pos[take]] = True
        keep_rows, keep_pos = np.nonzero(strict)
    keep_scores = scores[keep_rows, keep_pos]
    # Row-major nonzero gives position order inside each row; a stable
    # sort on score alone therefore lands on (score desc, position asc).
    order = np.lexsort((-keep_scores, keep_rows))
    keep_rows = keep_rows[order]
    keep_pos = keep_pos[order]
    keep_scores = keep_scores[order]
    counts = np.bincount(keep_rows, minlength=rows)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slot = np.arange(keep_rows.size) - offsets[keep_rows]
    positions[keep_rows, slot] = keep_pos
    ranked[keep_rows, slot] = keep_scores
    return positions, ranked


@dataclass(frozen=True)
class DiagnosisBatchReport:
    """Ranked candidates for every device of one batched diagnosis call.

    The rankings live in packed arrays (``ranked_positions`` /
    ``ranked_scores``, ``(D, k)``, padded with ``-1`` / 0); per-device
    :class:`~repro.diagnosis.locate.DiagnosisReport` objects are
    materialized lazily by :meth:`report` and are bit-identical to what
    :func:`~repro.diagnosis.locate.diagnose` returns for that device.
    """

    faults: Tuple
    num_tests: int
    device_ids: Tuple[str, ...]
    observed: DetectionMatrix
    ranked_positions: np.ndarray
    ranked_scores: np.ndarray
    num_classes: int
    compression_ratio: float
    num_unique_signatures: int
    chain_devices: int = 0
    _reports: dict = field(default_factory=dict, repr=False)

    @property
    def num_devices(self) -> int:
        """Devices diagnosed."""
        return self.observed.num_faults

    def __len__(self) -> int:
        return self.num_devices

    def candidates(self, device: int) -> List[Tuple[object, float]]:
        """Device ``device``'s ranked ``(fault, score)`` pairs."""
        out = []
        for slot in range(self.ranked_positions.shape[1]):
            position = int(self.ranked_positions[device, slot])
            if position < 0:
                break
            out.append((self.faults[position],
                        float(self.ranked_scores[device, slot])))
        return out

    def report(self, device: int) -> DiagnosisReport:
        """Device ``device``'s report (lazily built, then cached)."""
        cached = self._reports.get(device)
        if cached is None:
            cached = DiagnosisReport(
                observed_mask=self.observed.row_int(device),
                candidates=tuple(self.candidates(device)),
            )
            self._reports[device] = cached
        return cached

    def reports(self) -> List[DiagnosisReport]:
        """Every device's report, in log order."""
        return [self.report(d) for d in range(self.num_devices)]

    def best(self, device: int):
        """Device ``device``'s top candidate (None when nothing matches)."""
        position = int(self.ranked_positions[device, 0]) \
            if self.ranked_positions.shape[1] else -1
        return self.faults[position] if position >= 0 else None

    def top(self, device: int, k: int) -> List:
        """Device ``device``'s ``k`` best candidate faults."""
        return [fault for fault, __ in self.candidates(device)[:k]]

    def hit_rate(self, true_positions: Sequence[int],
                 k: int = 1) -> float:
        """Fraction of devices whose true fault ranks in the top ``k``.

        Accuracy accounting for synthetic logs (``FailLog.
        true_positions``); candidates sharing the true fault's response
        class count as hits only if the true position itself appears.
        """
        if len(true_positions) != self.num_devices:
            raise DiagnosisInputError(
                f"{len(true_positions)} true positions for "
                f"{self.num_devices} devices"
            )
        if self.num_devices == 0:
            return 0.0
        top_k = self.ranked_positions[:, :k]
        truth = np.asarray(true_positions, dtype=np.int64)[:, None]
        return float((top_k == truth).any(axis=1).mean())

    def summary(self) -> Dict[str, object]:
        """The batch's headline numbers (JSON-ready)."""
        return {
            "num_devices": self.num_devices,
            "num_faults": len(self.faults),
            "num_tests": self.num_tests,
            "num_classes": self.num_classes,
            "compression_ratio": self.compression_ratio,
            "num_unique_signatures": self.num_unique_signatures,
            "max_candidates": int(self.ranked_positions.shape[1]),
            "chain_devices": self.chain_devices,
        }


def diagnose_batch(dictionary: PassFailDictionary,
                   devices: Union[FailLog, DetectionMatrix, Sequence[int]],
                   *, max_candidates: int = 10,
                   compressed: Optional[CompressedDictionary] = None,
                   chain: Optional[ChainRanker] = None
                   ) -> DiagnosisBatchReport:
    """Diagnose a batch of observed fail signatures in one pass.

    ``devices`` is a :class:`FailLog`, a packed ``(D, ceil(T/64))``
    :class:`~repro.utils.detmatrix.DetectionMatrix`, or a sequence of
    big-int observed masks.  ``compressed`` reuses a prebuilt
    :class:`~repro.diagnosis.compress.CompressedDictionary` (servers
    memoize it per dictionary); ``chain`` — a
    :class:`~repro.diagnosis.chain.ChainRanker` or a compiled circuit —
    re-ranks each device's top candidates by backward-cone evidence
    where the fail log carries failing outputs.

    Every device's ranking is bit-identical to
    ``diagnose(dictionary, mask, max_candidates)`` (before chain
    re-ranking, which only reorders equal-score ties and is applied to
    the single-device path the same way via ``ChainRanker.rerank``).
    """
    if max_candidates < 0:
        raise DiagnosisInputError(
            f"max_candidates must be non-negative, got {max_candidates}"
        )
    if isinstance(devices, FailLog):
        if devices.num_tests != dictionary.num_tests:
            raise DiagnosisInputError(
                f"fail log covers {devices.num_tests} tests, dictionary "
                f"{dictionary.num_tests}"
            )
        log: Optional[FailLog] = devices
        observed = devices.matrix
    elif isinstance(devices, DetectionMatrix):
        if devices.num_patterns != dictionary.num_tests:
            raise DiagnosisInputError(
                f"signature matrix covers {devices.num_patterns} tests, "
                f"dictionary {dictionary.num_tests}"
            )
        log = None
        observed = devices
    else:
        log = FailLog.from_masks(list(devices), dictionary.num_tests)
        observed = log.matrix

    if compressed is None:
        compressed = compress_dictionary(dictionary)
    elif compressed.dictionary is not dictionary:
        raise DiagnosisInputError(
            "compressed dictionary was built from a different dictionary"
        )

    num_devices = observed.num_faults
    with span("diagnosis.score", devices=num_devices,
              classes=compressed.num_classes):
        unique_reps, unique_inverse = observed.unique_rows()
        unique_words = observed.words[unique_reps]
        scores = _score_unique(compressed, unique_words)
    with span("diagnosis.rank", devices=num_devices,
              k=max_candidates):
        unique_positions, unique_scores = _rank_top_k(
            scores, max_candidates)
        ranked_positions = unique_positions[unique_inverse]
        ranked_scores = unique_scores[unique_inverse]

    chain_devices = 0
    if chain is not None and log is not None \
            and log.failing_outputs is not None:
        if isinstance(chain, ChainRanker):
            ranker = chain
        else:
            ranker = ChainRanker(chain)
        site_nodes = [fault.node for fault in dictionary.faults]
        with span("diagnosis.chain", devices=num_devices):
            for d in range(num_devices):
                failing = log.failing_outputs[d]
                if failing is None:
                    continue
                chain_devices += 1
                row = ranked_positions[d]
                live = row >= 0
                if not live.any():
                    continue
                entries = [
                    (ranker.sort_key(site_nodes[p], s, p, failing), p, s)
                    for p, s in zip(row[live], ranked_scores[d][live])
                ]
                entries.sort(key=lambda e: e[0])
                count = len(entries)
                ranked_positions[d, :count] = [p for __, p, __s in entries]
                ranked_scores[d, :count] = [s for __, __p, s in entries]

    _count_devices(num_devices)
    return DiagnosisBatchReport(
        faults=dictionary.faults,
        num_tests=dictionary.num_tests,
        device_ids=(log.device_ids if log is not None else
                    tuple(f"device{d:06d}" for d in range(num_devices))),
        observed=observed,
        ranked_positions=ranked_positions,
        ranked_scores=ranked_scores,
        num_classes=compressed.num_classes,
        compression_ratio=compressed.compression_ratio,
        num_unique_signatures=int(unique_reps.size),
        chain_devices=chain_devices,
    )
