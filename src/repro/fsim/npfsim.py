"""Fault simulation by fanout-free regions on numpy ``uint64`` words.

The ``numpy`` entry of the backend registry (:mod:`repro.fsim.backend`).
Patterns pack into ``W = ceil(P / 64)`` words per node, and the circuit
is split once into fanout-free regions (:class:`FanoutFreeRegions`): a
node is a *stem* when its fanout pin count is not 1 or when it is a
primary output, and every other node drives one pin on the unique path
to its region's stem.  A query then runs in three vectorized steps:

* **Local words.**  Per loaded block, each gate pin gets a sensitization
  word (the AND of the other inputs for AND/NAND, of their complements
  for OR/NOR, all ones otherwise) and each node a path word (the AND of
  the sensitization words on its path to its stem).  A fault's local
  word -- activation AND pin word (branch faults only) AND path word --
  marks the patterns that flip its stem.  This is critical-path tracing
  inside the region (Abramovici, Menon & Miller, DAC 1983).
* **Stem observability.**  Only the distinct stems that some fault of
  the query flips are simulated, each as a flip of its fault-free value,
  sorted by level and batched through the
  :class:`repro.sim.npsim.LevelSchedule`, remapped once per engine from
  node ids to tensor rows.  A node needs a row only while it is live,
  from its own level through the highest level that reads it (outputs:
  to the end), so nodes whose live ranges never meet share a row
  (:func:`live_rows`), and one ``(num_rows, B, W)`` tensor serves the
  whole query: 615 rows for the 5,064 nodes of a deep 5,000-gate
  circuit.  A batch starts at its lowest stem's level and fills with
  fault-free words only the rows of the nodes at or below that level
  that a gate above it or an output reads; evaluation writes every
  other node's row at its own level, before anything reads it.  The OR
  over outputs of ``faulty XOR fault-free`` is a stem's observability
  word.
* **Rows.**  Each row is ``local & obs[stem]``, masked to the block width
  (:func:`repro.utils.detmatrix.tail_mask`) and returned packed as a
  :class:`repro.utils.detmatrix.DetectionMatrix`.

A staged block enters the ``uint64`` layout through
:meth:`~repro.utils.detmatrix.DetectionMatrix.from_bigints`, the same
converter every other consumer of packed words uses.

Why this is exact: no side input of a gate on the path from a fault site
to its stem can be reached from the site, because every node on that
path has one fanout pin.  So a path gate flips iff its one faulty input
flips and the gate is sensitized to that pin, each pattern is an
independent bit, and from the stem on the faulty machine *is* the
stem-flipped machine.  The rows are bit-identical to simulating one
faulty machine per fault, at the cost of one machine per stem.  Shared
tensor rows change no value: a gate is live at its own level together
with every fanin it reads, so it never shares a row with one, and a row
passes to a new node only after the last level that reads the old one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.faults.model import Fault, check_fault
from repro.fsim.backend import FaultSimBackend, flat_pins
from repro.sim.npsim import ONES64, LevelSchedule, simulate_matrix_levelized
from repro.sim.patterns import PatternSet
from repro.utils.detmatrix import DetectionMatrix, tail_mask

#: Soft cap on the stem-flip tensor, in bytes; batches are sized to fit.
#: A stem costs ``num_rows * W * 8`` bytes, and ``num_rows`` counts only
#: the nodes live at one level (615 of 5,064 nodes on a deep
#: 5,000-gate circuit), so 16 MiB holds as many stems as 128 MiB of
#: one-row-per-node tensor did.
DEFAULT_BATCH_BYTES = 16 << 20

#: Hard cap on stems per batch (keeps per-level scatter lists short).
MAX_BATCH_STEMS = 1024

#: Gates whose pin sensitization is the AND of the other inputs (value
#: ``False``) or of their complements (``True``).  A flip on any pin of
#: any other gate always passes.
_CONTROLLED = {GateType.AND: False, GateType.NAND: False,
               GateType.OR: True, GateType.NOR: True}


class FanoutFreeRegions:
    """A circuit partitioned once into fanout-free regions, as arrays.

    * ``stem_of[n]`` is the stem of node ``n``'s region (``n`` for a stem).
    * Gate pins are numbered flat: pin ``k`` of node ``n`` is
      ``pin_base[n] + k``, driven by node ``pin_src[pin_base[n] + k]``;
      ``num_pins`` is one past the last pin.
    * ``hops[d - 1]`` holds the non-stem nodes ``d`` pins away from their
      stem as ``(nodes, pins, consumers)``: each node drives the pin of
      the consumer one hop closer to the stem.
    * ``controlled`` holds the AND/OR-family gates of each arity >= 2 as
      ``(pins, invert)``: a ``(G, arity)`` flat pin array and a
      ``(G, 1, 1)`` word array, all ones where the side inputs count
      complemented (OR/NOR).
    """

    def __init__(self, circ: CompiledCircuit):
        num_nodes = circ.num_nodes
        self.pin_base, self.pin_src = flat_pins(circ)
        self.num_pins = int(self.pin_base[-1])
        arity = np.diff(self.pin_base)

        stem_of = np.arange(num_nodes)
        depth = np.zeros(num_nodes, np.int64)
        out_pin = np.zeros(num_nodes, np.int64)
        consumer = np.zeros(num_nodes, np.int64)
        # Node ids are topological, so a consumer is settled before the
        # nodes that feed it when walking the ids downwards.
        for node in range(num_nodes - 1, -1, -1):
            fanout = circ.fanout[node]
            if len(fanout) != 1 or circ.is_output[node]:
                continue
            gate = fanout[0]
            stem_of[node] = stem_of[gate]
            depth[node] = depth[gate] + 1
            out_pin[node] = self.pin_base[gate] + circ.fanin[gate].index(node)
            consumer[node] = gate
        self.stem_of = stem_of

        self.hops: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...] = \
            tuple((nodes, out_pin[nodes], consumer[nodes])
                  for nodes in (np.flatnonzero(depth == hop) for hop
                                in range(1, int(depth.max(initial=0)) + 1)))

        by_arity: dict = {}
        for node in circ.gate_nodes():
            invert = _CONTROLLED.get(circ.node_type[node])
            if invert is not None and arity[node] >= 2:
                nodes, flips = by_arity.setdefault(int(arity[node]), ([], []))
                nodes.append(node)
                flips.append(ONES64 if invert else 0)
        self.controlled: Tuple[Tuple[np.ndarray, np.ndarray], ...] = tuple(
            (self.pin_base[nodes][:, None] + np.arange(width),
             np.array(flips, dtype=np.uint64)[:, None, None])
            for width, (nodes, flips) in sorted(by_arity.items())
        )

    def sensitization(self, good: np.ndarray) -> np.ndarray:
        """Per-pin sensitization words, plus an all-ones row at ``num_pins``.

        Bit ``p`` of pin ``k``'s word is set iff flipping that pin alone
        flips its gate under pattern ``p``.  The extra last row serves
        stem faults, which have no pin.
        """
        sens = np.full((self.num_pins + 1, good.shape[1]), ONES64)
        for pins, invert in self.controlled:
            side = good[self.pin_src[pins]] ^ invert  # (G, arity, W)
            before = np.bitwise_and.accumulate(side, axis=1)
            after = np.bitwise_and.accumulate(side[:, ::-1], axis=1)[:, ::-1]
            words = np.full_like(side, ONES64)
            words[:, 1:] = before[:, :-1]
            words[:, :-1] &= after[:, 1:]
            sens[pins] = words
        return sens

    def path_words(self, sens: np.ndarray) -> np.ndarray:
        """Per-node AND of the sensitization words on its path to its stem."""
        path = np.full((len(self.stem_of), sens.shape[1]), ONES64)
        for nodes, pins, consumers in self.hops:
            path[nodes] = sens[pins] & path[consumers]
        return path


class NumpyFaultSim(FaultSimBackend):
    """Fault-simulation backend over ``uint64`` pattern words.

    Construction levelizes the circuit, partitions it into fanout-free
    regions and gives each node a stem-flip tensor row
    (:func:`live_rows`): ``rows[n]`` is node ``n``'s row, and
    ``num_rows`` is the most nodes live at one level.  Staging a block
    packs and simulates it fault-free; :meth:`detection_matrix` combines
    per-fault local words with the simulated observability of the
    query's stems.  Word and transition queries come from
    :class:`repro.fsim.backend.FaultSimBackend`, so the capture half of a
    pair block rides the same vectorized path.
    """

    name = "numpy"

    def __init__(self, circ: CompiledCircuit,
                 max_batch_bytes: int = DEFAULT_BATCH_BYTES):
        super().__init__(circ)
        self.schedule = LevelSchedule(circ)
        self.regions = FanoutFreeRegions(circ)
        # The base class's site checks share the regions' pin numbering.
        self._pins = (self.regions.pin_base, self.regions.pin_src)
        self.max_batch_bytes = max_batch_bytes
        self._level = np.asarray(circ.level, dtype=np.int64)
        self._level_numbers = [level.number for level in self.schedule.levels]
        self._outputs = np.asarray(circ.outputs, dtype=np.int64)
        # The highest level that reads each node (-1: none); outputs are
        # read after every level.
        pin_base, pin_src = self._pins
        reader = np.repeat(np.arange(circ.num_nodes), np.diff(pin_base))
        self._last_read = np.full(circ.num_nodes, -1, dtype=np.int64)
        np.maximum.at(self._last_read, pin_src, self._level[reader])
        self._last_read[self._outputs] = circ.max_level + 1
        self.rows, self.num_rows = live_rows(self._level, self._last_read)
        self._row_schedule = self.schedule.remap(self.rows)
        self._good: Optional[np.ndarray] = None  # (num_nodes, W)
        self._tables: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._num_words = 0

    def _stage(self, patterns: PatternSet) -> None:
        """Pack and simulate the fault-free circuit for a pattern block."""
        inputs = DetectionMatrix.from_bigints(patterns.words,
                                              patterns.num_patterns)
        self._good = simulate_matrix_levelized(
            self.circ, inputs.words, schedule=self.schedule
        )
        self._tables = None
        self._num_words = inputs.num_words

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """Packed detection matrix of every fault — the native query.

        Returns the engine's ``(num_faults, num_words)`` uint64 rows
        directly; no big-int round-trip anywhere.
        """
        self._require_block()
        return self._site_matrix(*self._sites(faults, "value", check_fault))

    def _site_matrix(self, node: np.ndarray, pin: np.ndarray,
                     value: np.ndarray) -> DetectionMatrix:
        """The query over checked ``(node, pin, value)`` site arrays."""
        width = self._require_block().num_patterns
        good = self._good
        if not len(node) or width == 0:
            return DetectionMatrix.zeros(len(node), width)
        regions = self.regions
        if self._tables is None:
            sens = regions.sensitization(good)
            self._tables = (sens, regions.path_words(sens))
        sens, path = self._tables

        branch = pin >= 0
        flat_pin = np.where(branch, regions.pin_base[node] + pin,
                            regions.num_pins)
        line = node.copy()
        line[branch] = regions.pin_src[flat_pin[branch]]
        stuck = np.where(value == 1, ONES64, np.uint64(0))[:, None]
        rows = (good[line] ^ stuck) & sens[flat_pin] & path[node]
        rows[:, -1] &= tail_mask(width)

        # Only the stems that some fault of the query flips are simulated.
        live = np.flatnonzero(rows.any(axis=1))
        stems, stem_row = np.unique(regions.stem_of[node[live]],
                                    return_inverse=True)
        rows[live] &= self._observability(good, stems)[stem_row]
        return DetectionMatrix(rows, width)

    # -- internals ------------------------------------------------------------

    def _batch_size(self) -> int:
        per_stem = self.num_rows * max(self._num_words, 1) * 8
        fit = max(1, self.max_batch_bytes // max(per_stem, 1))
        return int(min(fit, MAX_BATCH_STEMS))

    def _observability(self, good: np.ndarray,
                       stems: np.ndarray) -> np.ndarray:
        """Observability word of each stem: flipping it flips an output.

        One stem-flip buffer of at most ``max_batch_bytes`` (or one
        stem's rows, if that is more) serves the whole query; each batch
        reshapes a contiguous prefix of it to ``(num_rows, len(batch),
        W)``.
        """
        num_rows, num_words = self.num_rows, self._num_words
        obs = np.empty((len(stems), num_words), dtype=np.uint64)
        order = np.argsort(self._level[stems], kind="stable")
        batch = self._batch_size()
        tensor = np.empty(num_rows * min(batch, len(stems)) * num_words,
                          dtype=np.uint64)
        for start in range(0, len(order), batch):
            lanes = order[start:start + batch]
            values = tensor[:num_rows * len(lanes) * num_words].reshape(
                num_rows, len(lanes), num_words)
            obs[lanes] = self._flip_batch(good, stems[lanes], values)
        return obs

    def _flip_batch(self, good: np.ndarray, stems: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
        """Simulate stems (sorted by level) flipped side by side.

        ``values`` is a ``(num_rows, len(stems), W)`` tensor whose rows
        may hold anything; node ``n`` lives in row ``rows[n]``.  Only the
        nodes at or below the lowest stem's level that a gate above it or
        an output reads get fault-free words; evaluation writes every
        node above that level into its row before any gate or output
        reads it, and no node's row is written while the node is live.
        """
        rows = self.rows
        levels = self._level[stems]
        lowest = int(levels[0])
        read = np.flatnonzero((self._level <= lowest)
                              & (self._last_read > lowest))
        values[rows[read]] = good[read][:, None, :]

        # A stem's flip goes in once its own level has been evaluated.
        firsts = np.flatnonzero(np.diff(levels, prepend=-1))
        flips = {
            int(levels[first]): (stems[first:stop], np.arange(first, stop))
            for first, stop in zip(firsts, [*firsts[1:], len(stems)])
        }

        def flip(level_number: int) -> None:
            at = flips.get(level_number)
            if at is not None:
                nodes, lanes = at
                values[rows[nodes], lanes] = ~good[nodes]

        flip(lowest)
        start = bisect_right(self._level_numbers, lowest)
        schedule = self._row_schedule
        for level in schedule.levels[start:]:
            schedule.eval_level(level, values)
            flip(level.number)

        out_ids = self._outputs
        diff = values[rows[out_ids]] ^ good[out_ids][:, None, :]
        return np.bitwise_or.reduce(diff, axis=0)


def live_rows(level: np.ndarray, last_read: np.ndarray
              ) -> Tuple[np.ndarray, int]:
    """Give every node a tensor row, shared among nodes never live at once.

    Node ``n`` is live from ``level[n]`` through ``last_read[n]``, the
    highest level that reads it, or at its own level only when nothing
    reads it.  A greedy interval colouring in level order hands each node
    a row freed by a node whose live levels all lie below its own, so two
    nodes share a row only when their live ranges are disjoint, and the
    row count is the most nodes live at one level.  Returns ``(rows,
    num_rows)``: node ``n``'s row is ``rows[n]``.
    """
    last = np.maximum(last_read, level).tolist()
    starts: list = [[] for _ in range(max(last, default=0) + 1)]
    ends: list = [[] for _ in starts]
    for node, (first, stop) in enumerate(zip(level.tolist(), last)):
        starts[first].append(node)
        ends[stop].append(node)
    rows = [0] * len(last)
    free: list = []
    num_rows = 0
    for born, dying in zip(starts, ends):
        for node in born:
            if free:
                rows[node] = free.pop()
            else:
                rows[node] = num_rows
                num_rows += 1
        free.extend(rows[node] for node in dying)
    return np.array(rows, dtype=np.int64), num_rows
