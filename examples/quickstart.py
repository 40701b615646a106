"""Quickstart: the whole ADI flow through the public Flow API.

One declarative :class:`~repro.flow.config.FlowConfig` names the entire
pipeline (circuit → faults → U → ADI → order → test generation → curve);
a :class:`~repro.flow.flow.Flow` runs it with staged memoization, so
comparing fault orders reuses every upstream artifact.  The same config,
saved as JSON, reproduces this run from the command line:

    python -m repro run --config flow.json

Run:  python examples/quickstart.py
"""

from repro.flow import CircuitSpec, Flow, FlowConfig, USpec

# One config describes the whole run.  kind="generator" synthesizes a
# small deterministic circuit; kind="suite" would name a benchmark
# circuit (irs208 ... irs13207) instead.  Module-level so the flow
# server's smoke test and benchmark replay exactly this config over HTTP.
CONFIG = FlowConfig(
    circuit=CircuitSpec(kind="generator", name="quickstart",
                        num_inputs=10, num_gates=60, num_outputs=5,
                        gen_seed=42),
    u=USpec(max_vectors=2048),
    seed=42,
)


def main():
    config = CONFIG
    print("config (reproducible recipe):")
    print(config.to_json())

    flow = Flow(config)  # add cache="results/cache" to persist artifacts

    circ = flow.circuit()
    print(f"\ncircuit: {circ.name} — {circ.num_inputs} inputs, "
          f"{circ.num_gates} gates, {circ.num_outputs} outputs")

    # 1. Target faults: collapsed single stuck-at faults.
    print(f"target faults (collapsed): {len(flow.faults())}")

    # 2. U: the random-pool prefix whose first detections reach ~90%
    # coverage (the whole pool if they never do), found by no-dropping
    # simulation of the pool in blocks.
    selection = flow.selection()
    print(f"|U| = {selection.num_vectors} vectors, "
          f"coverage of U = {selection.coverage:.1%}")

    # 3. ADI per fault, from the rows of U that step 2 simulated.
    lo, hi = flow.adi().adi_min_max()
    print(f"ADI range over detected faults: {lo} .. {hi}")

    # 4+5. Order the faults and generate tests — one Flow serves every
    # order; faults/U/ADI are computed once and shared.
    print(f"\n{'order':8s} {'tests':>6s} {'coverage':>9s}")
    for order_name in ("orig", "dynm", "0dynm", "incr0"):
        result = flow.tests(order_name)
        print(f"{order_name:8s} {result.num_tests:6d} "
              f"{result.fault_coverage():9.1%}")

    print("\nExpected shape: 0dynm smallest, incr0 largest.")


if __name__ == "__main__":
    main()
