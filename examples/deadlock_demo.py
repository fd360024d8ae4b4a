#!/usr/bin/env python
"""The paper's Figure-1 deadlock, analysed and resolved.

Four servers with capacity for exactly one object each; the new placement
cyclically shifts the four objects. No server can receive before
deleting, and every deletion destroys the sole source of another pending
transfer: a deadlock. The demo shows

1. the transfer graph and its cycle (paper Fig. 1b),
2. the feasibility analysis flagging the deadlock,
3. how the dummy server breaks it — and that the exact optimum needs
   exactly one dummy transfer,
4. that H1+H2 recover that optimum from a naive schedule.

Run:  python examples/deadlock_demo.py
"""

from repro import build_pipeline, solve_optimal
from repro.analysis import (
    analyze_feasibility,
    build_transfer_graph,
    fig1_deadlock_instance,
    transfer_graph_cycles,
)


def main() -> None:
    instance = fig1_deadlock_instance()
    print("instance:", instance)

    graph = build_transfer_graph(instance)
    print(f"\ntransfer graph: {graph.number_of_nodes()} nodes, "
          f"{graph.number_of_edges()} arcs")
    for u, v, data in graph.edges(data=True):
        print(f"  S_{u + 1} --O_{data['obj']}--> S_{v + 1}")
    cycles = transfer_graph_cycles(instance)
    print(f"cycles: {[[f'S_{u + 1}' for u in c] for c in cycles]}")

    summary = analyze_feasibility(instance)
    print(f"\nfeasibility: storage_feasible={summary.storage_feasible}, "
          f"trivially_sequenceable={summary.trivially_sequenceable}")
    print(f"deadlock possible: {summary.deadlock_possible} "
          f"(zero-slack servers: {summary.zero_slack_servers})")

    print("\nresolving with the dummy server:")
    naive = build_pipeline("RDF").run(instance, rng=0)
    print(f"  RDF:          {naive.summary(instance)}")
    improved = build_pipeline("RDF+H1+H2").run(instance, rng=0)
    print(f"  RDF+H1+H2:    {improved.summary(instance)}")

    result = solve_optimal(instance)
    print(f"  exact optimum: cost={result.cost:g}, "
          f"dummy transfers={result.schedule.count_dummy_transfers(instance)} "
          f"(searched {result.stats.nodes} nodes, {result.status})")
    print("\n  optimal schedule:")
    for action in result.schedule:
        print(f"    {action}")


if __name__ == "__main__":
    main()
