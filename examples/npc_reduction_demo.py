#!/usr/bin/env python
"""The NP-completeness proof of §3.4, executed.

Builds the paper's Knapsack→RTSP reduction for a small Knapsack
instance, solves the Knapsack by dynamic programming and the RTSP
instance by branch and bound, and shows the two optima encode each other:
the cheapest transfer schedule smuggles exactly the optimal knapsack
subset through the hub's spare storage.

Run:  python examples/npc_reduction_demo.py
"""

from repro.exact import solve_optimal
from repro.npc import (
    KnapsackInstance,
    canonical_schedule,
    decision_threshold,
    decode_schedule,
    reduce_knapsack_to_rtsp,
    solve_knapsack,
)
from repro.npc.reduction import canonical_cost


def main() -> None:
    knap = KnapsackInstance.create(
        benefits=[6, 5, 4, 3], sizes=[5, 4, 3, 2], capacity=9
    )
    print(f"knapsack: benefits={knap.benefits} sizes={knap.sizes} "
          f"capacity={knap.capacity}")
    dp = solve_knapsack(knap)
    print(f"DP optimum: subset={set(dp.chosen)} value={dp.value} "
          f"weight={dp.weight}")

    reduction = reduce_knapsack_to_rtsp(knap)
    rtsp = reduction.rtsp
    print(f"\nreduced RTSP instance: {rtsp.num_servers} servers, "
          f"{rtsp.num_objects} objects (P = {reduction.size_product})")

    seed = canonical_schedule(reduction, dp.chosen)
    print(f"canonical schedule for the DP subset: "
          f"cost={seed.cost(rtsp):,.0f} "
          f"(closed form {canonical_cost(reduction, dp.chosen):,.0f})")

    result = solve_optimal(rtsp, allow_staging=False)
    print(f"exact RTSP optimum: cost={result.cost:,.0f} "
          f"({result.stats.nodes} nodes, {result.status})")

    subset, value = decode_schedule(reduction, result.schedule)
    print(f"decoded from the optimal schedule: subset={subset} value={value}")
    assert value == dp.value, "reduction round-trip failed!"

    k = dp.value
    print(f"\ndecision view: a schedule of cost <= "
          f"{decision_threshold(knap, k):,.0f} exists "
          f"<=> a subset of value >= {k} exists")
    print("round-trip OK: RTSP optimum encodes the Knapsack optimum")


if __name__ == "__main__":
    main()
