"""Location-based services: find the nearest free kiosk with a quadtree skip-web.

The paper's introduction motivates multi-dimensional skip-webs with
location queries ("the closest open computer kiosk or empty parking space
on a college campus").  This example stores 2-d kiosk positions in a
distributed skip quadtree, locates query positions, and answers
approximate nearest-neighbour and range queries, printing the message
costs of each operation.

Run with:  python examples/location_service.py
(after ``pip install -e .``, or with ``PYTHONPATH=src`` from the repo root)
"""

import random

from repro.api import Cluster
from repro.spatial.geometry import HyperCube
from repro.spatial.nearest import approximate_nearest_neighbor, approximate_range_query
from repro.workloads import clustered_points


def main() -> None:
    rng = random.Random(3)
    # Kiosks cluster around campus buildings.
    kiosks = clustered_points(180, seed=11, clusters=6, spread=0.03)
    campus = HyperCube((0.0, 0.0), 1.0)

    print(f"== distributed quadtree over {len(kiosks)} kiosks ==")
    cluster = Cluster(structure="skipquadtree", items=kiosks, bounding_cube=campus, seed=11)
    web = cluster.structure  # domain APIs (approx-NN) live on the structure
    print(
        f"hosts: {cluster.stats().hosts}, quadtree depth: {web.level0_tree.depth()}, "
        f"max records per host: {web.max_memory_per_host()}"
    )

    print("\n== point location: which cell of the campus subdivision am I in? ==")
    for _ in range(3):
        position = (rng.random(), rng.random())
        located = cluster.nearest(position).result()
        print(
            f"  at {position[0]:.3f},{position[1]:.3f}: cell side "
            f"{located.answer.cell.side:.4f}, {located.messages} messages"
        )

    print("\n== approximate nearest kiosk ==")
    for _ in range(3):
        position = (rng.random(), rng.random())
        answer = approximate_nearest_neighbor(web, position)
        print(
            f"  at {position[0]:.3f},{position[1]:.3f}: kiosk at "
            f"{answer.approximate[0]:.3f},{answer.approximate[1]:.3f} "
            f"(ratio {answer.ratio:.2f} vs exact, {answer.messages} messages)"
        )

    print("\n== range query: kiosks inside a building footprint ==")
    footprint = HyperCube((0.30, 0.40), 0.2)
    result = approximate_range_query(web, footprint)
    print(
        f"  {len(result.points)} kiosks inside the footprint "
        f"({result.messages} messages to locate its corners)"
    )

    print("\n== a new kiosk comes online / one is removed ==")
    insert = cluster.insert((0.515, 0.515))
    delete = cluster.delete(kiosks[0])
    print(f"  insert: {insert.messages} messages, delete: {delete.messages} messages")


if __name__ == "__main__":
    main()
