"""Planar point location in a campus map with a trapezoidal-map skip-web.

The paper's GIS motivation: a campus or city map stored as non-crossing
segments in a peer-to-peer network, answering "which face of the map is
this point in?" — planar point location — with O(log n) messages.

Run with:  python examples/campus_map.py
(after ``pip install -e .``, or with ``PYTHONPATH=src`` from the repo root)
"""

import random

from repro.api import Cluster
from repro.planar.segments import bounding_box
from repro.workloads import city_map_segments, non_crossing_segments


def main() -> None:
    rng = random.Random(17)

    print("== street-grid campus map ==")
    streets = city_map_segments(blocks_x=5, blocks_y=4, seed=17)
    box = bounding_box(streets)
    cluster = Cluster(structure="skiptrapezoid", items=streets, box=box, seed=17)
    print(
        f"street segments: {len(streets)}, trapezoids: "
        f"{cluster.structure.level0_map.trapezoid_count()}, "
        f"hosts: {cluster.stats().hosts}"
    )

    for _ in range(4):
        point = (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
        located = cluster.nearest(point).result()
        above = located.answer.above_segment
        below = located.answer.below_segment
        print(
            f"  at ({point[0]:6.1f},{point[1]:6.1f}): "
            f"street above: {'map edge' if above is None else 'yes'}, "
            f"street below: {'map edge' if below is None else 'yes'}, "
            f"{located.messages} messages"
        )

    print("\n== a richer random map, queried as one concurrent batch ==")
    segments = non_crossing_segments(60, seed=23)
    box = bounding_box(segments)
    cluster = Cluster(structure="skiptrapezoid", items=segments, box=box, seed=23)
    report = cluster.batch(
        [
            ("search", (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3])))
            for _ in range(20)
        ]
    )
    print(
        f"segments: {len(segments)}, trapezoids: "
        f"{cluster.structure.level0_map.trapezoid_count()}, "
        f"mean point-location messages: {report.messages_per_op:.2f} "
        f"({report.rounds} rounds for the whole batch)"
    )


if __name__ == "__main__":
    main()
