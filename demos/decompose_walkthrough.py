"""How a degenerate multiplicative lattice factors through a coordinate map.

Every multiplicative sublattice of Z^(n+k) with co-rank k is the image of a
unique full-rank multiplicative lattice in Z^n under a unique ordered
coordinate-assignment map. This script shows the decomposition on a few
censused examples.

    python3 demos/decompose_walkthrough.py
"""

from multlat import (
    decompose,
    enumerate_corank_oracle,
    map_to_partition,
    map_to_string,
    torsion_size,
)


def show(lat) -> None:
    print(f"ambient Z^{lat.ambient_dim}, rank {lat.rank}, "
          f"torsion {torsion_size(lat)}")
    for row in lat.basis:
        print(f"    {list(row)}")
    g, core = decompose(lat)
    blocks = map_to_partition(g)
    print(f"  map   {map_to_string(g)}")
    print(f"  blocks {' '.join('{' + ','.join(map(str, b)) + '}' for b in blocks)}")
    print(f"  core basis {[list(r) for r in core.basis]}")
    print()


def main() -> None:
    print("Co-rank 1, torsion 3 in Z^3 (every witness drops one column):\n")
    for lat in enumerate_corank_oracle(3, 1, 3)[:4]:
        show(lat)

    print("Co-rank 2, torsion 2 in Z^4:\n")
    for lat in enumerate_corank_oracle(4, 2, 2)[:3]:
        show(lat)


if __name__ == "__main__":
    main()
