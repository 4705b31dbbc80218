"""Walk the three receiver designs across working range.

Compares retroreflective, receiver-array, and under-focused single-detector
optics on signal strength, field of view, and focal volume, then locates
the range where the single detector overtakes retroreflection.  Writes the
full sweep to out/receiver_tradeoffs.csv.
"""

import math
from pathlib import Path

from memslidar.optics import (
    DesignKind,
    ReceiverSpec,
    TransmitterSpec,
    characterize,
    find_crossovers,
    fov_limit_underfocused,
    log_range_grid,
    sweep,
    write_sweep_csv,
)

OUT = Path(__file__).parent / "out"


def main():
    tx = TransmitterSpec(
        beam_quality_m=1.0,
        waist_radius_m=5e-3,
        wavelength_m=1e-6,
        mirror_fov_rad=math.radians(25.0),
    )
    receivers = [
        ReceiverSpec(DesignKind.RETROREFLECTIVE, aperture_m=5e-3,
                     image_distance_m=0.010, focal_length_m=0.015),
        ReceiverSpec(DesignKind.RECEIVER_ARRAY, aperture_m=0.1,
                     image_distance_m=0.010, focal_length_m=0.015,
                     detector_count_n=8),
        ReceiverSpec(DesignKind.SINGLE_DETECTOR, aperture_m=0.1,
                     image_distance_m=0.010, focal_length_m=0.015),
    ]
    zs = list(log_range_grid(0.5, 1000.0, 100))
    columns = sweep([tx], receivers, zs)

    OUT.mkdir(exist_ok=True)
    csv_path = OUT / "receiver_tradeoffs.csv"
    write_sweep_csv(columns, csv_path)
    print(f"swept {len(columns['Z_m'])} design points to {csv_path}")

    print("\nspot checks at 1 m / 100 m:")
    for rx in receivers:
        near = characterize(tx, rx, 1.0)
        far = characterize(tx, rx, 100.0)
        print(f"  {rx.design_kind.value:16s} rr {near.rr_per_m:10.3f} -> "
              f"{far.rr_per_m:8.4f} 1/m   fov {math.degrees(near.fov_rad):6.2f} -> "
              f"{math.degrees(far.fov_rad):6.2f} deg   vol {near.volume_m3 * 1e6:.2f} cm^3")

    for c in find_crossovers(columns):
        if {c["design_a"], c["design_b"]} == {"retroreflective", "single_detector"}:
            print(f"\nsingle detector overtakes retroreflection at "
                  f"Z* = {c['z_star_m']:.0f} m (winner above: {c['winner_above']})")

    single = receivers[2]
    limit = fov_limit_underfocused(single)
    print(f"under-focused FOV limit 2*atan(A(f-u)/2uf) = {limit:.3f} rad; the "
          f"mirror cap of {tx.mirror_fov_rad:.3f} rad keeps the effective FOV "
          f"flat over the whole desk-to-street range")


if __name__ == "__main__":
    main()
