"""Fit the frame budget model and generate each scan pattern regime.

Shows how sample counts fall out of the rate/overhead fit, then writes one
pattern JSON per regime plus a budget-vs-fps table to out/.
"""

import json
from pathlib import Path

import numpy as np

from memslidar.scan_engine import (
    REFERENCE_BUDGET_PAIRS,
    ROI,
    angles_to_pixel,
    budget,
    fit_budget,
    fps_for_budget,
    gen_density_sweep,
    gen_entropy_adaptive,
    gen_foveated,
    gen_full_fov,
    image_intrinsics,
    reference_mirror_model,
)

OUT = Path(__file__).parent / "out"
DIMS = (160, 120)


def main():
    fit = fit_budget(REFERENCE_BUDGET_PAIRS)
    print(f"fitted sample rate {fit.sample_rate_hz:.1f} Hz, "
          f"frame overhead {fit.frame_overhead_s * 1e3:.2f} ms "
          f"(residual rmse {fit.residual_rmse:.2f} samples)")

    model = reference_mirror_model()
    OUT.mkdir(exist_ok=True)
    table = ["fps,budget,fps_back_from_budget"]
    for fps in (30.0, 24.0, 20.0, 18.0, 13.0, 12.0, 9.0, 6.0):
        n = budget(model, fps)
        table.append(f"{fps:g},{n},{fps_for_budget(model, n):.3f}")
    (OUT / "budget_table.csv").write_text("\n".join(table) + "\n")
    print(f"budget table -> {OUT / 'budget_table.csv'}")

    # one pattern per regime at 10 fps (129-sample budget on this mirror)
    fps = 10.0
    rng = np.random.default_rng(3)
    entropy_proxy = rng.random((DIMS[1], DIMS[0]))
    entropy_proxy[40:80, 60:120] += 2.0  # hot block attracts samples
    patterns = {
        "full_fov": gen_full_fov(model, fps, DIMS),
        "density_sweep": gen_density_sweep(model, fps, DIMS, density=0.5),
        "entropy_adaptive": gen_entropy_adaptive(model, fps, entropy_proxy),
        "foveated_roi": gen_foveated(
            model, fps, ROI(40, 30, 120, 90, 1.0, 0.1), DIMS
        ),
    }
    intr = image_intrinsics(model, DIMS)

    def pixels(pattern):
        px, py = angles_to_pixel(pattern.samples.theta_rad, pattern.samples.phi_rad, intr)
        return np.floor(px).astype(int), np.floor(py).astype(int)

    for name, pattern in patterns.items():
        path = OUT / f"pattern_{name}.json"
        path.write_text(pattern.to_json())
        xs, _ = pixels(pattern)
        print(f"  {name:16s} {len(pattern.samples):3d} samples, "
              f"x span {xs.min()}..{xs.max()} -> {path.name}")

    xs, ys = pixels(patterns["foveated_roi"])
    inside = int(np.sum((40 <= xs) & (xs < 120) & (30 <= ys) & (ys < 90)))
    print(f"foveated split: {inside}/{len(xs)} samples landed in the "
          f"ROI (25% of the image at 10x relative density)")


if __name__ == "__main__":
    main()
