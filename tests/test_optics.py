import json
import math

import numpy as np
import pytest

from memslidar import optics
from memslidar.optics import (
    SWEEP_BOUNDS,
    SWEEP_CSV_HEADER,
    CameraSpec,
    DegenerateFocus,
    DesignCharacterization,
    DesignKind,
    InvalidVariant,
    OpticsError,
    ReceiverSpec,
    TransmitterSpec,
    ZeroKernel,
    acuity_gain,
    apex_to_solid_angle,
    beam_divergence,
    characterize,
    divergence_is_physical,
    find_crossovers,
    format_sweep_csv,
    fov_limit_underfocused,
    log_range_grid,
    solid_angle_to_apex,
    sweep,
    write_sweep_csv,
)

MIRROR_25 = math.radians(25.0)


def tx(m=1.0, w0=6.0e-3, lam=1.0e-6, fov=MIRROR_25):
    return TransmitterSpec(beam_quality_m=m, waist_radius_m=w0,
                           wavelength_m=lam, mirror_fov_rad=fov)


def rx(kind, a=0.1, u=0.010, f=0.015, n=1):
    return ReceiverSpec(design_kind=kind, aperture_m=a, image_distance_m=u,
                        focal_length_m=f, detector_count_n=n)


@pytest.mark.parametrize("make, kwargs", [
    (tx, {"m": 0.5}),
    (tx, {"w0": 0.0}),
    (tx, {"lam": -1e-6}),
    (tx, {"fov": 4.0}),
    (lambda **kw: rx(DesignKind.RECEIVER_ARRAY, **kw), {"a": 0.0}),
    (lambda **kw: rx(DesignKind.RECEIVER_ARRAY, **kw), {"u": math.nan}),
    (lambda **kw: rx(DesignKind.RECEIVER_ARRAY, **kw), {"f": -0.015}),
    (lambda **kw: rx(DesignKind.RECEIVER_ARRAY, **kw), {"n": 0}),
    (lambda **kw: rx(DesignKind.SINGLE_DETECTOR, **kw), {"n": 4}),
    (CameraSpec, {"fov_rad": 4.0, "pixel_count": 100}),
    (CameraSpec, {"fov_rad": 0.4, "pixel_count": 0}),
], ids=["M", "w0", "lambda", "mirror-fov", "A", "u", "f", "n-zero", "n-single",
        "camera-fov", "camera-pixels"])
def test_specs_reject_out_of_range_fields(make, kwargs):
    with pytest.raises(OpticsError):
        make(**kwargs)


def test_grid_errors_are_optics_errors():
    with pytest.raises(OpticsError, match="non-empty"):
        sweep([tx(w0=5e-3)], [rx(DesignKind.RETROREFLECTIVE)], [])
    with pytest.raises(OpticsError, match="z_min < z_max"):
        log_range_grid(1.0, 0.5, 10)


# ---------- divergence ----------

def test_divergence_reference_value():
    # 1e-6 / (6e-3 * pi)
    assert beam_divergence(tx()) == pytest.approx(5.305164769729844e-05, rel=1e-12)


def test_divergence_quadratic_in_beam_quality():
    base = beam_divergence(tx(m=1))
    assert beam_divergence(tx(m=2)) == pytest.approx(4 * base, rel=1e-12)


def test_divergence_multimode_diode_is_nonphysical():
    d = beam_divergence(tx(m=300))
    assert d == pytest.approx(4.774648292756859, rel=1e-12)
    assert d > math.pi
    assert not divergence_is_physical(d)
    assert divergence_is_physical(beam_divergence(tx(m=1)))


# ---------- solid angle helpers ----------

def test_apex_solid_angle_roundtrip():
    for apex in (1e-4, 0.01, 0.4363, 2.0, math.pi):
        sr = apex_to_solid_angle(apex)
        assert solid_angle_to_apex(sr) == pytest.approx(apex, rel=1e-12)
    assert apex_to_solid_angle(math.pi) == pytest.approx(2 * math.pi, rel=1e-12)


@pytest.mark.parametrize("solid_sr", [-0.1, 4 * math.pi + 0.1, math.nan])
def test_solid_angle_outside_sphere_rejected(solid_sr):
    with pytest.raises(OpticsError, match="solid angle"):
        solid_angle_to_apex(solid_sr)


def test_acuity_gain_reference_value():
    # dot of 6e-4 sr against a 25-degree 640x480 camera
    apex = solid_angle_to_apex(6.0e-4)
    w0 = 1.0e-6 / (apex * math.pi)  # waist giving exactly that divergence
    cam = CameraSpec(fov_rad=MIRROR_25, pixel_count=640 * 480)
    gain = acuity_gain(tx(m=1, w0=w0), cam)
    assert gain == pytest.approx(1237.5737395435665, rel=1e-9)


def test_acuity_gain_identity_and_linearity():
    cam = CameraSpec(fov_rad=MIRROR_25, pixel_count=1000)
    pixel_sr = apex_to_solid_angle(MIRROR_25) / 1000
    apex = solid_angle_to_apex(pixel_sr)
    t = tx(m=1, w0=1.0e-6 / (apex * math.pi))
    # tolerance set by the sr->apex->sr roundtrip, not the gain formula
    assert acuity_gain(t, cam) == pytest.approx(1.0, rel=1e-9)
    cam2 = CameraSpec(fov_rad=MIRROR_25, pixel_count=2000)
    assert acuity_gain(t, cam2) == pytest.approx(2.0, rel=1e-9)


# ---------- characterize ----------

def test_retro_volume_reference():
    c = characterize(tx(w0=3.6e-3), rx(DesignKind.RETROREFLECTIVE, u=0.015), 1.0)
    assert c.volume_m3 == pytest.approx(math.pi * 0.015 * 0.0036**2 / 12, rel=1e-12)
    assert c.volume_m3 == pytest.approx(5.089380099e-08, rel=1e-9)


def test_retro_fov_is_mirror_fov():
    c = characterize(tx(), rx(DesignKind.RETROREFLECTIVE), 2.0)
    assert c.fov_rad == MIRROR_25


def test_retro_received_fraction_capped():
    # near range: geometric received angle exceeds the divergence, cap binds
    t = tx(w0=5e-3)
    wl = beam_divergence(t)
    near = characterize(t, rx(DesignKind.RETROREFLECTIVE), 0.5)
    uncapped = 1.0 / (2 * 0.5 * math.tan(wl / 2))
    assert near.rr_per_m == pytest.approx(uncapped, rel=1e-12)
    # far range: fraction < 1
    far = characterize(t, rx(DesignKind.RETROREFLECTIVE), 1000.0)
    assert far.rr_per_m < 1.0 / (2 * 1000.0 * math.tan(wl / 2))


def test_array_fov_mirror_capped():
    c = characterize(tx(), rx(DesignKind.RECEIVER_ARRAY, a=0.010, u=0.015, n=100), 1.0)
    assert 2 * math.atan(1 / 3) > MIRROR_25  # cap is active for these numbers
    assert c.fov_rad == MIRROR_25


def test_array_volume_and_rr():
    t = tx()
    c = characterize(t, rx(DesignKind.RECEIVER_ARRAY, a=0.010, u=0.015, n=10), 2.0)
    assert c.volume_m3 == pytest.approx(0.015 * 0.010**2, rel=1e-12)
    wl = beam_divergence(t)
    assert c.rr_per_m == pytest.approx(1 / (2 * 2.0 * math.tan(wl / 2)), rel=1e-12)


def test_single_infocus_kernel_matches_projection():
    # at u = f the kernel collapses to the dot's own angular size A/Z
    t = tx(fov=math.pi)
    c = characterize(t, rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.015, f=0.015), 1.0)
    assert c.fov_rad == pytest.approx(2 * math.atan(0.05), rel=1e-12)
    assert c.fov_rad == pytest.approx(0.09991679144388552, rel=1e-12)


def test_single_volume_cone_cuboid_ratio():
    a, u = 0.02, 0.012
    single = characterize(tx(), rx(DesignKind.SINGLE_DETECTOR, a=a, u=u, f=0.015), 2.0)
    array = characterize(tx(), rx(DesignKind.RECEIVER_ARRAY, a=a, u=u, n=4), 2.0)
    assert single.volume_m3 / array.volume_m3 == pytest.approx(math.pi / 12, rel=1e-12)
    assert single.volume_m3 < array.volume_m3


def test_single_degenerate_focus_at_range_equals_focal():
    with pytest.raises(DegenerateFocus):
        characterize(tx(), rx(DesignKind.SINGLE_DETECTOR, u=0.016, f=0.015), 0.015)


def test_single_zero_kernel_at_exact_focus():
    # overfocused design is in focus at Z = u f / (u - f)
    u, f = 0.016, 0.015
    z = u * f / (u - f)
    with pytest.raises(ZeroKernel):
        characterize(tx(), rx(DesignKind.SINGLE_DETECTOR, u=u, f=f), z)


def test_single_requires_range_beyond_focal():
    with pytest.raises(OpticsError):
        characterize(tx(), rx(DesignKind.SINGLE_DETECTOR, u=0.010, f=0.015), 0.010)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_range_must_be_finite_and_positive(z):
    r = rx(DesignKind.RECEIVER_ARRAY, n=4)
    with pytest.raises(OpticsError, match="finite and > 0"):
        characterize(tx(), r, z)
    with pytest.raises(OpticsError, match="finite and > 0"):
        sweep([tx(w0=5e-3)], [r], [1.0, z])


# ---------- under-focused FOV limit ----------

def test_fov_limit_reference_value():
    limit = fov_limit_underfocused(rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.010, f=0.015))
    assert limit == pytest.approx(2 * math.atan(5 / 3), rel=1e-12)
    assert limit == pytest.approx(2.060753653048625, rel=1e-12)


def test_fov_limit_vanishes_as_u_approaches_f():
    near = fov_limit_underfocused(
        rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.0149999, f=0.015)
    )
    assert near < 1e-3


def test_fov_limit_rejects_conventional_variant():
    with pytest.raises(InvalidVariant):
        fov_limit_underfocused(rx(DesignKind.SINGLE_DETECTOR, u=0.015, f=0.015))
    with pytest.raises(InvalidVariant):
        fov_limit_underfocused(rx(DesignKind.SINGLE_DETECTOR, u=0.016, f=0.015))


@pytest.mark.parametrize("kind", [DesignKind.RETROREFLECTIVE, DesignKind.RECEIVER_ARRAY])
def test_fov_limit_rejects_other_designs(kind):
    with pytest.raises(InvalidVariant, match="single_detector"):
        fov_limit_underfocused(rx(kind))


def test_underfocused_fov_converges_to_limit():
    r = rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.010, f=0.015)
    limit = fov_limit_underfocused(r)
    far = characterize(tx(fov=math.pi), r, 100.0)
    assert abs(far.fov_rad - limit) / limit < 0.01


# ---------- monotonicity properties ----------

def test_rr_strictly_decreasing_in_range():
    designs = [
        rx(DesignKind.RETROREFLECTIVE, u=0.015),
        rx(DesignKind.RECEIVER_ARRAY, a=0.01, u=0.015, n=8),
        rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.010, f=0.015),  # under-focused
        rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.015, f=0.015),  # conventional
    ]
    zs = np.geomspace(0.5, 100.0, 60)
    for r in designs:
        rr = [characterize(tx(), r, float(z)).rr_per_m for z in zs]
        assert all(a > b for a, b in zip(rr, rr[1:])), r.design_kind


def test_conventional_fov_strictly_decreasing():
    r = rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.015, f=0.015)
    zs = np.geomspace(0.5, 100.0, 60)
    fov = [characterize(tx(fov=math.pi), r, float(z)).fov_rad for z in zs]
    assert all(a > b for a, b in zip(fov, fov[1:]))


def test_mirror_cap_holds_for_random_designs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        fov_m = float(rng.uniform(0.05, math.pi))
        t = tx(m=float(rng.uniform(1, 100)), w0=float(rng.uniform(1e-4, 5e-3)), fov=fov_m)
        kind = list(DesignKind)[int(rng.integers(3))]
        u = float(rng.uniform(1e-3, 0.05))
        f = float(rng.uniform(1e-3, 0.05))
        z = float(rng.uniform(0.5, 100.0))
        if kind == DesignKind.SINGLE_DETECTOR and abs(z - f) < 1e-6:
            continue
        try:
            c = characterize(t, rx(kind, a=float(rng.uniform(1e-3, 0.1)), u=u, f=f), z)
        except ZeroKernel:
            continue
        assert c.fov_rad <= fov_m + 1e-15


def test_characterize_is_pure():
    t, r = tx(), rx(DesignKind.SINGLE_DETECTOR, a=0.03, u=0.012, f=0.02)
    assert characterize(t, r, 7.0) == characterize(t, r, 7.0)


# ---------- sweep ----------

def test_sweep_single_point_matches_characterize():
    t, r = tx(m=2.0, w0=2e-3), rx(DesignKind.RECEIVER_ARRAY, a=0.02, u=0.01, n=4)
    columns = sweep([t], [r], [3.0])
    assert len(columns["Z_m"]) == 1
    c = characterize(t, r, 3.0)
    assert columns["fov_rad"][0] == c.fov_rad
    assert columns["rr_per_m"][0] == c.rr_per_m
    assert columns["volume_m3"][0] == c.volume_m3


def test_sweep_row_count_and_order():
    txs = [tx(m=m, w0=w) for m in (1.0, 100.0) for w in (1e-4, 5e-3)]
    rxs = [rx(DesignKind.RETROREFLECTIVE), rx(DesignKind.SINGLE_DETECTOR, u=0.01)]
    zs = [1.0, 10.0]
    columns = sweep(txs, rxs, zs)
    assert len(columns["Z_m"]) == 4 * 2 * 2
    # innermost index is Z, then receiver, then transmitter
    assert columns["Z_m"][:4].tolist() == [1.0, 10.0, 1.0, 10.0]


def test_sweep_rejects_out_of_bounds_grid():
    with pytest.raises(OpticsError):
        sweep([tx(m=300.0, w0=5e-3)], [rx(DesignKind.RETROREFLECTIVE)], [1.0])
    with pytest.raises(OpticsError):
        sweep([tx(w0=5e-3)], [rx(DesignKind.RECEIVER_ARRAY, a=0.2)], [1.0])


@pytest.mark.parametrize("field, txs, rxs", [
    ("beam_quality_m", [tx(m=101.0, w0=5e-3)], [rx(DesignKind.RETROREFLECTIVE)]),
    ("waist_radius_m", [tx(w0=0.05e-3)], [rx(DesignKind.RETROREFLECTIVE)]),
    ("aperture_m", [tx(w0=5e-3)], [rx(DesignKind.RECEIVER_ARRAY, a=0.2)]),
    ("focal_length_m", [tx(w0=5e-3)], [rx(DesignKind.SINGLE_DETECTOR, f=0.06)]),
    ("image_distance_m", [tx(w0=5e-3)], [rx(DesignKind.SINGLE_DETECTOR, u=0.06)]),
], ids=["M", "w0", "A", "f", "u"])
def test_sweep_rejects_each_bound(field, txs, rxs):
    # one value outside each SWEEP_BOUNDS entry, named in the message
    lo, hi = SWEEP_BOUNDS[field]
    with pytest.raises(OpticsError, match=rf"^{field} \S+ outside \[{lo}, {hi}\]$"):
        sweep(txs, rxs, [1.0])


def test_sweep_emits_sentinel_rows():
    # Z = f hits the focus singularity: row kept, flagged, rr sentinel
    r = rx(DesignKind.SINGLE_DETECTOR, a=0.01, u=0.016, f=0.015)
    columns = sweep([tx(w0=5e-3)], [r], [0.015, 1.0])
    assert len(columns["Z_m"]) == 2
    assert columns["flag"][0] == "degenerate_focus"
    assert math.isinf(columns["rr_per_m"][0])
    assert columns["fov_rad"][0] == 0.0
    assert columns["flag"][1] == ""


def test_sweep_csv_format():
    rows = sweep([tx(w0=3.6e-3)], [rx(DesignKind.RETROREFLECTIVE, u=0.015)], [1.0])
    text = format_sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[0] == "design_kind,M,w0_m,lambda_m,n,A_m,u_m,f_m,Z_m,fov_rad,rr_per_m,volume_m3,flag"
    fields = lines[1].split(",")
    assert fields[0] == "retroreflective"
    # retro reports the effective aperture, which is the waist
    assert float(fields[5]) == pytest.approx(3.6e-3, rel=1e-9)
    # up to 9 significant digits on floats
    assert fields[11] == "5.0893801e-08"


def test_crossover_single_detector_overtakes_retro():
    t = tx(m=1.0, w0=5e-3)
    rxs = [rx(DesignKind.RETROREFLECTIVE),
           rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.010, f=0.015)]
    zs = list(log_range_grid(0.5, 1000.0, 80))
    rows = sweep([t], rxs, zs)
    crossings = find_crossovers(rows)
    pairs = {(c["design_a"], c["design_b"]): c for c in crossings}
    c = pairs[("retroreflective", "single_detector")]
    assert c["winner_above"] == "single_detector"
    assert 100.0 < c["z_star_m"] < 300.0
    # at M = 2 the array/retro crossing starts from a zero difference and
    # exp(log(z_lo)) rounds an ulp below z_lo; z_star stays in its bracket
    rows = sweep([tx(m=2.0, w0=5e-3)], rxs + [rx(DesignKind.RECEIVER_ARRAY, n=8)], zs)
    crossings = find_crossovers(rows)
    assert any(c["z_star_m"] == c["z_lo_m"] for c in crossings)
    for c in crossings:
        assert c["z_lo_m"] <= c["z_star_m"] <= c["z_hi_m"]


def test_crossovers_of_an_all_flagged_sweep_are_empty():
    # the beam diverges past pi, so every row of every design is flagged
    columns = sweep([tx(m=100.0, w0=0.1e-3)], [rx(kind) for kind in DesignKind], [1.0, 10.0])
    assert set(columns["flag"]) == {"nonphysical_divergence"}
    assert find_crossovers(columns) == []


def test_log_range_grid_endpoints():
    g = log_range_grid(0.5, 100.0, 50)
    assert len(g) == 50
    assert g[0] == pytest.approx(0.5)
    assert g[-1] == pytest.approx(100.0)


# ---------- row-at-a-time reference for the columnar sweep ----------
#
# The scalar characterize, row-dict sweep, CSV writer and crossover finder
# that the columnar path replaced.  The columnar path must reproduce them bit
# for bit: math.atan/math.tan on each range and Python-float x**2 per design.

def _focus_kernel_apex_ref(aperture_m, u_m, f_m, z_m):
    if z_m == f_m:
        raise DegenerateFocus(
            f"working range {z_m} m equals focal length; image distance diverges"
        )
    u_image = f_m * z_m / (z_m - f_m)
    kernel_diameter_m = abs(u_m - u_image) * aperture_m / u_image
    if kernel_diameter_m == 0.0:
        raise ZeroKernel(
            f"detector exactly in focus at Z={z_m} m (u = u' = {u_m} m)"
        )
    return 2.0 * math.atan(kernel_diameter_m / (2.0 * u_m))


def _characterize_ref(t, r, range_m):
    if not range_m > 0:
        raise ValueError(f"range must be > 0, got {range_m}")
    omega_laser = beam_divergence(t)
    flag = "" if divergence_is_physical(omega_laser) else "nonphysical_divergence"
    omega_mirror = t.mirror_fov_rad
    falloff = 2.0 * range_m * math.tan(omega_laser / 2.0)
    if r.design_kind == DesignKind.RETROREFLECTIVE:
        w0 = t.waist_radius_m
        received_apex = min(2.0 * math.atan(w0 / (2.0 * range_m)), omega_laser)
        rr = (received_apex / omega_laser) / falloff
        volume = math.pi * r.image_distance_m * w0**2 / 12.0
        fov = omega_mirror
    elif r.design_kind == DesignKind.RECEIVER_ARRAY:
        rr = 1.0 / falloff
        volume = r.image_distance_m * r.aperture_m**2
        fov = min(
            2.0 * math.atan(r.aperture_m / (2.0 * r.image_distance_m)), omega_mirror
        )
    else:
        if range_m < r.focal_length_m:
            raise ValueError(
                f"single-detector geometry needs Z > f; got Z={range_m}, "
                f"f={r.focal_length_m}"
            )
        kernel_apex = _focus_kernel_apex_ref(
            r.aperture_m, r.image_distance_m, r.focal_length_m, range_m
        )
        rr = 1.0 / (kernel_apex * falloff)
        volume = math.pi * r.image_distance_m * r.aperture_m**2 / 12.0
        fov = min(kernel_apex, omega_mirror)
    return DesignCharacterization(
        fov_rad=fov, rr_per_m=rr, volume_m3=volume, range_m=range_m, flag=flag
    )


def _sentinel_ref(t, r, range_m, reason):
    flag = reason
    if not divergence_is_physical(beam_divergence(t)):
        flag = "nonphysical_divergence;" + flag
    volume = math.pi * r.image_distance_m * r.aperture_m**2 / 12.0
    return DesignCharacterization(
        fov_rad=0.0, rr_per_m=math.inf, volume_m3=volume, range_m=range_m, flag=flag
    )


def _sweep_ref(tx_grid, rx_grid, range_grid_m):
    rows = []
    for t in tx_grid:
        for r in rx_grid:
            for z in [float(z) for z in range_grid_m]:
                try:
                    ch = _characterize_ref(t, r, z)
                except DegenerateFocus:
                    ch = _sentinel_ref(t, r, z, "degenerate_focus")
                except ZeroKernel:
                    ch = _sentinel_ref(t, r, z, "zero_kernel")
                eff_aperture = (
                    t.waist_radius_m
                    if r.design_kind == DesignKind.RETROREFLECTIVE
                    else r.aperture_m
                )
                rows.append({
                    "design_kind": r.design_kind.value,
                    "M": t.beam_quality_m,
                    "w0_m": t.waist_radius_m,
                    "lambda_m": t.wavelength_m,
                    "n": r.detector_count_n,
                    "A_m": eff_aperture,
                    "u_m": r.image_distance_m,
                    "f_m": r.focal_length_m,
                    "Z_m": z,
                    "fov_rad": ch.fov_rad,
                    "rr_per_m": ch.rr_per_m,
                    "volume_m3": ch.volume_m3,
                    "flag": ch.flag,
                })
    return rows


def _format_csv_ref(rows):
    lines = [SWEEP_CSV_HEADER]
    float_cols = ("M", "w0_m", "lambda_m", "A_m", "u_m", "f_m", "Z_m",
                  "fov_rad", "rr_per_m", "volume_m3")
    for row in rows:
        fields = []
        for col in SWEEP_CSV_HEADER.split(","):
            v = row[col]
            fields.append(f"{v:.9g}" if col in float_cols else str(v))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _find_crossovers_ref(rows):
    profiles = {}
    for row in rows:
        if row["flag"]:
            continue
        tx_key = (row["M"], row["w0_m"], row["lambda_m"])
        rxp = profiles.setdefault(tx_key, {})
        key = (row["design_kind"], row["n"], row["A_m"], row["u_m"], row["f_m"])
        rxp.setdefault(key, []).append((row["Z_m"], row["rr_per_m"]))
    crossovers = []
    for tx_key, by_design in profiles.items():
        keys = sorted(by_design.keys())
        for i, ka in enumerate(keys):
            for kb in keys[i + 1:]:
                if ka[0] == kb[0]:
                    continue
                prof_a = sorted(by_design[ka])
                prof_b = sorted(by_design[kb])
                shared = sorted(set(z for z, _ in prof_a) & set(z for z, _ in prof_b))
                if len(shared) < 2:
                    continue
                rr_a = dict(prof_a)
                rr_b = dict(prof_b)
                prev_z, prev_d = None, None
                for z in shared:
                    d = rr_a[z] - rr_b[z]
                    if prev_d is not None and d != 0 and (d > 0) != (prev_d > 0):
                        t = prev_d / (prev_d - d)
                        z_star = math.exp(
                            math.log(prev_z) + t * (math.log(z) - math.log(prev_z))
                        )
                        z_star = min(max(z_star, prev_z), z)
                        crossovers.append({
                            "M": tx_key[0],
                            "w0_m": tx_key[1],
                            "lambda_m": tx_key[2],
                            "design_a": ka[0],
                            "design_b": kb[0],
                            "z_lo_m": prev_z,
                            "z_hi_m": z,
                            "z_star_m": z_star,
                            "winner_above": ka[0] if d > 0 else kb[0],
                        })
                        break
                    prev_z, prev_d = z, d
    return crossovers


# Values on which the shortcuts the columnar path must avoid give another
# last bit here: w0**2, A**2 and M**2 differ from x*x (C pow vs multiply);
# np.arctan differs from math.atan at the retro argument for w0 = 2 mm at
# Z = 0.017 and 0.0333 m, and at the kernel argument of the (0.1, 0.010,
# 0.015) single detector at Z = 5.936 m.
_POW_W0, _POW_A, _POW_M = 0.0007753, 0.04891, 62.172
_ATAN_Z = (0.017, 0.0333, 5.936)
_ZERO_KERNEL_Z = 0.016 * 0.015 / (0.016 - 0.015)  # in focus for u=16 mm, f=15 mm


def _reference_grid(seed):
    """A seeded design grid holding every case the columnar path must match.

    Z == f and zero-kernel sentinels, nonphysical divergence (M=100,
    w0=0.1 mm), duplicated transmitters and receivers, retro receivers that
    differ only in A, an unsorted range list with repeats, and retro/array
    pairs whose rr difference is exactly 0 while the retro cap binds.
    """
    rng = np.random.default_rng(seed)
    ms = [1.0, 100.0, _POW_M, float(rng.uniform(1.0, 100.0))]
    w0s = [0.1e-3, 2e-3, _POW_W0, float(rng.uniform(0.1e-3, 5e-3))]
    txs = [tx(m=m, w0=w, fov=float(rng.uniform(0.1, math.pi)))
           for m in ms for w in w0s]
    txs.append(txs[5])  # duplicated transmitter
    f_single = [0.015, *rng.uniform(5e-3, 0.015, 2).tolist()]
    rxs = [
        *(rx(DesignKind.RETROREFLECTIVE, a=a) for a in (0.02, _POW_A, 0.1)),
        rx(DesignKind.RECEIVER_ARRAY, a=_POW_A, u=0.012, n=8),
        rx(DesignKind.RECEIVER_ARRAY, a=float(rng.uniform(0.01, 0.1)),
           u=float(rng.uniform(5e-3, 0.05)), n=int(rng.integers(1, 64))),
        rx(DesignKind.SINGLE_DETECTOR, a=0.1, u=0.010, f=0.015),
        rx(DesignKind.SINGLE_DETECTOR, a=_POW_A, u=0.016, f=0.015),
        *(rx(DesignKind.SINGLE_DETECTOR, a=float(rng.uniform(0.01, 0.1)),
             u=float(rng.uniform(5e-3, 0.03)), f=f) for f in f_single),
    ]
    rxs.append(rxs[5])  # duplicated receiver
    zs = [0.015, _ZERO_KERNEL_Z, *_ATAN_Z,
          *rng.permutation(np.geomspace(0.016, 1000.0, 24)).tolist()]
    zs += [zs[7], zs[2], 0.015]  # repeated ranges, out of order
    return txs, rxs, zs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_columnar_sweep_matches_row_reference_bytes(seed):
    txs, rxs, zs = _reference_grid(seed)
    columns = sweep(txs, rxs, zs)
    rows = _sweep_ref(txs, rxs, zs)
    for name in SWEEP_CSV_HEADER.split(","):
        assert columns[name].tolist() == [row[name] for row in rows], name
    text = format_sweep_csv(columns)
    assert text == _format_csv_ref(rows)
    for flag in ("degenerate_focus", "zero_kernel", "nonphysical_divergence;"):
        assert flag in text
    crossings = find_crossovers(columns)
    assert json.dumps(crossings) == json.dumps(_find_crossovers_ref(rows))
    # retro and array rr are exactly equal where the retro cap binds
    rr_at = {}
    for row in rows:
        if not row["flag"]:
            key = (row["design_kind"], row["M"], row["w0_m"], row["Z_m"])
            rr_at[key] = row["rr_per_m"]
    assert any(rr_at.get(("receiver_array", *key[1:])) == rr
               for key, rr in rr_at.items() if key[0] == "retroreflective")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_rows_match_row_reference(seed):
    # pairs and ranges in seeded orders, range-major; the first order in
    # which no duplicated design lands beside its twin leaves every run of
    # equal designs one row long
    txs, rxs, zs = _reference_grid(seed)
    columns = sweep(txs, rxs, zs)
    rows = _sweep_ref(txs, rxs, zs)
    pairs, ranges = len(txs) * len(rxs), len(zs)
    for attempt in range(20):
        rng = np.random.default_rng([seed, attempt])
        perm = (rng.permutation(pairs)[None, :] * ranges
                + rng.permutation(ranges)[:, None]).ravel()
        shuffled = {name: column[perm] for name, column in columns.items()}
        if len(optics._design_runs(shuffled)) == len(perm):
            break
    else:
        pytest.fail("no one-row-run order in 20 draws")
    rows = [rows[i] for i in perm.tolist()]
    assert format_sweep_csv(shuffled) == _format_csv_ref(rows)
    assert json.dumps(find_crossovers(shuffled)) == json.dumps(_find_crossovers_ref(rows))


def test_characterize_matches_scalar_reference():
    txs, rxs, zs = _reference_grid(3)
    for t in txs[::3]:
        for r in rxs:
            for z in zs:
                try:
                    want = _characterize_ref(t, r, z)
                except (DegenerateFocus, ZeroKernel) as exc:
                    with pytest.raises(type(exc)) as got:
                        characterize(t, r, z)
                    assert str(got.value) == str(exc)
                    continue
                assert characterize(t, r, z) == want


def test_crossover_zero_difference_matches_reference():
    # hand-made rr profiles over Z = 1..4 m; a zero difference becomes the
    # lower end of the next bracket but never starts a flip, so
    # (+, 0, -) reports nothing while (-, 0, +) brackets [2, 3]; the flagged
    # row at Z = 3 m is skipped, so (0, 0, +) brackets [2, 4]
    diffs = {1.0: [1, 0, -1, -1], 2.0: [-1, 0, 1, 1], 3.0: [0, 0, -2, 2]}
    rows = []
    for m, d in diffs.items():
        for kind, rr in (("receiver_array", [2.0 + v for v in d]),
                         ("retroreflective", [2.0] * 4)):
            for z, value in zip((1.0, 2.0, 3.0, 4.0), rr):
                rows.append({
                    "design_kind": kind, "M": m, "w0_m": 1e-3, "lambda_m": 1e-6,
                    "n": 1, "A_m": 0.05, "u_m": 0.01, "f_m": 0.015, "Z_m": z,
                    "fov_rad": 0.4, "rr_per_m": value, "volume_m3": 1e-6,
                    "flag": "zero_kernel" if (m, z) == (3.0, 3.0) else "",
                })
    columns = {name: np.array([row[name] for row in rows])
               for name in SWEEP_CSV_HEADER.split(",")}
    crossings = find_crossovers(columns)
    assert json.dumps(crossings) == json.dumps(_find_crossovers_ref(rows))
    assert [(c["M"], c["z_lo_m"], c["z_hi_m"]) for c in crossings] == [
        (2.0, 2.0, 3.0), (3.0, 2.0, 4.0)]


@pytest.mark.parametrize("entries", [1, 100])
def test_crossover_blocks_do_not_change_results(monkeypatch, entries):
    # one pair per block, and blocks that end mid-transmitter
    txs, rxs, zs = _reference_grid(4)
    columns = sweep(txs, rxs, zs)
    want = json.dumps(find_crossovers(columns))
    monkeypatch.setattr(optics, "_PAIR_BLOCK_ENTRIES", entries)
    assert json.dumps(find_crossovers(columns)) == want
    assert want == json.dumps(_find_crossovers_ref(_sweep_ref(txs, rxs, zs)))


def test_crossover_blocks_inside_and_across_transmitters(monkeypatch):
    # three transmitters with five cross-kind receiver pairs each, in one
    # pass over all 15 pairs: blocks of any size but 5, 10 or 15 and more put
    # a boundary inside a transmitter, and blocks of 6 or more hold pairs of
    # two or three
    txs = [tx(m=m, w0=w0) for m, w0 in ((1.0, 5e-3), (2.0, 5e-3), (1.0, 2e-3))]
    rxs = [rx(DesignKind.RETROREFLECTIVE), rx(DesignKind.RECEIVER_ARRAY, n=8),
           rx(DesignKind.SINGLE_DETECTOR), rx(DesignKind.SINGLE_DETECTOR, a=0.05, u=0.012)]
    zs = list(log_range_grid(0.5, 1000.0, 40))
    columns = sweep(txs, rxs, zs)
    want = json.dumps(_find_crossovers_ref(_sweep_ref(txs, rxs, zs)))
    assert len({c["M"] * c["w0_m"] for c in json.loads(want)}) == 3
    for pairs_per_block in range(1, 17):
        monkeypatch.setattr(optics, "_PAIR_BLOCK_ENTRIES", pairs_per_block * len(zs))
        assert json.dumps(find_crossovers(columns)) == want, pairs_per_block


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_written_csv_is_the_formatted_text(tmp_path, monkeypatch, block_rows):
    # sentinel rows, the same rows shuffled (runs of mostly one row), and a
    # grid with no crossovers, written in blocks that end inside runs
    monkeypatch.setattr(optics, "_CSV_BLOCK_ROWS", block_rows)
    txs, rxs, zs = _reference_grid(5)
    grids = [sweep(txs, rxs, zs),
             sweep([tx(w0=5e-3)], [rx(DesignKind.RECEIVER_ARRAY, n=n) for n in (2, 4)], [1.0, 2.0])]
    perm = np.random.default_rng(5).permutation(len(grids[0]["Z_m"]))
    grids.append({name: column[perm] for name, column in grids[0].items()})
    assert not find_crossovers(grids[1])
    for i, columns in enumerate(grids):
        path = tmp_path / f"{i}.csv"
        write_sweep_csv(columns, path)
        text = format_sweep_csv(columns)
        assert path.read_bytes() == text.encode()
        rows = [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]
        assert text == _format_csv_ref(rows)


def test_crossover_range_in_no_bracket_needs_no_log():
    # a range that only one receiver has never brackets a crossover, so a
    # zero there (outside log's domain) must not raise
    rows = []
    for kind, rr in (("receiver_array", {0.0: 5.0, 1.0: 3.0, 2.0: 1.0}),
                     ("retroreflective", {1.0: 2.0, 2.0: 2.0})):
        for z, value in rr.items():
            rows.append({
                "design_kind": kind, "M": 1.0, "w0_m": 1e-3, "lambda_m": 1e-6,
                "n": 1, "A_m": 0.05, "u_m": 0.01, "f_m": 0.015, "Z_m": z,
                "fov_rad": 0.4, "rr_per_m": value, "volume_m3": 1e-6, "flag": "",
            })
    columns = {name: np.array([row[name] for row in rows])
               for name in SWEEP_CSV_HEADER.split(",")}
    crossings = find_crossovers(columns)
    assert json.dumps(crossings) == json.dumps(_find_crossovers_ref(rows))
    assert [(c["z_lo_m"], c["z_hi_m"]) for c in crossings] == [(1.0, 2.0)]


@pytest.mark.parametrize("kinds", [
    (DesignKind.RETROREFLECTIVE,), (DesignKind.RECEIVER_ARRAY,),
    (DesignKind.SINGLE_DETECTOR,), tuple(DesignKind),
])
def test_sweep_dtypes_follow_spec_types(kinds):
    # the specs keep values as given, and each design column takes the
    # dtype of an array of its rows' values: an int M makes an int64
    # column, and a float32 aperture a float32 A_m where no retro waist
    # joins it
    txs = [tx(m=2, w0=2e-3), tx(m=3, w0=1e-3)]
    rxs = [rx(kind, a=np.float32(0.05)) for kind in kinds]
    zs = [1.0, 10.0]
    columns = sweep(txs, rxs, zs)
    rows = _sweep_ref(txs, rxs, zs)
    for name in optics._DESIGN_FIELDS:
        assert columns[name].dtype == np.array([row[name] for row in rows]).dtype, name
