"""Compute the mpmath reference set that the benchmark's ``max_rel_err`` uses.

For every grid point the script evaluates the five moment integrals

    t_n(z) = z * int_R C**n exp(-C**2) (1 + a|C|) / (mu(C) - z) dC,
    mu(C) = C / (1 + a|C|),

by direct 30-digit ``mpmath.quad`` on each half-line (split at the real
part of the nearby pole), and the dispersion function lambda(z) as the
determinant of the 3x3 matrix assembled from them.  Nothing here calls
the library, so the values are an independent oracle for
``moments_at(...).t`` and ``lambda_fn``.

The grid is fixed and does not depend on any seed.  It is laid out in the
half-line pole variables Z+ = z/(1 - a z) and Z- = z/(1 + a z), with
|Z| in [0, 20] (dense around the series switch at |Z| = 8 and across the
4..10 band), twelve arguments around the circle and slopes a in
{0, 1, 5, 100}.

Run from the repository root (takes a few minutes on two cores):

    python3 perfbench/make_reference.py

It rewrites ``perfbench/reference_moments.json``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os

import mpmath as mp

DPS = 30
SLOPES = (0.0, 1.0, 5.0, 100.0)
RADII = (0.05, 0.3, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5, 7.9, 7.99,
         8.01, 8.5, 9.0, 10.0, 12.0, 15.0, 20.0)
N_ANGLES = 12
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "reference_moments.json")


def grid():
    """(a, z) pairs of the reference set, as Python floats and complexes."""
    pts = []
    for a in SLOPES:
        # a = 0 has Z+ = Z- = z, so one layout covers both half-lines
        sides = (1,) if a == 0.0 else (1, -1)
        for side in sides:
            for r in RADII:
                for k in range(N_ANGLES):
                    th = 2.0 * math.pi * (k + 0.5) / N_ANGLES
                    big_z = r * complex(math.cos(th), math.sin(th))
                    # invert Z+ = z/(1 - a z) (side 1) or Z- = z/(1 + a z)
                    z = big_z / (1.0 + side * a * big_z)
                    pts.append((a, z))
    return pts


def _split(pole):
    """Breakpoints on [0, inf) that isolate a pole near the half-line."""
    re, im = mp.re(pole), abs(mp.im(pole))
    pts = [mp.mpf(0)]
    if re > 0:
        for q in (re - 2 * im, re, re + 2 * im):
            if q > pts[-1]:
                pts.append(q)
    pts.append(mp.inf)
    return pts


def reference_point(args):
    a, z = args
    mp.mp.dps = DPS
    a_mp = mp.mpf(a)
    z_mp = mp.mpc(z.real, z.imag)
    zp = z_mp / (1 - a_mp * z_mp)
    zm = z_mp / (1 + a_mp * z_mp)
    t = []
    for n in range(5):
        def f_plus(c, n=n):
            return mp.exp(-c * c) * (1 + a_mp * c) * c**n / (c / (1 + a_mp * c) - z_mp)

        def f_minus(u, n=n):  # C = -u
            return mp.exp(-u * u) * (1 + a_mp * u) * (-u)**n / (-u / (1 + a_mp * u) - z_mp)

        t.append(z_mp * (mp.quad(f_plus, _split(zp)) + mp.quad(f_minus, _split(-zm))))

    sp = mp.sqrt(mp.pi)
    beta = (2 * a_mp + sp) / (2 * (a_mp + sp))
    r0 = 1 / (a_mp + sp)
    r1 = 2 / (2 * a_mp + sp)
    r2 = 4 * (a_mp + sp) / (4 * a_mp**2 + 7 * sp * a_mp + 2 * mp.pi)
    m = mp.matrix(3, 3)
    for row in range(3):
        m[row, 0] = (r0 + beta**2 * r2) * t[row] - beta * r2 * t[row + 2]
        m[row, 1] = r1 * t[row + 1]
        m[row, 2] = r2 * (t[row + 2] - beta * t[row])
        m[row, row] += 1
    lam = mp.det(m)

    def pair(v):
        return [mp.nstr(mp.re(v), DPS), mp.nstr(mp.im(v), DPS)]

    return {"a": a, "z": [repr(z.real), repr(z.imag)],
            "t": [pair(v) for v in t], "lambda": pair(lam)}


def main():
    pts = grid()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        rows = pool.map(reference_point, pts, chunksize=8)
    write({
        "description": "t0..t4 and lambda by 30-digit mpmath.quad; see make_reference.py",
        "dps": DPS, "slopes": list(SLOPES), "radii": list(RADII),
        "n_angles": N_ANGLES, "points": rows,
    })
    print(f"wrote {len(rows)} points to {OUT}")


def write(payload):
    """Write the reference set as JSON with one point per line."""
    head = {k: v for k, v in payload.items() if k != "points"}
    lines = [json.dumps(p) for p in payload["points"]]
    with open(OUT, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "points": [\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    main()
