"""Invariants of one integrate_segment call over random inputs.

Whatever the initial state, segment kind, load and tolerances, a call must
keep its bookkeeping straight: clamp events only while both switches are
off, a fixed bridge voltage while one is on, a time-ordered record, events
inside the span, and the same bytes from the same inputs.  A call may end
in a mode violation or chatter; the rows and events written up to that
point must still obey the invariants.

A full step by a mode's affine map must also agree with the stage-form
RK4 step it stands for, in every rectifier phase, on both rails and for
both load kinds.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llckit import kernels

LR = 37e-6
CR = 68e-9
LM = 75e-6
N = 1.83

DEAD = (kernels.SEG_DEAD_TO_LOW, kernels.SEG_DEAD_TO_HIGH)
CLAMPS = (kernels.EV_CLAMP_HIGH, kernels.EV_CLAMP_LOW)


@st.composite
def segments(draw):
    seg = draw(st.sampled_from((kernels.SEG_HIGH, kernels.SEG_DEAD_TO_LOW,
                                kernels.SEG_LOW, kernels.SEG_DEAD_TO_HIGH)))
    clamp = draw(st.integers(0, 1))
    vin = draw(st.floats(0.0, 100.0))
    if seg == kernels.SEG_HIGH or (seg in DEAD and clamp == 1):
        vsw = vin
    else:
        vsw = 0.0
    vf = draw(st.floats(0.0, 1.0))
    vout = draw(st.floats(0.0, 30.0))
    rect = draw(st.sampled_from((kernels.RECT_OFF, kernels.RECT_D1,
                                 kernels.RECT_D2)))
    ilr = draw(st.floats(-2.0, 2.0))
    if rect == kernels.RECT_OFF:
        # the open-rectifier magnetizing voltage at a fraction u of the
        # clamp level n (vOut + Vf); |u| > 1 starts past a clamp
        u = draw(st.floats(-1.2, 1.2))
        vcr = vsw - (LR + LM) / LM * u * N * (vout + vf)
        ilm = ilr
    else:
        # a conducting pair carries a secondary current in its own direction
        vcr = draw(st.floats(-100.0, 150.0))
        isec = draw(st.floats(0.0, 1.0))
        ilm = ilr - isec if rect == kernels.RECT_D1 else ilr + isec
    dt_max = draw(st.floats(1e-9, 5e-8))
    steps = draw(st.integers(0, 150))
    t0 = draw(st.floats(0.0, 1e-3))
    t1 = t0 + steps * dt_max * draw(st.floats(0.5, 1.0))
    load_kind = draw(st.sampled_from((kernels.LOAD_RES, kernels.LOAD_CUR)))
    if load_kind == kernels.LOAD_RES:
        load_val = draw(st.floats(1.0, 1e4))
    else:
        load_val = draw(st.floats(0.0, 2.0))
    # down to float exhaustion, and as wide as a step or wider so that
    # bisection hands back the whole step
    tol_t = draw(st.sampled_from((1e-18, 1e-12, 1.0, 2.0)))
    if tol_t >= 1.0:
        tol_t = tol_t * dt_max
    return dict(
        x0=(ilr, vcr, ilm, vout), t0=t0, t1=t1, seg=seg, clamp=clamp,
        rect=rect, vin=vin, Vf=vf, Cout=draw(st.floats(1e-6, 1e-4)),
        load_kind=load_kind, load_val=load_val, dt_max=dt_max, tol_t=tol_t,
        stride=draw(st.integers(1, 5)))


def run(p):
    rec = np.zeros((4096, kernels.REC_COLS))
    ev = np.zeros((4096, 2))
    acc = np.zeros(2)
    x = p["x0"]
    out = kernels.integrate_segment(
        x[0], x[1], x[2], x[3], p["t0"], p["t1"], p["seg"], p["clamp"],
        p["rect"], p["vin"], LR, CR, LM, N, p["Vf"], p["Cout"],
        p["load_kind"], p["load_val"], p["dt_max"], p["tol_t"], p["stride"],
        rec, 0, ev, 0, acc)
    return out, rec, ev, acc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments())
def test_segment_invariants(p):
    out, rec, ev, acc = run(p)
    err, rec_n, ev_n = out[0], out[1], out[2]
    assert err in (kernels.ERR_OK, kernels.ERR_MODE_VIOLATION,
                   kernels.ERR_CHATTER)
    rows = rec[:rec_n]
    events = ev[:ev_n]
    assert rec_n >= 1

    if p["seg"] not in DEAD:
        assert not np.any(np.isin(events[:, 1], CLAMPS))
        vsw = p["vin"] if p["seg"] == kernels.SEG_HIGH else 0.0
        assert np.all(rows[:, 5] == vsw)

    assert np.all(np.diff(rows[:, 0]) >= 0.0)
    assert np.all((events[:, 0] >= p["t0"]) & (events[:, 0] <= p["t1"]))

    again = run(p)
    assert again[0] == out
    assert again[1].tobytes() == rec.tobytes()
    assert again[2].tobytes() == ev.tobytes()
    assert again[3].tobytes() == acc.tobytes()


@st.composite
def map_steps(draw):
    rect = draw(st.sampled_from((kernels.RECT_OFF, kernels.RECT_D1,
                                 kernels.RECT_D2)))
    seg = draw(st.sampled_from((kernels.SEG_HIGH, kernels.SEG_LOW)))
    vin = draw(st.floats(0.0, 100.0))
    vsw = vin if seg == kernels.SEG_HIGH else 0.0
    vf = draw(st.floats(0.0, 1.0))
    load_kind = draw(st.sampled_from((kernels.LOAD_RES, kernels.LOAD_CUR)))
    if load_kind == kernels.LOAD_RES:
        load_val = draw(st.floats(1.0, 1e4))
        vout = draw(st.floats(0.0, 30.0))
    else:
        # the sink stays on through the step only well above ground
        load_val = draw(st.floats(0.0, 2.0))
        vout = draw(st.floats(1.0, 30.0))
    ilr = draw(st.floats(-2.0, 2.0))
    if rect == kernels.RECT_OFF:
        # short of either clamp, so no diode turns on inside the step
        u = draw(st.floats(-0.9, 0.9))
        vcr = vsw - (LR + LM) / LM * u * N * (vout + vf)
        ilm = ilr
    else:
        vcr = draw(st.floats(-100.0, 150.0))
        isec = draw(st.floats(0.05, 1.0))
        ilm = ilr - isec if rect == kernels.RECT_D1 else ilr + isec
    return dict(x0=(ilr, vcr, ilm, vout), seg=seg, rect=rect, vin=vin,
                vsw=vsw, Vf=vf, Cout=draw(st.floats(1e-6, 1e-4)),
                load_kind=load_kind, load_val=load_val,
                dt=draw(st.floats(1e-9, 5e-8)),
                t0=draw(st.floats(0.0, 1e-3)))


def _close(got, ref):
    got = np.asarray(got)
    ref = np.asarray(ref)
    return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(map_steps())
def test_map_step_matches_rk4(p):
    x = p["x0"]
    t0 = p["t0"]
    t1 = t0 + p["dt"]
    h = t1 - t0  # the step the kernel takes over [t0, t1]
    ode = (LR, CR, LM, N, p["Vf"], p["Cout"], p["load_kind"], p["load_val"])
    ref = kernels._rk4(*x, h, p["vsw"], p["rect"], *ode)

    # the coefficients themselves
    m = kernels._mode_map(h, p["vsw"], p["rect"], *ode)
    d = np.reshape(m[:16], (4, 4))
    assert _close(np.asarray(x) + d @ np.asarray(x) + np.asarray(m[16:]), ref)

    # one full step of the kernel, which takes it by the map
    rec = np.zeros((8, kernels.REC_COLS))
    ev = np.zeros((8, 2))
    acc = np.zeros(2)
    out = kernels.integrate_segment(
        *x, t0, t1, p["seg"], 0, p["rect"], p["vin"], *ode[:6],
        p["load_kind"], p["load_val"], h, 1e-18, 1, rec, 0, ev, 0, acc)
    assume(out[0] == kernels.ERR_OK and out[2] == 0)
    assert out[3] == p["rect"]
    assert _close(out[5:9], ref)
    if p["rect"] == kernels.RECT_OFF:
        assert out[5] == out[7]
