"""The modes of the switched LLC power stage and their exact step maps.

The power stage is piecewise linear: within one mode the four states

    x = (iLr, vCr, iLm, vOut)

obey a constant-coefficient ODE dx/dt = A x + b (``Mode``).  A mode is one
combination of

  * rectifier phase: open, D1 or D2 conducting,
  * bridge-node rail: vsw = vin or 0,
  * for a current-sink load, sink state: drawing its current while
    vOut > 0, or holding vOut where it is once the output is down at 0 V
    (the sink cannot pull the output below ground, so there it takes only
    what the rectifier delivers).

A mode's record is built here and nowhere else, once per run (``_mode_of``
keeps them in the run's cache); the kernel (:mod:`llckit.kernels`) and the
period driver read its fields by name.  Besides A and b it holds what the
mode fixes: its event functions, its node voltage, its diode-loss factor,
its rectifier phase and its load-current rule.

Each mode is stepped by its exact affine propagator

    x(t + h) = x + D(h) x + q(h),    D = Phi(h) - I,

taken from the Taylor series of exp(A h) summed to double precision
(``_series``).  Each mode keeps one Taylor table (``_terms``): the series
over the step cap H of each unit state and of the inputs from rest.  The
series over a step of length s H is the table's with its k-th term scaled
by s^k (the scaling step of Moler & Van Loan, SIAM Review 45, 2003), so
the table gives the waveform rows, the sensitivity's Phi (``_phi``) and
every step map (``_step_map``).  The maps of one mode and exact step
length are built once and kept in the mode's ``maps`` cache, along with
the integral rows that give the source and diode energy of a step
exactly.

H is ``STEP_FRACTION`` of the stage's fastest natural period 2 pi / rho
(``_step_cap``), where rho bounds every eigenvalue of the mode matrices
(the largest row sum of |A| in energy coordinates).  On the reference
tank the bound is 9.5 us against the 10.0 us D1/D2 series resonance, so H
is 1.19 us.  The same bound limits what a step's terms past the linear
one can add, without the terms (``_tail``).

A state event, whose instant moves with the start state, multiplies the
sensitivity S = dx/dx0 that a kernel call carries by its saltation
matrix (``_saltation``; Leine & Nijmeijer, Dynamics and Bifurcations of
Non-Smooth Mechanical Systems, 2004).
"""

from __future__ import annotations

import math

import numpy as np

# rectifier phases
RECT_OFF = 0
RECT_D1 = 1
RECT_D2 = 2
# load kinds
LOAD_RES = 0
LOAD_CUR = 1
# current-sink states (a resistive load has none)
SINK_NONE = 0
SINK_ON = 1
SINK_HELD = 2

# step cap H as a fraction of the fastest natural period: rho H = pi / 4
STEP_FRACTION = 0.125
# the rounding margin of a polynomial's bound (``kernels._reach``) and of
# ``_tail``, relative to the size of its terms, and its absolute floor
# below the normal range, where underflow cuts the relative one
_SLACK = 2.0 ** -40
_TINY = 2.0 ** -1000
# a Taylor series stops once its term bound theta^k / k! drops below this
_TERM_TOL = 2.0 ** -56
# entries per propagator cache, and step lengths per mode
_MAPS_MAX = 64


def _term_count(theta):
    """How many terms past w_0 ``_series`` sums at rho h = theta."""
    bound = theta
    k = 1
    while bound > _TERM_TOL:
        k += 1
        bound *= theta / k
    return k


# Taylor terms past w_0 that a step of the cap length H sums (rho H = pi/4)
_ROW_K = _term_count(STEP_FRACTION * 2.0 * math.pi)
# the powers 0 .. _ROW_K of a step fraction (``_phi``)
_POWERS = np.arange(_ROW_K + 1.0)

# event-function slots: (slot, c0, c1, c2, c3, d, side) for
# g = c0 iLr + c1 vCr + c2 iLm + c3 vOut + d, firing when side * g turns
# positive (side 0: either sign flip)
_DEAD_SLOT = (2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class Mode:
    """A and b of one mode, its eigenvalue bound, its event functions and
    what it fixes.

    Every mode shares the pattern

        d iLr/dt  = a01 vCr + a03 vOut + b0
        d vCr/dt  = a10 iLr
        d iLm/dt  = a21 vCr + a23 vOut + b2
        d vOut/dt = a30 (iLr - iLm) + a33 vOut + b3

    with a = (a01, a03, a10, a21, a23, a30, a33) and b = (b0, b2, b3).  rho
    is the largest row sum of |A| in the energy coordinates D x, D =
    diag(sqrt(Lr), sqrt(Cr), sqrt(Lm), sqrt(Cout)), which bounds every
    eigenvalue, and scales the diagonal of D.  slots lists the mode's
    rectifier and sink event functions in slot order, and dead_slots adds
    the dead-time one.  vsw is the node voltage, which draws the source
    energy vsw iLr; dio the diode-loss factor, 0 or +/- n Vf, of the loss
    dio (iLr - iLm); rect the rectifier phase; and load the rule (g, c, r)
    of the load current (``_iout``): vOut / r for a resistor, g |iLr - iLm|
    for a sink holding the output at 0 V through a conducting rectifier,
    and the constant c otherwise.  maps caches the step maps by exact step
    length, and terms holds the mode's Taylor table (``_terms``) once built
    (None until then).
    """

    __slots__ = ("a", "b", "rho", "scales", "slots", "dead_slots", "vsw",
                 "dio", "rect", "load", "maps", "terms")

    def __init__(self, rect, vsw, sink, Lr, Cr, Lm, n, Vf, Cout, load_kind,
                 load_val):
        a10 = 1.0 / Cr
        kq = Lm / (Lr + Lm)
        if rect == RECT_OFF:
            a01 = a21 = -1.0 / (Lr + Lm)
            a03 = a23 = a30 = 0.0
            b0 = b2 = vsw / (Lr + Lm)
            nv = n * Vf
            slots = [(0, 0.0, -kq, 0.0, -n, kq * vsw - nv, 1.0),
                     (1, 0.0, kq, 0.0, -n, -kq * vsw - nv, 1.0)]
            s = 0.0
        else:
            s = 1.0 if rect == RECT_D1 else -1.0
            a01 = -1.0 / Lr
            a03 = -s * n / Lr
            a21 = 0.0
            a23 = s * n / Lm
            a30 = s * n / Cout
            b0 = (vsw - s * n * Vf) / Lr
            b2 = s * n * Vf / Lm
            slots = [(0, s, 0.0, -s, 0.0, 0.0, -1.0)]
        a33 = b3 = 0.0
        load = (0.0, 0.0, 0.0)
        if load_kind == LOAD_RES:
            a33 = -1.0 / (load_val * Cout)
            load = (0.0, 0.0, load_val)
        elif sink == SINK_ON:
            b3 = -load_val / Cout
            slots.append((3, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0))
            load = (0.0, load_val, 0.0)
        else:
            a30 = 0.0
            if s != 0.0:
                slots.append((3, n * s, 0.0, -n * s, 0.0, -load_val, 1.0))
                load = (n, 0.0, 0.0)
        sl, sc = math.sqrt(Lr), math.sqrt(Cr)
        sm, so = math.sqrt(Lm), math.sqrt(Cout)
        self.a = (a01, a03, a10, a21, a23, a30, a33)
        self.b = (b0, b2, b3)
        self.rho = max(abs(a01) * sl / sc + abs(a03) * sl / so,
                       abs(a10) * sc / sl,
                       abs(a21) * sm / sc + abs(a23) * sm / so,
                       abs(a30) * (so / sl + so / sm) + abs(a33))
        self.scales = (sl, sc, sm, so)
        self.slots, self.dead_slots = slots, sorted(slots + [_DEAD_SLOT])
        self.vsw, self.dio, self.rect, self.load = vsw, s * n * Vf, rect, load
        self.maps, self.terms = {}, None


def _rate(m, x0, x1, x2, x3):
    """The rate dx/dt = A x + b of mode m at state x."""
    a01, a03, a10, a21, a23, a30, a33 = m.a
    b0, b2, b3 = m.b
    return (a01 * x1 + a03 * x3 + b0, a10 * x0,
            a21 * x1 + a23 * x3 + b2,
            a30 * (x0 - x2) + a33 * x3 + b3)


def _iout(m, iLr, iLm, vOut):
    """The load current by the load rule (g, c, r) of mode m: vOut / r for
    a resistor r, else g |iLr - iLm| where g is not 0, else c."""
    g, c, r = m.load
    if r:
        return vOut / r
    return g * abs(iLr - iLm) if g else c


def _node_voltage(node_hi, vin):
    """The bridge node's voltage: vin on the high rail (node_hi 1), else 0."""
    return vin if node_hi == 1 else 0.0


def _mode_of(maps, rect, node_hi, sink, vin, Lr, Cr, Lm, n, Vf, Cout,
             load_kind, load_val):
    """The cached mode record (``Mode``)."""
    key = (rect, node_hi, sink, vin, Lr, Cr, Lm, n, Vf, Cout, load_kind,
           load_val)
    m = maps.get(key)
    if m is None:
        if len(maps) >= _MAPS_MAX:
            maps.clear()
        m = Mode(rect, _node_voltage(node_hi, vin), sink, Lr, Cr, Lm, n, Vf,
                 Cout, load_kind, load_val)
        maps[key] = m
    return m


def _step_cap(maps, vin, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val):
    """H: ``STEP_FRACTION`` of the stage's fastest natural period, kept in
    maps by the load (maps serves one stage).

    The bound rho of a conducting mode covers both D1 and D2 and is at
    least that of a holding sink; the open rectifier is bounded apart.
    """
    cap = maps.get((load_kind, load_val))
    if cap is None:
        sink = SINK_NONE if load_kind == LOAD_RES else SINK_ON
        rho = max(_mode_of(maps, rect, 0, sink, vin, Lr, Cr, Lm, n, Vf,
                           Cout, load_kind, load_val).rho
                  for rect in (RECT_D1, RECT_OFF))
        cap = STEP_FRACTION * 2.0 * math.pi / rho
        maps[load_kind, load_val] = cap
    return cap


def _series(x0, x1, x2, x3, e0, e2, e3, h, m):
    """Taylor terms w_k of x(s h) = sum_k w_k s^k over one step.

    x is the start state and e the input (b of the mode, or 0 for the
    homogeneous part), so w_0 = x, w_1 = h (A x + e) and
    w_(k+1) = h/(k+1) A w_k.  The terms stop once the bound
    (rho h)^k / k! on their size relative to the state drops below
    ``_TERM_TOL``.
    """
    a01, a03, a10, a21, a23, a30, a33 = m.a
    theta = m.rho * h
    u0 = h * (a01 * x1 + a03 * x3 + e0)
    u1 = h * (a10 * x0)
    u2 = h * (a21 * x1 + a23 * x3 + e2)
    u3 = h * (a30 * (x0 - x2) + a33 * x3 + e3)
    w = [(x0, x1, x2, x3), (u0, u1, u2, u3)]
    bound = theta
    k = 1
    while bound > _TERM_TOL:
        k += 1
        c = h / k
        u0, u1, u2, u3 = (c * (a01 * u1 + a03 * u3), c * (a10 * u0),
                          c * (a21 * u1 + a23 * u3),
                          c * (a30 * (u0 - u2) + a33 * u3))
        w.append((u0, u1, u2, u3))
        bound *= theta / k
    return w


def _terms(m, cap):
    """The mode's Taylor table W over the step cap, built on first use.

    W is a (5, ``_ROW_K`` + 1, 4) array: W[j] holds the terms w_0 ..
    w_ROW_K over a step of length cap of the unit state e_j with the inputs
    off (j < 4), and W[4] those of rest with the inputs (b) on.  From a
    state x the terms of a step of length s cap are those of (x, 1) . W,
    the k-th scaled by s^k, and x(t + s cap) is their sum.
    """
    w = m.terms
    if w is None:
        w = np.zeros((5, _ROW_K + 1, 4))
        for j, x in enumerate(((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                               (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                               (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                               (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                               (0.0, 0.0, 0.0, 0.0, *m.b))):
            series = _series(*x, cap, m)[:_ROW_K + 1]
            w[j, :len(series)] = series
        m.terms = w
    return w


def _phi(m, s, cap):
    """The mode's Phi(s cap) = exp(A s cap) as a 4x4 array, summed from its
    Taylor table (``_terms``)."""
    return (np.power(s, _POWERS) @ _terms(m, cap)[:4]).T


def _saltation(slot, fa, fb):
    """The saltation matrix of a state event (Leine & Nijmeijer),

        S_e = R + (f+ - R f-) grad^T / (grad . f-),

    as a 4x4 array: grad is the event function's gradient and fa = f-,
    fb = f+ the rates just before the event and just after it.  R is the
    Jacobian of the transition's reset.  The two resets, iLm := iLr at a
    diode turn-off and vOut := 0 where the sink starts holding, leave every
    point of their event surface g = 0 where it is, so R is I on the
    surface's tangent space; and S_e, which maps that space by R and f- to
    f+, is the same as with R = I.  At a diode turn-on and where the sink
    lets go, the rate is continuous (the new branch starts from zero
    current), so there S_e is I up to rounding.
    """
    _, c0, c1, c2, c3, _, _ = slot
    den = c0 * fa[0] + c1 * fa[1] + c2 * fa[2] + c3 * fa[3]
    u0, u1, u2, u3 = ((b - a) / den if den != 0.0 else 0.0
                      for a, b in zip(fa, fb))
    return np.array(((1.0 + u0 * c0, u0 * c1, u0 * c2, u0 * c3),
                     (u1 * c0, 1.0 + u1 * c1, u1 * c2, u1 * c3),
                     (u2 * c0, u2 * c1, 1.0 + u2 * c2, u2 * c3),
                     (u3 * c0, u3 * c1, u3 * c2, 1.0 + u3 * c3)))


def _step_map(m, h, cap):
    """The maps of one mode over a step of length h, read off its Taylor
    table (``_terms``) at s = h / cap.

    Returns (D by rows, q, src, dio): x(h) = x + D x + q, and the step's
    source energy src . (x, 1) and diode loss dio . (x, 1) by the mode's
    node voltage and diode-loss factor (None where that is 0).  Column j of D
    and of the integral map comes from W[j], the unit state e_j with the
    inputs off; q and the input column from W[4], the inputs from rest.
    One product sums the terms twice: with weights s^k past k = 0, which
    gives D = Phi - I without cancellation, and with h s^k / (k + 1),
    which gives the integrals of the state over the step.
    """
    p = np.empty((2, _ROW_K + 1))
    p[0] = np.power(h / cap, _POWERS)
    p[1] = p[0] * h / (_POWERS + 1.0)
    p[0, 0] = 0.0
    cols, ints = (p @ _terms(m, cap)).transpose(1, 0, 2).tolist()
    rows = tuple(cols[j][i] for i in range(4) for j in range(4))
    q = tuple(cols[4])
    vsw, f = m.vsw, m.dio
    src = tuple(vsw * c[0] for c in ints) if vsw != 0.0 else None
    dio = tuple(f * (c[0] - c[2]) for c in ints) if f != 0.0 else None
    return rows, q, src, dio


def _tail(r, h, m):
    """A bound, in the energy coordinates D x of ``Mode``, on what the
    Taylor terms past the linear one add to the state over a step of mode m
    and length h from a state with rate r = A x + b, without the terms.

    There |D A D^-1| is at most rho in the max norm, so D w_k =
    h^k / k! D A^(k-1) r, the k-th term, is at most h^k rho^(k-1) / k! |D r|,
    and the terms past k = 1 add at most |D r| (e^(rho h) - 1 - rho h) / rho
    to each component of D x: to c . x at most that times
    sum_j |c_j| / D_j.  The computed terms grow by a few roundings per term
    at most, well inside the margin of ``kernels._reach``; rho h times
    ``_SLACK`` more covers the rounding of e^(rho h) - 1 - rho h and of the
    linear part h c . r, whose terms are at most h |D r| |c_j| / D_j.
    """
    theta = m.rho * h
    return (max(map(abs, map(float.__mul__, r, m.scales)))
            * (math.expm1(theta) - theta * (1.0 - _SLACK)) / m.rho)
