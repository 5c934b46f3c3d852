"""Independent numerical oracles for the test suite.

Everything in this module is written directly against the underlying
formulas with its own field definitions, its own control evaluation, its
own linear algebra (explicit inverse instead of a factorized solve), and
adaptive instead of fixed-step integration.  Agreement between the package
and these oracles is therefore a genuine two-route check, not a tautology.
The *_reference functions are the exception: earlier package code kept
verbatim, against which a faster rewrite must agree bitwise.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson, solve_ivp

from bracket_steer.model import as_state, eval_field, lie_bracket
from bracket_steer.synthesis import check_selection


# ---------------------------------------------------------------------------
# finite-difference differential geometry

def fd_jacobian(field, x, h=1e-6):
    """Central-difference Jacobian, column i = (f(x+he_i) - f(x-he_i))/2h."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(field(x + e), float) - np.asarray(field(x - e), float)) / (2.0 * h))
    return np.column_stack(cols)


def fd_bracket(f, g, x, h=1e-6):
    """[f, g](x) = (dg/dx) f(x) - (df/dx) g(x), both Jacobians by differences."""
    x = np.asarray(x, dtype=float)
    return fd_jacobian(g, x, h) @ np.asarray(f(x), float) - fd_jacobian(f, x, h) @ np.asarray(g(x), float)


# ---------------------------------------------------------------------------
# the two benchmark systems, defined from scratch

def disc_fields():
    f1 = lambda x: np.array([math.cos(x[2]), math.sin(x[2]), 0.0, 1.0])
    f2 = lambda x: np.array([0.0, 0.0, 1.0, 0.0])
    return [f1, f2]


def unicycle_fields():
    f1 = lambda x: np.array([math.cos(x[2]), math.sin(x[2]), 0.0])
    f2 = lambda x: np.array([0.0, 0.0, 1.0])
    return [f1, f2]


def figure_eight_rhs(t, xL):
    c = math.cos(0.1 * t)
    s = math.sin(0.1 * t)
    c2 = c * c
    den = 4.0 * c2 * c2 - 3.0 * c2 + 1.0
    return np.array([0.2 * c, -0.2, -0.2 * s * (c2 + 0.5) / den])


def disc_extension(x):
    """F(x) for the disc via the finite-difference bracket."""
    f1, f2 = disc_fields()
    cols = [f1(x)[:2], fd_bracket(f1, f2, x)[:2]]
    return np.column_stack(cols)


def unicycle_extension(x):
    f1, f2 = unicycle_fields()
    cols = [f1(x), f2(x), fd_bracket(f1, f2, x)]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# control family evaluated from the raw formula

def steering(F, gamma, displacement):
    """a = -gamma * F^{-1} * displacement, via an explicit inverse."""
    return -gamma * (np.linalg.inv(F) @ np.asarray(displacement, float))


def control_series(m, s1, s2, kappa, eps, a):
    """Return u(t) for held coefficients a; accepts scalar or array t."""
    a = np.asarray(a, dtype=float)

    def u(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros((m,) + t.shape)
        for idx, i in enumerate(s1):
            out[i - 1] += a[idx]
        for p, (i1, i2) in enumerate(s2):
            ap = a[len(s1) + p]
            amp = (2.0 / math.sqrt(eps)) * math.sqrt(math.pi * kappa[p] * abs(ap))
            ang = 2.0 * math.pi * kappa[p] * t / eps
            out[i1 - 1] += amp * np.cos(ang)
            out[i2 - 1] += (np.sign(ap) if ap != 0 else 0.0) * amp * np.sin(ang)
        return out

    return u


TWO_PI = 2.0 * math.pi


def _sign(v):
    return math.copysign(1.0, v) if v != 0.0 else 0.0


def held_control_reference(sel, epsilon, m, a, t):
    """The package's held_control as it was before the frozen-interval kernel.

    Kept verbatim (rebuilding every amplitude per call) as the bitwise
    reference for synthesis.frozen_control.
    """
    u = np.zeros(m)
    for idx, i in enumerate(sel.s1):
        u[i - 1] += a[idx]
    off = len(sel.s1)
    phase = math.fmod(t, epsilon) / epsilon
    for p, (i1, i2) in enumerate(sel.s2):
        ap = a[off + p]
        kap = sel.kappa[p]
        amp = 2.0 * math.sqrt(math.pi * kap * abs(ap) / epsilon)
        ang = TWO_PI * kap * phase
        u[i1 - 1] += amp * math.cos(ang)
        u[i2 - 1] += _sign(ap) * amp * math.sin(ang)
    return u


def extension_matrix_reference(sys, sel, x):
    """The package's first extension_matrix, through the public model functions.

    Kept verbatim (every bracket evaluating its own fields and Jacobians
    through the public model functions) as the bitwise and error-message
    reference for synthesis.extension_matrix.
    """
    check_selection(sys, sel)
    x = as_state(x, sys.n)
    cols = [eval_field(sys, i, 0.0, x)[: sys.n1] for i in sel.s1]
    cols += [lie_bracket(sys, i1, i2, x)[: sys.n1] for (i1, i2) in sel.s2]
    return np.column_stack(cols)


def guard_accepts_reference(x, cap=1e9):
    """The divergence guard's test before it compared squared norms; a norm
    that overflows to inf fails it."""
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(x)) and np.linalg.norm(x) <= cap)


def csv_text_reference(header, columns):
    """The package's CSV writer before it formatted in numpy: one "%.17g"
    per value, row by row.  Kept verbatim as the bitwise reference for
    cli._csv_table."""
    table = np.column_stack(columns)
    row_fmt = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)]
    lines += [row_fmt % tuple(row) for row in table.tolist()]
    lines.append("")
    return "\n".join(lines)


def antisym_iterated_integral(u1, u2, eps, n=1 << 15):
    """(1/2) * [ II(u2, u1) - II(u1, u2) ] over one period [0, eps].

    II(p, q) = integral_0^eps p(s1) * integral_0^{s1} q(s2) ds2 ds1.
    u1, u2 must accept array arguments.
    """
    s = np.linspace(0.0, eps, n + 1)
    v1 = np.asarray(u1(s), float)
    v2 = np.asarray(u2(s), float)
    inner1 = cumulative_trapezoid(v1, s, initial=0.0)
    inner2 = cumulative_trapezoid(v2, s, initial=0.0)
    i12 = simpson(v1 * inner2, x=s)
    i21 = simpson(v2 * inner1, x=s)
    return 0.5 * (i21 - i12)


# ---------------------------------------------------------------------------
# adaptive sample-and-hold integration

def pi_eps_solve(fields, control_of_state, x0, eps, n_intervals,
                 drift=None, rtol=1e-10, atol=1e-12, leader=None, xL0=None):
    """Integrate the sampled closed loop with DOP853, one interval at a time.

    control_of_state(x_hold[, xL_hold]) must return a callable t -> u with
    the state argument frozen; the time argument stays live across the
    interval, matching the sample-and-hold semantics.  Returns the states at
    the sampling instants (and the leader samples when a leader is given).
    """
    x = np.asarray(x0, dtype=float)
    samples = [x.copy()]
    if leader is not None:
        xL = np.asarray(xL0, dtype=float)
        leader_samples = [xL.copy()]

    for j in range(n_intervals):
        if leader is None:
            u_of_t = control_of_state(x)
        else:
            u_of_t = control_of_state(x, xL)

        def rhs(t, state):
            u = u_of_t(t)
            out = np.zeros_like(state) if drift is None else np.asarray(drift(t, state), float)
            for k, f in enumerate(fields):
                out = out + u[k] * np.asarray(f(state), float)
            return out

        t0, t1 = j * eps, (j + 1) * eps
        sol = solve_ivp(rhs, (t0, t1), x, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed on interval {j}: {sol.message}")
        x = sol.y[:, -1]
        samples.append(x.copy())
        if leader is not None:
            solL = solve_ivp(leader, (t0, t1), xL, method="DOP853", rtol=rtol, atol=atol)
            if not solL.success:
                raise RuntimeError(f"oracle leader integration failed on interval {j}")
            xL = solL.y[:, -1]
            leader_samples.append(xL.copy())

    if leader is not None:
        return np.array(samples), np.array(leader_samples)
    return np.array(samples)


def rk4_brute(rhs, x0, t0, t1, nsteps):
    """Plain fixed-step RK4 over [t0, t1]; the simplest possible reference."""
    x = np.asarray(x0, dtype=float)
    h = (t1 - t0) / nsteps
    for i in range(nsteps):
        t = t0 + i * h
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x
