import dataclasses

import numpy as np
import pytest

from bracket_steer import (BracketSelection, ControllerGains, PartitionedSystem,
                           library, synthesis, system)


@pytest.fixture(autouse=True)
def _fresh_plans():
    """Every test starts with empty steering-plan and control-terms memos,
    so a plan kept by an earlier test never hides a patch of library's
    tables or of model, nor kept terms a patch of synthesis."""
    synthesis._plan.cache_clear()
    synthesis._control_terms.cache_clear()


@pytest.fixture
def disc():
    return system("rolling-disc")


@pytest.fixture
def disc_sel():
    return BracketSelection(s1=(1,), s2=((1, 2),), kappa=(1,))


@pytest.fixture
def disc_gains():
    # The built-in scenario's gains.
    return ControllerGains(epsilon=1.0, gamma=5.0, y_star=(0.0, 0.0))


@pytest.fixture
def disc_gains_moderate():
    # Gains inside the empirically contractive regime (epsilon * gamma small).
    return ControllerGains(epsilon=0.25, gamma=2.0, y_star=(0.0, 0.0))


@pytest.fixture
def uni():
    return system("unicycle")


@pytest.fixture
def uni_sel():
    return BracketSelection(s1=(1, 2), s2=((1, 2),), kappa=(1,))


@pytest.fixture
def uni_gains():
    return ControllerGains(epsilon=0.1, gamma=10.0, y_star=(0.0, 0.0, 0.0))


def _pinch_f1(x):
    return np.array([1.0, 0.0])


def _pinch_f1_jac(x):
    return np.zeros((2, 2))


def _pinch_f2(x):
    return np.array([0.0, x[0]])


def _pinch_f2_jac(x):
    J = np.zeros((2, 2))
    J[1, 0] = 1.0
    return J


def _zero_drift2(t, x):
    return np.zeros(2)


@pytest.fixture
def pinch():
    """Fully actuated system whose extension matrix pinches at x1 = 0.

    F(x) = [[1, 0], [0, x1]], so the condition number is 1/|x1| for
    |x1| < 1: exercises the conditioning cap and the singular case.
    """
    return PartitionedSystem(
        name="pinch", n=2, n1=2, n2=0, m=2,
        drift=_zero_drift2,
        control_fields=(_pinch_f1, _pinch_f2),
        control_jacobians=(_pinch_f1_jac, _pinch_f2_jac))


@pytest.fixture
def pinch_sel():
    return BracketSelection(s1=(1, 2), s2=())


@pytest.fixture
def failing_sweep(pinch, pinch_sel):
    """epsilon_sweep's arguments for a driftless copy of the pinch system
    whose second entry fails: at epsilon = 0.5, gamma epsilon = 1 takes x1
    to y1* = 0.05 in one interval, where the condition number 20 exceeds
    the cap; at epsilon = 1, x1 only swaps sides of y1* and stays near 1."""
    sys = dataclasses.replace(pinch, drift=library._zero_field)
    gains = ControllerGains(epsilon=1.0, gamma=2.0, y_star=(0.05, 0.0), cond_cap=10.0)
    return (sys, pinch_sel, gains, np.array([1.05, 0.3]), 4.0, [1.0, 0.5, 0.25])


def _runaway_drift(t, x):
    return 50.0 * x


def _runaway_f1(x):
    return np.array([1.0])


def _runaway_jac(x):
    return np.zeros((1, 1))


@pytest.fixture
def runaway():
    """Unstable scalar drift that outruns the weak feedback: trips the guard."""
    return PartitionedSystem(
        name="runaway", n=1, n1=1, n2=0, m=1,
        drift=_runaway_drift,
        control_fields=(_runaway_f1,),
        control_jacobians=(_runaway_jac,))


@pytest.fixture
def runaway_sel():
    return BracketSelection(s1=(1,), s2=())
