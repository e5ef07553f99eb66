import re

import numpy as np
import pytest

from adaptvqe.cost import CostLedger

ZERO = {"function_evaluations": 0, "pool_gradient_units": 0}


@pytest.mark.parametrize("method, name", [("charge_gradient", "n_components"),
                                          ("charge_hessian", "n_parameters"),
                                          ("charge_pool_sweep", "units")])
@pytest.mark.parametrize("value", [True, 2.5, -1])
def test_charges_are_whole_units(method, name, value):
    ledger = CostLedger()
    expected = (f"{name} must be at least 0, got -1" if type(value) is int
                else f"{name} must be an int, got {value!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        getattr(ledger, method)(value)
    assert ledger.snapshot() == ZERO


@pytest.mark.parametrize("value", [True, 2.5, -1])
def test_charge_energy_is_one_unit(value):
    ledger = CostLedger()
    with pytest.raises(TypeError):
        ledger.charge_energy(value)
    assert ledger.snapshot() == ZERO
    assert ledger.charge_energy() == 1
    assert ledger.snapshot() == {**ZERO, "function_evaluations": 1}


def test_charges_take_numpy_integers():
    ledger = CostLedger()
    assert ledger.charge_gradient(np.int64(3)) == 6
    assert ledger.charge_hessian(np.int64(3)) == 36  # 2n gradients of n components
    ledger.charge_pool_sweep(np.int64(32))
    assert type(ledger.function_evaluations) is type(ledger.pool_gradient_units) is int
    assert ledger.snapshot() == {"function_evaluations": 42, "pool_gradient_units": 32}
