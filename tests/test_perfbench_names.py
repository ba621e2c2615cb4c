"""The names ``perfbench/instrument.py`` wraps still exist in the program.

A traced benchmark run reports a name it cannot find as ``unwrapped`` and
times nothing for it, so a rename or deletion here would silently drop a
layer from the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"
_spec = importlib.util.spec_from_file_location("perfbench_instrument", _SCRIPT)
instrument = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(instrument)

_PAIRS = instrument.ENTRY_POINTS + instrument.PACED + instrument.LAYER_CALLS


@pytest.mark.parametrize("pair", _PAIRS, ids=".".join)
def test_every_wrapped_name_resolves_to_a_function(pair):
    module_name, attr = pair
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{module_name}.{attr} is gone"


def test_the_wrapped_backward_method_resolves():
    # instrument.install and scripts/epoch_memory.py also rebind this method
    from mvgc.nncore.tensor import Tensor

    assert callable(getattr(Tensor, "backward", None)), "Tensor.backward is gone"
