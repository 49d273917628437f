"""The types that hold arrays compare by identity, so == and hash work."""

import numpy as np
import pytest

from sarstereo.accuracy import AccuracyGrid
from sarstereo.geometry import GroundPoint, OpticalSensorModel, SarSensorModel
from sarstereo.intersection import IntersectionResult
from sarstereo.raster import GroundGrid, Raster
from sarstereo.similarity import Descriptor, Patch

# each builds a new instance with the same values on every call
MAKERS = {
    "SarSensorModel": lambda: SarSensorModel(s0=(0.0, 0.0, 5e5), v=(0.0, 7500.0, 0.0)),
    "OpticalSensorModel": lambda: OpticalSensorModel(pc=(0.0, 0.0, 7e5), focal=7e5),
    "Raster": lambda: Raster(samples=np.ones((2, 3))),
    "GroundGrid": lambda: GroundGrid(Raster(samples=np.ones((2, 3))), 0.0, 0.0, 1.0),
    "Patch": lambda: Patch(np.arange(9.0).reshape(3, 3)),
    "Descriptor": lambda: Descriptor(values=np.arange(8.0), layout=(1, 1, 8)),
    "IntersectionResult": lambda: IntersectionResult(GroundPoint(1.0, 2.0, 3.0), np.eye(3),
                                                     2, 0.5),
    "AccuracyGrid": lambda: AccuracyGrid("same_side", np.arange(2.0), np.arange(3.0),
                                         np.ones((2, 3)), np.zeros((2, 3), bool)),
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_equality_is_identity_and_instances_hash(make):
    # the generated == compared the arrays and raised, and hash raised
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b}) == 2
