"""A malformed job spec is refused at submit, not failed in the build."""

import pytest

from repro.service.jobs import JobSpec

MALFORMED = [
    ({"size_scale": float("nan")}, "size_scale"),
    ({"size_scale": float("inf")}, "size_scale"),
    ({"size_scale": True}, "size_scale"),
    ({"size_scale": "0.1"}, "size_scale"),
    ({"seed": "x"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -3}, "seed"),
    ({"seed": True}, "seed"),
    ({"support": True}, "support"),
    ({"support": float("nan")}, "support"),
    ({"alpha": True}, "alpha"),
    ({"alpha": False}, "alpha"),
    ({"alpha": float("nan")}, "alpha"),
]


@pytest.mark.parametrize("fields,name", MALFORMED)
def test_malformed_spec_is_refused(fields, name):
    with pytest.raises(ValueError, match=name):
        JobSpec.from_dict(fields)


@pytest.mark.parametrize(
    "fields",
    [{}, {"seed": 0}, {"seed": 2**70}, {"size_scale": 1}, {"support": 1}, {"alpha": 0},
     {"alpha": None}],
)
def test_well_formed_spec_is_admitted(fields):
    assert JobSpec.from_dict(fields).to_dict().items() >= fields.items()
