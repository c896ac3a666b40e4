import pytest

from trialdesign.limits import MODES, SolveLimits


def test_defaults():
    limits = SolveLimits()
    assert limits.mode == "auto"
    assert MODES == ("auto", "exact", "heuristic")
    assert all(SolveLimits(mode=mode).mode == mode for mode in MODES)


@pytest.mark.parametrize(
    "name, value",
    [
        ("epsilon", 0.0),
        ("epsilon", float("inf")),
        ("epsilon", float("nan")),
        ("time_limit", -1.0),
        ("node_limit", 0),
        ("mode", "annealing"),
    ],
)
def test_rejects_invalid_setting(name, value):
    with pytest.raises(ValueError, match=name):
        SolveLimits(**{name: value})
