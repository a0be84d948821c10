"""Validation of calibrated performance profiles.

Node CPUs book profile durations on a busy-until clock, so a negative
or non-finite cost would move a clock backwards or poison it with NaN.
A malformed profile fails at construction, naming the field.
"""

import dataclasses
import math

import pytest

from repro.chains import SYSTEM_NAMES
from repro.chains.profiles import PerformanceProfile, profile_for

TIME_FIELDS = (
    "admission_cost", "execute_cost", "per_tx_overhead", "block_overhead",
    "event_emit_cost", "scan_cost", "signing_cost", "overload_knee",
    "spike_interval", "spike_duration",
)
BAD_VALUES = (-0.5, -1e-12, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("field", TIME_FIELDS)
@pytest.mark.parametrize("value", BAD_VALUES)
def test_bad_time_field_is_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=rf"PerformanceProfile\.{field} must be finite"):
        PerformanceProfile(system="fabric", **{field: value})


@pytest.mark.parametrize("value", BAD_VALUES)
def test_bad_function_cost_multiplier_is_rejected_by_name(value):
    with pytest.raises(ValueError, match=r"function_cost\['Set'\]"):
        PerformanceProfile(system="fabric", function_cost={"Get": 1.0, "Set": value})


def test_the_reported_malformed_profile_is_rejected():
    with pytest.raises(ValueError, match="admission_cost"):
        PerformanceProfile(system="fabric", admission_cost=-0.5, execute_cost=math.nan)


def test_replace_validates_too():
    with pytest.raises(ValueError, match="execute_cost"):
        dataclasses.replace(profile_for("fabric"), execute_cost=math.nan)


@pytest.mark.parametrize("field", TIME_FIELDS)
def test_zero_is_allowed(field):
    profile = PerformanceProfile(system="fabric", function_cost={"Set": 0.0}, **{field: 0.0})
    assert getattr(profile, field) == 0.0


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_every_calibrated_profile_is_valid(system):
    profile = profile_for(system)
    assert dataclasses.replace(profile) == profile
