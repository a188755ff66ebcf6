"""Every scalar setting accepts exactly the values of its rule, and a rejected
value gets one ValueError that names the setting and shows the value."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setting_rules import HOSTILE, SETTINGS, build, setting_id


def check(builder, name, rule, value):
    try:
        build(builder, name, value)
    except ValueError as exc:
        assert not rule.accepts(value), f"{name}={value!r} refused: {exc}"
        assert str(exc) == rule.message(name, value)
    else:
        assert rule.accepts(value), f"{name}={value!r} accepted"


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
def test_hostile_values_build_or_name_the_setting(setting):
    for value in HOSTILE:
        check(*setting, value)


@settings(max_examples=300, deadline=None)
@given(setting=st.sampled_from(SETTINGS),
       value=st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                       st.text(max_size=3), st.sampled_from(HOSTILE)))
def test_a_setting_builds_exactly_when_its_rule_holds(setting, value):
    check(*setting, value)


BOUNDARIES = [(setting, value, accepted) for setting in SETTINGS
              for value, accepted in setting[2].boundary()]


@pytest.mark.parametrize("setting, value, accepted", BOUNDARIES,
                         ids=[f"{setting_id(s)}={v!r}" for s, v, _ in BOUNDARIES])
def test_boundary_table(setting, value, accepted):
    """Only whether a value builds: these hold for any version of the checks
    that accepts the same sets, whatever its messages say."""
    builder, name, _ = setting
    if accepted:
        build(builder, name, value)
    else:
        with pytest.raises(ValueError):
            build(builder, name, value)
