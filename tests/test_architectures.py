import pytest

from myogest.architectures import PARAM_TARGETS, build_architecture


@pytest.mark.parametrize("name", sorted(PARAM_TARGETS))
def test_parameter_count_within_20_percent_of_published(name):
    count = build_architecture(name, num_classes=7).parameter_count()
    assert abs(count - PARAM_TARGETS[name]) <= 0.2 * PARAM_TARGETS[name]
