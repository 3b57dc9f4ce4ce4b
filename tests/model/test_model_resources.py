"""Tests for the shared-resource model (repro.model.resources)."""

from __future__ import annotations

import pytest

from repro.model.resources import (
    Resource,
    ResourceError,
    ResourceUsage,
    classify_resources,
)


def test_resource_default_name_and_validation():
    resource = Resource(3)
    assert resource.name == "l3"
    named = Resource(4, "net_buffer")
    assert named.name == "net_buffer"
    with pytest.raises(ResourceError):
        Resource(-1)


def test_resource_usage_totals():
    usage = ResourceUsage(resource_id=1, max_requests=4, cs_length=2.5)
    assert (usage.max_requests, usage.cs_length) == (4, 2.5)
    assert usage.per_vertex_requests == {}


def test_resource_usage_per_vertex_consistency():
    usage = ResourceUsage(1, 3, 1.0, per_vertex_requests={0: 2, 4: 1})
    assert usage.per_vertex_requests == {0: 2, 4: 1}
    with pytest.raises(ResourceError):
        ResourceUsage(1, 3, 1.0, per_vertex_requests={0: 1})
    with pytest.raises(ResourceError):
        ResourceUsage(1, 1, 1.0, per_vertex_requests={0: 2, 1: -1})


def test_resource_usage_rejects_negative_parameters():
    with pytest.raises(ResourceError):
        ResourceUsage(1, -1, 1.0)
    with pytest.raises(ResourceError):
        ResourceUsage(1, 1, -1.0)


def test_classify_resources_global_vs_local():
    usages = {
        0: [ResourceUsage(10, 1, 1.0), ResourceUsage(11, 2, 1.0)],
        1: [ResourceUsage(10, 3, 1.0)],
        2: [ResourceUsage(12, 1, 1.0)],
    }
    classification = classify_resources(usages)
    assert classification[10] is True  # shared by tasks 0 and 1
    assert classification[11] is False  # only task 0
    assert classification[12] is False  # only task 2


def test_classify_resources_ignores_zero_request_usages():
    usages = {
        0: [ResourceUsage(10, 0, 1.0)],
        1: [ResourceUsage(10, 1, 1.0)],
    }
    classification = classify_resources(usages)
    assert classification[10] is False
