"""Tests for integrated faulty component pinpointing."""

import networkx as nx

from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.core.cusum import ChangePoint
from repro.core.pinpoint import pinpoint_faulty_components
from repro.core.propagation import ComponentReport
from repro.core.selection import AbnormalChange


def change(onset, direction=1, metric=Metric.CPU_USAGE):
    point = ChangePoint(onset, onset, 1.0, 10.0, direction)
    return AbnormalChange(
        metric=metric,
        change_point=point,
        onset_time=onset,
        prediction_error=5.0,
        expected_error=1.0,
        direction=direction,
    )


def report(name, *onsets, direction=1):
    return ComponentReport(
        name, [change(onset, direction) for onset in onsets]
    )


def rubis_graph():
    g = nx.DiGraph()
    g.add_edges_from(
        [("web", "app1"), ("web", "app2"), ("app1", "db"), ("app2", "db")]
    )
    return g


CONFIG = FChainConfig()


class TestWeightedPruning:
    def weighted_graph(self, weight):
        g = nx.DiGraph()
        g.add_edge("web", "app1", weight=0.9)
        g.add_edge("app1", "db", weight=weight)
        return g

    def test_zero_threshold_ignores_weights(self):
        reports = [
            report("db", 100),
            report("web", 130),
            ComponentReport("app1"),
        ]
        result = pinpoint_faulty_components(
            reports, CONFIG, self.weighted_graph(0.1)
        )
        # Pruning is reachability alone: a weak edge that is still in the
        # graph still explains the propagation.
        assert result.faulty == frozenset({"db"})


class TestBasicPinpointing:
    def test_chain_source_pinpointed(self):
        reports = [
            report("db", 100),
            report("app1", 120),
            ComponentReport("app2"),
            ComponentReport("web"),
        ]
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert result.faulty == frozenset({"db"})

    def test_nothing_abnormal_empty(self):
        reports = [ComponentReport("a"), ComponentReport("b")]
        result = pinpoint_faulty_components(reports, CONFIG)
        assert result.faulty == frozenset()
        assert not result.external_factor

    def test_concurrent_faults_within_threshold(self):
        reports = [
            report("app1", 100),
            report("app2", 101),
            ComponentReport("web"),
            ComponentReport("db"),
        ]
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert result.faulty == frozenset({"app1", "app2"})

    def test_propagation_explained_by_reverse_path(self):
        """Back-pressure: db fault, web abnormal later -> only db blamed."""
        reports = [
            report("db", 100),
            report("web", 130),
            report("app1", 125),
            ComponentReport("app2"),
        ]
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert result.faulty == frozenset({"db"})

    def test_spurious_propagation_rejected(self):
        """Fig. 5: app1 -> app2 has no dependency path, so app2 is an
        independent fault."""
        reports = [
            report("app1", 100),
            report("app2", 130),
            ComponentReport("web"),
            ComponentReport("db"),
        ]
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert result.faulty == frozenset({"app1", "app2"})

    def test_no_dependency_graph_propagation_only(self):
        """Without dependencies FChain still pinpoints via the chain."""
        reports = [report("PE3", 100), report("PE6", 120), report("PE2", 140)]
        result = pinpoint_faulty_components(reports, CONFIG, None)
        assert result.faulty == frozenset({"PE3"})

    def test_empty_graph_same_as_none(self):
        reports = [report("a", 100), report("b", 150)]
        result = pinpoint_faulty_components(reports, CONFIG, nx.DiGraph())
        assert result.faulty == frozenset({"a"})


class TestConcurrencyThreshold:
    def test_threshold_boundary_inclusive(self):
        config = FChainConfig(concurrency_threshold=2.0)
        reports = [report("a", 100), report("b", 102), ComponentReport("idle")]
        result = pinpoint_faulty_components(reports, config)
        assert result.faulty == frozenset({"a", "b"})

    def test_larger_threshold_absorbs_more(self):
        config = FChainConfig(concurrency_threshold=10.0)
        reports = [
            report("a", 100),
            report("b", 108),
            report("c", 115),
            ComponentReport("idle"),
        ]
        result = pinpoint_faulty_components(reports, config)
        assert result.faulty == frozenset({"a", "b", "c"})

    def test_distance_measured_to_any_pinpointed(self):
        reports = [
            report("a", 100),
            report("b", 102),
            report("c", 104),
            ComponentReport("idle"),
        ]
        result = pinpoint_faulty_components(reports, CONFIG)
        # c is 4s from a but 2s from b, which is itself faulty.
        assert result.faulty == frozenset({"a", "b", "c"})


class TestExternalFactor:
    def _all_up(self, spread=0):
        return [
            report("web", 100, direction=1),
            report("app1", 100 + spread, direction=1),
            report("app2", 100, direction=1),
            report("db", 100, direction=1),
        ]

    def test_simultaneous_common_trend_is_external(self):
        result = pinpoint_faulty_components(
            self._all_up(), CONFIG, rubis_graph()
        )
        assert result.external_factor
        assert result.faulty == frozenset()

    def test_spread_onsets_not_external(self):
        result = pinpoint_faulty_components(
            self._all_up(spread=40), CONFIG, rubis_graph()
        )
        assert not result.external_factor
        assert result.faulty

    def test_mixed_trends_not_external(self):
        reports = [
            report("web", 100, direction=1),
            report("app1", 100, direction=-1),
            report("app2", 100, direction=1),
            report("db", 100, direction=-1),
        ]
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert not result.external_factor

    def test_clustered_minority_trend_still_external(self):
        """A simultaneous opposite-direction change on one component (a
        metric that reacts inversely to the shared shift) must not mask
        the external factor, as long as its onset is clustered too."""
        reports = self._all_up()
        reports[3] = report("db", 101, direction=-1)
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert result.external_factor

    def test_early_minority_onset_blocks_external(self):
        """A component manifesting well before the collective shift is a
        culprit candidate, not part of an external factor."""
        reports = self._all_up()
        reports[3] = report("db", 60, direction=-1)
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert not result.external_factor
        assert "db" in result.faulty

    def test_partial_coverage_not_external(self):
        reports = self._all_up()[:3] + [ComponentReport("db")]
        result = pinpoint_faulty_components(reports, CONFIG, rubis_graph())
        assert not result.external_factor


class TestResultAccessors:
    def test_implicated_metrics(self):
        reports = [report("db", 100)]
        result = pinpoint_faulty_components(reports, CONFIG)
        assert result.implicated_metrics("db") == [Metric.CPU_USAGE]
        assert result.implicated_metrics("ghost") == []

    def test_chain_exposed(self):
        reports = [report("a", 100), report("b", 150)]
        result = pinpoint_faulty_components(reports, CONFIG)
        assert result.chain.components == ["a", "b"]
