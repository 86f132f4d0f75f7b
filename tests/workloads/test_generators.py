"""The eight application generators: validity and documented shapes.

Each application's trace must reproduce the Section IV characteristics
the paper attributes to it (Table II pattern, Figure 4 sharing split,
Figure 9 read/write split) — that is what makes the placement-scheme
results meaningful.
"""

import pytest

from repro.analysis import sharing_summary
from repro.workloads import (
    APPLICATION_TABLE,
    available_workloads,
    make_workload,
)
from repro.errors import ConfigError, UnknownWorkloadError

APPS = sorted(APPLICATION_TABLE)


class TestRegistry:
    def test_table_ii_apps_registered(self):
        assert set(APPS) == {
            "bfs", "bs", "c2d", "fir", "gemm", "mm", "sc", "st",
        }

    def test_dnn_models_registered(self):
        assert {"vgg16", "resnet18"} <= set(available_workloads())

    def test_unknown_workload_raises(self):
        with pytest.raises(UnknownWorkloadError):
            make_workload("nope")

    @pytest.mark.parametrize(
        "kwargs,named",
        [
            ({"num_gpus": 0}, "num_gpus=0"),
            ({"scale": -1.0}, "got -1.0"),
            ({"scale": 0.0}, "got 0.0"),
            ({"scale": float("nan")}, "got nan"),
            ({"scale": float("inf")}, "got inf"),
        ],
        ids=["gpus-0", "scale-negative", "scale-zero", "scale-nan",
             "scale-inf"],
    )
    def test_bad_arguments_raise_config_error_naming_them(
        self, kwargs, named
    ):
        with pytest.raises(ConfigError, match=named):
            make_workload("fir", **kwargs)

    def test_table_ii_metadata(self):
        assert APPLICATION_TABLE["bfs"].suite == "SHOC"
        assert APPLICATION_TABLE["bfs"].access_pattern == "Random"
        assert APPLICATION_TABLE["fir"].suite == "Hetero-Mark"
        assert APPLICATION_TABLE["gemm"].access_pattern == "Scatter-Gather"
        assert APPLICATION_TABLE["c2d"].footprint_mb == 94


class TestTraceValidity:
    @pytest.mark.parametrize("app", APPS)
    def test_generates_valid_trace(self, app):
        trace = make_workload(app, num_gpus=4, scale=0.1)
        assert trace.num_gpus == 4
        assert trace.total_accesses > 0
        assert trace.footprint_pages > 0

    @pytest.mark.parametrize("app", APPS)
    def test_deterministic_given_seed(self, app):
        a = make_workload(app, scale=0.1)
        b = make_workload(app, scale=0.1)
        for (va, wa), (vb, wb) in zip(a.streams, b.streams):
            assert (va == vb).all()
            assert (wa == wb).all()

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("gpus", [2, 8])
    def test_supports_other_gpu_counts(self, app, gpus):
        trace = make_workload(app, num_gpus=gpus, scale=0.1)
        assert trace.num_gpus == gpus
        assert all(len(vpns) > 0 for vpns, _ in trace.streams)

    @pytest.mark.parametrize("app", APPS)
    def test_scale_grows_trace(self, app):
        small = make_workload(app, scale=0.1)
        large = make_workload(app, scale=0.4)
        assert large.total_accesses > small.total_accesses


class TestPaperCharacteristics:
    @pytest.fixture(scope="class")
    def summaries(self):
        return {
            app: sharing_summary(make_workload(app, scale=0.25))
            for app in APPS
        }

    def test_fir_sc_almost_all_private(self, summaries):
        for app in ("fir", "sc"):
            assert summaries[app].private_page_fraction > 0.85

    def test_bfs_st_mostly_shared(self, summaries):
        # ST shares nearly everything; BFS the majority of its pages
        # (scaled traces cover the graph tail more sparsely than the
        # paper's full runs, see EXPERIMENTS.md).
        assert summaries["st"].shared_page_fraction > 0.85
        assert summaries["bfs"].shared_page_fraction > 0.55
        # The private-heavy and shared-heavy app classes stay far apart.
        assert (
            summaries["bfs"].shared_page_fraction
            > summaries["fir"].shared_page_fraction + 0.4
        )

    def test_bfs_accesses_go_mostly_to_private_pages(self, summaries):
        # Figure 4's BFS peculiarity: many shared pages, few accesses.
        assert summaries["bfs"].private_access_fraction > 0.5

    def test_c2d_mm_mixed_sharing(self, summaries):
        for app in ("c2d", "mm"):
            assert 0.2 < summaries[app].shared_page_fraction < 0.8

    def test_bfs_gemm_mm_read_dominated(self, summaries):
        for app in ("bfs", "mm"):
            assert summaries[app].read_access_fraction > 0.7
        assert summaries["gemm"].read_access_fraction > 0.5

    def test_bs_st_write_intensive(self, summaries):
        for app in ("bs", "st"):
            assert summaries[app].read_write_access_fraction > 0.5

    def test_gemm_shared_pages_are_read_only(self, summaries):
        # Input matrices shared read-only; output private read-write.
        summary = summaries["gemm"]
        assert summary.shared_page_fraction > 0.3
        assert summary.read_page_fraction > 0.5
