"""DseOptions: the one configuration surface of ``auto_dse``."""

import warnings

import pytest

from repro.dse import MAX_PARALLELISM, DseOptions, auto_dse
from repro.workloads import polybench


def _outcome(result):
    return (
        result.report,
        result.tile_vectors(),
        result.evaluations,
        result.parallelism,
    )


class TestParity:
    def test_default_options_match_no_options(self):
        bare = auto_dse(polybench.gemm(16))
        explicit = auto_dse(polybench.gemm(16), options=DseOptions())
        assert _outcome(bare) == _outcome(explicit)


class TestWarningDiscipline:
    def test_options_form_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            auto_dse(polybench.gemm(16), options=DseOptions())
            polybench.gemm(16).auto_DSE(options=DseOptions(cache=False))


class TestErrors:
    def test_unknown_kwarg_raises_like_the_old_signature(self):
        # A typo'd kwarg is an error, not a deprecation: no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(
                TypeError, match="unexpected keyword argument 'bogus'"
            ):
                auto_dse(polybench.gemm(16), bogus=1)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"resource_fraction": 0.0}, "resource_fraction must be > 0"),
            ({"clock_ns": -1.0}, "clock_ns must be > 0"),
            ({"max_parallelism": 0}, "max_parallelism must be >= 1"),
            ({"candidate_timeout_s": -1.0}, "candidate_timeout_s must be >= 0"),
            ({"time_budget_s": -1.0}, "deadline budget must be >= 0"),
            ({"jobs": 0}, "jobs must be >= 1"),
            ({"jobs": 2}, "run_sharded_sweep"),
        ],
    )
    def test_validate_messages(self, changes, match):
        with pytest.raises(ValueError, match=match):
            DseOptions(**changes).validate()

    def test_engine_rejects_invalid_options_identically(self):
        with pytest.raises(ValueError, match="resource_fraction must be > 0"):
            auto_dse(
                polybench.gemm(16), options=DseOptions(resource_fraction=-1.0)
            )


class TestDataclassSurface:
    def test_defaults(self):
        options = DseOptions()
        assert options.resource_fraction == 1.0
        assert options.max_parallelism == MAX_PARALLELISM
        assert options.cache is True
        assert options.jobs is None

    def test_replace_returns_modified_copy(self):
        base = DseOptions()
        tweaked = base.replace(cache=False, jobs=4)
        assert tweaked.cache is False and tweaked.jobs == 4
        assert base.cache is True and base.jobs is None

    def test_field_names_cover_legacy_surface(self):
        names = set(DseOptions.field_names())
        assert {
            "device", "resource_fraction", "clock_ns", "max_parallelism",
            "keep_existing_schedule", "cache", "checkpoint", "resume",
            "candidate_timeout_s", "time_budget_s", "fault_plan", "jobs",
            "objective", "surrogate",
        } == names

    def test_exported_from_package_roots(self):
        import repro
        import repro.dse

        assert repro.DseOptions is DseOptions
        assert repro.dse.DseOptions is DseOptions
