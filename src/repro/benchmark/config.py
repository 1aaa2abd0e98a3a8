"""Study configuration.

The paper's full-scale settings sample 15,000 records per run, repeat
20 splits with 5 tuning seeds each (100 models per configuration) and
evaluate 26,400 models in total. :meth:`StudyConfig.paper_scale`
reproduces those settings; :meth:`StudyConfig.laptop_scale` (the
default) shrinks them so the complete study runs on a laptop in
minutes while preserving the experimental structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of an experimental study.

    Attributes:
        n_sample: Records sampled from the dataset per repetition
            (capped at the generated table size).
        test_fraction: Fraction of the sample held out for testing.
        n_repetitions: Number of train/test splits per configuration.
        n_tuning_seeds: Hyperparameter-search seeds evaluated per split.
        n_cv_folds: Cross-validation folds inside the grid search.
        alpha: Base significance threshold for the t-tests.
        dataset_sizes: Rows to generate per dataset (defaults to a
            laptop-friendly size; use Table I sizes for full scale).
        generation_seed: Seed for dataset generation.
        models: Model names to evaluate (from the model registry).
        workers: Worker processes for study execution. ``1`` runs
            serially in-process; larger values shard pending work
            units across a multiprocessing pool (results are
            byte-identical to a serial run — every random draw is
            seeded from configuration coordinates, never from
            execution order).
        grid_fast_path: Let the inner grid search evaluate whole
            hyperparameter grids through the log_reg and kNN
            ``score_grid`` shared-computation kernels (one pass per
            fold instead of one cold fit per candidate; the booster
            has none and always runs the naive loop). Selected
            hyperparameters and study records are byte-identical
            either way; ``False`` forces the naive loop.
        incremental: Reuse computation across the cleaned versions of
            a repetition through :mod:`repro.ml.incremental`: row-delta
            manifests pick each repaired version's cheapest parent,
            featurisation reuses the parent's one-hot block whole when
            no categorical cell changed, and booster presorts plus
            whole tuned-model evaluations are shared when inputs
            coincide byte for byte. Every reuse
            path is byte-identical to the cold refit or declines and
            falls back, so stores match a cold run bit for bit;
            ``False`` (the ``--no-incremental`` escape hatch) disables
            the scope entirely.
    """

    n_sample: int = 1_000
    test_fraction: float = 0.3
    n_repetitions: int = 6
    n_tuning_seeds: int = 1
    n_cv_folds: int = 3
    alpha: float = 0.05
    dataset_sizes: dict[str, int] = field(
        default_factory=lambda: {
            "adult": 4_000,
            "folk": 6_000,
            "credit": 5_000,
            "german": 1_000,
            "heart": 5_000,
        }
    )
    generation_seed: int = 0
    models: tuple[str, ...] = ("log_reg", "knn", "xgboost")
    workers: int = 1
    grid_fast_path: bool = True
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.n_sample < 10:
            raise ValueError(f"n_sample must be >= 10, got {self.n_sample}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if self.n_repetitions < 1:
            raise ValueError(
                f"n_repetitions must be >= 1, got {self.n_repetitions}"
            )
        if self.n_tuning_seeds < 1:
            raise ValueError(
                f"n_tuning_seeds must be >= 1, got {self.n_tuning_seeds}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def dataset_size(self, name: str) -> int:
        """Rows to generate for the named dataset."""
        return self.dataset_sizes.get(name, 5_000)

    @staticmethod
    def laptop_scale() -> "StudyConfig":
        """Scaled-down defaults that finish in minutes."""
        return StudyConfig()

    @staticmethod
    def paper_scale() -> "StudyConfig":
        """The paper's full-scale settings (hours of compute)."""
        return StudyConfig(
            n_sample=15_000,
            n_repetitions=20,
            n_tuning_seeds=5,
            n_cv_folds=5,
            dataset_sizes={
                "adult": 48_844,
                "folk": 378_817,
                "credit": 150_000,
                "german": 1_000,
                "heart": 70_000,
            },
        )

    @staticmethod
    def smoke_scale() -> "StudyConfig":
        """Minimal settings for tests."""
        return StudyConfig(
            n_sample=300,
            n_repetitions=2,
            dataset_sizes={
                "adult": 800,
                "folk": 800,
                "credit": 800,
                "german": 600,
                "heart": 800,
            },
        )
