import tracemalloc

import numpy as np
import pytest

from outcentr.data import DataError, load_csv, normalize_minmax, split
from outcentr.ranking import compute_centroid, distinguishability_scores, partition_labels
from outcentr.synth import SynthSpec, generate, save_synth

from oracles import generate_by_stacking


class TestSynthSpec:
    def test_table_grid_counts(self):
        data, _ = generate(SynthSpec(n=1000, m=50, contamination=0.05, seed=0))
        assert data.n == 1000 and data.m == 50
        assert int(data.labels.sum()) == 50
        assert int((data.labels == 0).sum()) == 950

    def test_minimum_one_outlier(self):
        with pytest.raises(DataError):
            SynthSpec(n=10, m=5, contamination=0.05)

    def test_informative_default(self):
        assert SynthSpec(n=100, m=50, contamination=0.1).informative_count == 5
        assert SynthSpec(n=100, m=10, contamination=0.1).informative_count == 2

    def test_informative_bounds(self):
        with pytest.raises(DataError):
            SynthSpec(n=100, m=5, contamination=0.1, n_informative=6)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("contamination", 1.0, "contamination must be in (0, 1), got 1.0"),
            ("separation", -0.5, "separation must be non-negative"),
        ],
        ids=["contamination", "separation"],
    )
    def test_rejects_a_bad_value_naming_it(self, field, value, message):
        with pytest.raises(DataError) as raised:
            SynthSpec(**{**dict(n=100, m=5, contamination=0.1), field: value})
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "field,value",
        [("n", 200.5), ("n", 200.0), ("n", True), ("m", 20.0), ("m", True),
         ("n_informative", 2.0), ("n_informative", True), ("seed", -1), ("seed", 1.5),
         ("seed", True)],
    )
    def test_sizes_and_seed_are_integers(self, field, value):
        spec = dict(n=200, m=20, contamination=0.1)
        with pytest.raises(DataError, match=rf"\b{field}\b"):
            SynthSpec(**{**spec, field: value})
        good = SynthSpec(n=np.int64(200), m=np.int64(20), contamination=0.1,
                         n_informative=np.int64(2), seed=np.int64(0))
        assert generate(good)[0].n == 200


class TestGenerate:
    def test_same_seed_bit_identical(self):
        spec = SynthSpec(n=200, m=20, contamination=0.1, seed=42)
        a, info_a = generate(spec)
        b, info_b = generate(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)
        assert info_a == info_b

    @pytest.mark.parametrize("spec", [
        dict(n=200, m=20, contamination=0.1),
        dict(n=300, m=45, contamination=0.05, n_informative=7, separation=2.5),
        dict(n=40, m=6, contamination=0.2, n_informative=6),  # no noise columns
        dict(n=9, m=1, contamination=0.3),
    ])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matches_stacking_the_blocks_then_permuting(self, spec, seed):
        data, informative = generate(SynthSpec(seed=seed, **spec))
        values, labels, positions = generate_by_stacking(SynthSpec(seed=seed, **spec))
        assert data.values.tobytes() == values.tobytes()
        assert data.labels.tobytes() == labels.tobytes()
        assert informative == positions

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_holds_two_matrices_at_its_peak(self, seed):
        """The blocks and the values gathered from them, one column at a time:
        the Dataset adopts the values uncopied."""
        spec = SynthSpec(n=1000, m=200, contamination=0.05, seed=seed)
        generate(spec)  # first-call allocations of numpy are not generate's
        tracemalloc.start()
        try:
            data, _ = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * data.values.nbytes

    def test_different_seed_differs(self):
        a, _ = generate(SynthSpec(n=200, m=20, contamination=0.1, seed=1))
        b, _ = generate(SynthSpec(n=200, m=20, contamination=0.1, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_informative_positions_are_reported(self):
        spec = SynthSpec(n=500, m=30, contamination=0.1, n_informative=4, seed=7)
        data, informative = generate(spec)
        assert len(informative) == 4
        assert all(0 <= j < 30 for j in informative)

    def gaps(self, spec):
        data, informative = generate(spec)
        normalized = normalize_minmax(data)
        scores = distinguishability_scores(
            *(compute_centroid(normalized, rows) for rows in partition_labels(normalized))
        )
        mask = np.zeros(spec.m, dtype=bool)
        mask[list(informative)] = True
        return scores[mask], scores[~mask]

    def test_zero_separation_means_no_systematic_gap(self):
        diffs = []
        for seed in range(10):
            inf, noise = self.gaps(
                SynthSpec(n=1000, m=40, contamination=0.1, n_informative=5,
                          separation=0.0, seed=seed)
            )
            diffs.append(inf.mean() - noise.mean())
        diffs = np.array(diffs)
        # paired over seeds: the mean difference is within 3 sigma of zero
        assert abs(diffs.mean()) < 3 * diffs.std(ddof=1) / np.sqrt(len(diffs))

    def test_wide_separation_gives_clear_gap(self):
        wins = 0
        for seed in range(10):
            inf, noise = self.gaps(
                SynthSpec(n=1000, m=40, contamination=0.1, n_informative=5,
                          separation=4.0, seed=seed)
            )
            wins += inf.mean() > noise.mean()
        assert wins == 10

    def test_plays_well_with_split(self):
        data, _ = generate(SynthSpec(n=400, m=10, contamination=0.05, seed=3))
        train, test = split(data, 0.8, seed=3)
        assert int(train.labels.sum()) == 16
        assert int(test.labels.sum()) == 4


def test_save_synth_writes_csv_and_sidecar(tmp_path):
    spec = SynthSpec(n=50, m=6, contamination=0.1, n_informative=2, seed=5)
    data, informative = generate(spec)
    data_path, sidecar = save_synth(data, informative, tmp_path / "out")
    back = load_csv(data_path, label_column="label")
    assert np.array_equal(back.values, data.values)
    assert np.array_equal(back.labels, data.labels)
    listed = [int(line) for line in sidecar.read_text().splitlines()]
    assert tuple(listed) == informative
