"""Measure what feature reduction buys in detector wall-clock time.

LOF's cost is dominated by pairwise distances, which scale with the number
of attributes, so cutting m by 10x should cut fit and predict times hard.
The isolation forest is less distance-bound but still wins on tree splits
over fewer, cleaner attributes.
"""

import statistics
import time

import outcentr as oc

spec = oc.SynthSpec(n=2000, m=500, contamination=0.05, n_informative=50,
                    separation=4.0, seed=6)
data, _ = oc.generate(spec)
pair = oc.split(data, 0.8, seed=6)
train = oc.normalize_minmax(pair.train)
test = oc.apply_normalization(pair.test, train.normalization)

rank = oc.fit_reducer(train, t_fraction=0.10)
train_red, test_red = oc.transform(train, rank), oc.transform(test, rank)
contamination = min(float(train.labels.mean()), 0.5)
print(f"train n={train.n}, full m={train.m}, reduced m={train_red.m}\n")

REPS = 3


def median_seconds(action):
    def seconds():
        start = time.perf_counter()
        action()
        return time.perf_counter() - start

    return statistics.median(seconds() for _ in range(REPS))


print(f"{'detector':<9} {'data':<8} {'fit s':>8} {'predict s':>10}")
rows = {}
for label, tr, te in (("full", train, test), ("reduced", train_red, test_red)):
    lof_cfg = oc.DetectorConfig(kind="lof", contamination=contamination, k_neighbors=20)
    model_box = {}
    fit_s = median_seconds(lambda: model_box.update(m=oc.lof_fit(tr, lof_cfg)))
    predict_s = median_seconds(lambda: oc.lof_score(model_box["m"], te))
    rows[("lof", label)] = fit_s + predict_s
    print(f"{'lof':<9} {label:<8} {fit_s:>8.3f} {predict_s:>10.3f}")

    if_cfg = oc.DetectorConfig(kind="iforest", contamination=contamination, seed=6)
    fit_s = median_seconds(lambda: model_box.update(f=oc.iforest_fit(tr, if_cfg)))
    predict_s = median_seconds(lambda: oc.iforest_score(model_box["f"], te))
    rows[("iforest", label)] = fit_s + predict_s
    print(f"{'iforest':<9} {label:<8} {fit_s:>8.3f} {predict_s:>10.3f}")

print()
for detector in ("lof", "iforest"):
    ratio = rows[(detector, "full")] / rows[(detector, "reduced")]
    print(f"{detector}: reduction makes fit+predict {ratio:.1f}x faster")
