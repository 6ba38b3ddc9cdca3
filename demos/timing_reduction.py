"""Measure what feature reduction buys in detector wall-clock time.

LOF's cost is dominated by pairwise distances, which scale with the number
of attributes, so cutting m by 10x should cut fit and predict times hard.
The isolation forest is less distance-bound but still wins on tree splits
over fewer, cleaner attributes.

The runner times each detector's fit and predict phases in every cell; this
script prints their medians over three seeds, full data against outcentr's
top 10% of attributes.
"""

import outcentr as oc

spec = oc.SynthSpec(n=2000, m=500, contamination=0.05, n_informative=50, separation=4.0)
cfg = oc.RunConfig(source="synth", dataset_name="timing", synth=spec,
                   reducers=("none", "outcentr"), detectors=("lof", "iforest"),
                   seeds=(6, 7, 8), t_fraction=0.10, k_neighbors=20)
report = oc.run_experiment(cfg)
k_used = {cell.reducer: cell.k_used for cell in report.cells}
print(f"full m={k_used['none']}, reduced m={k_used['outcentr']}\n")

print(f"{'detector':<9} {'data':<8} {'fit s':>8} {'predict s':>10}")
total = {}
for row in report.median_rows():
    label = "full" if row["reducer"] == "none" else "reduced"
    total[(row["detector"], label)] = row["fit_seconds"] + row["predict_seconds"]
    print(f"{row['detector']:<9} {label:<8} {row['fit_seconds']:>8.3f} "
          f"{row['predict_seconds']:>10.3f}")

print()
for detector in ("lof", "iforest"):
    ratio = total[(detector, "full")] / total[(detector, "reduced")]
    print(f"{detector}: reduction makes fit+predict {ratio:.1f}x faster")
