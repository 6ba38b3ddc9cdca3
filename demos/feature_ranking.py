"""Walk through the core idea: rank attributes by their class-centroid gap.

We build a labeled dataset where only a handful of attributes carry any
outlier signal, then watch the centroid gap find them: average the outlier
rows and the inlier rows separately, score each attribute by the absolute
difference between the two averages, and keep the top slice.
"""

import numpy as np

import outcentr as oc

# A 1000-record dataset with 40 attributes, 10% outliers. Only 5 attributes
# actually separate the classes (centers 4 standard deviations apart in that
# subspace); the other 35 are pure noise. Columns are shuffled, and the
# generator tells us where the informative ones landed.
spec = oc.SynthSpec(n=1000, m=40, contamination=0.10, n_informative=5,
                    separation=4.0, seed=20)
data, informative = oc.generate(spec)
print(f"dataset: n={data.n}, m={data.m}, outliers={int(data.labels.sum())}")
print(f"ground-truth informative columns: {sorted(informative)}\n")

# Everything downstream assumes [0, 1] scaling, so normalize first.
data = oc.normalize_minmax(data)

# The two class centroids. Their per-attribute gap is the whole trick:
# attributes whose means barely move between classes cannot help a detector.
outlier_rows, inlier_rows = oc.partition_labels(data)
c_out = oc.compute_centroid(data, outlier_rows)
c_in = oc.compute_centroid(data, inlier_rows)
scores = oc.distinguishability_scores(c_out, c_in)

rank = oc.attribute_rank(scores, data.attribute_names, t=oc.top_t(data.m, 0.10))
print("rank  attribute  gap      informative?")
for position, (name, score) in enumerate(rank.entries[:10], start=1):
    truth = "yes" if data.index_of(name) in informative else ""
    marker = "*" if position <= rank.t else " "
    print(f"{position:>4}{marker} {name:<9} {score:.4f}   {truth}")

selected_cols = {data.index_of(name) for name in rank.selected}
recovered = len(selected_cols & set(informative))
print(f"\ntop-{rank.t} selection recovered {recovered} of {len(informative)} "
      "informative attributes")

# Projection keeps the selected columns in their original order.
reduced = oc.transform(data, rank)
print(f"reduced dataset: m={reduced.m}, columns {reduced.attribute_names}")

# The same rank fitted once applies to any future slice of the same table,
# which is what the train/test pipeline in the benchmark runner does.
fresh = oc.generate(spec)[0]
fresh = oc.apply_normalization(fresh, data.normalization)
print(f"fresh slice projected to m={oc.transform(fresh, rank).m}")

# For reporting, the per-attribute mean deviation from a chosen class
# centroid shows how far the population sits from each class profile.
deviation = oc.attribute_scores(data, range(data.n), c_out)
biggest = int(np.abs(deviation).argmax())
print(f"\nlargest mean deviation from the outlier centroid: "
      f"{data.attribute_names[biggest]} ({deviation[biggest]:+.4f})")
