"""Watch the attribute ranking drift between two time slices of a feed.

Which attributes distinguish outliers can change over time. Ranking each
slice separately and diffing the exports shows which attributes rose, fell,
or entered the selected set, which is exactly what you would check before
trusting a model fitted on last year's data.
"""

from pathlib import Path

import numpy as np

import outcentr as oc
from outcentr import rank_diff

out_dir = Path("demo_output") / "drift"
out_dir.mkdir(parents=True, exist_ok=True)


def slice_with_signal(signal_columns, seed):
    """A labeled slice where exactly the given columns separate the classes."""
    rng = np.random.default_rng(seed)
    n, m, n_out = 1500, 12, 150
    values = rng.standard_normal((n, m))
    labels = np.zeros(n, dtype=int)
    labels[:n_out] = 1
    for column in signal_columns:
        values[:n_out, column] += 3.0
    order = rng.permutation(n)
    names = tuple(f"f{j + 1}" for j in range(m))
    return oc.Dataset(values=values[order], attribute_names=names, labels=labels[order])


# Early period: columns f2 and f5 carry the signal. Later period: f5 fades,
# f9 and f11 take over; f2 weakens but stays relevant.
early = slice_with_signal([1, 4], seed=1)
late = slice_with_signal([8, 10, 1], seed=2)

for tag, data in (("early", early), ("late", late)):
    rank = oc.fit_reducer(oc.normalize_minmax(data), t_fraction=0.25)
    oc.export_rank(rank, out_dir / f"rank_{tag}.csv")
    print(f"{tag}: selected {rank.selected}")

entries = rank_diff(out_dir / "rank_early.csv", out_dir / "rank_late.csv")
print(f"\n{'attribute':<10} {'early':>6} {'late':>6} {'delta':>6}  note")
for entry in entries:
    note = ""
    if entry.selected_b and not entry.selected_a:
        note = "newly selected"
    elif entry.selected_a and not entry.selected_b:
        note = "dropped"
    print(f"{entry.attribute:<10} {entry.rank_a:>6} {entry.rank_b:>6} "
          f"{entry.rank_delta:>+6d}  {note}")

oc.write_rank_diff_csv(entries, out_dir / "diff.csv")
print(f"\nwrote {out_dir / 'diff.csv'}")
