"""The full pipeline: connected components and Euler characteristics.

The intersection of the two opposed big cells is covered, up to
codimension two, by 128 sign cells (64 per reduced word).  Sampling
each cell and re-factorizing along the other word recovers which cells
overlap, hence the 11 connected components.  Classifying all 140
Deodhar cells into these components then gives each component's Euler
characteristic as an alternating sum over codimensions.

This demo recomputes everything from scratch in about a second.  Run
with:  python demos/03_components_and_euler.py
"""

from g2cells import compute_figure1

print("building the overlap graph (128 cells, 8 samples each)...")
partition = compute_figure1()
print("component sizes:", partition.sizes())
print()

print("letter components of the upper side against component numbers:")
bijection = partition.bijection
print("  ", "  ".join("%s->%d" % (k, v) for k, v in sorted(bijection.items())))
print("  (note the crossing at I and J)")
print()

print("classification of the codimension-1 and -2 cells, by family:")
tables = partition.classification_tables
for name, rows in tables.items():
    print("  family", name)
    for r in rows:
        print("    %-7s  signs %s  ->  %s (component %d)" % (r.cell, r.signs, r.letter, r.component))
print()

report = partition.euler_report
print("component  codim0  codim1  codim2  euler")
for num in sorted(report.per_component):
    n0, n1, n2, chi = report.per_component[num]
    print("%9d  %6d  %6d  %6d  %5d" % (num, n0, n1, n2, chi))
print("total Euler characteristic:", report.total_euler())
