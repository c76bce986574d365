package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// samples holds a group's values per workload and metric.
type samples map[string]map[string][]float64

// loadGroup reads every result file the glob pattern matches.
func loadGroup(pattern string) (samples, int, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", pattern, err)
	}
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("%s matches no files", pattern)
	}
	out := make(samples)
	for _, f := range files {
		rf, err := readResults(f)
		if err != nil {
			return nil, 0, err
		}
		for _, r := range rf.Results {
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, len(files), nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method). It needs at least two values; one value is returned
// as all three.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// spread is the distance between the quartiles as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 { //lint:ignore floatcmp an exact zero median has no relative spread
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// verdict judges group b against group a for one metric. An end-to-end
// metric is "worse" when b's median is worse than a's by more than the
// bound, "unresolved" when either group's spread is wider than the bound
// (unless every b run beats every a run), "better" when b's median is
// better by more than a's own spread, and "within bound" otherwise. A
// per-layer metric has no bound: it is "better" or "worse" when the medians
// differ by more than the wider of the two spreads, else "no change".
func verdict(spec metricSpec, a, b []float64) string {
	qa, qb := quartiles(a), quartiles(b)
	sign := 1.0 // positive delta = worse
	if spec.Better == "higher" {
		sign = -1
	}
	diff := sign * (qb[1] - qa[1])
	scale := math.Abs(qa[1])
	if scale == 0 { //lint:ignore floatcmp a zero baseline median (a layer that does not run) has no relative change
		if diff == 0 { //lint:ignore floatcmp both medians exactly zero: nothing changed
			return "no change"
		}
		scale = 1
	}
	rel := diff / scale
	if spec.Bound <= 0 {
		noise := max(qa[2]-qa[0], qb[2]-qb[0])
		switch {
		case diff > noise:
			return "worse"
		case -diff > noise:
			return "better"
		}
		return "no change"
	}
	if max(spread(qa), spread(qb)) > spec.Bound && !allBetter(sign, a, b) {
		return "unresolved"
	}
	switch {
	case rel > spec.Bound:
		return "worse"
	case -diff > qa[2]-qa[0]:
		return "better"
	}
	return "within bound"
}

// allBetter reports whether every value of b is better than every value of
// a, sign being +1 when lower is better and -1 when higher is.
func allBetter(sign float64, a, b []float64) bool {
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, v := range b {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Min(bestA, sign*v)
	}
	return worstB < bestA
}

// runCompare prints one row per workload and metric found in both groups:
// each group's median and quartiles, the relative difference of the
// medians and a verdict. It exits 1 when an end-to-end row is worse or
// unresolved.
func runCompare(patternA, patternB string, stdout, stderr io.Writer) int {
	a, na, err := loadGroup(patternA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, nb, err := loadGroup(patternB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s (%d files)\nB: %s (%d files)\n", patternA, na, patternB, nb)
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB vs A\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		for _, group := range [][]metricSpec{endToEnd, perLayer} {
			for _, spec := range group {
				va, vb := a[w.name][spec.Name], b[w.name][spec.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				qa, qb := quartiles(va), quartiles(vb)
				rel := "-"
				if qa[1] != 0 { //lint:ignore floatcmp a zero median has no relative change
					rel = fmt.Sprintf("%+.1f%%", 100*(qb[1]-qa[1])/math.Abs(qa[1]))
				}
				bound := "-"
				if spec.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*spec.Bound)
				}
				v := verdict(spec, va, vb)
				if spec.Bound > 0 && (v == "worse" || v == "unresolved") {
					code = 1
				}
				fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%s\t%s\n",
					w.name, spec.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], rel, bound, v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return code
}
