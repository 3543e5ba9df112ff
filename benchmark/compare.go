package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is how one metric of one workload fared between two reports.
type verdict struct {
	workload, metric string
	base, cand       float64
	worse            float64 // the change in the metric's bad direction, as a share of base
	bound            float64
	spread           float64 // the wider of the two runs' own slice spreads, as a share of the median
	status           string
}

const (
	statusOK         = "ok"
	statusUnresolved = "unresolved" // the run's own spread is wider than the bound: the bound cannot be tested
	statusBreach     = "BREACH"
)

// judge sets one end-to-end metric of a candidate run beside the baseline.
// A metric that worsened by more than its bound is a breach. One whose own
// spread within a run exceeds the bound is unresolved, not unchanged: the
// runs cannot show a change of the size the bound is about.
func judge(d metricDef, base, cand *result) verdict {
	v := verdict{workload: base.Workload, metric: d.Name, bound: d.Bound,
		base: base.Metrics[d.Name], cand: cand.Metrics[d.Name]}
	if v.base != 0 {
		v.worse = (v.cand - v.base) / v.base
		if d.Better == higher {
			v.worse = -v.worse
		}
	}
	v.spread = max(base.Spreads[d.Name].rel(), cand.Spreads[d.Name].rel())
	switch {
	case v.worse > v.bound:
		v.status = statusBreach
	case v.spread > v.bound:
		v.status = statusUnresolved
	default:
		v.status = statusOK
	}
	return v
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints, for every workload both reports hold, each
// end-to-end metric's change against its bound, and reports whether any
// bound was breached. A failed run on the candidate side is a breach
// whatever its numbers say.
func compareFiles(w io.Writer, basePath, candPath string) (breached bool, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readReport(candPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-20s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "baseline", "candidate", "worse", "bound", "spread", "status")
	pairs := 0
	for _, b := range base.Results {
		for _, c := range cand.Results {
			if b.Workload != c.Workload || b.Traced || c.Traced {
				continue
			}
			pairs++
			if c.Failed > b.Failed {
				breached = true
				fmt.Fprintf(w, "%-15s %d requests failed, baseline %d: %s\n", c.Workload, c.Failed, b.Failed, statusBreach)
			}
			for _, d := range endToEnd {
				v := judge(d, b, c)
				breached = breached || v.status == statusBreach
				fmt.Fprintf(w, "%-15s %-20s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
					v.workload, v.metric, v.base, v.cand, v.worse*100, v.bound*100, v.spread*100, v.status)
			}
		}
	}
	if pairs == 0 {
		return false, fmt.Errorf("%s and %s have no untraced workload in common", basePath, candPath)
	}
	return breached, nil
}
