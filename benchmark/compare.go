package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareDocs prints, for every workload and end-to-end metric, how
// much worse document b's median is than document a's, against the
// metric's bound in BENCHMARK.json, and returns an error when any is
// worse by more than its bound.
//
// A pair is unresolved, not unchanged, when the noise exceeds the
// bound: the run-to-run spread (interquartile range over median) when a
// side holds four or more runs of the workload, else the window spread
// of its runs.
func compareDocs(sp *spec, aPath, bPath string) error {
	a, err := loadDoc(aPath)
	if err != nil {
		return err
	}
	b, err := loadDoc(bPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-22s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "noise", "verdict")
	var beyond int
	for _, w := range sp.Workloads {
		ra, rb := a.runsOf(w.Name), b.runsOf(w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-20s no untraced run on one side\n", w.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			noise := noiseOf(ra, va)
			if n := noiseOf(rb, vb); n > noise {
				noise = n
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "WORSE"
				beyond++
			case noise > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-20s %-22s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*noise, verdict)
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", beyond)
	}
	return nil
}

func loadDoc(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// runsOf returns the document's untraced runs of one workload.
func (d *document) runsOf(workload string) []runRecord {
	var out []runRecord
	for _, r := range d.Runs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []runRecord, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name].Value
	}
	return xs
}

func noiseOf(runs []runRecord, values []float64) float64 {
	if len(values) >= 4 {
		if med := median(values); med != 0 {
			return iqr(values) / med
		}
		return 0
	}
	var noise float64
	for _, r := range runs {
		if r.WindowSpread > noise {
			noise = r.WindowSpread
		}
	}
	return noise
}
