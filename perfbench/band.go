package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// band summarizes the report artifacts in dir (one per run, as measure
// writes them) into each metric's run-to-run noise band: per workload and
// mode, the median across runs and the interquartile spread as a share of
// that median.
func band(out io.Writer, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace*.json"))
	if err != nil {
		return err
	}
	type group struct {
		host   host
		runs   int
		values map[string][]float64
		order  []string
	}
	groups := map[string]*group{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s traced=%v", r.Workload, r.Traced)
		g := groups[key]
		if g == nil {
			g = &group{host: r.Host, values: map[string][]float64{}}
			groups[key] = g
		}
		g.runs++
		for _, m := range r.Metrics {
			if _, seen := g.values[m.Name]; !seen {
				g.order = append(g.order, m.Name)
			}
			g.values[m.Name] = append(g.values[m.Name], m.Value)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(out, "%s: %d runs on %s/%s, %s, nproc %d, %s\n", k, g.runs,
			g.host.GOOS, g.host.GOARCH, g.host.CPU, g.host.NProc, g.host.GoVersion)
		for _, name := range g.order {
			vs := g.values[name]
			q1, q3 := quartiles(vs)
			fmt.Fprintf(out, "  %-34s median %14.6g  q1 %14.6g  q3 %14.6g  spread %7.4f\n",
				name, median(vs), q1, q3, spread(vs))
		}
	}
	return nil
}
