package ecosched

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ecosched/internal/metrics"
	"ecosched/internal/trace"
)

// ServeConfig configures the observability HTTP surface of `chronus
// serve`.
type ServeConfig struct {
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Handler returns the `chronus serve` exposition endpoints:
//
//	/metrics  Prometheus text exposition of the accumulated +
//	          live metrics registry
//	/trace    the journal's last decision-trace events as JSON (at
//	          most traceLimit; ?n= sets the count)
//	/healthz  liveness: 200 {"status":"ok"} — independent of the
//	          simulation, so it answers during an in-flight benchmark
//
// and, when cfg.Pprof is set, net/http/pprof under /debug/pprof/.
func (d *Deployment) Handler(cfg ServeConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/trace", d.handleTrace)
	mux.HandleFunc("/healthz", handleHealthz)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the union of the persisted snapshot (previous
// CLI invocations) and the live registry, so a scrape sees the same
// accumulated totals `chronus metrics` prints plus everything this
// process has done since.
func (d *Deployment) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := ReadMetrics(d.dataDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	snap.Merge(d.Metrics.Snapshot())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
	d.writeSLOGauges(w, snap)
}

// writeSLOGauges appends submit-latency SLO gauges to the exposition:
// every bucketed latency histogram in the merged snapshot is evaluated
// against the deployment's submit-latency budget (eco_budget, falling
// back to the chain-wide PluginBudget) at the default objective, so a
// scrape carries attainment and error-budget burn next to the raw
// histograms. Nothing is written when no budget is enforced — there is
// no threshold to hold the fleet to.
func (d *Deployment) writeSLOGauges(w io.Writer, snap metrics.Snapshot) {
	budget := d.sloBudget()
	if budget <= 0 {
		return
	}
	names := make([]string, 0, len(snap.Histograms))
	for name, st := range snap.Histograms {
		if len(st.Buckets) > 0 && strings.Contains(name, "latency") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		rep, err := metrics.EvalSLO(snap, metrics.SLO{
			Metric: name, Threshold: budget, Objective: metrics.DefaultObjective,
		})
		if err != nil || rep.NoData {
			continue // empty histogram: nothing to attain yet
		}
		rep.WritePrometheus(w)
	}
}

// traceLimit caps the events /trace returns when no n is given.
const traceLimit = 1024

// handleTrace serves the last completed trace records of the journal,
// newest last, as a JSON array — so a `chronus serve` started after an
// ecosim run shows the decisions it journaled. This process's own
// records are drained to the journal first.
func (d *Deployment) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := traceLimit
	if s := r.URL.Query().Get("n"); s != "" {
		var err error
		if n, err = strconv.Atoi(s); err != nil || n < 0 {
			http.Error(w, "invalid n", http.StatusBadRequest)
			return
		}
	}
	d.Tracer.Drain()
	events, _ := trace.ReadJournal(filepath.Join(d.dataDir, EventsFile))
	if n < len(events) {
		events = events[len(events)-n:]
	}
	if events == nil {
		events = []trace.Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(events)
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}
