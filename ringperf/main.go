// Command ringperf is the repository's benchmark: it runs the whole
// ordering path — client sessions, daemons, ring protocol over loopback
// UDP, merge, fan-out — or the library facade, in one process, on one
// seeded workload, checks every delivery, and prints end-to-end metrics
// (timing runs) or per-layer metrics (traced runs) as one JSON line.
//
//	bash ringperf/run.sh --workload daemon-agreed-1350 --seed 1 --seconds 36 --trace 0
//	bash ringperf/run.sh --workload all --seed 1 --seconds 36 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every timing run
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"idle_cpu_cores", "cores", "lower"},
	{"p50_light_us", "us", "lower"},
	{"p99_light_us", "us", "lower"},
	{"p50_load_us", "us", "lower"},
	{"p99_load_us", "us", "lower"},
	{"capacity_msgs", "1/s", "higher"},
	{"cpu_us_per_msg", "us", "lower"},
	{"allocs_per_msg", "count", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// unbounded are end-to-end metrics a timing run prints but does not
// report, because no bound of at most a quarter holds them between runs
// of the same code on a shared 2-vCPU host. fail_ratio is 0 on a clean
// run; it travels as the result's attempted/failed counts.
// p50_light_us sits between the two modes of daemon-xring-100's
// light-rate latency (a message either finds the other ring's merge
// frontier ahead or waits for the next skip claim), and p99_load_us on
// that workload follows the host's CPU steal; both moved by more than a
// quarter between such runs. The traced run reports them as
// e2e.p50_light_us and e2e.p99_load_us.
var unbounded = map[string]bool{"fail_ratio": true, "p50_light_us": true, "p99_load_us": true}

func reportedE2E(name string) bool { return !unbounded[name] }

// perLayer are the traced run's metrics; see README.md for which
// end-to-end metric each should move, on which workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"e2e.p50_light_us", "us", "lower"},
		{"e2e.p99_load_us", "us", "lower"},
		{"loadgen.late_p99_us", "us", "lower"},
		{"loadgen.samples", "count", "higher"},
		{"loadgen.fail_ratio", "ratio", "lower"},
		{"client.multicast_p50_ns", "ns", "lower"},
		{"client.multicast_p99_ns", "ns", "lower"},
		{"client.read_calls_per_msg", "count", "lower"},
		{"client.rx_bytes_per_msg", "B", "lower"},
		{"daemon.writer_frames_per_flush", "count", "higher"},
		{"daemon.deliveries_per_encode", "count", "higher"},
		{"daemon.backpressure_waits", "count", "lower"},
		{"daemon.tier_spill", "count", "lower"},
		{"core.rounds_per_s", "1/s", "higher"},
		{"core.msgs_per_round", "count", "higher"},
		{"core.retrans_per_msg", "count", "lower"},
		{"core.tokens_dropped", "count", "lower"},
		{"core.data_dropped", "count", "lower"},
		{"ringnode.queue_len_p99", "count", "lower"},
		{"membership.installs", "count", "lower"},
		{"transport.multicast_p50_ns", "ns", "lower"},
		{"transport.flush_p50_ns", "ns", "lower"},
		{"transport.unicast_p50_ns", "ns", "lower"},
		{"transport.tx_frames_per_msg", "count", "lower"},
		{"transport.tx_bytes_per_msg", "B", "lower"},
		{"transport.tx_syscalls_per_msg", "count", "lower"},
		{"transport.rx_syscalls_per_msg", "count", "lower"},
		{"transport.msgs_per_frame", "count", "higher"},
		{"transport.rx_drops", "count", "lower"},
		{"ring.token_hold_us", "us", "lower"},
		{"ring.rotation_us", "us", "lower"},
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{"stage." + s + "_us", "us", "lower"})
	}
	defs = append(defs, metricDef{"stage.coverage", "ratio", "higher"})
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m + "_pct", "%", "lower"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_pause_p99_us", "us", "lower"},
		metricDef{"runtime.idle_allocs_per_s", "1/s", "lower"},
		metricDef{"host.steal_share", "ratio", "lower"},
	)
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit, "lower"})
	}
	return defs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringperf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringperf", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload to run, or all: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 36, "measured seconds per workload (a traced run splits them between its untraced and traced pass)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: timing run reporting end-to-end metrics")
	scratch := fs.String("scratch", ".bench_build/ringperf", "directory for the traced run's CPU profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	run := workloads
	if *wlName != "all" {
		wl, err := findWorkload(*wlName)
		if err != nil {
			return err
		}
		run = []*workload{wl}
	}
	// With several workloads the result line names each metric
	// <workload>/<metric>.
	out := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, wl := range run {
		r, err := runWorkload(wl, *seed, *seconds, *trace == 1, *scratch)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(run) > 1 {
				k = wl.name + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload runs one workload, timed or traced, and prints its tables,
// violations and run record.
func runWorkload(wl *workload, seed int64, seconds float64, traced bool, scratch string) (result, error) {
	fmt.Println("## workload", wl.name)
	rec := newRunRecord(wl.name, seed, seconds, traced)
	var out result
	var violations []string
	if !traced {
		r, err := runPass(wl, seed, seconds, false, scratch)
		if err != nil {
			return out, err
		}
		rec.StealShare, rec.ReportedSteal = r.steal, r.keptSteal
		printTable("end-to-end (timing run)", endToEnd, r.e2e)
		out = result{Attempted: r.attempted, Failed: r.failed, Metrics: pick(endToEnd, r.e2e, reportedE2E)}
		violations = r.violations
	} else {
		// The untraced and traced passes run the same workload on the
		// same seed, half the time each; their difference is what the
		// instruments cost.
		base, err := runPass(wl, seed, seconds/2, false, scratch)
		if err != nil {
			return out, err
		}
		tr, err := runPass(wl, seed, seconds/2, true, scratch)
		if err != nil {
			return out, err
		}
		for _, m := range endToEnd {
			tr.layer["overhead."+m.name] = tr.e2e[m.name] - base.e2e[m.name]
		}
		tr.layer["host.steal_share"] = tr.steal
		tr.layer["e2e.p50_light_us"] = base.e2e["p50_light_us"]
		tr.layer["e2e.p99_load_us"] = base.e2e["p99_load_us"]
		rec.StealShare = (base.steal + tr.steal) / 2
		rec.ReportedSteal = (base.keptSteal + tr.keptSteal) / 2
		printTable("end-to-end (untraced pass)", endToEnd, base.e2e)
		printTable("end-to-end (traced pass)", endToEnd, tr.e2e)
		printTable("per layer (traced pass)", perLayer, tr.layer)
		out = result{Attempted: base.attempted + tr.attempted, Failed: base.failed + tr.failed,
			Metrics: pick(perLayer, tr.layer, nil)}
		violations = append(base.violations, tr.violations...)
	}
	out.Correct = len(violations) == 0
	for _, v := range violations {
		fmt.Println("VIOLATION:", v)
	}
	recJSON, _ := json.Marshal(rec)
	fmt.Println("run-record", string(recJSON))
	return out, nil
}

func pick(defs []metricDef, vals map[string]float64, keep func(string) bool) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		if keep == nil || keep(m.name) {
			out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
	}
	return out
}

func printTable(title string, defs []metricDef, vals map[string]float64) {
	fmt.Println("#", title)
	for _, m := range defs {
		fmt.Printf("  %-32s %14.4f %-6s %s is better\n", m.name, vals[m.name], m.unit, m.better)
	}
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
