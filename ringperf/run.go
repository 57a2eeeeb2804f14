package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"
)

// A pass sets the cluster up setupRepeats times. Each cluster runs a
// share of the pass's cycles and is torn down: a cluster's own
// arrangement (which goroutines share a CPU, how its rings line up) moves
// latency for as long as it lives, so no single cluster decides a pass.
// A cycle is four phases: quiet (no traffic), light (open loop at
// lightRate), load (open loop at the workload's load rate) and capacity
// (closed loop). The end-to-end figures pool the cycles least disturbed
// by host CPU steal (see leastStolen).
const (
	kindLight = iota
	kindLoad
	kindCapacity
	numKinds
)

// Cycle layout. The capacity phase's first capacityRamp of its time is
// not counted.
const (
	cycleSeconds  = 2.4
	shareQuiet    = 0.10
	shareLight    = 0.40
	shareLoad     = 0.30
	shareCapacity = 0.20
	capacityRamp  = 0.2
	warmup        = 300 * time.Millisecond
	settle        = 50 * time.Millisecond
)

// maxCycles keeps every phase index of a segment in the payload's phase
// byte.
const maxCycles = (255 - 1) / numKinds

// phaseWarmup is the warm-up's phase index; cycle c's phase of kind k
// has index 1 + c*numKinds + k.
const phaseWarmup = 0

func phaseIndex(cycle, kind int) int { return 1 + cycle*numKinds + kind }

func kindOf(phase int) int { return (phase - 1) % numKinds }

// drainLimit is how long after a phase stops sending its messages may
// still arrive; later ones count as failed (late).
const drainLimit = 5 * time.Second

// setupRepeats is how many clusters a pass sets up; setup_s is the median
// of their set-up times.
const setupRepeats = 3

// traceEvery samples one ring sequence number in every traceEvery for
// latency attribution in the traced pass.
const traceEvery = 16

// subLog is one subscriber's delivery record, appended by its receive
// goroutine only.
type subLog struct {
	log        chunks[delivery]
	n          atomic.Int64
	fromSender [2]atomic.Int64
}

type delivery struct {
	id msgID
	at int64 // arrival, clk
}

// chunkLen is the length of one chunk of a log.
const chunkLen = 1 << 16

// chunks is an append-only log kept in fixed-size chunks, so that
// growing it never copies the log or leaves garbage while the phases are
// measured, and its memory follows its length.
type chunks[T any] struct{ c [][]T }

func (l *chunks[T]) add(v T) {
	if n := len(l.c); n == 0 || len(l.c[n-1]) == chunkLen {
		l.c = append(l.c, make([]T, 0, chunkLen))
	}
	last := &l.c[len(l.c)-1]
	*last = append(*last, v)
}

func (l *chunks[T]) len() int {
	if len(l.c) == 0 {
		return 0
	}
	return (len(l.c)-1)*chunkLen + len(l.c[len(l.c)-1])
}

func (l *chunks[T]) all() []T {
	out := make([]T, 0, l.len())
	for _, c := range l.c {
		out = append(out, c...)
	}
	return out
}

// sentMsg is one sender's record of one message, indexed by seq-1.
type sentMsg struct {
	due    int64
	phase  uint8
	failed bool // the send call returned an error
}

// cycleSnaps are the process and layer states at one cycle's phase
// boundaries.
type cycleSnaps struct {
	quiet, load, capacity [2]snapshot
	host                  [2]hostCPU
}

// cycleResult is what one cycle measured, kept as sums so cycles can be
// pooled.
type cycleResult struct {
	steal                         float64
	light, load                   []int64 // delivery latencies, ns
	quietS, quietCPU, quietAllocs float64
	loadCPU, loadAllocs, loadMsgs float64
	capMsgs, capS                 float64

	// Traced pass only.
	counters map[string]float64 // load-phase counter deltas
	capRot   float64            // token rotations in the capacity window
	stages   map[string]hist    // load-phase latency-attribution deltas
	gc       hist               // load-phase GC pauses
}

// traceData pools the traced pass's samples over its cycles.
type traceData struct {
	mcall                                sampler // time inside the send call, load phases
	lateLoad, qlens                      []int64
	hold, rotation, mcast, ucast, flushT []int64
	profiles                             []*cpuProfile
}

// passResult holds what one pass measured.
type passResult struct {
	e2e        map[string]float64
	layer      map[string]float64
	attempted  int
	failed     int
	violations []string
	steal      float64 // host steal share over the whole pass
	keptSteal  float64 // mean steal share of the cycles reported
}

func startCluster(wl *workload, tc *traceCfg) (cluster, error) {
	if wl.library {
		return startLibrary(wl, tc)
	}
	return startDaemons(wl, tc)
}

// runPass runs the cycles that fit in seconds over setupRepeats
// clusters, checks every delivery and computes the pass's metrics.
func runPass(wl *workload, seed int64, seconds float64, traced bool, profileDir string) (*passResult, error) {
	total := int(math.Round(seconds / cycleSeconds))
	total = max(setupRepeats, min(total, setupRepeats*maxCycles))
	cycleS := seconds / float64(total)
	res := &passResult{e2e: make(map[string]float64), layer: make(map[string]float64)}
	var tr *traceData
	if traced {
		tr = &traceData{}
	}
	filler := make([]byte, wl.payload)
	rand.New(rand.NewSource(seed)).Read(filler)

	host0 := readHostCPU()
	var setupS []float64
	var cycles []cycleResult
	for k := 0; k < setupRepeats; k++ {
		n := total / setupRepeats
		if k < total%setupRepeats {
			n++
		}
		seg := newSegment(wl, seed, k, n, cycleS, filler, tr, profileDir)
		// Hand the previous segment's freed heap back to the OS, so that
		// the resident peak is this segment's own.
		debug.FreeOSMemory()
		resetPeakRSS()
		t0 := time.Now()
		cl, err := startCluster(wl, seg.tc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		seg.start(cl)
		err = seg.run()
		res.e2e["rss_peak_mb"] = max(res.e2e["rss_peak_mb"], peakRSSMB())
		cl.close()
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, seg.analyze(res)...)
	}
	res.steal = stealShare(host0, readHostCPU())
	res.e2e["setup_s"] = median(setupS)

	steal := make([]float64, len(cycles))
	per := make([]map[string]float64, len(cycles))
	for c, cr := range cycles {
		steal[c] = cr.steal
		per[c] = pooled(cycles[c : c+1])
	}
	kept := leastStolen(steal)
	printCycles(per, steal, kept)
	var keptCycles []cycleResult
	for _, c := range kept {
		keptCycles = append(keptCycles, cycles[c])
		res.keptSteal += steal[c] / float64(len(kept))
	}
	for k, v := range pooled(keptCycles) {
		res.e2e[k] = v
	}
	res.e2e["fail_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	if tr != nil {
		if err := layerMetrics(res, cycles, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pooled computes the end-to-end figures over a set of cycles, pooling
// their samples, times and counts.
func pooled(cycles []cycleResult) map[string]float64 {
	var light, load []int64
	var sum cycleResult
	for _, cr := range cycles {
		light = append(light, cr.light...)
		load = append(load, cr.load...)
		sum.quietS += cr.quietS
		sum.quietCPU += cr.quietCPU
		sum.quietAllocs += cr.quietAllocs
		sum.loadCPU += cr.loadCPU
		sum.loadAllocs += cr.loadAllocs
		sum.loadMsgs += cr.loadMsgs
		sum.capMsgs += cr.capMsgs
		sum.capS += cr.capS
	}
	return map[string]float64{
		"idle_cpu_cores":    ratio(sum.quietCPU, sum.quietS),
		"idle_allocs_per_s": ratio(sum.quietAllocs, sum.quietS),
		"p50_light_us":      percentile(light, 0.50) / 1e3,
		"p99_light_us":      percentile(light, 0.99) / 1e3,
		"p50_load_us":       percentile(load, 0.50) / 1e3,
		"p99_load_us":       percentile(load, 0.99) / 1e3,
		"capacity_msgs":     ratio(sum.capMsgs, sum.capS),
		"cpu_us_per_msg":    ratio(sum.loadCPU*1e6, sum.loadMsgs),
		"allocs_per_msg":    ratio(sum.loadAllocs, sum.loadMsgs),
	}
}

// layerMetrics computes the traced pass's per-layer metrics, pooled over
// all its cycles.
func layerMetrics(res *passResult, cycles []cycleResult, tr *traceData) error {
	ly := res.layer
	var loadLat []int64
	var deliveries, loadMsgs, capMsgs, capS, capRot float64
	delta := make(map[string]float64)
	stages := make(map[string]hist)
	var gc hist
	for _, cr := range cycles {
		loadLat = append(loadLat, cr.load...)
		deliveries += float64(len(cr.load))
		loadMsgs += cr.loadMsgs
		capMsgs += cr.capMsgs
		capS += cr.capS
		capRot += cr.capRot
		for k, v := range cr.counters {
			delta[k] += v
		}
		for name, h := range cr.stages {
			acc := stages[name]
			acc.add(h)
			stages[name] = acc
		}
		gc.add(cr.gc)
	}
	ly["runtime.idle_allocs_per_s"] = res.e2e["idle_allocs_per_s"]
	ly["loadgen.late_p99_us"] = percentile(tr.lateLoad, 0.99) / 1e3
	ly["loadgen.samples"] = deliveries
	ly["loadgen.fail_ratio"] = res.e2e["fail_ratio"]
	calls := tr.mcall.take()
	ly["client.multicast_p50_ns"] = percentile(calls, 0.5)
	ly["client.multicast_p99_ns"] = percentile(calls, 0.99)
	ly["client.read_calls_per_msg"] = ratio(delta["client.reads"], deliveries)
	ly["client.rx_bytes_per_msg"] = ratio(delta["client.rx_bytes"], deliveries)
	ly["daemon.writer_frames_per_flush"] = ratio(delta["daemon.writer_frames"], delta["daemon.writer_flushes"])
	ly["daemon.deliveries_per_encode"] = ratio(deliveries, delta["daemon.fanout_encodes"])
	ly["daemon.backpressure_waits"] = delta["daemon.backpressure_waits"]
	ly["daemon.tier_spill"] = delta["daemon.tier_spill"]
	ly["core.rounds_per_s"] = ratio(capRot, capS)
	ly["core.msgs_per_round"] = ratio(capMsgs, capRot)
	ly["core.retrans_per_msg"] = ratio(delta["core.retransmitted"], loadMsgs)
	ly["core.tokens_dropped"] = delta["core.tokens_dropped"]
	ly["core.data_dropped"] = delta["core.data_dropped"]
	ly["ringnode.queue_len_p99"] = percentile(tr.qlens, 0.99)
	ly["transport.multicast_p50_ns"] = percentile(tr.mcast, 0.5)
	ly["transport.unicast_p50_ns"] = percentile(tr.ucast, 0.5)
	ly["transport.flush_p50_ns"] = percentile(tr.flushT, 0.5)
	ly["transport.tx_frames_per_msg"] = ratio(delta["transport.tx_frames"], loadMsgs)
	ly["transport.tx_bytes_per_msg"] = ratio(delta["transport.tx_bytes"], loadMsgs)
	ly["transport.tx_syscalls_per_msg"] = ratio(delta["transport.tx_syscalls"], loadMsgs)
	ly["transport.rx_syscalls_per_msg"] = ratio(delta["transport.rx_syscalls"], loadMsgs)
	ly["transport.msgs_per_frame"] = ratio(loadMsgs, delta["transport.mcast_frames"])
	ly["transport.rx_drops"] = delta["transport.rx_drops"]
	ly["ring.token_hold_us"] = percentile(tr.hold, 0.5) / 1e3
	ly["ring.rotation_us"] = percentile(tr.rotation, 0.5) / 1e3
	for _, name := range stageNames {
		ly["stage."+name+"_us"] = stages[name].quantile(0.5) / 1e3
	}
	ly["stage.coverage"] = ratio(stages["e2e"].mean(), mean(loadLat))
	ly["runtime.gc_pause_p99_us"] = gc.quantile(0.99) / 1e3
	pct := make(map[string]float64)
	for _, prof := range tr.profiles {
		mods, err := prof.fold()
		if err != nil {
			return err
		}
		for m, v := range mods {
			pct[m] += v / float64(len(tr.profiles))
		}
	}
	for _, m := range cpuModules {
		ly["cpu."+m+"_pct"] = pct[m]
	}
	return nil
}

// leastStolen returns the indices of the half of the cycles (rounded
// up) during which the hypervisor stole the least host CPU time. On a
// shared virtual machine steal comes and goes over tens of seconds and
// multiplies latency several times while it lasts; it is not the
// program's doing, so the end-to-end figures pool the least disturbed
// cycles. Every run prints all cycles.
func leastStolen(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	kept := idx[:(len(idx)+1)/2]
	sort.Ints(kept)
	return kept
}

// cycleKeys are the per-cycle figures printed for every run.
var cycleKeys = []string{"idle_cpu_cores", "p50_light_us", "p99_light_us", "p50_load_us",
	"p99_load_us", "capacity_msgs", "cpu_us_per_msg", "allocs_per_msg"}

// printCycles prints one line per cycle, marking the ones reported.
func printCycles(per []map[string]float64, steal []float64, kept []int) {
	fmt.Printf("# %-5s %-6s", "cycle", "steal")
	for _, k := range cycleKeys {
		fmt.Printf(" %14s", k)
	}
	fmt.Println(" reported")
	for c := range steal {
		fmt.Printf("# %-5d %6.3f", c, steal[c])
		for _, k := range cycleKeys {
			fmt.Printf(" %14.1f", per[c][k])
		}
		mark := ""
		for _, k := range kept {
			if k == c {
				mark = " *"
			}
		}
		fmt.Println(mark)
	}
}

func stageDelta(a, b snapshot, name string) hist {
	if b.stages[name] == nil {
		return hist{}
	}
	if a.stages[name] == nil {
		return *b.stages[name]
	}
	return b.stages[name].minus(*a.stages[name])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank q-quantile of v (0 for no samples).
func percentile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(k, 0)])
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
