package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/transport"
)

// maxSamples caps each duration sampler; beyond it a traced phase keeps
// its first samples only.
const maxSamples = 1 << 20

// sampler collects durations (ns) while its arm flag is set.
type sampler struct {
	mu   sync.Mutex
	arm  *atomic.Bool
	vals []int64
}

func (s *sampler) add(ns int64) {
	if !s.arm.Load() {
		return
	}
	s.mu.Lock()
	if len(s.vals) < maxSamples {
		s.vals = append(s.vals, ns)
	}
	s.mu.Unlock()
}

// take returns the samples collected so far and starts over.
func (s *sampler) take() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.vals
	s.vals = nil
	return v
}

// tracedTransport wraps one ring endpoint's transport and times every
// call the protocol goroutine makes into it. It forwards Flush, so a
// batching transport batches exactly as it does untraced. Token frames
// pass through an unbuffered hand-off, which stamps the moment the
// protocol goroutine takes the token: that is where token hold
// (arrival to the next Unicast) and rotation (arrival to arrival) start.
type tracedTransport struct {
	inner transport.Transport
	udp   *transport.UDP

	mcast, ucast, flush, hold, rotation sampler

	txFrames, txBytes, mcastFrames atomic.Uint64
	arrival                        atomic.Int64 // last token hand-off, ns on clk; 0 once passed on
	clk                            clock

	token chan []byte
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

func newTracedTransport(u *transport.UDP, arm *atomic.Bool, clk clock) *tracedTransport {
	t := &tracedTransport{
		inner: u, udp: u, clk: clk,
		token: make(chan []byte),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, s := range []*sampler{&t.mcast, &t.ucast, &t.flush, &t.hold, &t.rotation} {
		s.arm = arm
	}
	go t.forwardTokens()
	return t
}

func (t *tracedTransport) forwardTokens() {
	defer close(t.done)
	var prev int64
	for f := range t.inner.Token() {
		select {
		case t.token <- f:
		case <-t.stop:
			return
		}
		now := t.clk.now()
		if prev != 0 {
			t.rotation.add(now - prev)
		}
		prev = now
		t.arrival.Store(now)
	}
}

func (t *tracedTransport) Multicast(frame []byte) error {
	t0 := t.clk.now()
	err := t.inner.Multicast(frame)
	t.mcast.add(t.clk.now() - t0)
	t.mcastFrames.Add(1)
	t.txFrames.Add(1)
	t.txBytes.Add(uint64(len(frame)))
	return err
}

func (t *tracedTransport) Unicast(to evs.ProcID, frame []byte) error {
	t0 := t.clk.now()
	if a := t.arrival.Swap(0); a != 0 {
		t.hold.add(t0 - a)
	}
	err := t.inner.Unicast(to, frame)
	t.ucast.add(t.clk.now() - t0)
	t.txFrames.Add(1)
	t.txBytes.Add(uint64(len(frame)))
	return err
}

func (t *tracedTransport) Flush() error {
	t0 := t.clk.now()
	err := t.udp.Flush()
	t.flush.add(t.clk.now() - t0)
	return err
}

func (t *tracedTransport) Data() <-chan []byte  { return t.inner.Data() }
func (t *tracedTransport) Token() <-chan []byte { return t.token }

func (t *tracedTransport) Close() error {
	var err error
	t.once.Do(func() {
		close(t.stop)
		err = t.inner.Close()
		<-t.done
	})
	return err
}

// countConn counts the reads a client makes on its daemon connection. It
// forwards CloseWrite, which the client's orderly Close relies on.
type countConn struct {
	net.Conn
	reads, bytes *atomic.Uint64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

func (c countConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return c.Conn.Close()
}

// hist is a bucketed histogram that can be added and subtracted, so the
// benchmark can cut one phase out of cumulative registry histograms.
type hist struct {
	n     map[float64]uint64 // bucket upper bound -> samples
	sum   float64
	count uint64
}

func histOf(s obs.HistogramSnapshot) hist {
	h := hist{n: make(map[float64]uint64, len(s.Buckets)), sum: s.Sum, count: s.Count}
	for _, b := range s.Buckets {
		h.n[b.Le] += b.N
	}
	return h
}

func (h *hist) add(o hist) {
	if h.n == nil {
		h.n = make(map[float64]uint64)
	}
	for le, n := range o.n {
		h.n[le] += n
	}
	h.sum += o.sum
	h.count += o.count
}

func (h hist) minus(o hist) hist {
	d := hist{n: make(map[float64]uint64, len(h.n)), sum: h.sum - o.sum, count: h.count - o.count}
	for le, n := range h.n {
		if m := n - o.n[le]; m > 0 {
			d.n[le] = m
		}
	}
	return d
}

func (h hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// quantile interpolates inside the bucket holding rank q, from the
// previous bound (0 for the first); a rank in +Inf reports the highest
// finite bound.
func (h hist) quantile(q float64) float64 {
	var total uint64
	les := make([]float64, 0, len(h.n))
	for le, n := range h.n {
		les = append(les, le)
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(les)
	rank := q * float64(total)
	var cum uint64
	lo := 0.0
	for _, le := range les {
		n := h.n[le]
		if float64(cum+n) >= rank {
			if math.IsInf(le, 1) {
				return lo
			}
			return lo + (le-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
		lo = le
	}
	return lo
}

// stageNames are the latency-attribution stages obs.LatencyAgg folds
// sampled message spans into, in pipeline order.
var stageNames = []string{"pack_hold", "token_wait", "batch_wait", "wire", "ordering",
	"merge_hold", "fanout", "writer_flush", "client_wire"}

// stageHists reads the e2e and per-stage latency histograms of one
// LatencyAgg scope from its registry.
func stageHists(reg *obs.Registry, scope string, into map[string]*hist) {
	prefix := ""
	if scope != "" {
		prefix = scope + "."
	}
	read := func(key, name string) {
		h := histOf(reg.Histogram(prefix+name, obs.LatencyBuckets()).Snapshot())
		if into[key] == nil {
			into[key] = &hist{}
		}
		into[key].add(h)
	}
	read("e2e", "latency.e2e_ns")
	for _, s := range stageNames {
		read(s, "latency.stage."+s+"_ns")
	}
}

// gcPauses reads the runtime's cumulative stop-the-world GC pause
// histogram.
func gcPauses() hist {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	h := hist{n: make(map[float64]uint64)}
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return h
	}
	fh := s[0].Value.Float64Histogram()
	for i, n := range fh.Counts {
		if n == 0 {
			continue
		}
		le := fh.Buckets[i+1] * 1e9 // ns
		h.n[le] += n
		h.count += n
	}
	return h
}

// cpuModules are the modules the CPU profile is folded into.
var cpuModules = []string{"core", "membership", "ringnode", "transport", "wire", "pack",
	"merge", "group", "daemon", "session", "client", "facade", "obs", "gc", "sched", "syscall"}

// moduleOf maps a symbol from a CPU profile to its module, or "" for
// code outside every module (the benchmark itself, the rest of the
// standard library).
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "accelring":
		return "facade"
	case pkg == "accelring/internal/shard/merge":
		return "merge"
	case strings.HasPrefix(pkg, "accelring/internal/"):
		m := strings.TrimPrefix(pkg, "accelring/internal/")
		if i := strings.Index(m, "/"); i >= 0 {
			m = m[:i]
		}
		for _, known := range cpuModules {
			if m == known {
				return m
			}
		}
		return ""
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "os" ||
		strings.HasSuffix(pkg, "/syscall") || pkg == "internal/syscall/unix":
		return "syscall"
	case pkg == "runtime":
		if isGCSymbol(strings.TrimPrefix(fn, "runtime.")) {
			return "gc"
		}
		return "sched"
	}
	return ""
}

// isGCSymbol says whether a runtime symbol belongs to allocation or
// garbage collection rather than scheduling.
func isGCSymbol(s string) bool {
	for _, p := range []string{"gc", "mallocgc", "mark", "scan", "sweep", "greyobject",
		"findObject", "heapBits", "wbBuf", "bulkBarrier", "typePointers", "memclr",
		"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gcWork)", "(*gcBits)",
		"newobject", "makeslice", "growslice", "newarray", "nextFreeFast", "deductAssist",
		"(*pageAlloc)", "(*spanSet)", "(*fixalloc)", "(*mspanSet)", "stkbucket", "profilealloc"} {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuProfile records a CPU profile into a file under dir.
type cpuProfile struct {
	path string
	f    *os.File
}

// startCPUProfile starts profiling into the n-th profile file of this
// process.
func startCPUProfile(dir string, n int) (*cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d-%d.pprof", os.Getpid(), n))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and closes its file.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// fold folds a stopped profile's flat (self) time by module with
// `go tool pprof -top`, as a percentage of all samples, and removes the
// file.
func (p *cpuProfile) fold() (map[string]float64, error) {
	defer os.Remove(p.path)
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(p.path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTop(out), nil
}

// foldTop sums the flat% column of `pprof -top` output by module.
func foldTop(out []byte) map[string]float64 {
	pct := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// flat flat% sum% cum cum% name...
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		if m := moduleOf(strings.Join(f[5:], " ")); m != "" {
			pct[m] += v
		}
	}
	return pct
}

// sampleQueueLens polls every ring endpoint's submission queue length
// every interval until stop closes, returning all samples.
func sampleQueueLens(interval time.Duration, stop <-chan struct{}, read func() []int) []int64 {
	var out []int64
	tk := time.NewTicker(interval)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tk.C:
			for _, q := range read() {
				out = append(out, int64(q))
			}
		}
	}
}
