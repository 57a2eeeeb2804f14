package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// segment is one cluster's share of a pass: the cluster runs its cycles,
// is torn down, and its deliveries are checked.
type segment struct {
	wl      *workload
	seed    int64 // mixes the pass seed with the segment's index
	cycles  int
	cycleS  float64
	tc      *traceCfg
	tr      *traceData // shared by the pass's segments
	clk     clock
	cl      cluster
	subs    []*subLog
	sent    [2]chunks[sentMsg]
	sentOK  atomic.Int64
	notify  [2]chan struct{}
	filler  []byte
	others  atomic.Int64
	otherMu sync.Mutex
	otherBy map[string]int

	deadline []int64 // per phase index: clk time after which a delivery is late
	snaps    []cycleSnaps
	profile  string // directory for the CPU profiles
}

func newSegment(wl *workload, seed int64, index, cycles int, cycleS float64, filler []byte, tr *traceData, profile string) *segment {
	p := &segment{
		wl: wl, seed: seed*1_000_003 + int64(index)*100_003, cycles: cycles, cycleS: cycleS,
		tr: tr, clk: newClock(), filler: filler, otherBy: make(map[string]int), profile: profile,
		deadline: make([]int64, phaseIndex(cycles, 0)),
		snaps:    make([]cycleSnaps, cycles),
	}
	if tr != nil {
		p.tc = &traceCfg{arm: new(atomic.Bool), clk: p.clk, every: traceEvery}
		tr.mcall.arm = p.tc.arm
	}
	for i := range p.notify {
		p.notify[i] = make(chan struct{}, 1)
	}
	return p
}

// start attaches the segment to its running cluster.
func (p *segment) start(cl cluster) {
	p.cl = cl
	for i := 0; i < cl.subscribers(); i++ {
		p.subs = append(p.subs, &subLog{})
	}
	cl.start(p.handlers())
}

func (p *segment) handlers() handlers {
	return handlers{
		deliver: func(s int, payload []byte) {
			id, _, _, ok := readStamp(payload)
			if !ok || id.sender() > 1 {
				p.other(s, "foreign payload")
				return
			}
			sl := p.subs[s]
			sl.log.add(delivery{id: id, at: p.clk.now()})
			sl.n.Add(1)
			sl.fromSender[id.sender()].Add(1)
			select {
			case p.notify[id.sender()] <- struct{}{}:
			default:
			}
		},
		other: p.other,
	}
}

// other records an event that should not occur once the cluster is set
// up: a view or ring change, a rejection, a payload the benchmark did
// not send.
func (p *segment) other(s int, what string) {
	p.others.Add(1)
	p.otherMu.Lock()
	p.otherBy[what]++
	p.otherMu.Unlock()
}

func (p *segment) dur(share float64) time.Duration {
	return time.Duration(share * p.cycleS * float64(time.Second))
}

// snapshot is the process and layer state at a phase boundary.
type snapshot struct {
	at       int64
	cpu      time.Duration
	mallocs  uint64
	counters map[string]float64
	stages   map[string]*hist
	gc       hist
}

func (p *segment) snap(layers bool) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{at: p.clk.now(), cpu: cpuTime(), mallocs: ms.Mallocs, counters: p.cl.counters()}
	if layers && p.tc != nil {
		s.stages = p.cl.stageHists()
		s.gc = gcPauses()
	}
	return s
}

func (p *segment) run() error {
	p.openLoop(phaseWarmup, p.wl.loadRate, warmup)
	p.drain(phaseWarmup)
	for c := 0; c < p.cycles; c++ {
		if err := p.cycle(c); err != nil {
			return err
		}
	}
	return nil
}

func (p *segment) cycle(c int) error {
	sn := &p.snaps[c]
	tr := p.tr

	sn.host[0] = readHostCPU()
	defer func() { sn.host[1] = readHostCPU() }()

	// Quiet: no traffic; what the process burns is the idle ring.
	time.Sleep(settle)
	sn.quiet[0] = p.snap(false)
	time.Sleep(p.dur(shareQuiet))
	sn.quiet[1] = p.snap(false)

	light := phaseIndex(c, kindLight)
	if tr != nil {
		p.tc.arm.Store(true)
	}
	p.openLoop(light, lightRate, p.dur(shareLight))
	if tr != nil {
		p.tc.arm.Store(false)
		for _, t := range p.cl.transports() {
			tr.hold = append(tr.hold, t.hold.take()...)
			tr.rotation = append(tr.rotation, t.rotation.take()...)
			t.mcast.take()
			t.ucast.take()
			t.flush.take()
		}
		tr.mcall.take()
	}
	p.drain(light)

	// Load: a fixed open-loop rate, with the process's cost per message.
	load := phaseIndex(c, kindLoad)
	var qstop chan struct{}
	qdone := make(chan []int64, 1)
	if tr != nil {
		prof, err := startCPUProfile(p.profile, len(tr.profiles))
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		tr.profiles = append(tr.profiles, prof)
		qstop = make(chan struct{})
		go func() { qdone <- sampleQueueLens(time.Millisecond, qstop, p.cl.queueLens) }()
		p.tc.arm.Store(true)
	}
	sn.load[0] = p.snap(true)
	late := p.openLoop(load, p.wl.loadRate, p.dur(shareLoad))
	sn.load[1] = p.snap(true)
	if tr != nil {
		p.tc.arm.Store(false)
		close(qstop)
		tr.qlens = append(tr.qlens, <-qdone...)
		if err := tr.profiles[len(tr.profiles)-1].stop(); err != nil {
			return err
		}
		tr.lateLoad = append(tr.lateLoad, late...)
		for _, t := range p.cl.transports() {
			tr.mcast = append(tr.mcast, t.mcast.take()...)
			tr.ucast = append(tr.ucast, t.ucast.take()...)
			tr.flushT = append(tr.flushT, t.flush.take()...)
			t.hold.take()
			t.rotation.take()
		}
	}
	p.drain(load)

	// Capacity: closed loop, each sender keeping a window in flight.
	capacity := phaseIndex(c, kindCapacity)
	p.closedLoop(capacity, &sn.capacity)
	p.drain(capacity)
	return nil
}

// nextSeq returns the seq and group of sender's next message. Senders
// alternate over the workload's groups.
func (p *segment) nextSeq(sender int) (uint64, int) {
	seq := uint64(p.sent[sender].len() + 1)
	return seq, int(seq % uint64(len(p.wl.groups)))
}

// sendOne stamps and sends sender's next message, due at due, and
// records the outcome.
func (p *segment) sendOne(sender, phase int, due int64, buf []byte) {
	seq, group := p.nextSeq(sender)
	stamp(buf, due, phase, sender, group, seq)
	t0 := p.clk.now()
	err := p.cl.send(sender, buf, group)
	if p.tr != nil {
		p.tr.mcall.add(p.clk.now() - t0)
	}
	p.sent[sender].add(sentMsg{due: due, phase: uint8(phase), failed: err != nil})
	if err == nil {
		p.sentOK.Add(1)
	}
}

// openLoop runs one open-loop phase: each of the two senders follows its
// own seeded Poisson schedule at rate/2. It returns the generator's
// lateness for every message.
func (p *segment) openLoop(phase int, rate float64, dur time.Duration) []int64 {
	start := p.clk.now() + int64(time.Millisecond)
	lates := make([][]int64, 2)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		rng := rand.New(rand.NewSource(p.seed + int64(phase)*7919 + int64(s)))
		due := poissonSchedule(rng, rate/2, dur)
		for i := range due {
			due[i] += start
		}
		wg.Add(1)
		go func(s int, due []int64) {
			defer wg.Done()
			buf := append([]byte(nil), p.filler...)
			lates[s] = runOpenLoop(p.clk, due, func(i int) { p.sendOne(s, phase, due[i], buf) })
		}(s, due)
	}
	wg.Wait()
	p.deadline[phase] = p.clk.now() + int64(drainLimit)
	return append(lates[0], lates[1]...)
}

// minDelivered is how many of sender's messages every subscriber has
// delivered.
func (p *segment) minDelivered(sender int) int64 {
	m := p.subs[0].fromSender[sender].Load()
	for _, sl := range p.subs[1:] {
		if n := sl.fromSender[sender].Load(); n < m {
			m = n
		}
	}
	return m
}

// closedLoop runs a capacity phase: each sender keeps window of its own
// messages in flight (sent, not yet delivered to every subscriber) and
// sends the next as soon as one completes. snaps brackets the counted
// window, which starts after the ramp.
func (p *segment) closedLoop(phase int, snaps *[2]snapshot) {
	dur := p.dur(shareCapacity)
	end := p.clk.now() + int64(dur)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			buf := append([]byte(nil), p.filler...)
			base := p.minDelivered(s)
			sentHere := int64(0)
			for p.clk.now() < end {
				for sentHere-(p.minDelivered(s)-base) >= int64(p.wl.window) {
					select {
					case <-p.notify[s]:
					case <-done:
						return
					}
				}
				p.sendOne(s, phase, p.clk.now(), buf)
				sentHere++
			}
		}(s)
	}
	time.Sleep(time.Duration(capacityRamp * float64(dur)))
	snaps[0] = p.snap(false)
	time.Sleep(time.Duration(end - p.clk.now()))
	snaps[1] = p.snap(false)
	close(done)
	wg.Wait()
	p.deadline[phase] = p.clk.now() + int64(drainLimit)
}

// drain waits until every subscriber has delivered every message sent so
// far, or the phase's deadline passes.
func (p *segment) drain(phase int) {
	want := p.sentOK.Load()
	for p.clk.now() < p.deadline[phase] {
		all := true
		for _, sl := range p.subs {
			if sl.n.Load() < want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// analyze checks the segment's delivery logs, adds its counts and
// violations to res, and returns what each of its cycles measured.
func (p *segment) analyze(res *passResult) []cycleResult {
	nsubs := len(p.subs)
	groups := uint64(len(p.wl.groups))
	idOf := func(s, i int) msgID { return makeID(s, int(uint64(i+1)%groups), uint64(i+1)) }
	sent := [2][]sentMsg{p.sent[0].all(), p.sent[1].all()}
	logs := make([][]msgID, nsubs)
	arrivals := make([][]int64, nsubs)
	for s, sl := range p.subs {
		for _, d := range sl.log.all() {
			logs[s] = append(logs[s], d.id)
			arrivals[s] = append(arrivals[s], d.at)
		}
	}
	failed := make(map[msgID]bool)
	var sentIDs []msgID
	attempted := 0
	for s := range sent {
		for i, m := range sent[s] {
			attempted++
			if m.failed {
				failed[idOf(s, i)] = true
			} else {
				sentIDs = append(sentIDs, idOf(s, i))
			}
		}
	}
	rep := checkDeliveries(checkSpec{ringOf: p.wl.ringOf, global: p.wl.rings > 1}, sentIDs, logs)
	for id := range rep.missing {
		failed[id] = true
	}

	// Latency per delivery, from the message's due time; a delivery
	// after its phase's deadline fails the message instead.
	lat := make([][]int64, len(p.deadline))
	got := [2][]int{make([]int, len(sent[0])), make([]int, len(sent[1]))}
	last := [2][]int64{make([]int64, len(sent[0])), make([]int64, len(sent[1]))}
	for sub, log := range logs {
		for k, id := range log {
			s, i := id.sender(), int(id.seq())-1
			if i < 0 || i >= len(sent[s]) {
				continue // reported by the checker
			}
			m, at := sent[s][i], arrivals[sub][k]
			if at > p.deadline[m.phase] {
				failed[id] = true
				continue
			}
			lat[m.phase] = append(lat[m.phase], at-m.due)
			got[s][i]++
			last[s][i] = max(last[s][i], at)
		}
	}
	// Messages of each phase that reached every subscriber in time, and
	// capacity messages completed inside their counted window.
	done := make([]int, len(p.deadline))
	for s := range sent {
		for i, m := range sent[s] {
			if got[s][i] != nsubs || failed[idOf(s, i)] {
				continue
			}
			ph := int(m.phase)
			if ph != phaseWarmup && kindOf(ph) == kindCapacity {
				w := p.snaps[(ph-1)/numKinds].capacity
				if last[s][i] < w[0].at || last[s][i] > w[1].at {
					continue
				}
			}
			done[ph]++
		}
	}

	res.attempted += attempted
	res.failed += len(failed)
	res.violations = append(res.violations, rep.violations...)
	if n := p.others.Load(); n > 0 {
		p.otherMu.Lock()
		res.violations = append(res.violations, fmt.Sprintf("%d unexpected events after set-up: %v", n, p.otherBy))
		p.otherMu.Unlock()
	}
	installs := p.snaps[len(p.snaps)-1].capacity[1].counters["membership.installs"] -
		p.snaps[0].quiet[0].counters["membership.installs"]
	res.layer["membership.installs"] += installs
	if installs > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%v ring installs during the measured phases", installs))
	}

	out := make([]cycleResult, len(p.snaps))
	for c, sn := range p.snaps {
		load, capacity := phaseIndex(c, kindLoad), phaseIndex(c, kindCapacity)
		q0, q1 := sn.quiet[0], sn.quiet[1]
		l0, l1 := sn.load[0], sn.load[1]
		c0, c1 := sn.capacity[0], sn.capacity[1]
		cr := cycleResult{
			steal:       stealShare(sn.host[0], sn.host[1]),
			light:       lat[phaseIndex(c, kindLight)],
			load:        lat[load],
			quietS:      float64(q1.at-q0.at) / 1e9,
			quietCPU:    (q1.cpu - q0.cpu).Seconds(),
			quietAllocs: float64(q1.mallocs - q0.mallocs),
			loadCPU:     (l1.cpu - l0.cpu).Seconds(),
			loadAllocs:  float64(l1.mallocs - l0.mallocs),
			loadMsgs:    float64(done[load]),
			capMsgs:     float64(done[capacity]),
			capS:        float64(c1.at-c0.at) / 1e9,
		}
		if p.tr != nil {
			cr.counters = make(map[string]float64)
			for k, v := range l1.counters {
				cr.counters[k] = v - l0.counters[k]
			}
			cr.capRot = c1.counters["core.rotations"] - c0.counters["core.rotations"]
			cr.stages = make(map[string]hist)
			for _, name := range append([]string{"e2e"}, stageNames...) {
				cr.stages[name] = stageDelta(l0, l1, name)
			}
			cr.gc = l1.gc.minus(l0.gc)
		}
		out[c] = cr
	}
	return out
}
