package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/pack"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// nodes is the ring size of every workload: three daemons or three
// library nodes, as in the paper's smallest testbed.
const nodes = 3

// setupTimeout bounds ring formation and group joins.
const setupTimeout = 20 * time.Second

// traceCfg turns on the traced run's instruments. A nil *traceCfg is the
// timing run: no wrappers, no registry, no sampling.
type traceCfg struct {
	arm   *atomic.Bool // samplers record only while set
	clk   clock
	every int // message-lifecycle sampling: one ring seq in every
}

// msgTraceDepth is the per-ring span buffer of the daemon workloads; the
// folder drains it every foldEvery, well before it wraps.
const (
	msgTraceDepth = 1 << 11
	foldEvery     = 20 * time.Millisecond
)

// handlers receive a running cluster's events, one goroutine per
// subscriber.
type handlers struct {
	deliver func(sub int, payload []byte)
	other   func(sub int, what string)
}

// cluster is the system under test, set up and running in this process.
type cluster interface {
	// send publishes one benchmark message from sender (0 or 1).
	send(sender int, payload []byte, group int) error
	subscribers() int
	start(h handlers)
	// counters returns cumulative layer counters; callers diff them.
	counters() map[string]float64
	// queueLens returns each ring endpoint's submission queue length
	// (nil when the layer does not expose it).
	queueLens() []int
	// stageHists returns the cumulative latency-attribution histograms
	// summed over every node and ring (traced runs only).
	stageHists() map[string]*hist
	transports() []*tracedTransport
	close()
}

// udpMesh opens nodes x rings UDP endpoints on loopback, each ring a
// fully cross-wired mesh with no injected delay or loss.
func udpMesh(rings int) ([][]*transport.UDP, error) {
	mesh := make([][]*transport.UDP, nodes)
	closeAll := func() {
		for _, row := range mesh {
			for _, u := range row {
				if u != nil {
					u.Close()
				}
			}
		}
	}
	for i := range mesh {
		mesh[i] = make([]*transport.UDP, rings)
		for r := range mesh[i] {
			u, err := transport.NewUDP(transport.UDPConfig{
				Self:   evs.ProcID(i + 1),
				Listen: transport.UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
			})
			if err != nil {
				closeAll()
				return nil, err
			}
			mesh[i][r] = u
		}
	}
	for i := range mesh {
		for r, u := range mesh[i] {
			for j := range mesh {
				if i == j {
					continue
				}
				if err := u.AddPeer(evs.ProcID(j+1), mesh[j][r].LocalAddrs()); err != nil {
					closeAll()
					return nil, err
				}
			}
		}
	}
	return mesh, nil
}

// daemonCluster is three daemons with two client sessions, on daemons 1
// and 2; each session publishes and subscribes to every group.
type daemonCluster struct {
	wl      *workload
	tc      *traceCfg
	daemons []*daemon.Daemon
	udps    [][]*transport.UDP
	tts     []*tracedTransport
	regs    []*obs.Registry
	aggs    []*obs.LatencyAgg
	clients []*client.Client

	reads, rxBytes atomic.Uint64
	recv           sync.WaitGroup
	foldStop       chan struct{}
	foldDone       chan struct{}
}

func startDaemons(wl *workload, tc *traceCfg) (_ *daemonCluster, err error) {
	c := &daemonCluster{wl: wl, tc: tc}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	mesh, err := udpMesh(wl.rings)
	if err != nil {
		return nil, err
	}
	c.udps = mesh
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		trs := make([]transport.Transport, wl.rings)
		for r, u := range mesh[i] {
			trs[r] = u
			if tc != nil {
				tt := newTracedTransport(u, tc.arm, tc.clk)
				c.tts = append(c.tts, tt)
				trs[r] = tt
			}
		}
		cfg := daemon.Config{
			Ring:     ringnode.Accelerated(evs.ProcID(i+1), trs[0], 20, 160, 15),
			Listener: ln,
		}
		if wl.pack {
			cfg.Ring.Packing = &pack.AdaptiveConfig{}
		}
		if wl.rings > 1 {
			cfg.Shards = wl.rings
			cfg.NewTransport = func(r int) (transport.Transport, error) { return trs[r], nil }
		}
		if tc != nil {
			reg := obs.NewRegistry()
			c.regs = append(c.regs, reg)
			cfg.Obs = reg
			cfg.Ring.Observer = &obs.RingObserver{Reg: reg, Msg: obs.NewMsgTracer(tc.every, msgTraceDepth)}
		}
		d, err := daemon.Start(cfg)
		if err != nil {
			ln.Close()
			return nil, err
		}
		c.daemons = append(c.daemons, d)
	}
	if err := c.awaitFullRings(); err != nil {
		return nil, err
	}
	if tc != nil {
		for i, d := range c.daemons {
			agg := obs.NewLatencyAgg(c.regs[i])
			for r := 0; r < wl.rings; r++ {
				agg.AddTracer(ringScope(wl.rings, r), d.RingNode(r).Observer().MsgTracer())
			}
			c.aggs = append(c.aggs, agg)
		}
		c.foldStop, c.foldDone = make(chan struct{}), make(chan struct{})
		go foldLoop(c.aggs, c.foldStop, c.foldDone)
	}
	for s := 0; s < 2; s++ {
		cfg := client.Config{Addr: c.daemons[s].Addr().String(), Name: fmt.Sprintf("perf%d", s)}
		if tc != nil {
			cfg.Dialer = func(network, addr string) (net.Conn, error) {
				conn, err := net.Dial(network, addr)
				if err != nil {
					return nil, err
				}
				return countConn{Conn: conn, reads: &c.reads, bytes: &c.rxBytes}, nil
			}
		}
		cl, err := client.DialWith(cfg)
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	for _, cl := range c.clients {
		for _, g := range wl.groups {
			if err := cl.Join(g); err != nil {
				return nil, err
			}
		}
	}
	for s, cl := range c.clients {
		if err := awaitClientViews(cl, wl.groups, len(c.clients)); err != nil {
			return nil, fmt.Errorf("session %d: %w", s, err)
		}
	}
	return c, nil
}

// awaitFullRings waits until every ring of every daemon is operational
// with all the daemons as members. A daemon is operational as soon as it
// is in some ring, and a partial ring that merges later would
// re-announce every group view in the middle of the measurement.
func (c *daemonCluster) awaitFullRings() error {
	deadline := time.Now().Add(setupTimeout)
	for {
		full := true
		for _, d := range c.daemons {
			for r := 0; r < c.wl.rings; r++ {
				st := d.RingNode(r).Status()
				if st.State != membership.StateOperational || len(st.Ring.Members) != nodes {
					full = false
				}
			}
		}
		if full {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rings did not form with all %d daemons within %v", nodes, setupTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// ringScope is the LatencyAgg scope of ring r: unscoped on one ring,
// "shard<r>" on several, matching the registry labels.
func ringScope(rings, r int) string {
	if rings == 1 {
		return ""
	}
	return fmt.Sprintf("shard%d", r)
}

func foldLoop(aggs []*obs.LatencyAgg, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tk := time.NewTicker(foldEvery)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
			for _, a := range aggs {
				a.Fold()
			}
		}
	}
}

// awaitClientViews reads a session's events until every group's agreed
// view lists want members.
func awaitClientViews(cl *client.Client, groups []string, want int) error {
	full := make(map[string]bool)
	deadline := time.After(setupTimeout)
	for len(full) < len(groups) {
		select {
		case ev, ok := <-cl.Events():
			if !ok {
				return fmt.Errorf("session closed during setup: %v", cl.Err())
			}
			switch v := ev.(type) {
			case *client.View:
				if len(v.Members) == want {
					full[v.Group] = true
				}
			case *client.Rejection:
				return fmt.Errorf("join rejected: %w", v.Err)
			}
		case <-deadline:
			return fmt.Errorf("group views incomplete after %v", setupTimeout)
		}
	}
	return nil
}

func (c *daemonCluster) send(sender int, payload []byte, group int) error {
	return c.clients[sender].Multicast(c.wl.service, payload, c.wl.groups[group])
}

func (c *daemonCluster) subscribers() int { return len(c.clients) }

func (c *daemonCluster) start(h handlers) {
	for s, cl := range c.clients {
		c.recv.Add(1)
		go func(s int, cl *client.Client) {
			defer c.recv.Done()
			for ev := range cl.Events() {
				m, ok := ev.(*client.Message)
				if !ok {
					h.other(s, fmt.Sprintf("%T", ev))
					continue
				}
				if c.tc != nil && len(m.Payload) >= stampLen {
					// The session's receive is the span's last stage:
					// stamp it into the ring tracer of this session's
					// daemon, where the same seq's daemon stages are.
					ring := c.wl.ringOf[int(m.Payload[offGroup])%len(c.wl.ringOf)]
					if mt := c.daemons[s].RingNode(ring).Observer().MsgTracer(); mt.Sampled(m.Seq) {
						mt.Record(obs.MsgEvent{Seq: m.Seq, Stage: obs.StageClientRecv, At: time.Now()})
					}
				}
				h.deliver(s, m.Payload)
			}
		}(s, cl)
	}
}

func (c *daemonCluster) counters() map[string]float64 {
	m := make(map[string]float64)
	for i, d := range c.daemons {
		for r := 0; r < c.wl.rings; r++ {
			st := d.RingNode(r).Status()
			if i == 0 {
				m["core.rotations"] += float64(st.Engine.Rounds)
			}
			m["core.retransmitted"] += float64(st.Engine.Retransmitted)
			m["core.tokens_dropped"] += float64(st.Engine.TokensDropped)
			m["core.data_dropped"] += float64(st.Engine.DataDropped)
			m["membership.installs"] += float64(st.Membership.Installs)
		}
	}
	for _, reg := range c.regs {
		for _, name := range []string{"writer_frames", "writer_flushes", "fanout_encodes",
			"backpressure_waits", "tier_spill"} {
			m["daemon."+name] += float64(reg.Counter("daemon." + name).Value())
		}
	}
	addTransportCounters(m, c.tts)
	m["client.reads"] = float64(c.reads.Load())
	m["client.rx_bytes"] = float64(c.rxBytes.Load())
	return m
}

func addTransportCounters(m map[string]float64, tts []*tracedTransport) {
	for _, t := range tts {
		m["transport.tx_frames"] += float64(t.txFrames.Load())
		m["transport.tx_bytes"] += float64(t.txBytes.Load())
		m["transport.mcast_frames"] += float64(t.mcastFrames.Load())
		tx, rx := t.udp.Syscalls()
		m["transport.tx_syscalls"] += float64(tx)
		m["transport.rx_syscalls"] += float64(rx)
		dr := t.udp.Drops()
		m["transport.rx_drops"] += float64(dr.Data + dr.Token)
	}
}

func (c *daemonCluster) queueLens() []int {
	var out []int
	for _, d := range c.daemons {
		for r := 0; r < c.wl.rings; r++ {
			out = append(out, d.RingNode(r).Status().QueueLen)
		}
	}
	return out
}

func (c *daemonCluster) stageHists() map[string]*hist {
	out := make(map[string]*hist)
	for i, agg := range c.aggs {
		agg.Fold()
		for r := 0; r < c.wl.rings; r++ {
			stageHists(c.regs[i], ringScope(c.wl.rings, r), out)
		}
	}
	return out
}

func (c *daemonCluster) transports() []*tracedTransport { return c.tts }

func (c *daemonCluster) close() {
	var wg sync.WaitGroup
	for _, cl := range c.clients {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			cl.Close()
		}(cl)
	}
	wg.Wait()
	c.recv.Wait()
	if c.foldStop != nil {
		close(c.foldStop)
		<-c.foldDone
	}
	for _, d := range c.daemons {
		d.Stop()
	}
	if len(c.daemons) < nodes {
		// Endpoints of daemons that never started are still open;
		// closing a started one again is a no-op.
		for _, row := range c.udps {
			for _, u := range row {
				u.Close()
			}
		}
	}
}

// libraryCluster is the paper's library prototype: three facade nodes
// in one process, no daemon or session layer. Nodes 1 and 2 send; all
// three join the group.
type libraryCluster struct {
	wl    *workload
	nodes []*accelring.Node
	udps  []*transport.UDP
	tts   []*tracedTransport
	regs  []*obs.Registry
	aggs  []*obs.LatencyAgg

	recv     sync.WaitGroup
	foldStop chan struct{}
	foldDone chan struct{}
}

// libraryEventBuffer is each node's event channel: deep enough that the
// benchmark's subscriber never trips the slow-consumer cut-off while it
// records a burst.
const libraryEventBuffer = 1 << 16

func startLibrary(wl *workload, tc *traceCfg) (_ *libraryCluster, err error) {
	c := &libraryCluster{wl: wl}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	mesh, err := udpMesh(1)
	if err != nil {
		return nil, err
	}
	for i := range mesh {
		c.udps = append(c.udps, mesh[i][0])
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	for i, u := range c.udps {
		var tr transport.Transport = u
		opts := []accelring.Option{
			accelring.WithSelf(evs.ProcID(i + 1)),
			accelring.WithEventBuffer(libraryEventBuffer),
		}
		if tc != nil {
			tt := newTracedTransport(u, tc.arm, tc.clk)
			c.tts = append(c.tts, tt)
			tr = tt
			reg := obs.NewRegistry()
			c.regs = append(c.regs, reg)
			opts = append(opts, accelring.WithObserver(reg), accelring.WithTraceSampling(tc.every))
		}
		opts = append(opts, accelring.WithWire(accelring.WireConfig{Mode: accelring.WireHub, Transport: tr}))
		n, err := accelring.Open(ctx, opts...)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		if err := n.WaitReady(ctx); err != nil {
			return nil, err
		}
	}
	for _, n := range c.nodes {
		if err := n.Join(wl.groups[0]); err != nil {
			return nil, err
		}
	}
	for i, n := range c.nodes {
		if err := awaitNodeView(ctx, n, wl.groups[0], nodes); err != nil {
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	if tc != nil {
		for i, n := range c.nodes {
			agg := obs.NewLatencyAgg(c.regs[i])
			n.AttachLatency(agg)
			c.aggs = append(c.aggs, agg)
		}
		c.foldStop, c.foldDone = make(chan struct{}), make(chan struct{})
		go foldLoop(c.aggs, c.foldStop, c.foldDone)
	}
	return c, nil
}

func awaitNodeView(ctx context.Context, n *accelring.Node, g string, want int) error {
	for {
		ev, err := n.Receive(ctx)
		if err != nil {
			return fmt.Errorf("group view incomplete: %w", err)
		}
		if v, ok := ev.(*accelring.GroupView); ok && v.Group == g && len(v.Members) == want {
			return nil
		}
	}
}

func (c *libraryCluster) send(sender int, payload []byte, group int) error {
	return c.nodes[sender].Send(c.wl.service, payload, c.wl.groups[group])
}

func (c *libraryCluster) subscribers() int { return len(c.nodes) }

func (c *libraryCluster) start(h handlers) {
	for s, n := range c.nodes {
		c.recv.Add(1)
		go func(s int, n *accelring.Node) {
			defer c.recv.Done()
			for ev := range n.Events() {
				if m, ok := ev.(*accelring.Message); ok {
					h.deliver(s, m.Payload)
					continue
				}
				h.other(s, fmt.Sprintf("%T", ev))
			}
		}(s, n)
	}
}

func (c *libraryCluster) counters() map[string]float64 {
	m := make(map[string]float64)
	for i, reg := range c.regs {
		if i == 0 {
			m["core.rotations"] = float64(reg.Counter("ring.rounds").Value())
		}
		m["core.retransmitted"] += float64(reg.Counter("ring.retransmitted").Value())
		m["membership.installs"] += float64(reg.Counter("membership.installs").Value())
	}
	addTransportCounters(m, c.tts)
	return m
}

// queueLens is nil: the facade does not expose its node's status.
func (c *libraryCluster) queueLens() []int { return nil }

func (c *libraryCluster) stageHists() map[string]*hist {
	out := make(map[string]*hist)
	for i, agg := range c.aggs {
		agg.Fold()
		stageHists(c.regs[i], "", out)
	}
	return out
}

func (c *libraryCluster) transports() []*tracedTransport { return c.tts }

func (c *libraryCluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	c.recv.Wait()
	if c.foldStop != nil {
		close(c.foldStop)
		<-c.foldDone
	}
	if len(c.nodes) < nodes {
		for _, u := range c.udps {
			u.Close()
		}
	}
}
