package accelring

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/shard"
	"accelring/internal/shard/merge"
)

// Event is a delivery to the application: a *Message, a *GroupView, or a
// *ViewChange. Events arrive in the ring's total order.
type Event interface{ isEvent() }

// Message is a totally ordered group message.
type Message struct {
	// Sender is the node that sent the message.
	Sender ClientID
	// Service is the delivery level it was sent with.
	Service Service
	// Groups are the destination groups.
	Groups []string
	// Payload is the application data.
	Payload []byte
}

func (*Message) isEvent() {}

// GroupView is a group's agreed membership after a join or leave, or after
// a ring membership change removed nodes. Every surviving member receives
// identical views at the same point in the total order.
type GroupView struct {
	Group   string
	Members []ClientID
}

func (*GroupView) isEvent() {}

// ViewChange announces a new ring configuration. A transitional view
// contains the members of the previous ring that continue together;
// messages delivered between it and the next regular view carry
// guarantees only with respect to that reduced set (extended virtual
// synchrony). On a sharded node each ring instance has its own
// configuration lifecycle; Ring says which one changed (always 0
// without WithShards).
type ViewChange struct {
	Ring         int
	View         ViewID
	Members      []ProcID
	Transitional bool
}

func (*ViewChange) isEvent() {}

// Node is one ring participant with a single group-messaging endpoint. It
// embeds the daemon role: the protocol stack runs in-process, and the
// node is its own (only) client. With WithShards(n) it runs n independent
// ring instances and partitions groups across them (see Config.Shards).
type Node struct {
	cfg     Config
	rn      *ringnode.Node // single-ring mode (nil when sharded)
	rings   *shard.Group   // sharded mode (nil when Shards <= 1)
	shards  int
	self    ClientID
	tracer  *obs.RingTracer
	tracers []*obs.RingTracer
	events  chan Event

	// merger reunifies the per-ring ordered streams into one global
	// delivery order when Shards > 1 (nil otherwise); pacerStop ends its
	// lambda-pacing goroutine. ringsUp closes once OpenConfig stored rings
	// (or failed); submissions spawned by earlier ring events wait on it.
	merger    *merge.Merger
	pacerStop chan struct{}
	ringsUp   chan struct{}

	mu        sync.Mutex
	table     *group.ShardedTable
	lastViews []ViewID
	readyMask []bool
	ready     bool
	closed    bool

	failed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// Open starts a node from the given options. The returned node is already
// running membership: it forms a singleton ring or merges with reachable
// peers on its own. Use WaitReady to block until the first ring forms; the
// submission methods return ErrNotReady before that. ctx only bounds the
// setup itself (it is checked before sockets are opened); cancelling it
// afterwards has no effect — use Close.
func Open(ctx context.Context, opts ...Option) (*Node, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return OpenConfig(ctx, cfg)
}

// OpenConfig is Open with an explicit Config.
func OpenConfig(ctx context.Context, cfg Config) (*Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	n := &Node{
		cfg:       cfg,
		shards:    cfg.Shards,
		self:      ClientID{Daemon: cfg.Self, Local: 1},
		events:    make(chan Event, cfg.EventBuffer),
		table:     group.NewShardedTable(cfg.Shards),
		lastViews: make([]ViewID, cfg.Shards),
		readyMask: make([]bool, cfg.Shards),
	}

	if cfg.Shards > 1 {
		n.merger = merge.New(merge.Config{
			Shards:    cfg.Shards,
			Self:      cfg.Self,
			Table:     n.table,
			Out:       nodeMergeOut{n},
			SkipAhead: cfg.SkipAhead,
			Obs:       cfg.Observer,
		})
		base := cfg.ringConfig()
		if cfg.Observer != nil || cfg.TraceSampling > 0 {
			// ForRing derives one observer per ring from this base: shared
			// registry, per-ring "shard<r>" metric labels, tracers and
			// message tracers (the base Msg only carries the sampling rate).
			base.Observer = &obs.RingObserver{
				Reg: cfg.Observer,
				Msg: obs.NewMsgTracer(cfg.TraceSampling, 0),
			}
		}
		n.ringsUp = make(chan struct{})
		g, err := shard.Start(shard.Config{
			Shards:       cfg.Shards,
			Base:         base,
			NewTransport: cfg.openTransport,
			OnEvent:      n.onRingEvent,
			TraceDepth:   cfg.TraceDepth,
		})
		n.rings = g
		close(n.ringsUp)
		if err != nil {
			return nil, err
		}
		if cfg.Observer != nil {
			n.tracers = make([]*obs.RingTracer, cfg.Shards)
			for r := range n.tracers {
				n.tracers[r] = g.Tracer(r)
			}
			n.tracer = n.tracers[0]
		}
		n.pacerStop = make(chan struct{})
		go func() {
			tick := time.NewTicker(cfg.SkipInterval)
			defer tick.Stop()
			n.merger.Pace(tick.C, n.pacerStop, func(ring int, enc []byte) error {
				return g.Submit(ring, enc, evs.Agreed)
			})
		}()
		return n, nil
	}

	tr, err := cfg.openTransport(0)
	if err != nil {
		return nil, err
	}
	rc := cfg.ringConfig()
	rc.Transport = tr
	rc.OnEvent = func(ev evs.Event) { n.onRingEvent(0, ev) }
	if cfg.Observer != nil || cfg.TraceSampling > 0 {
		if cfg.Observer != nil {
			n.tracer = obs.NewRingTracer(cfg.TraceDepth)
			n.tracers = []*obs.RingTracer{n.tracer}
		}
		rc.Observer = &obs.RingObserver{
			Reg:    cfg.Observer,
			Tracer: n.tracer,
			Msg:    obs.NewMsgTracer(cfg.TraceSampling, 0),
		}
	}

	rn, err := ringnode.Start(rc)
	if err != nil {
		tr.Close()
		return nil, err
	}
	n.rn = rn
	return n, nil
}

// ID returns this node's group-messaging endpoint identity, as it appears
// in GroupView member lists on every node.
func (n *Node) ID() ClientID { return n.self }

// Events returns the delivery stream. The channel is closed by Close or
// on terminal failure; Err explains why.
func (n *Node) Events() <-chan Event { return n.events }

// Receive returns the next event, blocking until one arrives, the context
// is done, or the node closes (ErrClosed; see Err for the cause).
func (n *Node) Receive(ctx context.Context) (Event, error) {
	select {
	case ev, ok := <-n.events:
		if !ok {
			return nil, ErrClosed
		}
		return ev, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// WaitReady blocks until the first ring configuration is installed (after
// which Join/Leave/Send work) or the context is done.
func (n *Node) WaitReady(ctx context.Context) error {
	for {
		n.mu.Lock()
		ready, closed := n.ready, n.closed
		n.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// View returns the current ring view (zero before the first ring forms).
// On a sharded node it is ring 0's view; see ViewOf.
func (n *Node) View() ViewID { return n.ViewOf(0) }

// ViewOf returns ring's current view (zero before that ring forms).
func (n *Node) ViewOf(ring int) ViewID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastViews[ring]
}

// Shards returns the node's ring-instance count (1 without WithShards).
func (n *Node) Shards() int { return n.shards }

// RingFor returns the ring instance that owns a group name on this node.
func (n *Node) RingFor(groupName string) int { return RingOf(groupName, n.shards) }

// Members returns the agreed membership of a group as of the events
// processed so far (nil if empty or unknown).
func (n *Node) Members(groupName string) []ClientID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.table.For(groupName).Members(groupName)
}

// Groups returns the groups this node has joined.
func (n *Node) Groups() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.table.GroupsOf(n.self)
}

// Tracer returns the node's token-round tracer for DebugServer.AddTracer
// (nil unless the node was opened with WithObserver). On a sharded node
// it is ring 0's tracer; see Tracers.
func (n *Node) Tracer() *RingTracer { return n.tracer }

// Tracers returns one token-round tracer per ring instance (nil unless
// the node was opened with WithObserver).
func (n *Node) Tracers() []*RingTracer {
	if n.tracers == nil {
		return nil
	}
	return append([]*RingTracer(nil), n.tracers...)
}

// MsgTracer returns the node's message-lifecycle tracer for
// DebugServer.AddMsgTracer (nil unless the node was opened with
// WithTraceSampling). On a sharded node it is ring 0's tracer; see
// MsgTracers.
func (n *Node) MsgTracer() *MsgTracer {
	if n.rings != nil {
		return n.rings.MsgTracer(0)
	}
	return n.rn.Observer().MsgTracer()
}

// MsgTracers returns one message-lifecycle tracer per ring instance (nil
// unless the node was opened with WithTraceSampling).
func (n *Node) MsgTracers() []*MsgTracer {
	if n.MsgTracer() == nil {
		return nil
	}
	out := make([]*MsgTracer, n.shards)
	for r := range out {
		if n.rings != nil {
			out[r] = n.rings.MsgTracer(r)
		} else {
			out[r] = n.rn.Observer().MsgTracer()
		}
	}
	return out
}

// AttachLatency registers every ring's message tracer with agg under the
// metric scope that ring's histograms use ("" on a single-ring node,
// "shard0".."shardN-1" on a sharded one), so folded span deltas land next
// to the ring's other metrics. No-op unless the node was opened with
// WithObserver and WithTraceSampling.
func (n *Node) AttachLatency(agg *LatencyAgg) {
	for r, mt := range n.MsgTracers() {
		scope := ""
		if n.rings != nil {
			scope = fmt.Sprintf("shard%d", r)
		}
		agg.AddTracer(scope, mt)
	}
}

// Join adds this node to a group. The resulting agreed view arrives as a
// *GroupView event, in total order with all traffic on the group's ring.
func (n *Node) Join(groupName string) error {
	if !group.ValidGroupName(groupName) {
		return ErrBadGroup
	}
	return n.submit(n.RingFor(groupName), &group.Envelope{
		Kind: group.OpJoin, Sender: n.self, Groups: []string{groupName},
	}, Agreed)
}

// Leave removes this node from a group it previously joined. Leaving a
// group this node is not in fails with ErrNotMember.
func (n *Node) Leave(groupName string) error {
	if !group.ValidGroupName(groupName) {
		return ErrBadGroup
	}
	n.mu.Lock()
	member := memberOf(n.table.For(groupName).Members(groupName), n.self)
	n.mu.Unlock()
	if !member {
		return ErrNotMember
	}
	return n.submit(n.RingFor(groupName), &group.Envelope{
		Kind: group.OpLeave, Sender: n.self, Groups: []string{groupName},
	}, Agreed)
}

// Send multicasts payload to the members of the given groups with the
// given service level. The sender need not be a member (open-group
// semantics); if it is, it receives its own message in order like
// everyone else. Every destination group delivers the message at one
// agreed position in its own total order; on a sharded node a send
// spanning groups owned by different rings becomes one independent
// ordered message per ring, so only groups on the same ring share a
// cross-group delivery order. On an error after the first ring accepted,
// the rings that accepted still deliver.
func (n *Node) Send(service Service, payload []byte, groups ...string) error {
	if len(groups) == 0 || len(groups) > group.MaxGroups {
		return ErrBadGroupCount
	}
	for _, g := range groups {
		if !group.ValidGroupName(g) {
			return ErrBadGroup
		}
	}
	if !service.Valid() {
		return ErrInvalidService
	}
	// Ascending ring order keeps spanning sends deterministic across
	// identical runs; the merge layer gives the per-ring copies one
	// global delivery order.
	for _, rg := range n.table.SplitByRing(groups, nil) {
		err := n.submit(rg.Ring, &group.Envelope{
			Kind: group.OpMessage, Sender: n.self, Groups: rg.Groups, Payload: payload,
		}, service)
		if err != nil {
			return err
		}
	}
	return nil
}

// submit encodes the envelope and hands it to the owning ring,
// translating the driver's errors into the public sentinels.
func (n *Node) submit(ring int, env *group.Envelope, svc Service) error {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	enc, err := env.Encode()
	if err != nil {
		return err
	}
	if n.rings != nil {
		err = n.rings.Submit(ring, enc, svc)
	} else {
		err = n.rn.Submit(enc, svc)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ringnode.ErrStopped):
		return ErrClosed
	case errors.Is(err, membership.ErrNotOperational):
		n.mu.Lock()
		last := n.lastViews[ring]
		n.mu.Unlock()
		if last.IsZero() {
			return ErrNotReady
		}
		// The ring this node was operating in dissolved and the new one
		// is still forming.
		return &MembershipChangedError{OldView: last}
	default:
		return err
	}
}

// Err returns the terminal error after the event stream is closed (nil on
// clean Close, ErrSlowConsumer if the consumer fell behind).
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.closed {
		return nil
	}
	return n.closeErr
}

// Close stops the protocol, closes the transport, and closes Events. It
// is idempotent and safe from any goroutine.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		n.closed = true
		n.mu.Unlock()
		if n.pacerStop != nil {
			close(n.pacerStop)
		}
		// Stop waits for every protocol goroutine to exit, so no event
		// callback can race the channel close below.
		if n.rings != nil {
			n.rings.Stop()
		} else {
			n.rn.Stop()
		}
		close(n.events)
	})
	return nil
}

// fail records a terminal error and tears the node down asynchronously
// (it runs on the protocol goroutine, which Close must wait for).
func (n *Node) fail(err error) {
	if n.failed.Swap(true) {
		return
	}
	n.mu.Lock()
	n.closeErr = err
	n.mu.Unlock()
	go n.Close()
}

// emit forwards an event without ever blocking the protocol goroutine: a
// consumer that lets the buffer fill is disconnected (ErrSlowConsumer),
// the same policy Spread applies to slow daemon clients.
func (n *Node) emit(ev Event) {
	if n.failed.Load() {
		return
	}
	select {
	case n.events <- ev:
	default:
		n.fail(ErrSlowConsumer)
	}
}

// onRingEvent runs on ring's protocol goroutine. Without a merger
// (Shards <= 1) it applies that ring's totally ordered stream to the
// ring's partition of the group table and forwards application-visible
// events. With one, every ring's ordered stream — envelopes AND
// configuration changes — feeds the cross-ring merger, which re-invokes
// the same application logic (via nodeMergeOut) at each item's globally
// ordered emission point, so Receive observes one identical global order
// on every node. Different rings invoke it concurrently; n.mu serializes
// the table work and the events channel serializes emission.
func (n *Node) onRingEvent(ring int, ev evs.Event) {
	switch e := ev.(type) {
	case evs.Message:
		env, err := group.DecodeEnvelope(e.Payload)
		if err != nil {
			return // not ours: a foreign application on the same ring
		}
		if n.merger != nil {
			n.merger.PushEnvelopeSeq(ring, env, e.Service, e.Seq)
			return
		}
		n.applyEnvelope(ring, env, e.Service)
	case evs.ConfigChange:
		if n.merger != nil {
			n.merger.PushConfig(ring, e)
			return
		}
		n.applyConfigChange(ring, e)
	}
}

// recordMergeOut stamps the merge-emission stage onto a sampled span at
// its globally ordered emission point (the merger's lock is held; the
// record is a lock-free slot store, so nothing blocks). Seq 0 means the
// pusher had no carrier sequence and is never stamped.
func (n *Node) recordMergeOut(ring int, seq uint64) {
	if n.rings == nil || seq == 0 {
		return
	}
	mt := n.rings.MsgTracer(ring)
	if !mt.Sampled(seq) {
		return
	}
	mt.Record(obs.MsgEvent{Seq: seq, Stage: obs.StageMergeOut, At: n.rings.Node(ring).Observer().Now()})
}

// nodeMergeOut adapts the Node to the merger's output interface. Its
// methods run with the merger's lock held at globally ordered emission
// points; none of them blocks or reenters the merger (submissions spawn,
// emit drops on a full buffer rather than wait).
type nodeMergeOut struct{ n *Node }

func (o nodeMergeOut) Deliver(ring int, env *group.Envelope, svc evs.Service, seq uint64) {
	o.n.recordMergeOut(ring, seq)
	o.n.applyEnvelope(ring, env, svc)
}

func (o nodeMergeOut) Config(ring int, cc evs.ConfigChange) {
	o.n.applyConfigChange(ring, cc)
}

func (o nodeMergeOut) SubmitAsync(ring int, env group.Envelope) {
	enc, err := env.Encode()
	if err != nil {
		return
	}
	// Off the emission goroutine: Submit is a blocking round trip to the
	// ring's protocol goroutine, which may be the very one emitting.
	go func() {
		if <-o.n.ringsUp; o.n.rings != nil {
			_ = o.n.rings.Submit(ring, enc, evs.Agreed)
		}
	}()
}

func (o nodeMergeOut) Migrated(g string, from, to int) {
	// The re-home itself happened in the shared table at this ordered
	// point; the application sees the group's traffic continue seamlessly.
}

// migrateTimeout bounds how long Migrate waits for the ordered close.
const migrateTimeout = 30 * time.Second

// Migrate re-homes a group onto another ring instance with no loss,
// duplication, or reordering: it orders a migration marker on the group's
// current ring and blocks until the migration's globally ordered close
// point has been emitted locally (source ring drained, membership state
// re-homed, buffered target-ring traffic replayed). Requires WithShards.
// The move survives this call returning early (timeout): the protocol
// completes or voids deterministically on every node regardless.
func (n *Node) Migrate(groupName string, ring int) error {
	if n.merger == nil {
		return errors.New("accelring: Migrate requires a sharded node (WithShards)")
	}
	env, err := n.merger.BeginEnvelope(groupName, ring)
	if err != nil {
		return err
	}
	from := n.table.Ring(groupName)
	if from == ring {
		return nil // already home
	}
	done := n.merger.NotifyMigrated(groupName)
	if err := n.submit(from, &env, Agreed); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(migrateTimeout):
		return fmt.Errorf("accelring: migration of %q to ring %d timed out", groupName, ring)
	}
}

// RingOfGroup reports which ring instance currently owns a group: its
// hash home (RingFor) or, after a Migrate, its override.
func (n *Node) RingOfGroup(groupName string) int { return n.table.Ring(groupName) }

// envTable locates the table holding a group's membership state at the
// current point of the (global, when merged) order. A message can
// straggle in on a ring the group has since migrated away from; the
// probe resolves identically on every node because table contents at an
// emission point are identical everywhere. Callers hold n.mu.
func (n *Node) envTable(ring int, g string) *group.Table {
	t := n.table.Table(ring)
	if n.merger == nil || t.Has(g) {
		return t
	}
	return n.table.For(g)
}

func (n *Node) applyEnvelope(ring int, env *group.Envelope, svc Service) {
	switch env.Kind {
	case group.OpJoin:
		n.mu.Lock()
		err := n.envTable(ring, env.Groups[0]).Join(env.Sender, env.Groups[0])
		n.mu.Unlock()
		if err == nil {
			n.announceView(env.Groups[0], env.Sender)
		}
	case group.OpLeave:
		n.mu.Lock()
		err := n.envTable(ring, env.Groups[0]).Leave(env.Sender, env.Groups[0])
		n.mu.Unlock()
		if err == nil {
			n.announceView(env.Groups[0], env.Sender)
		}
	case group.OpDisconnect:
		var left []string
		n.mu.Lock()
		if n.merger != nil {
			// Merged mode orders one disconnect and applies it to every
			// partition at its single global emission point.
			for r := 0; r < n.shards; r++ {
				left = append(left, n.table.Table(r).Disconnect(env.Sender)...)
			}
		} else {
			left = n.table.Table(ring).Disconnect(env.Sender)
		}
		n.mu.Unlock()
		for _, g := range left {
			n.announceView(g, env.Sender)
		}
	case group.OpMessage:
		n.mu.Lock()
		deliver := false
		for _, g := range env.Groups {
			if memberOf(n.envTable(ring, g).Members(g), n.self) {
				deliver = true
				break
			}
		}
		n.mu.Unlock()
		if deliver {
			n.emit(&Message{
				Sender: env.Sender, Service: svc,
				Groups: env.Groups, Payload: env.Payload,
			})
		}
	case group.OpPrivate:
		if env.Target == n.self {
			n.emit(&Message{Sender: env.Sender, Service: svc, Payload: env.Payload})
		}
	}
}

// announceView emits the group's agreed view if this node is a member —
// or if the change was its own (so a leaver sees its final, self-less
// view, Spread's self-leave notification).
func (n *Node) announceView(groupName string, cause ClientID) {
	n.mu.Lock()
	members := n.table.For(groupName).Members(groupName)
	n.mu.Unlock()
	if cause == n.self || memberOf(members, n.self) {
		n.emit(&GroupView{Group: groupName, Members: members})
	}
}

// applyConfigChange installs one ring's view: on a regular view,
// endpoints of departed nodes are dropped from every group that ring owns
// (the same deterministic change every surviving node applies), then the
// affected group views are announced. The node reports ready once every
// ring has installed its first configuration.
func (n *Node) applyConfigChange(ring int, e evs.ConfigChange) {
	n.emit(&ViewChange{
		Ring:         ring,
		View:         e.Config.ID,
		Members:      append([]ProcID(nil), e.Config.Members...),
		Transitional: e.Transitional,
	})
	if e.Transitional {
		return
	}

	present := make(map[ProcID]bool, len(e.Config.Members))
	for _, m := range e.Config.Members {
		present[m] = true
	}
	n.mu.Lock()
	table := n.table.Table(ring)
	var affected []string
	seen := make(map[ProcID]bool)
	for _, g := range table.Groups() {
		for _, c := range table.Members(g) {
			seen[c.Daemon] = true
		}
	}
	for d := range seen {
		if !present[d] {
			affected = append(affected, table.DropDaemon(d)...)
		}
	}
	n.lastViews[ring] = e.Config.ID
	n.readyMask[ring] = true
	allReady := true
	for _, r := range n.readyMask {
		allReady = allReady && r
	}
	n.ready = allReady
	n.mu.Unlock()

	for _, g := range dedupe(affected) {
		// Zero cause: announce only to groups this node belongs to.
		n.announceView(g, ClientID{})
	}
}

func memberOf(members []ClientID, c ClientID) bool {
	for _, m := range members {
		if m == c {
			return true
		}
	}
	return false
}

func dedupe(ss []string) []string {
	seen := make(map[string]struct{}, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	return out
}
