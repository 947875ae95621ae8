// Package smp assembles the Secure Multicast Protocols of the Immune
// system (paper §7, Figure 5): the message delivery protocol (token ring),
// the processor membership protocol, and the Byzantine fault detector, one
// instance of each per processor. The composed stack delivers two kinds of
// events to the layer above (the object group interface): regular data
// messages in secure reliable total order, and Processor Membership Change
// notifications delivered in sequence with the regular messages.
package smp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"immune/internal/detector"
	"immune/internal/ids"
	"immune/internal/membership"
	"immune/internal/ring"
	"immune/internal/sec"
	"immune/internal/transport"
	"immune/internal/wire"
)

// Delivery is one totally ordered data message handed to the layer above.
type Delivery struct {
	Sender  ids.ProcessorID // originating processor
	Ring    ids.RingID      // ring configuration that ordered it
	Seq     uint64          // position in that configuration's total order
	Payload []byte          // opaque contents (the object group layer's encoding)
}

// Config parameterizes one processor's protocol stack.
type Config struct {
	Self    ids.ProcessorID
	Members []ids.ProcessorID // initial processor membership
	// Joining starts the stack outside any membership (live
	// reconfiguration: a processor added to a running system). No ring is
	// built — the stack behaves like an excluded processor until the
	// running members announce their view and admit it through the
	// membership protocol. Members is ignored.
	Joining bool
	Suite   *sec.Suite
	// Endpoint is the processor's attachment to the network: the
	// deterministic simulator (*netsim.Endpoint) or a real-socket
	// backend such as tcpmesh. The stack consumes only the transport
	// seam — send, multicast, non-blocking receive, notify.
	Endpoint transport.Endpoint
	// Deliver receives data messages in total order. Required. Invoked
	// from the stack's event goroutine; must not block.
	Deliver func(Delivery)
	// OnMembershipChange receives Processor Membership Change
	// notifications, in order, interleaved correctly with deliveries.
	// Optional.
	OnMembershipChange func(membership.Install)

	// MaxPerVisit is the token-visit origination bound j (§8); 0 means
	// ring.DefaultMaxPerVisit.
	MaxPerVisit int
	// MaxSubmitQueue bounds the ring's submit queue: Submit returns an
	// error wrapping ring.ErrOverloaded once this many payloads await
	// origination. 0 means ring.DefaultMaxQueue; negative unbounded.
	MaxSubmitQueue int
	// MaxUnstable bounds how far origination may run ahead of the
	// stable aru (the ring's retransmission-buffer flow control). 0
	// means ring.DefaultMaxUnstable; negative unbounded.
	MaxUnstable int
	// TokenTimeout is the token retransmission timeout; 0 means 2ms. An
	// idle token is also paced by it: a holder with nothing to do parks
	// the token for TokenTimeout/2 (1ms by default) before passing it, so
	// an idle six-member ring costs ~1000 token visits/s instead of
	// spinning. Pacing adds no latency to a submission: a local Submit
	// ends the hold, and a remote one sends a wake hint that does.
	TokenTimeout time.Duration
	// SuspectTimeout is the fault detector's liveness timeout; 0 means
	// 50ms.
	SuspectTimeout time.Duration
	// StrikeThreshold is how many weakly attributable offenses (invalid
	// tokens, digest-mismatched messages) a processor may accumulate
	// before the detector suspects it; 0 means the detector default (3).
	// Deployments on lossy links raise it so wire corruption is not
	// mistaken for processor misbehaviour.
	StrikeThreshold int
	// Metrics are optional observability hooks; the zero value disables
	// them.
	Metrics Metrics
}

// Stack is one processor's Secure Multicast Protocols instance.
type Stack struct {
	cfg Config
	det *detector.Detector
	mem *membership.Membership

	mu      sync.Mutex
	cur     *ring.Ring // nil once excluded from the membership
	curInst membership.Install
	pending []membership.Install // installs awaiting event-loop processing

	ctl  chan func()   // control requests run on the event goroutine
	kick chan struct{} // capacity 1: run the timers now (cross-goroutine state change)

	wakeups atomic.Uint64 // times the event loop woke from sleep

	stop    chan struct{}
	done    chan struct{}
	started bool // guarded by mu
}

// New builds (but does not start) a protocol stack.
func New(cfg Config) (*Stack, error) {
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("smp %s: Deliver required", cfg.Self)
	}
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("smp %s: endpoint required", cfg.Self)
	}
	if cfg.Suite == nil {
		return nil, fmt.Errorf("smp %s: suite required", cfg.Self)
	}
	if cfg.TokenTimeout <= 0 {
		cfg.TokenTimeout = 2 * time.Millisecond
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 50 * time.Millisecond
	}

	s := &Stack{
		cfg:  cfg,
		ctl:  make(chan func(), 4),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.det = detector.New(detector.Config{
		Self:            cfg.Self,
		SuspectTimeout:  cfg.SuspectTimeout,
		StrikeThreshold: cfg.StrikeThreshold,
		OnSuspect: func(_ ids.ProcessorID, r detector.Reason) {
			cfg.Metrics.Suspicions.Inc()
			if cfg.Metrics.SuspectReason != nil {
				cfg.Metrics.SuspectReason(r.String())
			}
		},
	})
	mem, err := membership.New(membership.Config{
		Self:      cfg.Self,
		Suite:     cfg.Suite,
		Trans:     cfg.Endpoint,
		Initial:   cfg.Members,
		Joining:   cfg.Joining,
		Source:    sourceAdapter{det: s.det},
		Bridge:    bridgeAdapter{s: s},
		OnInstall: s.queueInstall,
	})
	if err != nil {
		return nil, fmt.Errorf("smp %s: %w", cfg.Self, err)
	}
	s.mem = mem

	inst := mem.Current()
	if cfg.Joining {
		// Outside the membership: no ring until the running members admit
		// this processor. The members gauge is shared per ring across
		// processors; a joiner must not clobber it with its empty view.
		s.curInst = inst
		s.det.SetView(nil)
		return s, nil
	}
	cfg.Metrics.Members.Set(int64(len(cfg.Members)))
	r, err := s.buildRing(inst, nil)
	if err != nil {
		return nil, fmt.Errorf("smp %s: %w", cfg.Self, err)
	}
	s.cur = r
	s.curInst = inst
	s.det.SetView(inst.Members)
	return s, nil
}

// buildRing constructs the ring instance for an installed membership.
func (s *Stack) buildRing(inst membership.Install, carryover [][]byte) (*ring.Ring, error) {
	r, err := ring.New(ring.Config{
		Self:         s.cfg.Self,
		Members:      inst.Members,
		Ring:         inst.Ring,
		Suite:        s.cfg.Suite,
		Trans:        s.cfg.Endpoint,
		Obs:          s.det,
		Metrics:      s.cfg.Metrics.Ring,
		MaxPerVisit:  s.cfg.MaxPerVisit,
		MaxQueue:     s.cfg.MaxSubmitQueue,
		MaxUnstable:  s.cfg.MaxUnstable,
		TokenTimeout: s.cfg.TokenTimeout,
		Deliver: func(m *wire.Regular) {
			s.cfg.Deliver(Delivery{
				Sender:  m.Sender,
				Ring:    m.Ring,
				Seq:     m.Seq,
				Payload: m.Contents,
			})
		},
	}.Paced())
	if err != nil {
		return nil, err
	}
	// Carryover cannot overflow: the old ring's drained queue holds at
	// most MaxQueue entries and the new ring starts empty with the same
	// bound. The error is still checked so a future bound change cannot
	// silently drop messages.
	for _, p := range carryover {
		if err := r.Submit(p); err != nil {
			return nil, fmt.Errorf("carryover: %w", err)
		}
	}
	return r, nil
}

// Start launches the event loop and, on the designated starter, the token.
// Starting twice is a no-op.
func (s *Stack) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	if s.cur != nil {
		s.cur.Kickstart()
	}
	s.mu.Unlock()
	go s.loop()
}

// Stop terminates the event loop and waits for it to exit. Stopping a
// never-started or already-stopped stack is a no-op.
func (s *Stack) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
}

// Submit queues a payload for secure reliable totally ordered multicast.
// Safe from any goroutine. Returns an error if this processor has been
// excluded from the membership, or one wrapping ring.ErrOverloaded when
// the bounded submit queue is full (backpressure; retryable).
func (s *Stack) Submit(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return fmt.Errorf("smp %s: excluded from membership", s.cfg.Self)
	}
	if err := s.cur.Submit(payload); err != nil {
		return fmt.Errorf("smp %s: %w", s.cfg.Self, err)
	}
	return nil
}

// QueuedSubmissions reports how many submissions await origination on the
// current ring (0 when excluded). Safe from any goroutine.
func (s *Stack) QueuedSubmissions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return 0
	}
	return s.cur.QueuedSubmissions()
}

// Self returns this processor's identifier.
func (s *Stack) Self() ids.ProcessorID { return s.cfg.Self }

// View returns the currently installed membership.
func (s *Stack) View() membership.Install {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curInst
}

// Suspects returns the local fault detector's current output.
func (s *Stack) Suspects() []ids.ProcessorID { return s.det.Suspects() }

// ValueFaultSuspect forwards a Value Fault Suspect notification from the
// Replication Manager's value fault detector to the local Byzantine fault
// detector (paper §6.2). Safe from any goroutine.
func (s *Stack) ValueFaultSuspect(p ids.ProcessorID) {
	// Detector suspicion state is internally locked; event-loop-only
	// state is not touched here. The kick makes the event loop run the
	// membership protocol now, which starts excluding p without waiting
	// for a frame or timer.
	s.det.ValueFaultSuspect(p)
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// RingStats returns the current ring's counters (zero value if excluded).
func (s *Stack) RingStats() ring.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return ring.Stats{}
	}
	return s.cur.Stats()
}

// Installs reports how many membership changes have been installed.
func (s *Stack) Installs() uint64 { return s.mem.Installs() }

// Leave announces this processor's voluntary departure from the
// membership (maintenance drain): the membership protocol multicasts a
// signed Leave so the survivors exclude it administratively, without
// fault-detector strikes. The request runs on the event goroutine; safe
// from any goroutine. The stack keeps running (re-advertising the
// departure) until Stop.
func (s *Stack) Leave() {
	select {
	case s.ctl <- func() { s.mem.Leave() }:
	default:
		// The control queue is full only if Leave was already requested
		// repeatedly; dropping a duplicate is harmless.
	}
}

// queueInstall records an install decided by the membership protocol; the
// event loop applies it (it may fire from within HandleMessage, which is
// already on the event goroutine, but deferring keeps ring swaps at a
// single point).
func (s *Stack) queueInstall(inst membership.Install) {
	s.pending = append(s.pending, inst)
}

// applyInstalls swaps ring configurations for queued installs.
func (s *Stack) applyInstalls() {
	for len(s.pending) > 0 {
		inst := s.pending[0]
		s.pending = s.pending[1:]
		s.cfg.Metrics.Installs.Inc()
		s.cfg.Metrics.Members.Set(int64(len(inst.Members)))

		var carryover [][]byte
		s.mu.Lock()
		if s.cur != nil {
			s.cur.Stop()
			carryover = s.cur.DrainQueue()
		}
		selfIn := false
		for _, p := range inst.Members {
			if p == s.cfg.Self {
				selfIn = true
			}
		}
		if !selfIn {
			s.cur = nil
			s.curInst = inst
			s.mu.Unlock()
			// Adopt the view in the detector too: our silence suspicions
			// of its members are stale (we were the detached one), and
			// clearing them lets the readmission exchange proceed.
			s.det.SetView(inst.Members)
			if s.cfg.OnMembershipChange != nil {
				s.cfg.OnMembershipChange(inst)
			}
			continue
		}
		r, err := s.buildRing(inst, carryover)
		if err != nil {
			// Cannot happen for a validated install; treat as exclusion.
			s.cur = nil
			s.curInst = inst
			s.mu.Unlock()
			continue
		}
		s.cur = r
		s.curInst = inst
		s.mu.Unlock()

		s.det.SetView(inst.Members)
		if s.cfg.OnMembershipChange != nil {
			s.cfg.OnMembershipChange(inst)
		}
		if len(inst.Members) > 0 && inst.Members[0] == s.cfg.Self {
			r.Kickstart()
		}
	}
}

// maxBatch bounds how many frames one loop iteration drains, so timers
// still run under sustained load.
const maxBatch = 128

// loop is the stack's single event goroutine: drain a batch of frames,
// preverify any signed tokens in the batch in parallel, dispatch the
// batch serially, run the protocol timers when one is due, and sleep until
// the earliest protocol deadline (ring idle hold or token resend, suspect
// timeout, membership propose/flush/form/announce/rejoin/leave). It wakes
// early for a frame (the endpoint's notify channel), a control request, a
// Submit the ring must act on at once (see ring.SubmitNotify), or a kick
// from ValueFaultSuspect. There is no poll: an idle stack sleeps until
// its next deadline.
func (s *Stack) loop() {
	defer close(s.done)
	notify := s.cfg.Endpoint.Notify()
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	defer timer.Stop()
	batch := make([]transport.Frame, 0, maxBatch)
	kicked := true // run the timers once on start
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		batch = batch[:0]
		for len(batch) < maxBatch {
			f, ok := s.cfg.Endpoint.TryRecv()
			if !ok {
				break
			}
			batch = append(batch, f)
		}
		if len(batch) > 0 {
			s.preverify(batch)
			for _, f := range batch {
				s.dispatch(f)
			}
		}
		for {
			select {
			case f := <-s.ctl:
				f()
				continue
			default:
			}
			break
		}
		cur := s.current()
		next := s.deadline(cur)
		if kicked || (!next.IsZero() && !time.Now().Before(next)) {
			kicked = false
			s.tick(cur)
			cur = s.current()
			next = s.deadline(cur)
		}
		if len(batch) == maxBatch {
			continue // more frames are likely waiting
		}

		var submitted <-chan struct{}
		if cur != nil {
			submitted = cur.SubmitNotify()
		}
		var expired <-chan time.Time
		if !next.IsZero() {
			stopTimer(timer)
			timer.Reset(time.Until(next))
			expired = timer.C
		}
		select {
		case <-s.stop:
			return
		case f := <-s.ctl:
			f()
		case _, ok := <-notify:
			if !ok {
				// Network closed: no more frames will ever arrive. A
				// closed channel is always readable, so selecting on it
				// again would spin; run on deadlines alone.
				notify = nil
			}
		case <-submitted:
			kicked = true
		case <-s.kick:
			kicked = true
		case <-expired:
		}
		s.wakeups.Add(1)
	}
}

// stopTimer stops t and drains a pending expiry, so Reset starts clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// current returns the live ring (nil once excluded).
func (s *Stack) current() *ring.Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// detectorLive reports whether the liveness walk runs. While a membership
// change is forming, the old ring is expected to stall; running the walk
// then would pile false suspicions onto correct processors. The
// membership protocol's own unresponsive-reporting covers that phase. An
// excluded processor (no ring) observes no token activity at all, so the
// walk would only poison its readmission exchange. A leaver's walk is
// equally meaningless: the survivors abandon its ring the moment they
// install the view without it.
func (s *Stack) detectorLive(cur *ring.Ring) bool {
	return cur != nil && !s.mem.Forming() && !s.mem.Leaving()
}

// tick runs every protocol timer; each is a no-op unless due.
func (s *Stack) tick(cur *ring.Ring) {
	if cur != nil {
		cur.Tick()
	}
	if s.detectorLive(cur) {
		s.det.Tick()
	}
	s.mem.Tick()
	s.applyInstalls()
}

// deadline returns the earliest pending protocol deadline, the zero time
// if none. It consults exactly the timers tick runs.
func (s *Stack) deadline(cur *ring.Ring) time.Time {
	next := s.mem.Deadline()
	if cur != nil {
		next = earliest(next, cur.Deadline())
	}
	if s.detectorLive(cur) {
		next = earliest(next, s.det.Deadline())
	}
	return next
}

// earliest returns the earlier of two deadlines, where zero means none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// preverify warms the current ring's signature-verification cache for all
// token frames in a drained batch, fanning the RSA work across bounded
// workers, so the serial dispatch that follows finds every verdict
// memoized. A no-op below LevelSignatures or for fewer than two tokens.
func (s *Stack) preverify(batch []transport.Frame) {
	if s.cfg.Suite.Level < sec.LevelSignatures {
		return
	}
	var toks [][]byte
	for _, f := range batch {
		if k, err := wire.PeekKind(f.Payload); err == nil && k == wire.KindToken {
			toks = append(toks, f.Payload)
		}
	}
	if len(toks) < 2 {
		return
	}
	if cur := s.current(); cur != nil {
		cur.PreverifyTokens(toks)
	}
}

// dispatch routes one frame by wire kind.
func (s *Stack) dispatch(f transport.Frame) {
	kind, err := wire.PeekKind(f.Payload)
	if err != nil {
		return
	}
	cur := s.current()
	switch kind {
	case wire.KindToken:
		if cur != nil {
			cur.HandleToken(f.Payload)
		}
	case wire.KindRegular:
		if cur != nil {
			cur.HandleRegular(f.Payload)
		}
	case wire.KindWake:
		if cur != nil {
			cur.HandleWake(f.From, f.Payload)
		}
	case wire.KindMembership:
		s.mem.HandleMessage(f.Payload)
	case wire.KindFlush:
		s.mem.HandleFlush(f.Payload)
	}
	s.applyInstalls()
}

// sourceAdapter exposes the detector as the membership protocol's suspect
// source.
type sourceAdapter struct{ det *detector.Detector }

var _ membership.SuspectSource = sourceAdapter{}

func (a sourceAdapter) Suspects() []ids.ProcessorID      { return a.det.Suspects() }
func (a sourceAdapter) Suspected(p ids.ProcessorID) bool { return a.det.Suspected(p) }
func (a sourceAdapter) AdoptSuspicion(p ids.ProcessorID, _ string) {
	a.det.AdoptSuspicion(p, detector.ReasonCorroborated)
}
func (a sourceAdapter) Unresponsive(p ids.ProcessorID) { a.det.Unresponsive(p) }

// bridgeAdapter exposes the live ring to the membership protocol's flush
// exchange. All calls occur on the event goroutine.
type bridgeAdapter struct{ s *Stack }

var _ membership.RingBridge = bridgeAdapter{}

func (b bridgeAdapter) cur() *ring.Ring { return b.s.current() }

func (b bridgeAdapter) Delivered() uint64 {
	if r := b.cur(); r != nil {
		return r.Delivered()
	}
	return 0
}

func (b bridgeAdapter) RecoveryDigests(from uint64) []wire.DigestEntry {
	if r := b.cur(); r != nil {
		return r.RecoveryDigests(from)
	}
	return nil
}

func (b bridgeAdapter) RecoveryMessages(from uint64) [][]byte {
	if r := b.cur(); r != nil {
		return r.RecoveryMessages(from)
	}
	return nil
}

func (b bridgeAdapter) AdoptFlushDigests(entries []wire.DigestEntry, from ids.ProcessorID) {
	if r := b.cur(); r != nil {
		r.AdoptFlushDigests(entries, from)
	}
}

func (b bridgeAdapter) HandleRegular(raw []byte) {
	if r := b.cur(); r != nil {
		r.HandleRegular(raw)
	}
}
