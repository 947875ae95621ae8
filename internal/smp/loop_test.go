package smp

import (
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/netsim"
	"immune/internal/sec"
	"immune/internal/wire"
)

// TestIdleStackWakeupsBounded: an idle ring costs a bounded number of
// event-loop wake-ups — one per token frame seen plus one per idle-hold
// expiry — and never spins. A deadline that Tick leaves in the past (a
// liveness walk ending at this processor, an expired flush barrier) would
// wake the loop continuously and blow far past the bound.
func TestIdleStackWakeupsBounded(t *testing.T) {
	c := newTestCluster(t, 6, sec.LevelDigests, netsim.Config{})
	c.start()
	defer c.stop()

	time.Sleep(200 * time.Millisecond) // let the rotation settle into idle pacing
	before := make([]uint64, len(c.stacks))
	for i, s := range c.stacks {
		before[i] = s.stack.wakeups.Load()
	}
	const window = time.Second
	start := time.Now()
	time.Sleep(window)
	elapsed := time.Since(start)

	// The test cluster's 2ms token timeout parks an idle token for 1ms per
	// hop, so each stack sees roughly 150 rotations/s: ~750 token frames
	// and ~150 hold expiries. A spinning loop makes hundreds of thousands.
	const maxPerSecond = 2500
	for i, s := range c.stacks {
		rate := float64(s.stack.wakeups.Load()-before[i]) / elapsed.Seconds()
		t.Logf("P%d: %.0f wake-ups/s", s.id, rate)
		if rate > maxPerSecond {
			t.Errorf("P%d: %.0f loop wake-ups/s on an idle ring, want <= %d", s.id, rate, maxPerSecond)
		}
		if rate == 0 {
			t.Errorf("P%d: loop never woke; the idle rotation stalled", s.id)
		}
	}
	if got := c.stacks[0].stack.Installs(); got != 0 {
		t.Fatalf("idle ring reconfigured %d times", got)
	}
}

// TestValueFaultSuspectKicksLoop: a Value Fault Suspect notification comes
// from the Replication Manager's goroutine, not from a frame or a timer.
// It must wake the event loop so the membership protocol starts excluding
// the suspect at once. Only P2 runs a stack here; its peers are bare
// endpoints, so no frame ever arrives, and every protocol timer is minutes
// away — without the kick nothing would happen.
func TestValueFaultSuspectKicksLoop(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	defer nw.Close()
	members := []ids.ProcessorID{1, 2, 3, 4}
	var peer *netsim.Endpoint
	for _, p := range members {
		if p == 2 {
			continue
		}
		ep, err := nw.Attach(p)
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			peer = ep
		}
	}
	ep, err := nw.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sec.NewSuite(sec.LevelDigests, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(Config{
		Self:           2,
		Members:        members,
		Suite:          suite,
		Endpoint:       ep,
		TokenTimeout:   time.Minute,
		SuspectTimeout: time.Minute,
		Deliver:        func(Delivery) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	defer st.Stop()

	// P2 is neither the token starter nor the announcer: it sends nothing
	// until it has a reason to.
	time.Sleep(50 * time.Millisecond)
	for {
		f, ok := peer.TryRecv()
		if !ok {
			break
		}
		t.Fatalf("P2 sent %v before any suspicion", kindOf(f.Payload))
	}

	go st.ValueFaultSuspect(3)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		f, ok := peer.TryRecv()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if kindOf(f.Payload) != wire.KindMembership {
			continue
		}
		m, err := wire.UnmarshalMembership(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.MembershipPropose {
			continue
		}
		for _, p := range m.Members {
			if p == 3 {
				t.Fatalf("proposal %v still includes the suspect", m.Members)
			}
		}
		return
	}
	t.Fatal("ValueFaultSuspect never started a membership change")
}

func kindOf(payload []byte) wire.Kind {
	k, _ := wire.PeekKind(payload)
	return k
}
