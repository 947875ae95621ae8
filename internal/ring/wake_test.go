package ring

import (
	"sync"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/netsim"
	"immune/internal/sec"
	"immune/internal/wire"
)

// withIdleDelay turns idle pacing on for a test cluster.
func withIdleDelay(d time.Duration) func(*Config) {
	return func(c *Config) { c.IdleDelay = d }
}

// tokenWatch is a netsim fault plan that watches the ring from the wire:
// it records which member the latest token frame is addressed to and
// counts wake frames, dropping them if asked.
type tokenWatch struct {
	n         int // ring size; members are 1..n
	dropWakes bool

	mu        sync.Mutex
	addressee ids.ProcessorID
	wakes     int
}

func (w *tokenWatch) Judge(f netsim.Frame, _ ids.ProcessorID) (netsim.Verdict, time.Duration) {
	k, _ := wire.PeekKind(f.Payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	switch k {
	case wire.KindToken:
		w.addressee = f.From%ids.ProcessorID(w.n) + 1
	case wire.KindWake:
		w.wakes++
		if w.dropWakes {
			return netsim.Drop, 0
		}
	}
	return netsim.Deliver, 0
}

// awayFromToken returns the index of the node two hops after the member
// the token was last sent to: a submitter whose own hold is not the next.
func (w *tokenWatch) awayFromToken() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return (int(w.addressee) + 1) % w.n
}

func (w *tokenWatch) wakeFrames() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wakes
}

// submitAndWait submits one payload at node i and returns how long the
// whole cluster took to deliver it (want is the delivery count expected
// afterwards), failing the test after timeout.
func (c *cluster) submitAndWait(i, want int, timeout time.Duration) time.Duration {
	c.t.Helper()
	start := time.Now()
	if err := c.nodes[i].ring.Submit([]byte{byte(want)}); err != nil {
		c.t.Fatal(err)
	}
	if !c.waitDelivered(want, timeout) {
		c.t.Fatalf("submission %d at %s not delivered within %v", want, c.nodes[i].id, timeout)
	}
	return time.Since(start)
}

// TestRemoteSubmitPassesParkedToken: on an idle ring every holder parks
// the token for IdleDelay, so without the wake hint a submission waits
// for the parked hold plus one more hold per idle member on the way. The
// submitter sees the idle token in flight, multicasts a wake, and the
// token comes to it unpaced — well inside a single hold.
func TestRemoteSubmitPassesParkedToken(t *testing.T) {
	const hold = 300 * time.Millisecond
	watch := &tokenWatch{n: 4}
	c := newCluster(t, 4, sec.LevelDigests, netsim.Config{Plan: watch}, withIdleDelay(hold))
	c.start()
	defer c.stop()

	// Let the token make a paced hop so every node has seen it.
	time.Sleep(hold + hold/2)
	for k := 1; k <= 3; k++ {
		i := watch.awayFromToken()
		if took := c.submitAndWait(i, k, 10*time.Second); took >= hold/2 {
			t.Fatalf("submission %d at %s took %v; the parked token was not brought over (hold %v)",
				k, c.nodes[i].id, took, hold)
		}
		time.Sleep(hold + hold/2) // the ring goes idle again
	}
	if watch.wakeFrames() == 0 {
		t.Fatal("no wake hint was sent")
	}
	c.checkAgreement()
}

// TestDroppedWakeFallsBackToPacing: a wake is only a hint. With every wake
// frame lost, the rotation stays paced and the submission is still
// ordered within a few holds — never stalled.
func TestDroppedWakeFallsBackToPacing(t *testing.T) {
	const hold = 20 * time.Millisecond
	watch := &tokenWatch{n: 4, dropWakes: true}
	c := newCluster(t, 4, sec.LevelDigests, netsim.Config{Plan: watch}, withIdleDelay(hold))
	c.start()
	defer c.stop()

	time.Sleep(3 * hold)
	for k := 1; k <= 3; k++ {
		c.submitAndWait(watch.awayFromToken(), k, 10*time.Second)
		time.Sleep(3 * hold)
	}
	if watch.wakeFrames() == 0 {
		t.Fatal("no wake hint was sent, so none was dropped: the test exercised nothing")
	}
	c.checkAgreement()
}

// TestWakeHonouredOnlyFromMembers: a wake releases a parked token only if
// its sender is a member of the ring it names.
func TestWakeHonouredOnlyFromMembers(t *testing.T) {
	suite, err := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sent []wire.Kind
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1, 2, 3}, Ring: 1,
		Suite: suite, IdleDelay: time.Hour,
		Trans: transportFunc(func(p []byte) {
			k, _ := wire.PeekKind(p)
			sent = append(sent, k)
		}),
		Deliver: func(*wire.Regular) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Kickstart()
	if r.parked == nil || len(sent) != 0 {
		t.Fatalf("idle starter did not park the token (sent %v)", sent)
	}
	r.HandleWake(9, (&wire.Wake{Ring: 1}).Marshal()) // not a member
	r.HandleWake(2, (&wire.Wake{Ring: 7}).Marshal()) // another ring
	r.HandleWake(2, []byte{byte(wire.KindWake), 1})  // malformed
	r.HandleWake(1, (&wire.Wake{Ring: 1}).Marshal()) // ourselves
	if r.parked == nil || len(sent) != 0 {
		t.Fatalf("token released by an invalid wake (sent %v)", sent)
	}
	r.HandleWake(2, (&wire.Wake{Ring: 1}).Marshal())
	if r.parked != nil || len(sent) != 1 || sent[0] != wire.KindToken {
		t.Fatalf("member's wake did not pass the parked token (sent %v)", sent)
	}
}

// TestParkedTokenDeadline: an idle hold is a deadline, not a sleep. Tick
// passes the token once the hold expires or a local submission waits,
// and Deadline then moves on to the resend timer, extended by the hold
// the successor is predicted to take.
func TestParkedTokenDeadline(t *testing.T) {
	suite, err := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(100, 0)
	sent := 0
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1, 2, 3}, Ring: 1,
		Suite: suite, IdleDelay: time.Millisecond, TokenTimeout: 2 * time.Millisecond,
		Trans:   transportFunc(func([]byte) { sent++ }),
		Deliver: func(*wire.Regular) {},
		Now:     func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Kickstart()
	if got, want := r.Deadline(), now.Add(time.Millisecond); !got.Equal(want) {
		t.Fatalf("parked deadline %v, want %v", got, want)
	}
	r.Tick()
	if sent != 0 {
		t.Fatal("token passed before the hold expired")
	}
	now = now.Add(time.Millisecond)
	r.Tick()
	if sent != 1 || r.parked != nil {
		t.Fatalf("expired hold not released (sent %d)", sent)
	}
	if got, want := r.Deadline(), now.Add(3*time.Millisecond); !got.Equal(want) {
		t.Fatalf("resend deadline %v, want %v (timeout + predicted hold)", got, want)
	}
	select {
	case <-r.SubmitNotify():
		t.Fatal("SubmitNotify armed while nothing is parked")
	default:
	}
}
