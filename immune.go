// Package immune is a Go reproduction of the Immune system (P. Narasimhan,
// K. P. Kihlstrom, L. E. Moser, P. M. Melliar-Smith: "Providing Support
// for Survivable CORBA Applications with the Immune System", ICDCS 1999).
//
// The Immune system makes CORBA applications survivable: they continue to
// operate despite malicious attacks, accidents, or faults. Every object —
// client and server alike — is actively replicated over an object group,
// majority voting is applied to all invocations and responses, and the
// underlying Secure Multicast Protocols (a signed token ring with a
// processor membership protocol and a Byzantine fault detector) provide
// secure reliable totally ordered message delivery even when processors
// are corrupted.
//
// A minimal survivable deployment:
//
//	sys, err := immune.New(immune.Config{Processors: 6})
//	// handle err
//	sys.Start()
//	defer sys.Stop()
//
//	// Three-way replicated server on processors 1..3.
//	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
//		p, _ := sys.Processor(pid)
//		replica, _ := p.HostServer(serverGroup, "Account/main", newAccountServant())
//		replica.WaitActive(5 * time.Second)
//	}
//
//	// Three-way replicated client on processors 4..6; each client
//	// replica runs the same deterministic code.
//	p, _ := sys.Processor(4)
//	client, _ := p.NewClient(clientGroup)
//	client.Bind("Account/main", serverGroup)
//	obj := client.Object("Account/main")
//	reply, err := obj.Invoke("deposit", args) // majority-voted
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package immune

import (
	"fmt"
	"time"

	"immune/internal/core"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/interceptor"
	"immune/internal/membership"
	"immune/internal/netsim"
	"immune/internal/obs"
	"immune/internal/orb"
	"immune/internal/recovery"
	"immune/internal/replication"
	"immune/internal/ring"
	"immune/internal/sec"
	"immune/internal/transport"
)

// Identifier types (see the paper's system model, §3 and §5.1).
type (
	// ProcessorID identifies one simulated processor.
	ProcessorID = ids.ProcessorID
	// GroupID identifies an object group (one actively replicated
	// object). GroupID 0 is reserved for the base group.
	GroupID = ids.ObjectGroupID
	// ReplicaID identifies one member (replica) of an object group.
	ReplicaID = ids.ReplicaID
)

// Servant is the contract for replicated object implementations: a
// deterministic Invoke plus state snapshot/restore for replica
// reallocation. See orb.Servant for the full documentation.
type Servant = orb.Servant

// Level selects the survivability level, matching the paper's evaluation
// cases (Figure 7).
type Level = sec.Level

// Survivability levels.
const (
	// LevelNone: active replication over reliable totally ordered
	// multicast, no digests or signatures (case 2).
	LevelNone = sec.LevelNone
	// LevelDigests: + message digests in the token (case 3).
	LevelDigests = sec.LevelDigests
	// LevelSignatures: + digitally signed tokens (case 4, the full
	// Immune system).
	LevelSignatures = sec.LevelSignatures
)

// CDR marshaling helpers for servant arguments and results.
type (
	// Encoder marshals CDR values (CORBA's Common Data Representation).
	Encoder = iiop.Encoder
	// Decoder unmarshals CDR values.
	Decoder = iiop.Decoder
)

// NewEncoder returns an empty CDR encoder.
func NewEncoder() *Encoder { return iiop.NewEncoder() }

// NewDecoder returns a CDR decoder over data.
func NewDecoder(data []byte) *Decoder { return iiop.NewDecoder(data) }

// MembershipInstall describes one installed processor membership.
type MembershipInstall = membership.Install

// RingStats are the token-ring protocol counters of one processor.
type RingStats = ring.Stats

// ManagerStats are the Replication Manager counters of one processor.
type ManagerStats = replication.Stats

// NetStats are the simulated network counters.
type NetStats = netsim.Stats

// Observability types (see internal/obs). The system-wide registry
// aggregates counters and latency histograms from every protocol layer;
// MetricsSnapshot is a point-in-time copy suitable for diffing or text
// dumping via its String method.
type (
	// MetricsRegistry is the system-wide metric registry.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every metric.
	MetricsSnapshot = obs.Snapshot
	// TraceStage is one timestamped stage of an invocation's life cycle
	// (interception → multicast → ordering → voting → reply).
	TraceStage = obs.Stage
)

// FaultPlan injects network-level faults (message loss, corruption,
// duplication, delay) for survivability experiments. See netsim.FaultPlan.
type FaultPlan = netsim.FaultPlan

// Transport seam types (see internal/transport): the endpoint contract a
// processor's protocol stack runs over. The built-in simulated LAN is the
// default backend; a real-socket mesh (internal/transport/tcpmesh, used
// by cmd/immune-node) lets N OS processes form a genuine ring.
type (
	// TransportEndpoint is one processor's attachment to the network.
	TransportEndpoint = transport.Endpoint
	// TransportFrame is one received network-level datagram.
	TransportFrame = transport.Frame
)

// Config parameterizes an Immune system deployment.
type Config struct {
	// Processors is the number of simulated processors (the paper's
	// testbed used six). A system of n processors tolerates
	// ⌊(n−1)/3⌋ faulty ones.
	Processors int
	// Rings shards object groups across this many independent token
	// rings per processor (multi-ring sharding): each group's total
	// order lives on its home ring, chosen by a consistent hash of the
	// group id (RingOf), and invocations crossing rings are forwarded
	// transparently. Aggregate throughput scales with the ring count
	// while per-group ordering guarantees are unchanged. Zero or one
	// means a single ring (legacy behavior and metric names); higher
	// counts prefix each ring's protocol metrics with "rN.".
	Rings int
	// Level is the survivability level; zero means LevelSignatures.
	Level Level
	// ModulusBits is the RSA modulus size; zero means the paper's 300.
	ModulusBits int
	// TokenBatch is the number j of multicast messages per token visit,
	// over which one token signature is amortized; zero means 6 (§8).
	TokenBatch int
	// Seed makes key generation and fault injection reproducible.
	Seed uint64
	// NetLatency/NetJitter shape the simulated LAN.
	NetLatency time.Duration
	NetJitter  time.Duration
	// Plan optionally injects network faults.
	Plan FaultPlan
	// CallTimeout bounds replicated two-way invocations; zero means 10s.
	CallTimeout time.Duration
	// InvokeRetries is how many times a timed-out two-way invocation is
	// re-sent within its deadline. Re-sends are safe: voters detect the
	// duplicate invocation identifier and discard it. Zero means none.
	InvokeRetries int
	// AutoRecover enables the recovery manager: object groups hosted via
	// HostGroup are re-hosted automatically when processor exclusions
	// drop them below their configured replication degree (§3.1).
	AutoRecover bool
	// RecoveryBackoff is the base retry backoff after a failed recovery
	// placement (capped exponential with jitter); zero means 50ms.
	RecoveryBackoff time.Duration
	// SuspectTimeout is the Byzantine fault detector's liveness timeout;
	// zero means 50ms.
	SuspectTimeout time.Duration
	// StrikeThreshold is how many weakly attributable offenses (invalid
	// tokens, digest-mismatched messages) a processor may accumulate
	// before the Byzantine fault detector suspects it; zero means 3.
	// Deployments on lossy links raise it so sustained wire corruption —
	// a link property — is not mistaken for processor misbehaviour.
	StrikeThreshold int
	// CryptoWorkFactor repeats every signature generation/verification
	// to emulate the paper's 167 MHz testbed, where a 300-bit RSA
	// signature cost milliseconds; ~100 restores the 1999 ratio of
	// crypto to protocol cost. Zero means 1 (modern hardware).
	CryptoWorkFactor int
	// MaxSubmitQueue caps each processor's multicast submit queue; past
	// it submissions fail fast with ErrOverloaded instead of growing
	// memory without bound. Zero means a default of 4096; negative
	// unbounded.
	MaxSubmitQueue int
	// MaxUnstable caps how far a processor's originations may run ahead
	// of the stable (everywhere-received) sequence, bounding the
	// retransmission buffer. Zero means a default of 1024; negative
	// unbounded.
	MaxUnstable int
	// MaxInFlight caps concurrent two-way invocations per client
	// replica; past it Invoke fails fast with ErrOverloaded. Zero means
	// a default of 4096; negative unbounded.
	MaxInFlight int
	// MaxBacklog caps the voted invocations buffered for a replica that
	// is still joining; the oldest entries are shed first. Zero means a
	// default of 1024; negative unbounded.
	MaxBacklog int
	// BacklogTTL expires buffered invocations by age. Zero means 30s;
	// negative disables expiry.
	BacklogTTL time.Duration
	// Transport optionally supplies each hosted processor's network
	// endpoints, replacing the built-in simulated LAN with a real-socket
	// backend. It is called once per (processor, ring) pair — a sharded
	// deployment runs one mesh per ring (ring is always 0 when Rings
	// <= 1). When set, the netsim knobs (NetLatency, NetJitter, Plan)
	// and CrashProcessor do not apply, and Stop closes the endpoints.
	Transport func(p ProcessorID, ring int) (TransportEndpoint, error)
	// LocalProcessors restricts which of the 1..Processors identifiers
	// this OS process hosts (multi-process deployments run one per
	// process while the ring membership stays 1..Processors). Empty
	// means all; non-empty requires Transport.
	LocalProcessors []ProcessorID
	// OnMembershipChange observes processor membership installs.
	OnMembershipChange func(self ProcessorID, inst MembershipInstall)
	// DisableMetrics turns the observability layer off. By default every
	// system carries a metric registry and invocation tracer; disabled,
	// all hooks are nil no-ops with zero hot-path allocations.
	DisableMetrics bool
}

// System is a running Immune deployment.
type System struct {
	inner *core.System
}

// New builds an Immune system. Call Start to launch it.
func New(cfg Config) (*System, error) {
	inner, err := core.NewSystem(core.Config{
		Processors:         cfg.Processors,
		RingCount:          cfg.Rings,
		Level:              cfg.Level,
		ModulusBits:        cfg.ModulusBits,
		MaxPerVisit:        cfg.TokenBatch,
		Seed:               cfg.Seed,
		NetLatency:         cfg.NetLatency,
		NetJitter:          cfg.NetJitter,
		Plan:               cfg.Plan,
		CallTimeout:        cfg.CallTimeout,
		InvokeRetries:      cfg.InvokeRetries,
		AutoRecover:        cfg.AutoRecover,
		RecoveryBackoff:    cfg.RecoveryBackoff,
		SuspectTimeout:     cfg.SuspectTimeout,
		StrikeThreshold:    cfg.StrikeThreshold,
		CryptoWorkFactor:   cfg.CryptoWorkFactor,
		MaxSubmitQueue:     cfg.MaxSubmitQueue,
		MaxUnstable:        cfg.MaxUnstable,
		MaxInFlight:        cfg.MaxInFlight,
		MaxBacklog:         cfg.MaxBacklog,
		BacklogTTL:         cfg.BacklogTTL,
		Transport:          cfg.Transport,
		LocalProcessors:    cfg.LocalProcessors,
		OnMembershipChange: cfg.OnMembershipChange,
		DisableMetrics:     cfg.DisableMetrics,
	})
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// Start launches all processors' protocol stacks.
func (s *System) Start() { s.inner.Start() }

// Stop shuts the system down and waits for all goroutines.
func (s *System) Stop() { s.inner.Stop() }

// Processor returns the processor with the given identifier (1..n).
func (s *System) Processor(id ProcessorID) (*Processor, error) {
	p, err := s.inner.Processor(id)
	if err != nil {
		return nil, err
	}
	return &Processor{inner: p}, nil
}

// Processors lists all processor identifiers.
func (s *System) Processors() []ProcessorID { return s.inner.Processors() }

// Rings returns the number of token rings groups are sharded over.
func (s *System) Rings() int { return s.inner.RingCount() }

// RingOf returns the home ring of an object group in this system.
func (s *System) RingOf(g GroupID) int { return s.inner.RingOf(g) }

// MaxFaulty returns ⌊(n−1)/3⌋, the number of faulty processors tolerated.
func (s *System) MaxFaulty() int { return s.inner.MaxFaulty() }

// CrashProcessor drops a processor off the simulated LAN (Table 1:
// processor crash). The survivors detect, exclude, and continue.
func (s *System) CrashProcessor(id ProcessorID) { s.inner.CrashProcessor(id) }

// ReattachProcessor reverses CrashProcessor at the network level.
func (s *System) ReattachProcessor(id ProcessorID) { s.inner.ReattachProcessor(id) }

// NetStats returns simulated network counters.
func (s *System) NetStats() NetStats { return s.inner.NetStats() }

// Metrics returns the system-wide metric registry, or nil when
// Config.DisableMetrics is set.
func (s *System) Metrics() *MetricsRegistry { return s.inner.Metrics() }

// Snapshot returns a point-in-time copy of every registered metric:
// per-layer counters (ring, voting, replication, recovery, membership,
// network) and per-stage invocation latency histograms. Empty when
// metrics are disabled.
func (s *System) Snapshot() MetricsSnapshot { return s.inner.Snapshot() }

// HostGroup hosts a server object group at the given replication degree:
// one replica per processor (§3.1), created by factory on each host. With
// no explicit hosts the first degree processors are used. Unlike
// per-processor HostServer, the group's spec is recorded, so under
// Config.AutoRecover replicas lost to processor exclusions are re-hosted
// automatically — the replacement receives its state via majority-voted
// state transfer from the surviving replicas, not from the factory.
func (s *System) HostGroup(g GroupID, objectKey string, degree int,
	factory func() Servant, on ...ProcessorID) ([]*Replica, error) {
	handles, err := s.inner.HostGroup(g, objectKey, degree, factory, on...)
	if err != nil {
		return nil, err
	}
	replicas := make([]*Replica, len(handles))
	for i, h := range handles {
		replicas[i] = &Replica{h: h}
	}
	return replicas, nil
}

// Health snapshots the processor membership, per-group degree accounting
// (degraded/critical flags against the ⌈(r+1)/2⌉ threshold of §3.1), and
// the recovery event history, newest first.
func (s *System) Health() Health { return s.inner.Health() }

// WaitGroupActive blocks until group g has at least want active replicas
// or the timeout expires.
func (s *System) WaitGroupActive(g GroupID, want int, timeout time.Duration) error {
	return s.inner.WaitGroupActive(g, want, timeout)
}

// AddProcessor adds a processor to the running system without stopping
// it: the identifier's keys are derived from the shared seed, its
// stacks start outside every ring's membership, the live members admit
// it through the membership protocol, and its directories catch up from
// a continuing member's dump. A previously drained processor is
// re-admitted in place. Blocks until the processor is a full member on
// every ring or the timeout (0 means a 30s default) expires.
func (s *System) AddProcessor(id ProcessorID, timeout time.Duration) error {
	return s.inner.AddProcessor(id, timeout)
}

// DrainProcessor withdraws a processor for maintenance without tripping
// fault detectors: no new replicas are placed on it, its hosted
// replicas migrate away (add-before-remove with majority-voted state
// transfer for groups hosted via HostGroup; quorum-fenced excision
// otherwise), and it then leaves each ring's membership voluntarily.
// The drain aborts if a replica can neither migrate nor safely leave.
func (s *System) DrainProcessor(id ProcessorID, timeout time.Duration) error {
	return s.inner.DrainProcessor(id, timeout)
}

// ResizeGroup changes a HostGroup-hosted group's replication degree
// while invocations keep flowing. Growth rides the majority-voted state
// transfer; a shrink is rejected if the new degree would dip below the
// live replicas' voting quorum (⌈(live+1)/2⌉) or the group is degraded.
func (s *System) ResizeGroup(g GroupID, degree int, timeout time.Duration) error {
	return s.inner.ResizeGroup(g, degree, timeout)
}

// Drain gracefully withdraws every processor this OS process hosts:
// local replicas are excised and each local stack leaves its ring's
// membership voluntarily, so peer processes excise this one without
// suspicion strikes. Call Stop afterwards. This is the multi-process
// (cmd/immune-node) counterpart of DrainProcessor.
func (s *System) Drain(timeout time.Duration) error {
	return s.inner.DrainLocal(timeout)
}

// Health reporting types (see internal/recovery).
type (
	// Health is a point-in-time snapshot of system survivability.
	Health = recovery.Health
	// GroupHealth is the per-object-group slice of a Health snapshot.
	GroupHealth = recovery.GroupHealth
	// RecoveryEvent is one entry in the recovery event history.
	RecoveryEvent = recovery.Event
	// RecoveryEventKind classifies a RecoveryEvent.
	RecoveryEventKind = recovery.EventKind
)

// Recovery event kinds.
const (
	// EventDegraded: a group dropped below its configured degree.
	EventDegraded = recovery.EventDegraded
	// EventCritical: live replicas fell below ⌈(r+1)/2⌉ — majority
	// voting can no longer mask a value fault (§3.1).
	EventCritical = recovery.EventCritical
	// EventPlacementStarted: a replacement replica is being placed.
	EventPlacementStarted = recovery.EventPlacementStarted
	// EventPlacementFailed: a placement attempt failed; it will be
	// retried with backoff on another processor.
	EventPlacementFailed = recovery.EventPlacementFailed
	// EventReplicaRestored: a replacement activated with transferred
	// state.
	EventReplicaRestored = recovery.EventReplicaRestored
	// EventRecovered: the group is back at full configured degree.
	EventRecovered = recovery.EventRecovered
)

// Typed invocation failures, matchable with errors.Is through the public
// Object API.
var (
	// ErrTimeout: the invocation deadline expired with the group at
	// healthy strength — likely transient.
	ErrTimeout = replication.ErrTimeout
	// ErrNotActive: the local replica is not (yet, or no longer) an
	// admitted group member.
	ErrNotActive = replication.ErrNotActive
	// ErrQuorumLost: the local processor was excluded from the
	// membership, or the target group has no members.
	ErrQuorumLost = replication.ErrQuorumLost
	// ErrGroupDegraded: the target group's live membership is below
	// ⌈(r+1)/2⌉ of its high-water degree — a voted reply cannot be
	// formed until recovery restores it (§3.1).
	ErrGroupDegraded = replication.ErrGroupDegraded
	// ErrOverloaded: an admission bound shed the invocation before any
	// copy entered the total order — the client replica's in-flight cap
	// (Config.MaxInFlight) or the processor's bounded submit queue
	// (Config.MaxSubmitQueue). Retrying after backing off is safe and is
	// the intended reaction.
	ErrOverloaded = replication.ErrOverloaded
)

// MaxFaultyProcessors returns the fault budget for an n-processor system
// without building one.
func MaxFaultyProcessors(n int) int { return core.MaxFaulty(n) }

// MinCorrectReplicas returns ⌈(r+1)/2⌉, the correct-replica requirement
// for a group of degree r (§3.1).
func MinCorrectReplicas(r int) int { return core.MinCorrectReplicas(r) }

// RingOf returns the home ring a group id maps to in a system sharded
// over rings token rings (consistent hashing; deterministic across
// processes). Useful for choosing group ids that spread load evenly.
func RingOf(g GroupID, rings int) int { return core.RingOf(g, rings) }

// Processor is one simulated host.
type Processor struct {
	inner *core.Processor
}

// ID returns the processor identifier.
func (p *Processor) ID() ProcessorID { return p.inner.ID() }

// View returns the processor's installed membership.
func (p *Processor) View() MembershipInstall { return p.inner.View() }

// Suspects returns the processor's Byzantine fault detector output.
func (p *Processor) Suspects() []ProcessorID { return p.inner.Suspects() }

// RingStats returns the processor's token-ring counters.
func (p *Processor) RingStats() RingStats { return p.inner.RingStats() }

// QueuedSubmissions returns the depth of the processor's multicast
// submit queue (pending originations), bounded by Config.MaxSubmitQueue.
func (p *Processor) QueuedSubmissions() int { return p.inner.QueuedSubmissions() }

// ManagerStats returns the processor's Replication Manager counters.
func (p *Processor) ManagerStats() ManagerStats { return p.inner.ManagerStats() }

// GroupMembers reports an object group's membership as seen here.
func (p *Processor) GroupMembers(g GroupID) []ReplicaID { return p.inner.GroupMembers(g) }

// HostServer starts a local server replica of group g. The servant must be
// deterministic; objectKey is the CORBA object key clients use.
func (p *Processor) HostServer(g GroupID, objectKey string, servant Servant) (*Replica, error) {
	h, err := p.inner.HostServer(g, objectKey, servant)
	if err != nil {
		return nil, err
	}
	return &Replica{h: h}, nil
}

// NewClient hosts a local client replica of clientGroup and returns a
// Client whose object references issue replicated, majority-voted
// invocations through the Immune interceptor.
func (p *Processor) NewClient(clientGroup GroupID) (*Client, error) {
	o, ic, h, err := p.inner.ClientORB(clientGroup)
	if err != nil {
		return nil, err
	}
	return &Client{orb: o, ic: ic, replica: &Replica{h: h}}, nil
}

// Replica is the application handle on one local replica.
type Replica struct {
	h *replication.Handle
}

// ID returns the replica identity.
func (r *Replica) ID() ReplicaID { return r.h.Replica() }

// Active reports whether the replica has been admitted to its group.
func (r *Replica) Active() bool { return r.h.Active() }

// WaitActive blocks until the replica activates or the timeout expires.
func (r *Replica) WaitActive(timeout time.Duration) error { return r.h.WaitActive(timeout) }

// Leave withdraws the replica from its object group (planned maintenance,
// as opposed to fault-driven exclusion). The group's degree drops and
// voting thresholds adjust at every Replication Manager consistently.
func (r *Replica) Leave() error { return r.h.Leave() }

// Client is a replicated CORBA client: an ORB whose transport is the
// Immune interceptor plus the local client replica identity.
type Client struct {
	orb     *orb.ORB
	ic      *interceptor.Interceptor
	replica *Replica
}

// Replica returns the client's local replica handle.
func (c *Client) Replica() *Replica { return c.replica }

// Bind maps a CORBA object key to the server group implementing it.
func (c *Client) Bind(objectKey string, g GroupID) { c.ic.Bind(objectKey, g) }

// Object returns an object reference (stub) for a bound object key.
func (c *Client) Object(objectKey string) *Object {
	return &Object{ref: c.orb.ObjRef(objectKey)}
}

// Object is a client-side object reference whose invocations are
// replicated and majority-voted.
type Object struct {
	ref *orb.ObjRef
}

// Key returns the referenced object key.
func (o *Object) Key() string { return o.ref.Key() }

// Invoke performs a replicated two-way invocation: op with CDR-encoded
// args, returning the majority-voted CDR-encoded result.
func (o *Object) Invoke(op string, args []byte) ([]byte, error) {
	return o.ref.Invoke(op, args)
}

// InvokeDeadline is Invoke with an explicit per-call deadline: the
// Replication Manager splits the remaining time across the configured
// retries and gives up when the deadline expires. A zero deadline means
// now+CallTimeout.
func (o *Object) InvokeDeadline(op string, args []byte, deadline time.Time) ([]byte, error) {
	return o.ref.InvokeDeadline(op, args, deadline)
}

// InvokeOneWay performs a replicated one-way invocation (no reply).
func (o *Object) InvokeOneWay(op string, args []byte) error {
	return o.ref.InvokeOneWay(op, args)
}

// InvocationError is the CORBA-exception error returned by Invoke.
type InvocationError = orb.InvocationError

// Probabilistic builds a seeded random fault plan (loss, corruption,
// duplication probabilities and a delay bound) for experiments.
func Probabilistic(seed uint64, loss, corrupt, dup float64, maxDelay time.Duration) FaultPlan {
	return netsim.NewProbabilistic(seed, loss, corrupt, dup, maxDelay)
}

// Validate reports configuration problems a survivable deployment should
// not have: too few processors for any fault tolerance, or a replication
// degree the processor count cannot host (one replica per processor).
func Validate(processors int, replicationDegree int) error {
	if processors < 4 {
		return fmt.Errorf("immune: %d processors tolerate no Byzantine fault (need ≥ 4)", processors)
	}
	if replicationDegree > processors {
		return fmt.Errorf("immune: degree %d exceeds %d processors (one replica per processor, §3.1)",
			replicationDegree, processors)
	}
	if replicationDegree < 3 {
		return fmt.Errorf("immune: degree %d cannot outvote a value fault (need ≥ 3)", replicationDegree)
	}
	return nil
}
