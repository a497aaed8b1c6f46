package slurm

import (
	"fmt"
	"math/bits"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/metrics"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// Per-partition metric name prefixes; the partition name is appended
// (chronus.cluster.partition.queue_depth.batch, ...).
const (
	metricPartQueuePrefix  = "chronus.cluster.partition.queue_depth."
	metricPartOccPrefix    = "chronus.cluster.partition.occupancy."
	metricPartEnergyPrefix = "chronus.cluster.partition.energy_kj."
	metricPartDonePrefix   = "chronus.cluster.partition.jobs_completed."
)

// partition is the controller's one scheduling domain: a named pending
// queue with its policy and node pool, stepped under the controller's
// clock. A multi-partition cluster is one controller per partition.
type partition struct {
	name   string
	conf   Partition
	policy SchedulingPolicy
	fifo   bool // policy is FIFO → pending stays ID-ordered, skip sorting
	nodes  []*nodeD
	// classes are the distinct node capability shapes in the pool, the
	// O(1)-per-class feasibility check for submissions.
	classes []hw.NodeSpec
	// freeBits is a bitmap over the node slots (nodeD.idx, p.nodes
	// order, which is construction order): bit set = node idle and
	// undrained. Scanning set bits in slot order reproduces the
	// first-fit placement order of a linear node scan. freeN caches the
	// population count for the "any node idle?" fast checks.
	freeBits []uint64
	freeN    int
	pending  []*Job
	busy     int // running jobs occupying this partition's nodes
	// prios/sorter are orderKeyed's per-pass key buffer and sorter.
	prios  []float64
	sorter prioSorter

	queueGauge  *metrics.Gauge
	occGauge    *metrics.Gauge
	energyGauge *metrics.Gauge
	doneCount   *metrics.Counter

	// wakeArmed/wakeAt are the partition's pending wake (armWake): the
	// earliest instant a queued job asked to be looked at again.
	wakeArmed bool
	wakeAt    time.Time

	// Cluster-policy state (energy.go), maintained only under a policy:
	// the power budget and the modelled draw (idle floor included) with
	// its run peak.
	capW      float64
	drawW     float64
	peakDrawW float64
	// pairable is the pairable-primary index place walks: per primary
	// profile, a bitmap over the freeBits slots (nil unless the policy
	// pairs).
	pairable [2][]uint64
}

// takeIdle claims the lowest-slotted idle node that satisfies the
// request, or nil. The caller must hand the claimed node back through
// refreeNode if the start fails.
func (p *partition) takeIdle(desc *JobDesc) *nodeD {
	for w, word := range p.freeBits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			n := p.nodes[w<<6|b]
			if nodeSatisfies(n, desc) {
				unlistFree(n)
				return n
			}
		}
	}
	return nil
}

// listFree marks the node idle and sets its bit in its partition's
// free bitmap. Callers guard on !n.free, keeping the bitmap and freeN
// exactly in sync with the flag.
func listFree(n *nodeD) {
	n.free = true
	n.part.freeBits[n.idx>>6] |= 1 << uint(n.idx&63)
	n.part.freeN++
}

// unlistFree clears the node's free flag and its bitmap bit. Callers
// guard on n.free.
func unlistFree(n *nodeD) {
	n.free = false
	n.part.freeBits[n.idx>>6] &^= 1 << uint(n.idx&63)
	n.part.freeN--
}

// setPolicy installs a scheduling policy and refreshes the FIFO fast
// path.
func (p *partition) setPolicy(pol SchedulingPolicy) {
	p.policy = pol
	_, p.fifo = pol.(FIFOPolicy)
}

// addNode appends a node to the pool, recording its capability class
// and its bitmap slot.
func (p *partition) addNode(n *nodeD) {
	n.part, n.idx = p, len(p.nodes)
	p.nodes = append(p.nodes, n)
	if len(p.nodes) > len(p.freeBits)*64 {
		p.freeBits = append(p.freeBits, 0)
	}
	spec := n.hw.Spec()
	for _, cl := range p.classes {
		if cl.Cores == spec.Cores && cl.ThreadsPerCore == spec.ThreadsPerCore && cl.RAMGB == spec.RAMGB {
			return
		}
	}
	p.classes = append(p.classes, spec)
}

// ClusterOption configures NewCluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	nodes     []*hw.Node
	policy    SchedulingPolicy
	aggregate bool
	batched   bool
	usageSink func(uid uint32, cpuSeconds float64)
	fallback  Workload
	policies  []SchedPolicy
}

// WithNodes adds nodes to the partition's pool, in first-fit order.
func WithNodes(nodes ...*hw.Node) ClusterOption {
	return func(cfg *clusterConfig) { cfg.nodes = append(cfg.nodes, nodes...) }
}

// WithPolicy sets the partition's scheduling policy (default FIFO).
func WithPolicy(p SchedulingPolicy) ClusterOption {
	return func(cfg *clusterConfig) { cfg.policy = p }
}

// WithAggregateAccounting switches the controller to aggregate-only
// accounting: finished jobs fold into running totals (Accounting's
// Totals) and are retired from memory instead of being kept as
// per-job records — the mode that lets a single run absorb millions
// of submissions without holding them all.
func WithAggregateAccounting() ClusterOption {
	return func(cfg *clusterConfig) { cfg.aggregate = true }
}

// WithBatchedScheduling defers submission-triggered scheduling passes:
// submissions mark a pass due and the driver runs it by calling Flush
// after it has queued everything arriving at the instant. Throughput
// mode for the cluster simulator (drivers that never Flush will stall
// pending jobs); the default remains synchronous scheduling, where a
// Submit can return an already-running job.
func WithBatchedScheduling() ClusterOption {
	return func(cfg *clusterConfig) { cfg.batched = true }
}

// WithUsageSink observes every fair-share usage increment the moment
// accounting applies it. The parallel partition lanes use it to
// replicate usage deltas into sibling lane controllers at window
// barriers (AddUsage).
func WithUsageSink(fn func(uid uint32, cpuSeconds float64)) ClusterOption {
	return func(cfg *clusterConfig) { cfg.usageSink = fn }
}

// WithFallbackWorkload sets the workload used for unknown binaries.
func WithFallbackWorkload(w Workload) ClusterOption {
	return func(cfg *clusterConfig) { cfg.fallback = w }
}

// WithSchedPolicies attaches cluster energy policies (PowerCapPolicy,
// CoSchedulePolicy, DeferralPolicy) at construction. The policy layer
// activates only through this option; without it the dispatch path is
// unchanged.
func WithSchedPolicies(ps ...SchedPolicy) ClusterOption {
	return func(cfg *clusterConfig) { cfg.policies = append(cfg.policies, ps...) }
}

// NewCluster builds a controller over the configuration's partition
// and the nodes WithNodes gives it. Submit plugins named in
// conf.JobSubmitPlugins must be registered with RegisterPlugin before
// the first submission.
func NewCluster(sim *simclock.Sim, conf Conf, opts ...ClusterOption) (*Controller, error) {
	var cfg clusterConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if conf.Partition.Name == "" {
		return nil, fmt.Errorf("slurm: configuration has no partition")
	}
	if len(cfg.nodes) == 0 {
		return nil, fmt.Errorf("slurm: controller needs at least one node")
	}

	c := &Controller{
		sim:       sim,
		conf:      conf,
		part:      &partition{name: conf.Partition.Name, conf: conf.Partition},
		nextID:    1,
		workloads: make(map[string]Workload),
		fallback:  workload.Sleep("unknown", time.Minute),
		acct:      &Accounting{aggregateOnly: cfg.aggregate},
		userSlots: make(map[uint32]int32),
		usageSink: cfg.usageSink,
		aggregate: cfg.aggregate,
		batched:   cfg.batched,
	}
	c.compAct.c = c
	c.flushAct.c = c
	c.wakeAct.c = c
	if cfg.policy == nil {
		cfg.policy = FIFOPolicy{}
	}
	c.part.setPolicy(cfg.policy)
	if cfg.fallback != nil {
		c.fallback = cfg.fallback
	}

	seen := make(map[string]bool, len(cfg.nodes))
	for _, n := range cfg.nodes {
		name := n.Spec().Name
		if seen[name] {
			return nil, fmt.Errorf("slurm: duplicate node name %q", name)
		}
		seen[name] = true
		nd := &nodeD{name: name, hw: n, spec: n.Spec()}
		c.part.addNode(nd)
		listFree(nd)
	}

	var err error
	if c.pol, err = newSchedPolicy(c, cfg.policies); err != nil {
		return nil, err
	}
	return c, nil
}
